"""Internal-ratings parameterization and the pluggable weight function."""

from __future__ import annotations

import textwrap
from fractions import Fraction

import pytest

from regcap import (
    CapitalBase,
    CounterpartyClass,
    CreditApproach,
    DuplicateFunction,
    EngineConfig,
    Exposure,
    IrbParams,
    NonMonotoneFunction,
    RatingBucket,
    ValidationFailure,
    register_risk_weight_function,
    run_compute,
    rwa_irb,
)
from regcap import irb
from regcap.errors import NonFiniteWeight, OutOfRange, UnknownFunction
from regcap.irb import (
    FOUNDATION_LGD,
    FOUNDATION_MATURITY_YEARS,
    check_monotonicity,
    foundation_params,
    params_for_exposure,
    risk_weight_function,
)
from regcap.model import validate_portfolio

from conftest import eur, run_python


def step_function(params: IrbParams) -> Fraction:
    """pd < 1% -> 0.5, else 1.0 (monotone test fixture)."""
    return Fraction(1, 2) if params.pd < Fraction(1, 100) else Fraction(1)


def decreasing_in_pd(params: IrbParams) -> Fraction:
    return 1 - params.pd


class TestFoundationParams:
    def test_supervisory_fills(self):
        params = foundation_params(Fraction(1, 100), eur("1000.00"))
        assert params.pd == Fraction(1, 100)
        assert params.lgd == Fraction(1, 2)
        assert params.ead == eur("1000.00")
        assert params.maturity_years == Fraction(3)

    def test_lgd_is_one_minus_recovery(self):
        assert FOUNDATION_LGD == 1 - Fraction(1, 2)

    def test_zero_edge(self):
        params = foundation_params(Fraction(0), eur("0"))
        assert params.pd == 0
        assert params.ead == eur("0")
        assert params.maturity_years == FOUNDATION_MATURITY_YEARS

    def test_pd_bound(self):
        with pytest.raises(OutOfRange):
            foundation_params(Fraction(3, 2), eur("1"))

    def test_negative_nominal(self):
        with pytest.raises(OutOfRange):
            foundation_params(Fraction(1, 100), -eur("1"))

    def test_defaults_do_not_depend_on_pd(self):
        for numerator in (0, 1, 50, 100):
            params = foundation_params(Fraction(numerator, 100), eur("7.77"))
            assert params.lgd == Fraction(1, 2)
            assert params.maturity_years == Fraction(3)
            assert params.ead == eur("7.77")


class TestParamsForExposure:
    def exposure(self, **irb_fields) -> Exposure:
        return Exposure(
            id="I1",
            counterparty=CounterpartyClass.CORPORATE,
            rating=RatingBucket.UNRATED,
            nominal=eur("1000.00"),
            **irb_fields,
        )

    def test_foundation_keeps_only_the_bank_pd(self):
        exposure = self.exposure(pd=Fraction(1, 100), lgd=Fraction(1, 5))
        params = params_for_exposure(
            validate_portfolio([exposure]), 0, CreditApproach.IRB_FOUNDATION
        )
        assert params == foundation_params(Fraction(1, 100), eur("1000.00"))

    def test_advanced_takes_all_four_components(self):
        exposure = self.exposure(
            pd=Fraction(1, 100), lgd=Fraction(1, 5), ead=eur("900.00"),
            maturity_years=Fraction(5, 2),
        )
        params = params_for_exposure(
            validate_portfolio([exposure]), 0, CreditApproach.IRB_ADVANCED
        )
        assert params == IrbParams(
            Fraction(1, 100), Fraction(1, 5), eur("900.00"), Fraction(5, 2)
        )

    def test_missing_components_are_all_named(self):
        with pytest.raises(ValidationFailure, match="pd required"):
            params_for_exposure(
                validate_portfolio([self.exposure()]), 0, CreditApproach.IRB_FOUNDATION
            )
        exposure = self.exposure(pd=Fraction(1, 100))
        with pytest.raises(ValidationFailure) as excinfo:
            params_for_exposure(
                validate_portfolio([exposure]), 0, CreditApproach.IRB_ADVANCED
            )
        assert len(excinfo.value.violations) == 3


class TestIrbParamsValidation:
    def test_all_fields_checked(self):
        good = dict(pd=Fraction(1, 100), lgd=Fraction(1, 2), ead=eur("1"),
                    maturity_years=Fraction(3))
        IrbParams(**good)
        with pytest.raises(OutOfRange):
            IrbParams(**{**good, "lgd": Fraction(2)})
        with pytest.raises(OutOfRange):
            IrbParams(**{**good, "maturity_years": Fraction(0)})
        with pytest.raises(OutOfRange):
            IrbParams(**{**good, "ead": -eur("1")})


class TestRwaIrb:
    def test_zero_ead_prices_zero(self):
        params = IrbParams(Fraction(1, 2), Fraction(1, 2), eur("0"), Fraction(3))
        assert rwa_irb(params, "constant") == eur("0")

    def test_zero_ead_weight_vetted_as_the_engine_vets_it(self, monkeypatch):
        def nan_at_zero_ead(params: IrbParams):
            return float("nan") if params.ead.units == 0 else Fraction(1)

        # The gate samples at one non-zero ead, so this function registers.
        monkeypatch.setattr(irb, "_FUNCTIONS", dict(irb._FUNCTIONS))
        register_risk_weight_function("nan_at_zero_ead", nan_at_zero_ead)
        with pytest.raises(NonFiniteWeight):
            rwa_irb(foundation_params(Fraction(1, 100), eur("0")), "nan_at_zero_ead")
        book = validate_portfolio(
            (
                Exposure(id="Z", counterparty=CounterpartyClass.CORPORATE,
                         rating=RatingBucket.UNRATED, nominal=eur("0"),
                         pd=Fraction(1, 100)),
            ),
            "EUR",
        )
        config = EngineConfig(credit_approach=CreditApproach.IRB_FOUNDATION,
                              irb_function="nan_at_zero_ead")
        with pytest.raises(NonFiniteWeight):
            run_compute(config, book, CapitalBase(eur("100.00")))

    def test_constant_function_identity(self):
        params = foundation_params(Fraction(1, 100), eur("500.00"))
        assert rwa_irb(params, "constant") == eur("500.00")

    def test_step_function(self):
        params = foundation_params(Fraction(2, 100), eur("100.00"))
        assert rwa_irb(params, step_function) == eur("100.00")
        low = foundation_params(Fraction(1, 1000), eur("100.00"))
        assert rwa_irb(low, step_function) == eur("50.00")

    def test_unregistered_name(self):
        params = foundation_params(Fraction(1, 100), eur("1"))
        with pytest.raises(UnknownFunction):
            rwa_irb(params, "supervisory_curve")

    def test_unregistered_name_raises_even_at_zero_ead(self):
        params = foundation_params(Fraction(1, 100), eur("0"))
        with pytest.raises(UnknownFunction):
            rwa_irb(params, "supervisory_curve")

    def test_non_finite_weight_rejected(self):
        params = foundation_params(Fraction(1, 100), eur("1"))
        with pytest.raises(NonFiniteWeight):
            rwa_irb(params, lambda p: float("nan"))
        with pytest.raises(NonFiniteWeight):
            rwa_irb(params, lambda p: float("inf"))
        with pytest.raises(NonFiniteWeight):
            rwa_irb(params, lambda p: Fraction(-1))
        with pytest.raises(NonFiniteWeight):
            rwa_irb(params, lambda p: "heavy")

    def test_float_weights_read_as_decimals(self):
        params = foundation_params(Fraction(1, 100), eur("1000.00"))
        assert rwa_irb(params, lambda p: 0.1) == eur("100.00")

    def test_foundation_advanced_consistency(self):
        # advanced inputs equal to the supervisory defaults reproduce
        # foundation output exactly
        nominal = eur("1234.56")
        pd = Fraction(7, 1000)
        foundation = foundation_params(pd, nominal)
        advanced = IrbParams(pd=pd, lgd=Fraction(1, 2), ead=nominal,
                             maturity_years=Fraction(3))
        assert rwa_irb(foundation, "constant") == rwa_irb(advanced, "constant")
        assert foundation == advanced


class TestMonotonicityGate:
    def test_constant_passes(self):
        assert check_monotonicity(risk_weight_function("constant")) is None

    def test_step_function_passes(self):
        assert check_monotonicity(step_function) is None

    def test_decreasing_fails_with_witness(self):
        assert check_monotonicity(decreasing_in_pd) == (
            "weight decreases from 1 to 18/19 between "
            "(pd=0, lgd=0) and (pd=1/19, lgd=0)"
        )

    def test_witness_is_the_first_decreasing_step(self):
        # Decreasing in both pd and lgd, but flat along lgd = 0: pd steps are
        # checked first, lgd by lgd, so the first witness is at lgd = 1/19.
        problem = check_monotonicity(lambda params: 1 - params.pd * params.lgd)
        assert problem == (
            "weight decreases from 1 to 360/361 between "
            "(pd=0, lgd=1/19) and (pd=1/19, lgd=1/19)"
        )

    def test_each_grid_point_is_evaluated_once(self):
        calls = []

        def counting(params):
            calls.append((params.pd, params.lgd))
            return params.pd + params.lgd

        assert check_monotonicity(counting) is None
        assert len(calls) <= 20 * 20
        assert len(set(calls)) == len(calls)

    def test_grid_covers_unit_interval_endpoints(self):
        assert irb.GATE_VALUES[0] == 0 and irb.GATE_VALUES[-1] == 1
        assert len(irb.GATE_VALUES) == 20

    def test_registration_gate_rejects_bad_function(self):
        with pytest.raises(NonMonotoneFunction, match="rejected") as caught:
            register_risk_weight_function("bad", decreasing_in_pd)
        assert caught.value.layer == "internal ratings"
        with pytest.raises(UnknownFunction):
            risk_weight_function("bad")

    def test_registration_refuses_a_taken_name(self):
        constant = risk_weight_function("constant")
        with pytest.raises(DuplicateFunction, match="'constant'") as caught:
            register_risk_weight_function("constant", step_function)
        assert caught.value.layer == "internal ratings"
        assert risk_weight_function("constant") is constant

    def test_importing_the_cli_runs_no_gate(self):
        script = textwrap.dedent("""
            import sys
            called = set()

            def profile(frame, event, arg):
                if event == "call" and frame.f_globals.get("__name__") == "regcap.irb":
                    called.add(frame.f_code.co_name)

            sys.setprofile(profile)
            import regcap.cli
            sys.setprofile(None)
            print(" ".join(sorted(called)))
        """)
        called = set(run_python(script).split())
        assert "<module>" in called  # the profile saw regcap.irb being imported
        assert not called & {"check_monotonicity", "evaluate_weight"}

    def test_registration_accepts_monotone_function(self):
        register_risk_weight_function("step_for_test", step_function)
        try:
            assert risk_weight_function("step_for_test") is step_function
        finally:
            from regcap.irb import _FUNCTIONS

            _FUNCTIONS.pop("step_for_test", None)


class TestLinearity:
    def test_linear_in_ead_spot(self):
        pd, lgd, m = Fraction(1, 100), Fraction(45, 100), Fraction(5, 2)
        base = IrbParams(pd, lgd, eur("250.00"), m)
        tripled = IrbParams(pd, lgd, eur("750.00"), m)
        assert rwa_irb(tripled, step_function).units == 3 * rwa_irb(
            base, step_function
        ).units
