"""Internal-ratings parameterization and the pluggable weight function."""

from __future__ import annotations

import math
import textwrap
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regcap import (
    CapitalBase,
    CounterpartyClass,
    CreditApproach,
    DuplicateFunction,
    EngineConfig,
    Exposure,
    IrbParams,
    Money,
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
    components,
    missing_components,
    params_for_exposure,
    risk_weight_function,
)
from regcap.model import component_problems, validate_portfolio

from conftest import eur, run_python


def step_function(params: IrbParams) -> Fraction:
    """pd < 1% -> 0.5, else 1.0 (monotone test fixture)."""
    return Fraction(1, 2) if params.pd < Fraction(1, 100) else Fraction(1)


def decreasing_in_pd(params: IrbParams) -> Fraction:
    return 1 - params.pd


def sourced(book, index: int, approach: CreditApproach) -> IrbParams:
    """The components the engine sources for line ``index`` of a book."""
    line = [column[index] for column in components(book, approach)]
    return params_for_exposure(*line, book.currency)


def foundation_sourced(pd: Fraction, nominal) -> IrbParams:
    """The components the engine sources for a one-line foundation book."""
    book = validate_portfolio([Exposure(
        id="F1", counterparty=CounterpartyClass.CORPORATE,
        rating=RatingBucket.UNRATED, nominal=nominal, pd=pd,
    )])
    return sourced(book, 0, CreditApproach.IRB_FOUNDATION)


class TestFoundationParams:
    def test_supervisory_fills(self):
        params = foundation_sourced(Fraction(1, 100), eur("1000.00"))
        assert params.pd == Fraction(1, 100)
        assert params.lgd == Fraction(1, 2)
        assert params.ead == eur("1000.00")
        assert params.maturity_years == Fraction(3)

    def test_lgd_is_one_minus_recovery(self):
        assert FOUNDATION_LGD == 1 - Fraction(1, 2)

    def test_zero_edge(self):
        params = foundation_sourced(Fraction(0), eur("0"))
        assert params.pd == 0
        assert params.ead == eur("0")
        assert params.maturity_years == FOUNDATION_MATURITY_YEARS

    def test_pd_bound(self):
        with pytest.raises(OutOfRange):
            IrbParams(
                Fraction(3, 2), FOUNDATION_LGD, eur("1"), FOUNDATION_MATURITY_YEARS
            )

    def test_negative_nominal(self):
        with pytest.raises(OutOfRange):
            IrbParams(
                Fraction(1, 100), FOUNDATION_LGD, -eur("1"), FOUNDATION_MATURITY_YEARS
            )

    def test_defaults_do_not_depend_on_pd(self):
        for numerator in (0, 1, 50, 100):
            params = foundation_sourced(Fraction(numerator, 100), eur("7.77"))
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
        params = sourced(validate_portfolio([exposure]), 0, CreditApproach.IRB_FOUNDATION)
        assert params == IrbParams(
            Fraction(1, 100), FOUNDATION_LGD, eur("1000.00"), FOUNDATION_MATURITY_YEARS
        )

    def test_advanced_takes_all_four_components(self):
        exposure = self.exposure(
            pd=Fraction(1, 100), lgd=Fraction(1, 5), ead=eur("900.00"),
            maturity_years=Fraction(5, 2),
        )
        params = sourced(validate_portfolio([exposure]), 0, CreditApproach.IRB_ADVANCED)
        assert params == IrbParams(
            Fraction(1, 100), Fraction(1, 5), eur("900.00"), Fraction(5, 2)
        )

    def test_missing_components_are_all_named(self):
        bare = validate_portfolio([self.exposure()])
        assert missing_components(bare, CreditApproach.IRB_FOUNDATION) == [
            "exposure 'I1': pd required for irb",
        ]
        exposure = self.exposure(pd=Fraction(1, 100))
        assert len(missing_components(
            validate_portfolio([exposure]), CreditApproach.IRB_ADVANCED
        )) == 3
        assert missing_components(bare, CreditApproach.IRB_ADVANCED) == [
            "exposure 'I1': pd required for irb",
            "exposure 'I1': lgd required for advanced irb",
            "exposure 'I1': ead required for advanced irb",
            "exposure 'I1': maturity required for advanced irb",
        ]
        for approach in (CreditApproach.IRB_FOUNDATION, CreditApproach.IRB_ADVANCED):
            with pytest.raises(ValidationFailure) as excinfo:
                run_compute(EngineConfig(credit_approach=approach), bare,
                            CapitalBase(eur("1.00")))
            assert excinfo.value.violations == missing_components(bare, approach)


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
        # The book's rules and wording, a wrong type included: never an
        # AttributeError, and never a bool taken for a rational.
        with pytest.raises(OutOfRange, match=r"^pd 0\.5 is not a Fraction$"):
            IrbParams(0.5, Fraction(1, 2), Money(1), Fraction(3))
        for field, value, problem in [
            ("ead", 100, "ead 100 is not Money"),
            ("ead", -eur("0.01"), "negative exposure-at-default -0.01 EUR"),
            ("maturity_years", "3", "maturity '3' is not a Fraction"),
            ("maturity_years", 0, "maturity must be positive"),
            ("pd", True, "pd True is not a Fraction"),
            ("pd", None, "pd None is not a Fraction"),
            ("lgd", Fraction(101, 100), "lgd 101/100 outside [0, 1]"),
        ]:
            with pytest.raises(OutOfRange) as excinfo:
                IrbParams(**{**good, field: value})
            assert str(excinfo.value) == problem
        with pytest.raises(OutOfRange) as excinfo:
            IrbParams(pd=2, lgd=0.5, ead=None, maturity_years=Fraction(-1))
        assert str(excinfo.value) == (
            "ead None is not Money; pd 2 outside [0, 1]; lgd 0.5 is not a Fraction; "
            "maturity must be positive"
        )


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
        zero_ead = IrbParams(
            Fraction(1, 100), FOUNDATION_LGD, eur("0"), FOUNDATION_MATURITY_YEARS
        )
        with pytest.raises(NonFiniteWeight):
            rwa_irb(zero_ead, "nan_at_zero_ead")
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
        params = IrbParams(
            Fraction(1, 100), FOUNDATION_LGD, eur("500.00"), FOUNDATION_MATURITY_YEARS
        )
        assert rwa_irb(params, "constant") == eur("500.00")

    def test_step_function(self):
        params = IrbParams(
            Fraction(2, 100), FOUNDATION_LGD, eur("100.00"), FOUNDATION_MATURITY_YEARS
        )
        assert rwa_irb(params, step_function) == eur("100.00")
        low = IrbParams(
            Fraction(1, 1000), FOUNDATION_LGD, eur("100.00"), FOUNDATION_MATURITY_YEARS
        )
        assert rwa_irb(low, step_function) == eur("50.00")

    def test_unregistered_name(self):
        params = IrbParams(
            Fraction(1, 100), FOUNDATION_LGD, eur("1"), FOUNDATION_MATURITY_YEARS
        )
        with pytest.raises(UnknownFunction):
            rwa_irb(params, "supervisory_curve")

    def test_unregistered_name_raises_even_at_zero_ead(self):
        params = IrbParams(
            Fraction(1, 100), FOUNDATION_LGD, eur("0"), FOUNDATION_MATURITY_YEARS
        )
        with pytest.raises(UnknownFunction):
            rwa_irb(params, "supervisory_curve")

    def test_non_finite_weight_rejected(self):
        params = IrbParams(
            Fraction(1, 100), FOUNDATION_LGD, eur("1"), FOUNDATION_MATURITY_YEARS
        )
        with pytest.raises(NonFiniteWeight):
            rwa_irb(params, lambda p: float("nan"))
        with pytest.raises(NonFiniteWeight):
            rwa_irb(params, lambda p: float("inf"))
        with pytest.raises(NonFiniteWeight):
            rwa_irb(params, lambda p: Fraction(-1))
        with pytest.raises(NonFiniteWeight):
            rwa_irb(params, lambda p: "heavy")

    def test_float_weights_read_as_decimals(self):
        params = IrbParams(
            Fraction(1, 100), FOUNDATION_LGD, eur("1000.00"), FOUNDATION_MATURITY_YEARS
        )
        assert rwa_irb(params, lambda p: 0.1) == eur("100.00")

    def test_foundation_advanced_consistency(self):
        # advanced inputs equal to the supervisory defaults reproduce
        # foundation output exactly
        nominal = eur("1234.56")
        pd = Fraction(7, 1000)
        foundation = foundation_sourced(pd, nominal)
        advanced = IrbParams(pd=pd, lgd=Fraction(1, 2), ead=nominal,
                             maturity_years=Fraction(3))
        assert rwa_irb(foundation, "constant") == rwa_irb(advanced, "constant")
        assert foundation == advanced


def fraction_rule(value) -> Fraction:
    """A returned weight as a Fraction: a float at its shortest round-trip
    decimal, anything else exactly."""
    return Fraction(Decimal(repr(value))) if isinstance(value, float) else Fraction(value)


GRID_PARAMS = IrbParams(
    Fraction(1, 100), FOUNDATION_LGD, eur("1000.00"), FOUNDATION_MATURITY_YEARS
)
# Floats whose binary value is not their shortest decimal (the ties), the
# smallest and largest, and the zeros with a sign.
EDGE_WEIGHTS = (
    0.05, 0.025, 0.1, 1e-07, 5e-324, 1.7976931348623157e308, 0.0, -0.0,
    Decimal("-0"), Decimal("1E+40"), Decimal("1E-40"), True, False, 0,
)
weights = st.one_of(
    st.sampled_from(EDGE_WEIGHTS),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=10**40),
    st.booleans(),
    st.fractions(min_value=0, max_denominator=10**40),
    st.decimals(min_value=0, max_value=10**40, allow_nan=False, allow_infinity=False),
)


class TestWeightReading:
    @settings(max_examples=300, deadline=None)
    @given(value=weights)
    def test_the_ratio_is_the_weight_in_lowest_terms(self, value):
        numerator, denominator = irb.evaluate_weight(lambda params: value, GRID_PARAMS)
        assert type(numerator) is int and type(denominator) is int
        assert denominator > 0
        assert math.gcd(numerator, denominator) == 1
        assert Fraction(numerator, denominator) == fraction_rule(value)

    @pytest.mark.parametrize("value, message", [
        (float("nan"), "risk-weight function returned nan"),
        (float("inf"), "risk-weight function returned inf"),
        (float("-inf"), "risk-weight function returned -inf"),
        (Decimal("NaN"), "risk-weight function returned Decimal('NaN')"),
        (Decimal("-Infinity"), "risk-weight function returned Decimal('-Infinity')"),
        ("heavy", "risk-weight function returned 'heavy'"),
        ("0.5", "risk-weight function returned '0.5'"),
        (None, "risk-weight function returned None"),
        (-0.1, "risk-weight function returned negative weight -1/10"),
        (-5e-324, "risk-weight function returned negative weight -1/2" + "0" * 323),
        (-1, "risk-weight function returned negative weight -1"),
        (Fraction(-3, 4), "risk-weight function returned negative weight -3/4"),
        (Decimal("-2.50"), "risk-weight function returned negative weight -5/2"),
    ])
    def test_refusals_keep_their_messages(self, value, message):
        with pytest.raises(NonFiniteWeight) as caught:
            irb.evaluate_weight(lambda params: value, GRID_PARAMS)
        assert str(caught.value) == message

    @pytest.mark.parametrize("half, quarter", [
        (Fraction(1, 2), Fraction(1, 4)), (0.5, 0.25), (Decimal("0.50"), Decimal("0.25")),
    ])
    def test_the_gate_words_a_decrease_as_a_fraction(self, half, quarter):
        problem = check_monotonicity(lambda params: half if params.pd == 0 else quarter)
        assert problem == (
            "weight decreases from 1/2 to 1/4 between "
            "(pd=0, lgd=0) and (pd=1/19, lgd=0)"
        )


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

    def test_grid_points_hold_to_the_book_rules(self):
        # The gate builds its points without IrbParams' check; this is that
        # check, once for every point.
        for pd in irb.GATE_VALUES:
            for lgd in irb.GATE_VALUES:
                assert component_problems(
                    pd, lgd, irb.GATE_EAD, FOUNDATION_MATURITY_YEARS
                ) == []

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
