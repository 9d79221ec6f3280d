"""End-to-end engine runs: compute, regime comparison, disclosure."""

from __future__ import annotations

from fractions import Fraction

import pytest

from regcap import (
    BankOptionPolicy,
    CapitalBase,
    ConfigError,
    CounterpartyClass,
    CreditApproach,
    EngineConfig,
    Exposure,
    Money,
    OpRiskApproach,
    RatingBucket,
    Regime,
    ValidationFailure,
    load_income,
    load_portfolio,
    run_compare,
    run_compute,
    run_disclose,
    validate_portfolio,
)
from regcap import engine
from regcap.engine import resolve_tables
from regcap.errors import ConfigError, CoreModelError, OperationalRiskError
from regcap.irb import _FUNCTIONS
from regcap.model import Portfolio
from regcap.oprisk import IncomeHistory, _ADVANCED_HOOKS, register_advanced_hook

from conftest import DATA_DIR, eur


@pytest.fixture(scope="module")
def worked_portfolio() -> Portfolio:
    return load_portfolio(DATA_DIR / "worked_example.csv")


@pytest.fixture(scope="module")
def golden_portfolio() -> Portfolio:
    return load_portfolio(DATA_DIR / "portfolio_golden.csv")


@pytest.fixture(scope="module")
def income() -> IncomeHistory:
    return load_income(DATA_DIR / "income_3yr.csv")


class TestCompute:
    def test_worked_example_exactly_at_floor(self, worked_portfolio):
        result = run_compute(
            EngineConfig(), worked_portfolio, CapitalBase(eur("80000.00"))
        )
        assert result.credit.total_rwa == eur("1000000.00")
        assert result.report.mcdonough == Fraction(8, 100)
        assert result.report.compliant
        assert result.exit_status == 0

    def test_one_minor_unit_short_fails(self, worked_portfolio):
        result = run_compute(
            EngineConfig(), worked_portfolio, CapitalBase(eur("79999.99"))
        )
        assert not result.report.compliant
        assert result.exit_status == 1

    def test_golden_portfolio_totals(self, golden_portfolio):
        result = run_compute(
            EngineConfig(), golden_portfolio, CapitalBase(eur("150000.00"))
        )
        assert result.credit.total_rwa == eur("1700350.00")
        assert result.report.min_required_capital == eur("136028.00")
        assert result.report.compliant

    def test_missing_income_under_basel2_notes_zero_charge(self, worked_portfolio):
        result = run_compute(
            EngineConfig(), worked_portfolio, CapitalBase(eur("80000.00"))
        )
        assert result.oprisk.charge == eur("0")
        assert "zero" in result.oprisk.note

    def test_bia_income_enters_denominator(self, worked_portfolio, income):
        result = run_compute(
            EngineConfig(),
            worked_portfolio,
            CapitalBase(eur("80000.00")),
            income=income,
        )
        assert result.oprisk.charge == eur("150.00")
        assert result.oprisk.average_income == eur("1000.00")
        assert result.oprisk.income_span == "2004-2006"
        # 1,000,000 + 12.5 x 150 = 1,001,875
        assert result.report.denominator == eur("1001875.00")
        assert not result.report.compliant

    def test_tsa_approach(self, worked_portfolio, income):
        config = EngineConfig(oprisk_approach=OpRiskApproach.standardized())
        result = run_compute(
            config, worked_portfolio, CapitalBase(eur("90000.00")), income=income
        )
        assert result.oprisk.charge == eur("151.80")
        assert result.oprisk.tsa is not None

    def test_advanced_hook_approach(self, worked_portfolio, income):
        register_advanced_hook("fixed_charge", lambda history: eur("500.00"))
        try:
            config = EngineConfig(
                oprisk_approach=OpRiskApproach.advanced_hook("fixed_charge")
            )
            result = run_compute(
                config, worked_portfolio, CapitalBase(eur("90000.00")), income=income
            )
            assert result.oprisk.charge == eur("500.00")
        finally:
            _ADVANCED_HOOKS.pop("fixed_charge", None)

    def test_unregistered_advanced_hook_fails_without_income(
        self, worked_portfolio, monkeypatch
    ):
        monkeypatch.setattr("regcap.oprisk._ADVANCED_HOOKS", {})
        config = EngineConfig(oprisk_approach=OpRiskApproach.advanced_hook("X"))
        with pytest.raises(OperationalRiskError) as excinfo:
            run_compute(config, worked_portfolio, CapitalBase(eur("90000.00")))
        assert str(excinfo.value) == "no advanced estimator registered as 'X'"

    def test_downgrade_without_override_rejected(self):
        with pytest.raises(
            OperationalRiskError,
            match="^supervisory override required to revert to a simpler approach$",
        ):
            EngineConfig(
                oprisk_approach=OpRiskApproach.basic_indicator(),
                previous_oprisk_approach=OpRiskApproach.standardized(),
            )

    def test_downgrade_with_override_runs(self, worked_portfolio, income):
        config = EngineConfig(
            oprisk_approach=OpRiskApproach.basic_indicator(),
            previous_oprisk_approach=OpRiskApproach.standardized(),
            downgrade_override=True,
        )
        result = run_compute(
            config, worked_portfolio, CapitalBase(eur("90000.00")), income=income
        )
        assert result.oprisk.charge == eur("150.00")

    def test_market_charge_grosses_up(self, worked_portfolio):
        result = run_compute(
            EngineConfig(),
            worked_portfolio,
            CapitalBase(eur("80000.00")),
            market_charge=eur("8.00"),
        )
        assert result.report.denominator == eur("1000100.00")

    def test_irb_foundation_run(self, monkeypatch):
        exposures = (
            Exposure(
                id="F1",
                counterparty=CounterpartyClass.CORPORATE,
                rating=RatingBucket.UNRATED,
                nominal=eur("1000.00"),
                pd=Fraction(1, 100),
            ),
        )
        portfolio = validate_portfolio(exposures, "EUR")
        seen = []

        def recording(*args):
            seen.append(original(*args))
            return seen[-1]

        original = engine.params_for_exposure
        monkeypatch.setattr(engine, "params_for_exposure", recording)
        config = EngineConfig(credit_approach=CreditApproach.IRB_FOUNDATION)
        result = run_compute(config, portfolio, CapitalBase(eur("100.00")))
        [params] = seen
        assert params.lgd == Fraction(1, 2)
        assert params.maturity_years == 3
        assert params.ead == eur("1000.00")
        view = result.credit.lines
        assert view.ids == ("F1",)
        assert view.pd_texts == ("1.00%",)
        assert view.lgd_texts == ("50.00%",)
        assert view.maturity_texts == ("3",)
        assert view.ead_units == (eur("1000.00").units,)
        assert (view.weight_numerators, view.weight_denominators) == ((1,), (1,))
        assert view.weight_texts == ("100.00%",)
        assert view.off_balance == (False,)
        # builtin constant function weighs every exposure at 100%
        assert result.credit.total_rwa == eur("1000.00")

    def test_irb_weight_function_called_once_per_exposure(self, monkeypatch):
        calls = []

        def counting(params):
            # Impure on purpose: a second call for the same exposure would
            # return another weight than the one reported.
            calls.append(params)
            return Fraction(len(calls), 7)

        monkeypatch.setitem(_FUNCTIONS, "counting", counting)
        exposures = tuple(
            Exposure(
                id=f"E{i}",
                counterparty=CounterpartyClass.CORPORATE,
                rating=RatingBucket.UNRATED,
                nominal=eur(f"{1000 + i}.00"),
                pd=Fraction(1, 100),
            )
            for i in range(10)
        )
        portfolio = validate_portfolio(exposures, "EUR")
        config = EngineConfig(
            credit_approach=CreditApproach.IRB_FOUNDATION, irb_function="counting"
        )
        result = run_compute(config, portfolio, CapitalBase(eur("100000.00")))
        assert len(calls) == 10
        view = result.credit.lines
        weights = tuple(Fraction(n, 7) for n in range(1, 11))
        # The ratio in lowest terms: 7/7 is kept as 1/1.
        assert view.weight_numerators == tuple(w.numerator for w in weights)
        assert view.weight_denominators == tuple(w.denominator for w in weights)
        for params, weight, ead, units in zip(calls, weights, view.ead_units, view.units):
            assert ead == params.ead.units
            assert Money(units, "EUR") == params.ead.scaled(weight)

    def test_irb_advanced_requires_full_params(self):
        exposures = (
            Exposure(
                id="A1",
                counterparty=CounterpartyClass.CORPORATE,
                rating=RatingBucket.UNRATED,
                nominal=eur("1000.00"),
                pd=Fraction(1, 100),
            ),
        )
        portfolio = validate_portfolio(exposures, "EUR")
        config = EngineConfig(credit_approach=CreditApproach.IRB_ADVANCED)
        with pytest.raises(ValidationFailure):
            run_compute(config, portfolio, CapitalBase(eur("100.00")))

    @pytest.mark.parametrize(
        "approach, expected",
        [
            (CreditApproach.IRB_FOUNDATION, [
                "exposure 'A': pd required for irb",
                "exposure 'B': pd required for irb",
            ]),
            (CreditApproach.IRB_ADVANCED, [
                "exposure 'A': pd required for irb",
                "exposure 'A': lgd required for advanced irb",
                "exposure 'B': pd required for irb",
                "exposure 'B': ead required for advanced irb",
                "exposure 'B': maturity required for advanced irb",
                "exposure 'C': lgd required for advanced irb",
            ]),
        ],
        ids=["foundation", "advanced"],
    )
    def test_every_missing_irb_component_is_listed(self, approach, expected):
        def line(id, **irb_fields):
            return Exposure(
                id, CounterpartyClass.CORPORATE, RatingBucket.UNRATED, eur("1000.00"),
                **irb_fields,
            )

        portfolio = validate_portfolio((
            line("A", ead=eur("900.00"), maturity_years=Fraction(2)),
            line("B", lgd=Fraction(1, 5)),
            line("C", pd=Fraction(1, 100), ead=eur("900.00"), maturity_years=Fraction(2)),
            line("D", pd=Fraction(1, 100), lgd=Fraction(1, 5), ead=eur("900.00"),
                 maturity_years=Fraction(2)),
        ), "EUR")
        config = EngineConfig(credit_approach=approach)
        with pytest.raises(ValidationFailure) as excinfo:
            run_compute(config, portfolio, CapitalBase(eur("100.00")))
        assert excinfo.value.violations == expected

    def test_basel1_reference_run(self, worked_portfolio):
        config = EngineConfig.basel1()
        result = run_compute(config, worked_portfolio, CapitalBase(eur("80000.00")))
        assert result.report.cooke == Fraction(8, 100)
        assert result.oprisk is None
        assert result.report.compliant

    def test_basel1_rejects_market_charge(self, worked_portfolio):
        with pytest.raises(ConfigError, match="credit-only"):
            run_compute(
                EngineConfig.basel1(),
                worked_portfolio,
                CapitalBase(eur("80000.00")),
                market_charge=eur("1.00"),
            )

    def test_basel1_rejects_income(self, worked_portfolio, income):
        with pytest.raises(ConfigError):
            run_compute(
                EngineConfig.basel1(),
                worked_portfolio,
                CapitalBase(eur("80000.00")),
                income=income,
            )

    def test_supervisory_override_applies(self, worked_portfolio):
        config = EngineConfig(
            min_ratio_override=Fraction(10, 100),
            adjustment_justification="concentration risk",
        )
        result = run_compute(
            config, worked_portfolio, CapitalBase(eur("80000.00"))
        )
        assert result.report.min_required_capital == eur("100000.00")
        assert not result.report.compliant


def _book_in(currency: str, *nominal_currencies: str) -> Portfolio:
    """A library-built book in ``currency``, one exposure per nominal currency."""
    exposures = tuple(
        Exposure(
            id=f"E{index}",
            counterparty=CounterpartyClass.CORPORATE,
            rating=RatingBucket.UNRATED,
            nominal=Money(100_00, nominal_currency),
            pd=Fraction(1, 100),
        )
        for index, nominal_currency in enumerate(nominal_currencies)
    )
    return validate_portfolio(exposures, currency)


@pytest.mark.parametrize(
    "approach", [CreditApproach.STANDARDIZED, CreditApproach.IRB_FOUNDATION]
)
class TestCurrencyFailsClosed:
    """The credit total is an integer sum; it must never relabel a currency."""

    def test_mixed_nominals_raise(self, approach):
        # The book is refused when it is built, so neither pricer sees it.
        with pytest.raises(ValidationFailure, match=r"^mixed currencies: EUR, USD$"):
            run_compute(
                EngineConfig(credit_approach=approach),
                _book_in("EUR", "EUR", "USD"),
                CapitalBase(eur("100.00")),
            )

    def test_book_in_another_currency_than_the_config_raises(self, approach):
        with pytest.raises(CoreModelError, match=r"^USD vs EUR$"):
            run_compute(
                EngineConfig(credit_approach=approach),
                _book_in("USD", "USD", "USD"),
                CapitalBase(eur("100.00")),
            )

    def test_empty_book_in_another_currency_than_the_config_raises(self, approach):
        with pytest.raises(CoreModelError, match=r"^USD vs EUR$"):
            run_compute(
                EngineConfig(credit_approach=approach),
                _book_in("USD"),
                CapitalBase(eur("100.00")),
            )


class TestCompare:
    def test_zero_extra_risk_means_zero_delta(self, worked_portfolio):
        compare = run_compare(
            EngineConfig(), worked_portfolio, CapitalBase(eur("80000.00"))
        )
        assert compare.required_delta == eur("0")
        assert compare.credit_only.report.compliant
        assert compare.full.report.compliant

    def test_oprisk_charge_raises_requirement_by_itself(
        self, worked_portfolio, income
    ):
        compare = run_compare(
            EngineConfig(),
            worked_portfolio,
            CapitalBase(eur("81000.00")),
            income=income,
        )
        # gross-up then floor returns exactly the operational charge
        assert compare.required_delta == eur("150.00")

    @pytest.mark.parametrize("policy", ["low_end", "high_end"])
    def test_standardized_book_is_priced_once(
        self, monkeypatch, golden_portfolio, income, policy
    ):
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        original = engine.rwa_portfolio
        monkeypatch.setattr(engine, "rwa_portfolio", counting)
        config = EngineConfig(bank_policy=BankOptionPolicy(policy))
        capital = CapitalBase(eur("150000.00"))
        compare = run_compare(config, golden_portfolio, capital, income=income)
        assert len(calls) == 1
        # The reused credit block is what the credit-only leg prices afresh.
        fresh = run_compute(compare.credit_only.config, golden_portfolio, capital)
        assert compare.credit_only == fresh

    @pytest.mark.parametrize(
        "counterparty,rating", [(None, None), ("corporate", "unrated")]
    )
    def test_book_without_class_or_rating_cannot_reach_compare(self, counterparty, rating):
        # The credit-only leg prices every book standardized, by class and rating.
        exposure = Exposure("I", counterparty, rating, eur("100.00"), pd=Fraction(1, 100))
        with pytest.raises(
            ValidationFailure,
            match=r"^exposure 'I': no counterparty class; exposure 'I': no rating bucket$",
        ):
            run_compare(
                EngineConfig(credit_approach=CreditApproach.IRB_FOUNDATION),
                validate_portfolio([exposure]),
                CapitalBase(eur("100.00")),
            )

    def test_compare_requires_reform_config(self, worked_portfolio):
        with pytest.raises(ConfigError):
            run_compare(
                EngineConfig.basel1(), worked_portfolio, CapitalBase(eur("1"))
            )

    def test_novelty_markers(self, worked_portfolio, income):
        compare = run_compare(
            EngineConfig(disclosure_period="2006-H1"),
            worked_portfolio,
            CapitalBase(eur("81000.00")),
            income=income,
        )
        applied = {n.name: n.applied for n in compare.novelties}
        assert applied["operational risk enters the denominator"]
        assert applied["choice of methods per risk type"]
        assert not applied["recognition of risk-mitigation techniques"]
        assert not applied["individual supervisory requirements above the floor"]
        assert applied["semiannual public disclosure"]
        assert len(compare.novelties) == 5

    def test_supervisory_novelty_prints_the_floor_as_a_percent(self, worked_portfolio):
        compare = run_compare(
            EngineConfig(min_ratio_override=Fraction(1, 10), capital_addon=eur("5000.00")),
            worked_portfolio,
            CapitalBase(eur("81000.00")),
        )
        notes = {n.name: (n.applied, n.note) for n in compare.novelties}
        assert notes["individual supervisory requirements above the floor"] == (
            True, "minimum ratio 10.00%, add-on 5000.00 EUR"
        )

    def test_exit_zero_only_when_both_legs_comply(self, worked_portfolio, income):
        short = run_compare(
            EngineConfig(),
            worked_portfolio,
            CapitalBase(eur("80000.00")),
            income=income,
        )
        assert short.credit_only.report.compliant
        assert not short.full.report.compliant
        assert short.exit_status == 1


class TestDisclose:
    def test_period_from_config(self, worked_portfolio):
        config = EngineConfig(disclosure_period="2006-H1")
        result = run_compute(config, worked_portfolio, CapitalBase(eur("80000.00")))
        report = run_disclose(result)
        assert report.result.config.disclosure_period == "2006-H1"
        assert report.result is result

    def test_missing_period(self, worked_portfolio):
        result = run_compute(
            EngineConfig(), worked_portfolio, CapitalBase(eur("80000.00"))
        )
        with pytest.raises(
            ConfigError, match="^disclosure needs a semiannual period such as 2006-H2$"
        ):
            run_disclose(result)

    def test_malformed_period(self):
        # A period is checked when the config is built, for every subcommand.
        # "$" in a pattern would accept the trailing newline, and "\d" the
        # Arabic-Indic digits.
        arabic_indic_2006 = "\u0662\u0660\u0660\u0666"
        for bad in ("2006", "2006-H3", "H1-2006", "2006-h1", "2006-H2\n",
                    f"{arabic_indic_2006}-H2"):
            with pytest.raises(ConfigError) as caught:
                EngineConfig(disclosure_period=bad)
            assert str(caught.value) == (
                f"period must be a half-year tag like 2006-H1 or 2006-H2, got {bad!r}"
            )
            assert caught.value.layer == "input/config"


class TestTables:
    def test_default_tables_resolve_to_builtins(self):
        tables = resolve_tables(EngineConfig())
        assert tables.risk_weights.source == "builtin"
        assert tables.ccf.source == "builtin"
        assert tables.betas.source == "builtin"

    def test_table_paths_flow_through(self, tmp_path):
        from regcap import DEFAULT_CCF
        from regcap.fileio import dump_ccf

        path = tmp_path / "ccf.tbl"
        dump_ccf(DEFAULT_CCF, path)
        tables = resolve_tables(EngineConfig(ccf_path=str(path)))
        assert tables.ccf == DEFAULT_CCF
        assert tables.ccf.source.startswith(str(path))
