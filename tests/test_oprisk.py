"""Operational risk: income averaging, BIA, TSA vs a rational oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from regcap import (
    ALPHA,
    AnnualIncome,
    BetaTable,
    BusinessLine,
    CapitalBase,
    ConfigError,
    DEFAULT_BETAS,
    DowngradeWithoutOverride,
    DuplicateAdvancedHook,
    EngineConfig,
    GrossIncomeRecord,
    IncompleteHistory,
    IncomeHistory,
    MissingLine,
    Money,
    NegativeGiPolicy,
    OpRiskApproach,
    Portfolio,
    UnregisteredAdvancedHook,
    ValidationFailure,
    average_gross_income,
    bia_capital,
    register_advanced_hook,
    run_compute,
    tsa_capital,
)

from conftest import eur, history_of_totals

EXCLUDE = NegativeGiPolicy.EXCLUDE_NEGATIVE_YEARS
INCLUDE = NegativeGiPolicy.INCLUDE_ALL


def record(units: int) -> GrossIncomeRecord:
    return GrossIncomeRecord(amount=Money(units, "EUR"))


def totals_history(*unit_totals: int, start_year: int = 2004) -> IncomeHistory:
    return history_of_totals(start_year, [Money(units, "EUR") for units in unit_totals])


def per_line_history(rows: dict[BusinessLine, tuple[int, int, int]],
                     start_year: int = 2004) -> IncomeHistory:
    annuals = tuple(
        AnnualIncome(
            year=start_year + i,
            per_line={line: record(values[i]) for line, values in rows.items()},
        )
        for i in range(3)
    )
    return IncomeHistory(years=annuals)


def uniform_history(units_per_line: int) -> IncomeHistory:
    return per_line_history(
        {line: (units_per_line,) * 3 for line in BusinessLine}
    )


# --- independent oracle -----------------------------------------------------
# Recomputes the standardized charge as a rational double sum over
# (year, line), mirroring the negative-year policy, with one final rounding
# and the zero floor. Kept free of package arithmetic helpers on purpose.


def tsa_oracle_units(history: IncomeHistory, betas: BetaTable,
                     policy: NegativeGiPolicy) -> int:
    total = Fraction(0)
    for line in BusinessLine:
        values = [annual.per_line[line].effective.units for annual in history.years]
        if policy is EXCLUDE:
            kept = [v for v in values if v >= 0]
            average = Fraction(sum(kept), len(kept)) if kept else Fraction(0)
        else:
            average = Fraction(sum(values), len(values))
        total += betas.betas[line] * average
    return max(round(total), 0)


class TestIncomeHistory:
    def test_exactly_three_years(self):
        with pytest.raises(IncompleteHistory):
            history_of_totals(2004, [eur("1"), eur("2")])

    def test_years_must_be_consecutive(self):
        annuals = tuple(
            AnnualIncome(year=y, total=record(100)) for y in (2004, 2006, 2007)
        )
        with pytest.raises(IncompleteHistory):
            IncomeHistory(years=annuals)

    def test_per_line_must_sum_to_total(self):
        annual = AnnualIncome(
            year=2004,
            total=record(100),
            per_line={BusinessLine.RETAIL_BANKING: record(99)},
        )
        rest = [AnnualIncome(year=y, total=record(100)) for y in (2005, 2006)]
        with pytest.raises(ValidationFailure, match="per-line"):
            IncomeHistory(years=(annual, *rest))

    def test_exclusions_reduce_effective(self):
        gross = GrossIncomeRecord(
            amount=eur("1000.00"),
            provisions=eur("40.00"),
            banking_book_results=eur("10.00"),
            extraordinary_items=eur("30.00"),
            insurance_income=eur("20.00"),
        )
        assert gross.effective == eur("900.00")

    def test_negative_banking_book_result_adds_back(self):
        gross = GrossIncomeRecord(
            amount=eur("100.00"), banking_book_results=-eur("10.00")
        )
        assert gross.effective == eur("110.00")

    def test_year_without_data_is_incomplete(self):
        annuals = tuple(AnnualIncome(year=y) for y in (2004, 2005, 2006))
        history = IncomeHistory(years=annuals)
        with pytest.raises(IncompleteHistory):
            average_gross_income(history)


class TestAverageGrossIncome:
    def test_symmetric_mean(self):
        history = totals_history(9000, 10000, 11000)
        assert average_gross_income(history) == Money(10000, "EUR")

    def test_all_zero(self):
        assert average_gross_income(totals_history(0, 0, 0)) == eur("0")

    def test_negative_year_policies(self):
        history = totals_history(-3000, 6000, 9000)
        assert average_gross_income(history, EXCLUDE) == Money(7500, "EUR")
        assert average_gross_income(history, INCLUDE) == Money(4000, "EUR")

    def test_all_negative_years_give_zero_under_exclude(self):
        history = totals_history(-100, -200, -300)
        assert average_gross_income(history, EXCLUDE) == eur("0")
        assert average_gross_income(history, INCLUDE) == Money(-200, "EUR")

    def test_mean_rounds_half_even_at_minor_units(self):
        # (10.00 + 10.00 + 10.01) / 3 = 10.003... -> 10.00
        history = totals_history(1000, 1000, 1001)
        assert average_gross_income(history) == eur("10.00")

    def test_per_line_only_year_uses_line_sum(self):
        history = per_line_history(
            {line: (100, 100, 100) for line in BusinessLine}
        )
        assert average_gross_income(history) == Money(800, "EUR")


class TestBiaCapital:
    def test_published_multiplier(self):
        assert bia_capital(eur("1000.00")) == eur("150.00")

    def test_zero(self):
        assert bia_capital(eur("0")) == eur("0")

    def test_negative_clamps_to_zero(self):
        assert bia_capital(-eur("500")) == eur("0")

    def test_rounding_case(self):
        assert bia_capital(eur("333.33")) == eur("50.00")

    def test_linear_for_positive_income(self):
        assert bia_capital(eur("2000.00")).units == 2 * bia_capital(eur("1000.00")).units

    def test_end_to_end_average_then_alpha(self):
        history = totals_history(90000, 100000, 110000)
        assert bia_capital(average_gross_income(history)) == eur("150.00")


class TestTsaCapital:
    def test_all_lines_zero(self):
        result = tsa_capital(uniform_history(0))
        assert result.total == eur("0")

    def test_single_line_beta(self):
        rows = {line: (0, 0, 0) for line in BusinessLine}
        rows[BusinessLine.RETAIL_BANKING] = (10000, 10000, 10000)
        result = tsa_capital(per_line_history(rows))
        assert result.total == eur("12.00")
        assert result.per_line[BusinessLine.RETAIL_BANKING] == eur("12.00")

    def test_all_lines_constant_100(self):
        # betas sum to 1.20, so the charge is 120 on a uniform 100 profile
        result = tsa_capital(uniform_history(10000))
        assert result.total == eur("120.00")

    def test_beta_values_match_published_table(self):
        expected = {
            BusinessLine.CORPORATE_FINANCE: Fraction(18, 100),
            BusinessLine.TRADING_AND_SALES: Fraction(18, 100),
            BusinessLine.RETAIL_BANKING: Fraction(12, 100),
            BusinessLine.COMMERCIAL_BANKING: Fraction(15, 100),
            BusinessLine.PAYMENT_AND_SETTLEMENT: Fraction(18, 100),
            BusinessLine.AGENCY_SERVICES: Fraction(15, 100),
            BusinessLine.ASSET_MANAGEMENT: Fraction(12, 100),
            BusinessLine.RETAIL_BROKERAGE: Fraction(12, 100),
        }
        assert dict(DEFAULT_BETAS.betas) == expected
        assert sum(expected.values()) == Fraction(120, 100)

    def test_missing_lines_listed(self):
        rows = {BusinessLine.RETAIL_BANKING: (100, 100, 100)}
        with pytest.raises(MissingLine) as excinfo:
            tsa_capital(per_line_history(rows))
        assert "corporate_finance" in excinfo.value.lines
        assert len(excinfo.value.lines) == 7

    def test_negative_line_excluded_per_line(self):
        rows = {line: (0, 0, 0) for line in BusinessLine}
        rows[BusinessLine.TRADING_AND_SALES] = (-30000, 60000, 90000)
        result = tsa_capital(per_line_history(rows), policy=EXCLUDE)
        # line average (600+900)/2 = 750, beta 18% -> 135
        assert result.total == eur("135.00")

    def test_negative_line_offsets_under_include_all(self):
        rows = {line: (0, 0, 0) for line in BusinessLine}
        rows[BusinessLine.TRADING_AND_SALES] = (-30000, -30000, -30000)
        rows[BusinessLine.RETAIL_BANKING] = (30000, 30000, 30000)
        result = tsa_capital(per_line_history(rows), policy=INCLUDE)
        # 0.12 x 300 - 0.18 x 300 = -18 -> floored to zero at the total
        assert result.total == eur("0")
        assert result.per_line[BusinessLine.TRADING_AND_SALES] == -eur("54.00")

    def test_total_rounds_exact_sum_not_rounded_lines(self):
        # each line average 0.07 units after /3 -> per-line charges round to
        # 0 individually, while the exact sum rounds to a positive unit
        rows = {line: (0, 0, 1) for line in BusinessLine}
        result = tsa_capital(per_line_history(rows), policy=EXCLUDE)
        exact = sum(
            DEFAULT_BETAS.betas[line] * Fraction(1, 3) for line in BusinessLine
        )
        assert result.total.units == round(exact)
        assert all(charge.units == 0 for charge in result.per_line.values())

    def test_oracle_equivalence_random_histories(self):
        rng = random.Random(20060630)
        for _ in range(60):
            rows = {
                line: tuple(rng.randint(-500, 2000) for _ in range(3))
                for line in BusinessLine
            }
            history = per_line_history(rows)
            for policy in (EXCLUDE, INCLUDE):
                result = tsa_capital(history, DEFAULT_BETAS, policy)
                assert result.total.units == tsa_oracle_units(
                    history, DEFAULT_BETAS, policy
                ), (rows, policy)

    def test_uniform_beta_degenerates_to_bia_on_divisible_data(self):
        # betas all equal to alpha, per-line data divisible by 3, totals
        # matching the per-line sums: TSA equals BIA exactly
        uniform = BetaTable(betas={line: ALPHA for line in BusinessLine})
        rows = {line: (300, 600, 900) for line in BusinessLine}
        history = per_line_history(rows)
        tsa = tsa_capital(history, uniform, EXCLUDE)
        bia = bia_capital(average_gross_income(history, EXCLUDE))
        assert tsa.total == bia

    def test_beta_table_requires_all_lines(self):
        with pytest.raises(MissingLine):
            BetaTable(betas={BusinessLine.RETAIL_BANKING: Fraction(12, 100)})


class TestApproaches:
    def test_advanced_needs_hook_name(self):
        with pytest.raises(ValueError):
            OpRiskApproach(kind=OpRiskApproach.basic_indicator().kind, hook="x")

    def test_complexity_order(self):
        bia = OpRiskApproach.basic_indicator()
        tsa = OpRiskApproach.standardized()
        ama = OpRiskApproach.advanced_hook("model")
        assert bia.complexity < tsa.complexity < ama.complexity

    def test_downgrade_requires_override(self):
        with pytest.raises(DowngradeWithoutOverride):
            EngineConfig(
                oprisk_approach=OpRiskApproach.basic_indicator(),
                previous_oprisk_approach=OpRiskApproach.standardized(),
            )

    def test_downgrade_with_override_passes(self):
        EngineConfig(
            oprisk_approach=OpRiskApproach.basic_indicator(),
            previous_oprisk_approach=OpRiskApproach.standardized(),
            downgrade_override=True,
        )

    def test_upgrade_needs_no_override(self):
        EngineConfig(
            oprisk_approach=OpRiskApproach.advanced_hook("model"),
            previous_oprisk_approach=OpRiskApproach.basic_indicator(),
        )


def oprisk_charge(approach: OpRiskApproach, history: IncomeHistory) -> Money:
    """The operational charge of a full run over an empty book."""
    result = run_compute(
        EngineConfig(oprisk_approach=approach),
        Portfolio(exposures=(), currency="EUR"),
        CapitalBase(eur("0")),
        income=history,
    )
    return result.oprisk.charge


class TestOpriskCapital:
    def test_bia_dispatch(self):
        history = totals_history(90000, 100000, 110000)
        charge = oprisk_charge(OpRiskApproach.basic_indicator(), history)
        assert charge == eur("150.00")

    def test_tsa_dispatch(self):
        charge = oprisk_charge(OpRiskApproach.standardized(), uniform_history(10000))
        assert charge == eur("120.00")

    def test_unregistered_advanced_hook(self):
        history = totals_history(100, 100, 100)
        with pytest.raises(UnregisteredAdvancedHook):
            oprisk_charge(OpRiskApproach.advanced_hook("loss_model"), history)

    def test_registered_hook_used(self):
        register_advanced_hook("flat_fee", lambda history: eur("42.00"))
        try:
            history = totals_history(100, 100, 100)
            charge = oprisk_charge(OpRiskApproach.advanced_hook("flat_fee"), history)
            assert charge == eur("42.00")
        finally:
            from regcap.oprisk import _ADVANCED_HOOKS

            _ADVANCED_HOOKS.pop("flat_fee", None)

    def test_registration_refuses_a_taken_name(self):
        register_advanced_hook("flat_fee", lambda history: eur("42.00"))
        try:
            with pytest.raises(DuplicateAdvancedHook, match="'flat_fee'") as caught:
                register_advanced_hook("flat_fee", lambda history: eur("1.00"))
            assert caught.value.layer == "operational risk"
            history = totals_history(100, 100, 100)
            charge = oprisk_charge(OpRiskApproach.advanced_hook("flat_fee"), history)
            assert charge == eur("42.00")
        finally:
            from regcap.oprisk import _ADVANCED_HOOKS

            _ADVANCED_HOOKS.pop("flat_fee", None)

    def test_negative_advanced_charge_rejected(self):
        register_advanced_hook("rebate", lambda history: eur("-1.00"))
        try:
            history = totals_history(100, 100, 100)
            with pytest.raises(ConfigError, match="negative charge"):
                oprisk_charge(OpRiskApproach.advanced_hook("rebate"), history)
        finally:
            from regcap.oprisk import _ADVANCED_HOOKS

            _ADVANCED_HOOKS.pop("rebate", None)
