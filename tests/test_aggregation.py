"""Denominator assembly, solvency ratios, and supervisory adjustments."""

from __future__ import annotations

from fractions import Fraction

import pytest

from regcap import (
    CapitalBase,
    ConfigError,
    EngineConfig,
    Money,
    PillarOneInputs,
    SupervisoryAdjustment,
    compliance,
    denominator,
)
from regcap.aggregation import RWA_MULTIPLIER, denominator_shares
from regcap.errors import AggregationError

from conftest import eur


def inputs(credit: str, market: str, oprisk: str) -> PillarOneInputs:
    return PillarOneInputs(
        credit_rwa=eur(credit),
        market_capital_charge=eur(market),
        oprisk_capital_charge=eur(oprisk),
    )


class TestDenominator:
    def test_credit_only_passes_through(self):
        assert denominator(inputs("1000", "0", "0")) == eur("1000")

    def test_capital_charges_gross_up(self):
        # 12.5 is the exact inverse of the 8% floor
        assert denominator(inputs("0", "8", "0")) == eur("100")
        assert denominator(inputs("0", "0", "8")) == eur("100")

    def test_combined(self):
        assert denominator(inputs("1000", "8", "16")) == eur("1300")

    def test_multiplier_value(self):
        assert RWA_MULTIPLIER == Fraction(25, 2)
        assert RWA_MULTIPLIER * Fraction(8, 100) == 1

    def test_odd_minor_units_round_half_even(self):
        # 12.5 x 0.01 = 0.125 exact -> 0.12 at minor-unit rounding
        assert denominator(inputs("0", "0.01", "0")) == eur("0.12")
        assert denominator(inputs("0", "0.03", "0")) == eur("0.38")

    def test_single_rounding_after_sum(self):
        # each charge alone contributes 0.125 -> the pair sums to 0.25
        # exactly before rounding; rounding the parts first would lose it
        both = denominator(inputs("0", "0.01", "0.01"))
        assert both == eur("0.25")

    def test_negative_inputs_rejected(self):
        with pytest.raises(AggregationError, match="^credit rwa must"):
            inputs("-1", "0", "0")
        with pytest.raises(AggregationError, match="^market capital charge must"):
            inputs("0", "-1", "0")
        with pytest.raises(AggregationError, match="^oprisk capital charge must"):
            inputs("0", "0", "-1")


class TestRatios:
    def test_mcdonough_worked_denominator(self):
        report = compliance(CapitalBase(eur("104")), inputs("1000", "8", "16"))
        assert report.mcdonough == Fraction(8, 100)

    def test_mcdonough_exact_rational(self):
        report = compliance(CapitalBase(eur("80")), inputs("1000", "0", "0"))
        assert report.mcdonough == Fraction(8, 100)

    def test_cooke_ignores_non_credit_risk(self):
        full = inputs("1000", "8", "16")
        assert compliance(CapitalBase(eur("80")), full).cooke == Fraction(8, 100)
        assert compliance(CapitalBase(eur("160")), full).cooke == Fraction(16, 100)

    def test_ratios_collapse_when_only_credit(self):
        capital = CapitalBase(eur("123.45"))
        credit_only = inputs("987", "0", "0")
        report = compliance(capital, credit_only)
        exact = Fraction(
            capital.total_own_funds.units, denominator(credit_only).units
        )
        assert report.mcdonough == exact == report.cooke

    def test_empty_denominator(self):
        empty = compliance(CapitalBase(eur("100")), inputs("0", "0", "0"))
        assert empty.mcdonough is None
        assert empty.cooke is None
        no_credit = compliance(CapitalBase(eur("100")), inputs("0", "8", "0"))
        assert no_credit.cooke is None
        assert no_credit.mcdonough == Fraction(1)


class TestShares:
    def test_worked_example_shares(self):
        shares = denominator_shares(inputs("1000", "8", "16"))
        assert shares["credit"] == Fraction(1000, 1300)
        assert shares["market"] == Fraction(100, 1300)
        assert shares["oprisk"] == Fraction(200, 1300)

    def test_shares_sum_to_one(self):
        shares = denominator_shares(inputs("700", "3", "11"))
        assert sum(shares.values()) == 1

    def test_zero_denominator_has_no_shares(self):
        assert denominator_shares(inputs("0", "0", "0")) is None


class TestCompliance:
    def test_worked_example_compliant(self):
        report = compliance(CapitalBase(eur("104")), inputs("1000", "8", "16"))
        assert report.denominator == eur("1300")
        assert report.mcdonough == Fraction(8, 100)
        assert report.min_required_capital == eur("104")
        assert report.surplus == eur("0")
        assert report.compliant

    def test_one_minor_unit_short(self):
        report = compliance(CapitalBase(eur("103.99")), inputs("1000", "8", "16"))
        assert report.surplus == -eur("0.01")
        assert not report.compliant

    def test_override_raises_minimum(self):
        adjustment = SupervisoryAdjustment(minimum_ratio=Fraction(10, 100))
        report = compliance(
            CapitalBase(eur("104")), inputs("1000", "8", "16"), adjustment
        )
        assert report.min_required_capital == eur("130")
        assert report.surplus == -eur("26")
        assert not report.compliant

    def test_override_below_floor_rejected(self):
        with pytest.raises(
            AggregationError, match="^supervisory minimum 3/50 is below the 8% floor$"
        ):
            SupervisoryAdjustment(minimum_ratio=Fraction(6, 100))
        # the config reports the same check, with every problem, at load time
        with pytest.raises(ConfigError, match="8% floor; capital add-on"):
            EngineConfig(min_ratio_override=Fraction(6, 100), capital_addon=-eur("1"))

    def test_negative_addon_rejected(self):
        with pytest.raises(
            AggregationError, match="^capital add-on must be non-negative, got -1.00 EUR$"
        ):
            SupervisoryAdjustment(addon=-eur("1"))

    def test_addon_stacks_on_floor(self):
        adjustment = SupervisoryAdjustment(addon=eur("10"))
        report = compliance(
            CapitalBase(eur("104")), inputs("1000", "8", "16"), adjustment
        )
        assert report.min_required_capital == eur("114")
        assert report.surplus == -eur("10")

    def test_zero_denominator_report(self):
        report = compliance(CapitalBase(eur("50")), inputs("0", "0", "0"))
        assert report.mcdonough is None
        assert report.cooke is None
        assert report.shares is None
        assert report.min_required_capital == eur("0")
        assert report.compliant

    def test_floor_identity_at_representable_points(self):
        # 8% of a denominator in whole 0.25 steps lands on minor units
        for units in (25, 100, 2500, 123450 * 25):
            credit = Money(units, "EUR")
            report = compliance(CapitalBase(eur("1")), inputs_from(credit))
            assert report.min_required_capital.units * 25 == units * 2

    def test_gross_up_then_floor_returns_charge(self):
        # round(0.08 x round(12.5 x c)) == c for every integer charge c
        for units in range(0, 400):
            charge = Money(units, "EUR")
            report = compliance(
                CapitalBase(eur("0")),
                PillarOneInputs(
                    credit_rwa=eur("0"),
                    market_capital_charge=charge,
                    oprisk_capital_charge=eur("0"),
                ),
            )
            assert report.min_required_capital == charge


def inputs_from(credit: Money) -> PillarOneInputs:
    return PillarOneInputs(
        credit_rwa=credit,
        market_capital_charge=eur("0"),
        oprisk_capital_charge=eur("0"),
    )
