"""Denominator assembly, solvency ratios, and supervisory compliance.

The denominator is credit RWA plus 12.5 times each capital-style charge
(market, operational); 12.5 is carried as the exact rational 25/2, the
inverse of the 8% floor, so converting a charge into the denominator and
taking 8% of it again returns the charge exactly.

compliance() is the one place the ratios are taken. A zero denominator
does not fail: the report marks the ratio over it as undefined (None).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import AggregationError
from .model import MINIMUM_CAPITAL_RATIO, CapitalBase
from .money import Money, round_half_even
from .record import Record

# Inverse of the 8% floor, exact.
RWA_MULTIPLIER = Fraction(25, 2)

# Published reference affectation of own funds per risk; reported alongside
# the data-driven shares, never enforced.
REFERENCE_ALLOCATION: Mapping[str, Fraction] = {
    "credit": Fraction(75, 100),
    "oprisk": Fraction(20, 100),
    "market": Fraction(5, 100),
}


class PillarOneInputs(Record):
    """The three denominator blocks; market is an input figure, not computed."""

    __slots__ = ("credit_rwa", "market_capital_charge", "oprisk_capital_charge")

    def __init__(
        self, credit_rwa: Money, market_capital_charge: Money, oprisk_capital_charge: Money
    ) -> None:
        for label, amount in (
            ("credit rwa", credit_rwa),
            ("market capital charge", market_capital_charge),
            ("oprisk capital charge", oprisk_capital_charge),
        ):
            if amount.is_negative:
                raise AggregationError(f"{label} must be non-negative, got {amount}")
        credit_rwa._check_compatible(market_capital_charge)
        credit_rwa._check_compatible(oprisk_capital_charge)
        super().__init__(credit_rwa, market_capital_charge, oprisk_capital_charge)

    def exact_denominator_units(self) -> Fraction:
        """The denominator before its single rounding, in minor units."""
        charges = self.market_capital_charge.units + self.oprisk_capital_charge.units
        return self.credit_rwa.units + RWA_MULTIPLIER * charges


def denominator(inputs: PillarOneInputs) -> Money:
    """credit RWA + 12.5 x market charge + 12.5 x oprisk charge, rounded once."""
    units = round_half_even(inputs.exact_denominator_units())
    return Money(units, inputs.credit_rwa.currency)


class SupervisoryAdjustment(Record):
    """Pillar 2 action: a ratio floor at or above 8%, an optional add-on."""

    __slots__ = ("minimum_ratio", "addon")

    def __init__(
        self, minimum_ratio: Fraction = MINIMUM_CAPITAL_RATIO, addon: Money | None = None
    ) -> None:
        problems = []
        if minimum_ratio < MINIMUM_CAPITAL_RATIO:
            problems.append(f"supervisory minimum {minimum_ratio} is below the 8% floor")
        if addon is not None and addon.is_negative:
            problems.append(f"capital add-on must be non-negative, got {addon}")
        if problems:
            raise AggregationError("; ".join(problems))
        super().__init__(minimum_ratio, addon)


class CapitalReport(Record):
    """Assembled solvency outcome; ratios are None when undefined."""

    __slots__ = (
        "denominator", "mcdonough", "cooke", "minimum_ratio", "addon",
        "min_required_capital", "surplus", "compliant", "shares",
    )


def denominator_shares(inputs: PillarOneInputs) -> Mapping[str, Fraction] | None:
    """Each block's share of the exact denominator; None when it is zero.

    Computed before rounding so the three shares sum to exactly 1.
    """
    total = inputs.exact_denominator_units()
    if total == 0:
        return None
    return {
        "credit": Fraction(inputs.credit_rwa.units) / total,
        "market": RWA_MULTIPLIER * inputs.market_capital_charge.units / total,
        "oprisk": RWA_MULTIPLIER * inputs.oprisk_capital_charge.units / total,
    }


def compliance(
    capital: CapitalBase,
    inputs: PillarOneInputs,
    adjustment: SupervisoryAdjustment | None = None,
) -> CapitalReport:
    """Judge own funds against minimum ratio x denominator + add-on.

    The adjustment's minimum ratio is at least 8% by construction.
    """
    if adjustment is None:
        adjustment = SupervisoryAdjustment()
    own_funds = capital.total_own_funds
    base = denominator(inputs)
    addon = (
        adjustment.addon
        if adjustment.addon is not None
        else Money.zero(own_funds.currency)
    )
    required_units = round_half_even(adjustment.minimum_ratio * base.units)
    min_required = Money(required_units, base.currency) + addon
    surplus = own_funds - min_required
    mcdonough = own_funds.ratio_to(base) if base.units != 0 else None
    cooke = (
        own_funds.ratio_to(inputs.credit_rwa)
        if inputs.credit_rwa.units != 0
        else None
    )
    return CapitalReport(
        denominator=base,
        mcdonough=mcdonough,
        cooke=cooke,
        minimum_ratio=adjustment.minimum_ratio,
        addon=addon,
        min_required_capital=min_required,
        surplus=surplus,
        compliant=not surplus.is_negative,
        shares=denominator_shares(inputs),
    )
