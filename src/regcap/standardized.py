"""Standardized credit-risk weighting.

Risk-weighted assets from external ratings: each exposure is looked up in a
(counterparty class x rating bucket) weight table, off-balance items are first
converted to credit equivalents via a conversion-factor table, and the
portfolio total is the exact sum of per-line amounts.

The built-in weight table carries two range cells on the bank row; a
BankOptionPolicy picks the low or high end for both at once. Per-line amounts
round half-to-even at minor-unit scale once, after the full product.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import MissingCell, UnknownCategory
from .model import CounterpartyClass, Exposure, Portfolio, RatingBucket
from .money import Money, sum_money


class BankOptionPolicy(enum.Enum):
    """Resolution rule for the bank row's two range cells.

    One policy applies to both range cells; they are never mixed.
    """

    LOW_END = "low_end"
    HIGH_END = "high_end"

    @property
    def key(self) -> str:
        return self.value


@dataclass(frozen=True)
class WeightCell:
    """A single table cell: a fixed weight, or an inclusive range."""

    low: Fraction
    high: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high <= 2:
            raise ValueError(f"weight cell [{self.low}, {self.high}] outside [0, 2]")

    @classmethod
    def fixed(cls, weight: Fraction) -> WeightCell:
        return cls(weight, weight)

    @property
    def is_range(self) -> bool:
        return self.low != self.high

    def resolve(self, policy: BankOptionPolicy) -> Fraction:
        return self.low if policy is BankOptionPolicy.LOW_END else self.high


def _pct(number: int) -> Fraction:
    return Fraction(number, 100)


def _row(counterparty: CounterpartyClass, cells) -> dict:
    out = {}
    for bucket, cell in zip(RatingBucket, cells):
        if not isinstance(cell, WeightCell):
            cell = WeightCell.fixed(_pct(cell))
        out[(counterparty, bucket)] = cell
    return out


@dataclass(frozen=True)
class RiskWeightTable:
    """Mapping (class, bucket) -> weight cell, with a provenance label.

    The provenance label is report metadata and not part of table equality,
    so a dumped-then-reloaded table compares equal to the original.
    """

    cells: Mapping[tuple[CounterpartyClass, RatingBucket], WeightCell]
    source: str = field(default="builtin", compare=False)


# Built-in weight table, row per counterparty class, one cell per bucket in
# declaration order (AAA..AA- through <B-, then unrated). Values in percent.
DEFAULT_RISK_WEIGHTS = RiskWeightTable(
    cells={
        **_row(CounterpartyClass.SOVEREIGN, (0, 20, 50, 100, 100, 150, 100)),
        **_row(
            CounterpartyClass.BANK,
            (20, 50, WeightCell(_pct(50), _pct(100)), 100, 100, 150,
             WeightCell(_pct(50), _pct(100))),
        ),
        **_row(CounterpartyClass.BANK_SHORT_TERM, (20, 20, 20, 50, 50, 150, 20)),
        **_row(CounterpartyClass.CORPORATE, (20, 50, 100, 100, 150, 150, 100)),
    },
)


@dataclass(frozen=True)
class CcfTable:
    """Conversion factors for off-balance categories, each in [0, 1]."""

    factors: Mapping[str, Fraction]
    source: str = field(default="builtin", compare=False)

    def __post_init__(self) -> None:
        for category, factor in self.factors.items():
            if not 0 <= factor <= 1:
                raise ValueError(f"conversion factor for {category!r} outside [0, 1]")


# Only the medium-term confirmed facility has a sourced factor (50%); the
# remaining named categories stay at 100% until configured otherwise.
DEFAULT_CCF = CcfTable(
    factors={
        "medium_term_confirmed_facility": Fraction(1, 2),
        "documentary_credit": Fraction(1),
        "guarantee": Fraction(1),
        "bonded_obligation": Fraction(1),
    },
)


@dataclass(frozen=True, slots=True)
class RwaLine:
    """Per-exposure weighting record: both factors applied, plus the amount."""

    exposure_id: str
    ccf: Fraction
    weight: Fraction
    amount: Money


def _resolve(
    exposure: Exposure,
    table: RiskWeightTable,
    ccf: CcfTable,
    policy: BankOptionPolicy,
) -> tuple[Fraction, Fraction, Fraction]:
    """The CCF, the weight and their exact product for one exposure's key."""
    category = exposure.off_balance_category
    factor = Fraction(1) if category is None else ccf.factors.get(category)
    if factor is None:
        raise UnknownCategory(
            f"exposure {exposure.id!r}: unknown off-balance category {category!r}"
        )
    cell = table.cells.get((exposure.counterparty, exposure.rating))
    if cell is None:
        raise MissingCell(
            f"exposure {exposure.id!r}: no weight for"
            f" ({exposure.counterparty.key}, {exposure.rating.key})"
        )
    weight = cell.resolve(policy)
    return factor, weight, factor * weight


def rwa_portfolio(
    portfolio: Portfolio | Iterable[Exposure],
    table: RiskWeightTable = DEFAULT_RISK_WEIGHTS,
    ccf: CcfTable = DEFAULT_CCF,
    policy: BankOptionPolicy = BankOptionPolicy.LOW_END,
) -> tuple[list[RwaLine], Money]:
    """Weight a whole portfolio; lines keep input order, total is exact.

    Each distinct (class, bucket, category) resolves its factors once; each
    line is nominal x CCF x weight, rounded once.
    """
    if isinstance(portfolio, Portfolio):
        exposures: Iterable[Exposure] = portfolio.exposures
        currency = portfolio.currency
    else:
        exposures = tuple(portfolio)
        currency = exposures[0].nominal.currency if exposures else Money.zero().currency
    resolved: dict[tuple, tuple[Fraction, Fraction, Fraction]] = {}
    lines: list[RwaLine] = []
    for exposure in exposures:
        key = (exposure.counterparty, exposure.rating, exposure.off_balance_category)
        factors = resolved.get(key)
        if factors is None:
            factors = resolved[key] = _resolve(exposure, table, ccf, policy)
        factor, weight, product = factors
        amount = exposure.nominal.scaled(product)
        lines.append(RwaLine(exposure.id, factor, weight, amount))
    total = sum_money((line.amount for line in lines), currency=currency)
    return lines, total
