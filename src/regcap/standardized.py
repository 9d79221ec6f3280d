"""Standardized credit-risk weighting.

Risk-weighted assets from external ratings: each exposure is looked up in a
(counterparty class x rating bucket) weight table, off-balance items are first
converted to credit equivalents via a conversion-factor table, and the
portfolio total is the exact sum of per-line amounts.

Any weight-table cell may be a range (the built-in table has two, on the
bank row); a BankOptionPolicy picks the same end, low or high, of every range
cell in the table. Per-line amounts round half-to-even at minor-unit scale
once, after the full product.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import StandardizedCreditError
from .model import CounterpartyClass, Portfolio, RatingBucket
from .money import Money, format_percent, scaled_units
from .record import KeyedEnum, Record


class BankOptionPolicy(KeyedEnum):
    """Resolution rule for the weights table's range cells.

    The policy picks the same end of every range cell; ends are never mixed.
    """

    LOW_END = "low_end"
    HIGH_END = "high_end"


class WeightCell(Record):
    """A single table cell: a fixed weight, or an inclusive range."""

    __slots__ = ("low", "high")

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high <= 2:
            raise StandardizedCreditError(f"weight cell [{self.low}, {self.high}] outside [0, 2]")

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


class RiskWeightTable(Record, uncompared=("source",), defaults=dict(source="builtin")):
    """Mapping (class, bucket) -> weight cell, with a provenance label.

    The provenance label is report metadata and not part of table equality,
    so a dumped-then-reloaded table compares equal to the original.
    """

    __slots__ = ("cells", "source")


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


class CcfTable(Record, uncompared=("source",), defaults=dict(source="builtin")):
    """Conversion factors for off-balance categories, each in [0, 1]."""

    __slots__ = ("factors", "source")

    def __post_init__(self) -> None:
        for category, factor in self.factors.items():
            if not 0 <= factor <= 1:
                raise StandardizedCreditError(f"conversion factor for {category!r} outside [0, 1]")


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


class ResolvedKey(Record):
    """One distinct (class, bucket, category) of a book: both factors, their
    exact product, and the two percent texts, each formatted once."""

    __slots__ = ("ccf", "weight", "product", "ccf_text", "weight_text")


class StandardizedColumns(Record):
    """The standardized credit lines as columns, in input order.

    Line i is exposure ``ids[i]``, priced with ``keys[key_index[i]]`` to
    ``units[i]`` minor units of the total's currency.
    """

    __slots__ = ("ids", "key_index", "units", "keys")


def _resolve(
    exposure_id: str,
    key: tuple[CounterpartyClass, RatingBucket, str | None],
    table: RiskWeightTable,
    ccf: CcfTable,
    policy: BankOptionPolicy,
) -> ResolvedKey:
    """The CCF, the weight, their exact product and texts for one line's key."""
    counterparty, rating, category = key
    factor = Fraction(1) if category is None else ccf.factors.get(category)
    if factor is None:
        raise StandardizedCreditError(
            f"exposure {exposure_id!r}: unknown off-balance category {category!r}"
        )
    cell = table.cells.get((counterparty, rating))
    if cell is None:
        raise StandardizedCreditError(
            f"exposure {exposure_id!r}: no weight for"
            f" ({counterparty.key}, {rating.key})"
        )
    weight = cell.resolve(policy)
    return ResolvedKey(
        factor, weight, factor * weight, format_percent(factor), format_percent(weight)
    )


def rwa_portfolio(
    portfolio: Portfolio,
    table: RiskWeightTable = DEFAULT_RISK_WEIGHTS,
    ccf: CcfTable = DEFAULT_CCF,
    policy: BankOptionPolicy = BankOptionPolicy.LOW_END,
) -> tuple[StandardizedColumns, Money]:
    """Weight a whole portfolio; lines keep input order, total is exact.

    Each distinct (class, bucket, category) resolves its factors once; each
    line is nominal x CCF x weight, rounded once.
    """
    if not isinstance(portfolio, Portfolio):
        raise TypeError(
            "rwa_portfolio prices a Portfolio built by validate_portfolio,"
            f" not a {type(portfolio).__name__}"
        )
    index_of: dict[tuple, int] = {}
    keys: list[ResolvedKey] = []
    key_index: list[int] = []
    units: list[int] = []
    lines = zip(
        zip(portfolio.counterparties, portfolio.ratings, portfolio.categories),
        portfolio.nominal_units,
    )
    for key, nominal in lines:
        index = index_of.get(key)
        if index is None:
            index = index_of[key] = len(keys)
            exposure_id = portfolio.ids[len(key_index)]  # this line's
            keys.append(_resolve(exposure_id, key, table, ccf, policy))
        key_index.append(index)
        units.append(scaled_units(nominal, keys[index].product))
    columns = StandardizedColumns(portfolio.ids, tuple(key_index), tuple(units), tuple(keys))
    return columns, Money(sum(units), portfolio.currency)
