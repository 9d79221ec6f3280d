"""Core domain types: counterparty classes, rating buckets, exposures.

Everything here is immutable after validation and safe to share across
threads; computation lives in the sibling modules.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import UnknownRating, ValidationFailure
from .money import Money
from .record import Record, init_field

# Regulatory minimum ratio of own funds to the risk denominator (8%).
MINIMUM_CAPITAL_RATIO = Fraction(8, 100)


class CounterpartyClass(enum.Enum):
    SOVEREIGN = "sovereign"
    BANK = "bank"
    BANK_SHORT_TERM = "bank_short_term"
    CORPORATE = "corporate"

    @property
    def key(self) -> str:
        return self.value


class RatingBucket(enum.IntEnum):
    """Rating buckets, ordered strongest to weakest.

    UNRATED sits outside the quality order; it exists as its own bucket
    because table columns price it explicitly, and a missing rating is an
    error rather than a silent default.
    """

    AAA_TO_AA_MINUS = 0
    A_PLUS_TO_A_MINUS = 1
    BBB_PLUS_TO_BBB_MINUS = 2
    BB_PLUS_TO_BB_MINUS = 3
    B_PLUS_TO_B_MINUS = 4
    BELOW_B_MINUS = 5
    UNRATED = 6

    @property
    def key(self) -> str:
        return self.name.lower()


# Published token grammar. "<B-" is the literal token for anything strictly
# below B-; individual sub-B- grades are not named and are rejected.
RATING_TOKENS: dict[str, RatingBucket] = {
    "AAA": RatingBucket.AAA_TO_AA_MINUS,
    "AA+": RatingBucket.AAA_TO_AA_MINUS,
    "AA": RatingBucket.AAA_TO_AA_MINUS,
    "AA-": RatingBucket.AAA_TO_AA_MINUS,
    "A+": RatingBucket.A_PLUS_TO_A_MINUS,
    "A": RatingBucket.A_PLUS_TO_A_MINUS,
    "A-": RatingBucket.A_PLUS_TO_A_MINUS,
    "BBB+": RatingBucket.BBB_PLUS_TO_BBB_MINUS,
    "BBB": RatingBucket.BBB_PLUS_TO_BBB_MINUS,
    "BBB-": RatingBucket.BBB_PLUS_TO_BBB_MINUS,
    "BB+": RatingBucket.BB_PLUS_TO_BB_MINUS,
    "BB": RatingBucket.BB_PLUS_TO_BB_MINUS,
    "BB-": RatingBucket.BB_PLUS_TO_BB_MINUS,
    "B+": RatingBucket.B_PLUS_TO_B_MINUS,
    "B": RatingBucket.B_PLUS_TO_B_MINUS,
    "B-": RatingBucket.B_PLUS_TO_B_MINUS,
    "<B-": RatingBucket.BELOW_B_MINUS,
    "UNRATED": RatingBucket.UNRATED,
}


def parse_rating(text: str) -> RatingBucket:
    """Map an external rating token to its bucket.

    Total over the published token set plus the literal unrated marker;
    anything else raises UnknownRating (never coerced to UNRATED).
    """
    token = text.strip().upper()
    try:
        return RATING_TOKENS[token]
    except KeyError:
        raise UnknownRating(f"unknown rating token {text.strip()!r}") from None


class Exposure(Record):
    """One on- or off-balance-sheet engagement.

    ``off_balance_category`` is None for on-balance positions. The optional
    internal-ratings fields are populated from portfolio file columns when
    an internal-ratings approach is configured.
    """

    __slots__ = (
        "id", "counterparty", "rating", "nominal", "off_balance_category",
        "short_term", "pd", "lgd", "ead", "maturity_years",
    )

    def __init__(
        self, id: str, counterparty: CounterpartyClass, rating: RatingBucket,
        nominal: Money, off_balance_category: str | None = None, short_term: bool = False,
        pd: Fraction | None = None, lgd: Fraction | None = None, ead: Money | None = None,
        maturity_years: Fraction | None = None,
    ) -> None:
        init_field(self, "id", id)
        init_field(self, "counterparty", counterparty)
        init_field(self, "rating", rating)
        init_field(self, "nominal", nominal)
        init_field(self, "off_balance_category", off_balance_category)
        init_field(self, "short_term", short_term)
        init_field(self, "pd", pd)
        init_field(self, "lgd", lgd)
        init_field(self, "ead", ead)
        init_field(self, "maturity_years", maturity_years)

    @property
    def is_off_balance(self) -> bool:
        return self.off_balance_category is not None


class Portfolio(Record):
    """A validated collection of exposures; build via validate_portfolio."""

    __slots__ = ("exposures", "currency")

    def __init__(self, exposures: tuple[Exposure, ...], currency: str) -> None:
        super().__init__(exposures, currency)

    def __len__(self) -> int:
        return len(self.exposures)

    def __iter__(self):
        return iter(self.exposures)


def validate_portfolio(exposures, currency: str | None = None) -> Portfolio:
    """Check portfolio-level invariants, reporting every violation at once.

    ``currency`` is the book's currency; when omitted it is the first
    exposure's, or the default for an empty book.
    """
    items = tuple(exposures)
    if currency is None:
        currency = items[0].nominal.currency if items else Money.zero().currency
    violations = _collect_violations(items, currency)
    if violations:
        raise ValidationFailure(violations)
    return Portfolio(exposures=items, currency=currency)


def _collect_violations(items: tuple[Exposure, ...], currency: str) -> list[str]:
    violations: list[str] = []
    seen: set[str] = set()
    currencies = {currency}
    for e in items:
        if e.id in seen:
            violations.append(f"duplicate id {e.id!r}")
        seen.add(e.id)
        currencies.add(e.nominal.currency)
        if e.ead is not None:
            currencies.add(e.ead.currency)
        if e.nominal.is_negative:
            violations.append(f"exposure {e.id!r}: negative amount {e.nominal}")
        if e.ead is not None and e.ead.is_negative:
            violations.append(f"exposure {e.id!r}: negative exposure-at-default {e.ead}")
        if e.counterparty is CounterpartyClass.BANK_SHORT_TERM and not e.short_term:
            violations.append(
                f"exposure {e.id!r}: bank_short_term requires the short-term flag"
            )
        if e.pd is not None and not 0 <= e.pd.numerator <= e.pd.denominator:
            violations.append(f"exposure {e.id!r}: pd {e.pd} outside [0, 1]")
        if e.lgd is not None and not 0 <= e.lgd.numerator <= e.lgd.denominator:
            violations.append(f"exposure {e.id!r}: lgd {e.lgd} outside [0, 1]")
        if e.maturity_years is not None and e.maturity_years.numerator <= 0:
            violations.append(f"exposure {e.id!r}: maturity must be positive")
    if len(currencies) > 1:
        violations.append("mixed currencies: " + ", ".join(sorted(currencies)))
    return violations


class CapitalBase(Record):
    """Regulatory own funds; the tier split is report metadata only."""

    __slots__ = ("total_own_funds", "tier1", "tier2")

    def __init__(
        self, total_own_funds: Money, tier1: Money | None = None, tier2: Money | None = None
    ) -> None:
        violations = []
        if total_own_funds.is_negative:
            violations.append("total own funds must be non-negative")
        if (tier1 is None) != (tier2 is None):
            violations.append("tier1 and tier2 must be supplied together or not at all")
        if tier1 is not None and tier2 is not None:
            if tier1.is_negative or tier2.is_negative:
                violations.append("tier amounts must be non-negative")
            elif tier1 + tier2 != total_own_funds:
                violations.append("tier1 + tier2 must equal total own funds")
        if violations:
            raise ValidationFailure(violations)
        super().__init__(total_own_funds, tier1, tier2)
