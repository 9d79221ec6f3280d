"""Core domain types: counterparty classes, rating buckets, exposures.

Everything here is immutable after validation and safe to share across
threads; computation lives in the sibling modules.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from operator import attrgetter

from .errors import UnknownRating, ValidationFailure
from .money import DEFAULT_CURRENCY, Money
from .record import Record, init_field

# Regulatory minimum ratio of own funds to the risk denominator (8%).
MINIMUM_CAPITAL_RATIO = Fraction(8, 100)

# The types a pd, lgd or maturity may have: exact rationals, ints included.
_RATIONAL = (Fraction, int)

# C0, DEL, C1 and the line and paragraph separators U+2028 and U+2029: an
# id holding one would break the fixed-width text report.
_CONTROL_CHARACTER = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")


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


def id_problem(value) -> str | None:
    """Why ``value`` cannot be an exposure id, or None when it can.

    An id is a non-empty string without control characters.
    """
    if not isinstance(value, str):
        return f"id {value!r} is not a string"
    if not value:
        return "empty id"
    # Every control character is unprintable; most ids are printable.
    if not value.isprintable() and _CONTROL_CHARACTER.search(value):
        return f"id {value!r} contains a control character"
    return None


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


class Portfolio(Record):
    """A book of exposures in one currency, held as columns and checked when built.

    Line i of the book is ``ids[i]``, ``counterparties[i]`` and so on; amounts
    are integer minor units of ``currency`` (``ead_units[i]`` is None where
    the line has no ead), and pd, lgd and maturity are Fractions or ints, or
    None where absent. A book that breaks an invariant (unique, non-empty ids
    without control characters, enum class and rating, non-negative amounts,
    rational pd and lgd in [0, 1] and maturity above 0, the short-term flag on
    every short-term bank line) raises one ValidationFailure listing every
    violation, line by line.
    """

    __slots__ = (
        "ids", "counterparties", "ratings", "nominal_units", "categories",
        "short_term", "pds", "lgds", "ead_units", "maturities", "currency",
    )

    def __init__(
        self, ids: tuple[str, ...], counterparties: tuple[CounterpartyClass, ...],
        ratings: tuple[RatingBucket, ...], nominal_units: tuple[int, ...],
        categories: tuple[str | None, ...], short_term: tuple[bool, ...],
        pds: tuple[Fraction | None, ...], lgds: tuple[Fraction | None, ...],
        ead_units: tuple[int | None, ...], maturities: tuple[Fraction | None, ...],
        currency: str,
    ) -> None:
        columns = tuple(map(tuple, (
            ids, counterparties, ratings, nominal_units, categories, short_term, pds,
            lgds, ead_units, maturities,
        )))
        lengths = sorted({len(column) for column in columns})
        if len(lengths) > 1:
            raise ValidationFailure(
                ["columns of unequal length: " + ", ".join(map(str, lengths))]
            )
        if not _columns_hold(*columns):
            violations = _violations(_rows(columns, currency), currency)
            if violations:
                raise ValidationFailure(violations)
        super().__init__(*columns, currency)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def exposures(self) -> tuple[Exposure, ...]:
        """The book as Exposure records, built afresh on each read."""
        return tuple(Exposure(*line) for line in _rows(_columns(self), self.currency))

    def __iter__(self):
        return iter(self.exposures)


# A book's columns, in Exposure field order, and an Exposure's fields.
_columns = attrgetter(*Portfolio.__slots__[:-1])
_exposure_fields = attrgetter(*Exposure.__slots__)


# The exact types each column of a Portfolio holds.
_RATIONAL_OR_ABSENT = {Fraction, int, type(None)}
_UNITS_OR_ABSENT = {int, type(None)}


def _columns_hold(
    ids, counterparties, ratings, nominal_units, categories, short_term, pds, lgds,
    ead_units, maturities,
) -> bool:
    """True when every invariant of the book holds, checked a column at a time.

    A False sends the book to ``_violations``, which lists what is broken; it
    may also find nothing, for a value this check does not know (a bool pd).
    """
    try:
        joined = "".join(ids)
    except TypeError:
        return False
    distinct_ids = set(ids)
    return (
        len(distinct_ids) == len(ids)
        and "" not in distinct_ids
        and (joined.isprintable() or not _CONTROL_CHARACTER.search(joined))
        and set(map(type, counterparties)) <= {CounterpartyClass}
        and set(map(type, ratings)) <= {RatingBucket}
        and set(map(type, nominal_units)) <= {int}
        and min(nominal_units, default=0) >= 0
        and set(map(type, ead_units)) <= _UNITS_OR_ABSENT
        # filter(None, ...) drops the absent eads, and zeros, which pass anyway
        and min(filter(None, ead_units), default=0) >= 0
        and (
            CounterpartyClass.BANK_SHORT_TERM not in counterparties
            or all([
                flag for counterparty, flag in zip(counterparties, short_term)
                if counterparty is CounterpartyClass.BANK_SHORT_TERM
            ])
        )
        and set(map(type, pds)) <= _RATIONAL_OR_ABSENT
        and all([0 <= v.numerator <= v.denominator for v in _distinct(pds)])
        and set(map(type, lgds)) <= _RATIONAL_OR_ABSENT
        and all([0 <= v.numerator <= v.denominator for v in _distinct(lgds)])
        and set(map(type, maturities)) <= _RATIONAL_OR_ABSENT
        and all([v.numerator > 0 for v in _distinct(maturities)])
    )


def _distinct(column: tuple) -> list:
    """The distinct objects of a column, None left out.

    Equal cells of a loaded book share one object, so a column of a few
    hundred distinct values is checked a few hundred times, not once a line.
    """
    return [value for value in {id(v): v for v in column}.values() if value is not None]


def _rows(columns: tuple[tuple, ...], currency: str):
    """Each line of the columns as a tuple in Exposure field order, with Money
    amounts; an amount that is not an int is passed on as it is, for
    ``_violations`` to name."""
    nominal_units, ead_units = columns[3], columns[8]
    nominals = [Money(u, currency) if type(u) is int else u for u in nominal_units]
    eads = [Money(u, currency) if type(u) is int else u for u in ead_units]
    return zip(*columns[:3], nominals, *columns[4:8], eads, columns[9])


def _violations(rows, currency: str) -> list[str]:
    """Every broken invariant of a book, line by line, then its currencies.

    ``rows`` yields lines in ``Exposure`` field order, amounts as Money.
    """
    violations: list[str] = []
    seen: set[str] = set()
    currencies = {currency}
    for (
        exposure_id, counterparty, rating, nominal, _, short_term, pd, lgd, ead,
        maturity,
    ) in rows:
        problem = id_problem(exposure_id)
        if problem is not None:
            violations.append(problem)
        else:
            if exposure_id in seen:
                violations.append(f"duplicate id {exposure_id!r}")
            seen.add(exposure_id)
        name = f"exposure {exposure_id!r}"
        if not isinstance(counterparty, CounterpartyClass):
            violations.append(f"{name}: no counterparty class")
        if not isinstance(rating, RatingBucket):
            violations.append(f"{name}: no rating bucket")
        if not isinstance(nominal, Money):
            violations.append(f"{name}: nominal {nominal!r} is not Money")
        else:
            currencies.add(nominal.currency)
            if nominal.is_negative:
                violations.append(f"{name}: negative amount {nominal}")
        if ead is not None:
            if not isinstance(ead, Money):
                violations.append(f"{name}: ead {ead!r} is not Money")
            else:
                currencies.add(ead.currency)
                if ead.is_negative:
                    violations.append(f"{name}: negative exposure-at-default {ead}")
        if counterparty is CounterpartyClass.BANK_SHORT_TERM and not short_term:
            violations.append(f"{name}: bank_short_term requires the short-term flag")
        if pd is not None:
            if not isinstance(pd, _RATIONAL):
                violations.append(f"{name}: pd {pd!r} is not a Fraction")
            elif not 0 <= pd.numerator <= pd.denominator:
                violations.append(f"{name}: pd {pd} outside [0, 1]")
        if lgd is not None:
            if not isinstance(lgd, _RATIONAL):
                violations.append(f"{name}: lgd {lgd!r} is not a Fraction")
            elif not 0 <= lgd.numerator <= lgd.denominator:
                violations.append(f"{name}: lgd {lgd} outside [0, 1]")
        if maturity is not None:
            if not isinstance(maturity, _RATIONAL):
                violations.append(f"{name}: maturity {maturity!r} is not a Fraction")
            elif maturity.numerator <= 0:
                violations.append(f"{name}: maturity must be positive")
    if len(currencies) > 1:
        violations.append("mixed currencies: " + ", ".join(sorted(currencies)))
    return violations


def validate_portfolio(exposures, currency: str | None = None) -> Portfolio:
    """Build a Portfolio from Exposure records, inferring its currency when none is given.

    ``currency`` is the book's currency; when omitted it is the first
    exposure's, or the default for an empty book. Besides the book's own
    invariants, every nominal and ead must be Money in that currency, and
    every pd, lgd and maturity a Fraction or an int.
    """
    rows = [_exposure_fields(exposure) for exposure in exposures]
    if currency is None:
        first = rows[0][3] if rows else None
        currency = first.currency if isinstance(first, Money) else DEFAULT_CURRENCY
    violations = _violations(rows, currency)
    if violations:
        raise ValidationFailure(violations)
    columns = list(zip(*rows)) or [()] * len(Exposure.__slots__)
    columns[3] = tuple(nominal.units for nominal in columns[3])
    columns[8] = tuple(None if ead is None else ead.units for ead in columns[8])
    return Portfolio(*columns, currency)


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
