"""Core domain types: counterparty classes, rating buckets, exposures.

Everything here is immutable after validation and safe to share across
threads; computation lives in the sibling modules.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from itertools import count
from operator import attrgetter

from .errors import CoreModelError, ValidationFailure
from .money import DEFAULT_CURRENCY, Money, units_text
from .record import KeyedEnum, Record

# Regulatory minimum ratio of own funds to the risk denominator (8%).
MINIMUM_CAPITAL_RATIO = Fraction(8, 100)

# The exact types a pd, lgd or maturity may have: no bool, nor other subclass.
_RATIONAL = {Fraction, int}

# C0, DEL, C1 and the line and paragraph separators U+2028 and U+2029: an
# id holding one would break the fixed-width text report.
_CONTROL_CHARACTER = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")


class CounterpartyClass(KeyedEnum):
    SOVEREIGN = "sovereign"
    BANK = "bank"
    BANK_SHORT_TERM = "bank_short_term"
    CORPORATE = "corporate"


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
    anything else raises CoreModelError (never coerced to UNRATED).
    """
    token = text.strip().upper()
    try:
        return RATING_TOKENS[token]
    except KeyError:
        raise CoreModelError(f"unknown rating token {text.strip()!r}") from None


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


class Exposure(Record, defaults=dict(off_balance_category=None, short_term=False, pd=None,
                                     lgd=None, ead=None, maturity_years=None)):
    """One on- or off-balance-sheet engagement.

    ``off_balance_category`` is None for on-balance positions. The optional
    internal-ratings fields are populated from portfolio file columns when
    an internal-ratings approach is configured.
    """

    __slots__ = (
        "id", "counterparty", "rating", "nominal", "off_balance_category",
        "short_term", "pd", "lgd", "ead", "maturity_years",
    )


class Portfolio(Record):
    """A book of exposures in one currency, held as columns and checked when built.

    Line i of the book is ``ids[i]``, ``counterparties[i]`` and so on; amounts
    are integer minor units of ``currency`` (``ead_units[i]`` is None where
    the line has no ead), and pd, lgd and maturity are Fractions or ints (not
    bools), or None where absent. Each book rule (unique, non-empty ids
    without control characters, enum class and rating, non-negative amounts,
    the short-term flag on every short-term bank line, pd and lgd in [0, 1]
    and maturity above 0) is one pass over its column; a book that breaks any
    raises one ValidationFailure listing every violation, line by line.
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
        violations = _listing(*columns, currency)
        if violations:
            raise ValidationFailure(violations)
        super().__init__(*columns, currency)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def exposures(self) -> tuple[Exposure, ...]:
        """The book as Exposure records, built afresh on each read."""
        columns, currency = _columns(self), self.currency
        nominals = [Money(units, currency) for units in self.nominal_units]
        eads = [None if units is None else Money(units, currency) for units in self.ead_units]
        return tuple(map(Exposure, *columns[:3], nominals, *columns[4:8], eads, columns[9]))

    def __iter__(self):
        return iter(self.exposures)


# A book's columns, in Exposure field order, and an Exposure's fields.
_columns = attrgetter(*Portfolio.__slots__[:-1])
_exposure_fields = attrgetter(*Exposure.__slots__)


# The book rules. Each is one pass over its column, a comprehension (so a
# valid book costs no call per line), that keeps only the lines breaking it
# as (line, rank, message); rank orders one line's messages, and a message of
# rank above 0 is about the exposure that the line names.

# (rank, field, what a negative one is called) of the two amounts
_NOMINAL = (3, "nominal", "negative amount")
_EAD = (4, "ead", "negative exposure-at-default")


def _amount_breaks(
    units: tuple, currency: str, rank: int, field: str, negative: str,
    required: bool = True, start: int = 0,
) -> list:
    """Amounts that are not int minor units, or are negative, numbered from
    ``start``; None is an absent amount unless ``required``."""
    return [
        (line, rank, f"{negative} {units_text(value)} {currency}" if type(value) is int
         else f"{field} {value!r} is not Money")
        for line, value in enumerate(units, start)
        if (value is not None or required) and (type(value) is not int or value < 0)
    ]


def _money_breaks(amount, line: int, rank: int, field: str, negative: str) -> list:
    """The amount rule for one amount given as Money, in its own currency."""
    if not isinstance(amount, Money):
        return [(line, rank, f"{field} {amount!r} is not Money")]
    return _amount_breaks((amount.units,), amount.currency, rank, field, negative, start=line)


def _component_breaks(pds: tuple, lgds: tuple, maturities: tuple, required: bool = False) -> list:
    """pds and lgds that are not exact rationals in [0, 1], and maturities not
    above 0; None is an absent value unless ``required``."""
    return [
        (line, rank, f"{field} {value} outside [0, 1]" if type(value) in _RATIONAL
         else f"{field} {value!r} is not a Fraction")
        for rank, field, values in ((6, "pd", pds), (7, "lgd", lgds))
        for line, value in enumerate(values)
        if (value is not None or required)
        and (type(value) not in _RATIONAL or not 0 <= value.numerator <= value.denominator)
    ] + [
        (line, 8, "maturity must be positive" if type(value) in _RATIONAL
         else f"maturity {value!r} is not a Fraction")
        for line, value in enumerate(maturities)
        if (value is not None or required)
        and (type(value) not in _RATIONAL or value.numerator <= 0)
    ]


def _listing(
    ids, counterparties, ratings, nominal_units, categories, short_term, pds, lgds,
    ead_units, maturities, currency: str, breaks: tuple = (),
) -> list[str]:
    """Every rule that a book's columns break, with ``breaks`` found outside
    them, listed line by line and in rank order within a line."""
    seen: set[str] = set()
    add, short_term_bank = seen.add, CounterpartyClass.BANK_SHORT_TERM
    breaks = [*breaks] + [
        (line, 0, id_problem(value) or f"duplicate id {value!r}")
        for line, value in enumerate(ids)
        # a new id joins seen (add returns None) and goes on to the control
        # character test: every one is unprintable, and most ids are printable
        if not isinstance(value, str) or not value or value in seen or add(value)
        or not value.isprintable() and _CONTROL_CHARACTER.search(value)
    ] + [
        (line, rank, message)
        for column, kind, rank, message in (
            (counterparties, CounterpartyClass, 1, "no counterparty class"),
            (ratings, RatingBucket, 2, "no rating bucket"),
        )
        for line, value in enumerate(column) if type(value) is not kind
    ] + _amount_breaks(nominal_units, currency, *_NOMINAL) + _amount_breaks(
        ead_units, currency, *_EAD, required=False
    ) + [
        (line, 5, "bank_short_term requires the short-term flag")
        for line, counterparty, flag in zip(count(), counterparties, short_term)
        if counterparty is short_term_bank and not flag
    ] + _component_breaks(pds, lgds, maturities)
    return [
        message if rank == 0 else f"exposure {ids[line]!r}: {message}"
        for line, rank, message in sorted(breaks)
    ]


def component_problems(pd, lgd, ead, maturity) -> list[str]:
    """What the book rules find wrong with one set of IRB components, ead as
    Money; none of the four may be absent."""
    breaks = _money_breaks(ead, 0, *_EAD) + _component_breaks((pd,), (lgd,), (maturity,), True)
    return [message for _, _, message in breaks]  # one line each, so in rank order


def validate_portfolio(exposures, currency: str | None = None) -> Portfolio:
    """Build a Portfolio from Exposure records, inferring its currency when none is given.

    ``currency`` is the book's currency; when omitted it is the first
    exposure's, or the default for an empty book. Besides the book's rules,
    every nominal and ead must be Money in that currency: one that is not is
    listed here (a negative one in its own currency) and enters the book as 0.
    """
    rows = [_exposure_fields(exposure) for exposure in exposures]
    if currency is None:
        first = rows[0][3] if rows else None
        currency = first.currency if isinstance(first, Money) else DEFAULT_CURRENCY
    columns = list(zip(*rows)) or [()] * len(Exposure.__slots__)
    currencies = {currency}.union(
        amount.currency for amount in columns[3] + columns[8] if isinstance(amount, Money)
    )
    breaks = []
    for position, rule in ((3, _NOMINAL), (8, _EAD)):
        units = columns[position] = list(columns[position])
        for line, amount in enumerate(units):
            if isinstance(amount, Money) and amount.currency == currency:
                units[line] = amount.units
            elif amount is not None or rule is _NOMINAL:
                breaks += _money_breaks(amount, line, *rule)
                units[line] = 0
    if len(currencies) > 1:
        breaks.append((len(rows), 0, "mixed currencies: " + ", ".join(sorted(currencies))))
    if not breaks:
        return Portfolio(*columns, currency)
    raise ValidationFailure(_listing(*columns, currency, breaks))


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
