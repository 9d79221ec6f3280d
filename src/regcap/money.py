"""Fixed-point money arithmetic and exact rational helpers.

Amounts are integer counts of minor units: every currency is kept to
``MINOR_UNIT_DIGITS`` (2) decimal places, so one unit is a cent and
addition and subtraction are exact. An amount carries only its currency
code; there is no per-amount precision to configure. Factors stay exact
``fractions.Fraction`` values, but products and roundings work on their
integer numerator and denominator: one ``divmod`` and a half-to-even fix-up
back to minor units, in a single step, which keeps regulatory figures
reproducible bit-for-bit. Ratios between amounts are returned as exact
``Fraction`` values and only formatted (2-decimal percentages, again by
integer half-even division) at render time.

Decimal input cells are bounded: a non-zero value must lie within
``10**-MAX_DECIMAL_EXPONENT`` and ``10**(MAX_DECIMAL_EXPONENT + 1)`` in
magnitude, so no cell can make the integer conversion run unbounded.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import CoreModelError
from .record import Record, init_field

DEFAULT_CURRENCY = "EUR"

# Decimal places of every amount: a minor unit is one cent.
MINOR_UNIT_DIGITS = 2

# Largest decimal exponent, as Decimal.adjusted() counts it, of a non-zero
# input cell in either direction: 31 integer digits leave room for any
# balance sheet, and 30 fractional digits for any quoted factor.
MAX_DECIMAL_EXPONENT = 30


def _divide_half_even(numerator: int, denominator: int) -> int:
    """numerator / denominator (denominator > 0), rounded ties to even."""
    quotient, remainder = divmod(numerator, denominator)
    twice = 2 * remainder
    if twice > denominator or (twice == denominator and quotient & 1):
        quotient += 1
    return quotient


def round_half_even(value: Fraction | int) -> int:
    """Round an exact rational to the nearest integer, ties to even."""
    return _divide_half_even(value.numerator, value.denominator)


def _integer_ratio(dec: Decimal, text: str) -> tuple[int, int]:
    """Exact (numerator, denominator) of a finite, bounded decimal."""
    if not dec.is_finite():
        raise ValueError(f"not a finite number: {text!r}")
    if dec and not -MAX_DECIMAL_EXPONENT <= dec.adjusted() <= MAX_DECIMAL_EXPONENT:
        raise ValueError(
            f"magnitude of {text!r} outside 1e-{MAX_DECIMAL_EXPONENT}"
            f"..1e{MAX_DECIMAL_EXPONENT + 1}"
        )
    return dec.as_integer_ratio()


def decimal_units(value: Decimal | str | int) -> int:
    """Minor units of a decimal literal; rejects sub-minor-unit amounts.

    Every amount read from a file or an option is read here; blanks around
    a ``str`` are ignored, as ``parse_fraction`` ignores them.
    """
    try:
        if type(value) is str:
            token = value.strip()
            # Decimal() would also read digit-group underscores and non-ASCII digits
            if "_" in token or not token.isascii():
                raise InvalidOperation
        dec = Decimal(value)
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal amount: {value!r}") from exc
    numerator, denominator = _integer_ratio(dec, str(value))
    units, remainder = divmod(numerator * 10**MINOR_UNIT_DIGITS, denominator)
    if remainder:
        raise ValueError(
            f"amount {value!r} has more than {MINOR_UNIT_DIGITS} decimal places"
        )
    return units


def scaled_units(units: int, factor: Fraction | int) -> int:
    """units x factor, exact, then one half-even rounding back to minor units."""
    return _divide_half_even(units * factor.numerator, factor.denominator)


class Money(Record):
    """An exact amount of one currency, stored in minor units.

    ``units`` is signed: exposures are validated non-negative elsewhere,
    but derived figures such as a capital shortfall may be negative.
    """

    __slots__ = ("units", "currency")

    def __init__(self, units: int, currency: str = DEFAULT_CURRENCY) -> None:
        if type(units) is not int:  # a bool is an int, but not an amount
            raise TypeError(f"units must be int, got {type(units).__name__}")
        init_field(self, "units", units)
        init_field(self, "currency", currency)

    @classmethod
    def zero(cls, currency: str = DEFAULT_CURRENCY) -> "Money":
        return cls(0, currency)

    @classmethod
    def from_decimal(
        cls, value: Decimal | str | int, currency: str = DEFAULT_CURRENCY
    ) -> "Money":
        """Build from a decimal literal; rejects sub-minor-unit amounts."""
        return cls(decimal_units(value), currency)

    def _check_compatible(self, other: "Money") -> None:
        if self.currency != other.currency:
            raise CoreModelError(f"{self.currency} vs {other.currency}")

    def __add__(self, other: "Money") -> "Money":
        self._check_compatible(other)
        return Money(self.units + other.units, self.currency)

    def __sub__(self, other: "Money") -> "Money":
        self._check_compatible(other)
        return Money(self.units - other.units, self.currency)

    def __neg__(self) -> "Money":
        return Money(-self.units, self.currency)

    def scaled(self, factor: Fraction | int) -> "Money":
        """Exact product with a rational factor, then one half-even rounding."""
        return Money(scaled_units(self.units, factor), self.currency)

    def ratio_to(self, other: "Money") -> Fraction:
        """Exact ratio of two amounts of the same currency."""
        self._check_compatible(other)
        if other.units == 0:
            raise ZeroDivisionError("ratio over a zero amount")
        return Fraction(self.units, other.units)

    @property
    def is_negative(self) -> bool:
        return self.units < 0

    def text(self) -> str:
        """Plain decimal string, no separators (machine documents)."""
        return units_text(self.units)

    def formatted(self) -> str:
        """Thousands-separated decimal string (human reports)."""
        return units_text(self.units, ",")

    def __str__(self) -> str:
        return f"{self.text()} {self.currency}"


def units_text(units: int, grouping: str = "") -> str:
    """Minor units as a decimal string; grouping "," separates thousands.

    Every amount in a report, a Money or a bare units column, renders here.
    """
    # MINOR_UNIT_DIGITS places. Fixed format specs and a slice of str(units):
    # a spec built per call, or a divmod, is measurably slower.
    if units < 0:
        return "-" + units_text(-units, grouping)
    if grouping:
        return f"{units // 100:,d}.{units % 100:02d}"
    if units < 100:
        return f"0.{units:02d}"
    digits = str(units)
    return f"{digits[:-2]}.{digits[-2:]}"


def sum_money(items, currency: str = DEFAULT_CURRENCY) -> Money:
    """Exact ordered sum; returns a zero of the given currency when empty.

    The total takes the first item's currency; an item in any other currency
    raises CoreModelError, never has its units relabelled.
    """
    items = tuple(items)
    if items:
        currency = items[0].currency
    for item in items:
        if item.currency != currency:
            raise CoreModelError(f"{currency} vs {item.currency}")
    return Money(sum(item.units for item in items), currency)


def parse_fraction(text: str) -> Fraction:
    """Parse a decimal fraction, accepting an optional trailing '%'."""
    token = text.strip()
    percent = token.endswith("%")
    if percent:
        token = token[:-1].strip()
    try:
        if "_" in token or not token.isascii():  # as in decimal_units
            raise InvalidOperation
        dec = Decimal(token)
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal fraction: {text!r}") from exc
    numerator, denominator = _integer_ratio(dec, text)
    return Fraction(numerator, denominator * 100 if percent else denominator)


def fraction_to_decimal_text(value: Fraction) -> str:
    """Exact decimal rendering of a terminating rational.

    Raises ValueError for non-terminating fractions; table files only carry
    decimal fractions, so everything loadable round-trips.
    """
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{value} has no terminating decimal form")
    places = max(twos, fives)
    scaled = value.numerator * 10**places // value.denominator
    if places == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    text = f"{sign}{digits[:-places]}.{digits[-places:]}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


def format_percent(value: Fraction | int) -> str:
    """Half-even percentage rendering to two decimal places."""
    numerator, denominator = value.as_integer_ratio()
    hundredths = _divide_half_even(numerator * 10_000, denominator)
    if hundredths < 0:
        hundredths = -hundredths
        return f"-{hundredths // 100}.{hundredths % 100:02d}%"
    return f"{hundredths // 100}.{hundredths % 100:02d}%"
