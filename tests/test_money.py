"""Fixed-point money core: construction, arithmetic, rounding, formatting."""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regcap import Money
from regcap.errors import CurrencyMismatch
from regcap.money import (
    MAX_DECIMAL_EXPONENT,
    format_percent,
    fraction_to_decimal_text,
    parse_fraction,
    round_half_even,
    sum_money,
)

from conftest import eur


class TestConstruction:
    def test_from_decimal_minor_units(self):
        assert eur("10.25").units == 1025

    def test_from_decimal_integral(self):
        assert eur(3).units == 300

    def test_rejects_sub_minor_amounts(self):
        with pytest.raises(ValueError):
            Money.from_decimal(Decimal("1.005"), "EUR")

    @pytest.mark.parametrize(
        "token", ["Infinity", "-inf", "NaN", "1e5000", "-1e5000", "1e-5000", "1e31"]
    )
    def test_rejects_non_finite_and_out_of_range_amounts(self, token):
        with pytest.raises(ValueError):
            Money.from_decimal(token, "EUR")

    def test_magnitude_bound_keeps_31_integer_digits_and_any_zero(self):
        largest = "9" * (MAX_DECIMAL_EXPONENT + 1) + ".99"
        assert Money.from_decimal(largest).text() == largest
        assert Money.from_decimal("0e5000").units == 0

    def test_rejects_non_integer_units(self):
        with pytest.raises(TypeError):
            Money(units=1.5)  # type: ignore[arg-type]

    def test_amount_round_trips(self):
        assert Money.from_decimal(eur("1234.56").text(), "EUR") == eur("1234.56")
        largest = Money(10**30 + 1, "EUR")
        assert largest.text() == "10000000000000000000000000000.01"
        assert Money.from_decimal(largest.text(), "EUR") == largest

    def test_zero(self):
        assert Money.zero("EUR").units == 0


class TestArithmetic:
    def test_add_sub(self):
        assert eur("1.10") + eur("2.25") == eur("3.35")
        assert eur("3.35") - eur("2.25") == eur("1.10")

    def test_negation_and_sign(self):
        assert (-eur("5")).units == -500
        assert (-eur("5")).is_negative
        assert not eur("5").is_negative

    def test_ordering(self):
        assert eur("1") < eur("2") <= eur("2")

    def test_currency_mismatch(self):
        with pytest.raises(CurrencyMismatch):
            eur("1") + Money.from_decimal(Decimal("1"), "USD")


class TestScaled:
    def test_exact_product(self):
        assert eur("10000000").scaled(Fraction(1, 2)) == eur("5000000")

    def test_single_rounding_after_full_product(self):
        # 333.33 x 0.15 = 49.9995 -> 50.00 under half-even at minor units
        assert eur("333.33").scaled(Fraction(15, 100)) == eur("50.00")

    def test_half_even_ties(self):
        assert Money(5).scaled(Fraction(1, 2)).units == 2  # 2.5 -> 2
        assert Money(7).scaled(Fraction(1, 2)).units == 4  # 3.5 -> 4

    def test_ratio_to(self):
        assert eur("80").ratio_to(eur("1000")) == Fraction(2, 25)

    def test_ratio_to_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            eur("1").ratio_to(eur("0"))


class TestRounding:
    def test_round_half_even_exact_on_fractions(self):
        assert round_half_even(Fraction(5, 2)) == 2
        assert round_half_even(Fraction(7, 2)) == 4
        assert round_half_even(Fraction(-5, 2)) == -2

    def test_round_half_even_int_passthrough(self):
        assert round_half_even(17) == 17


class TestSumMoney:
    def test_empty_sum_is_zero(self):
        assert sum_money([], currency="EUR") == Money.zero("EUR")

    def test_ordered_exact_sum(self):
        assert sum_money([eur("0.01")] * 3) == eur("0.03")


class TestFractionHelpers:
    def test_parse_fraction_decimal(self):
        assert parse_fraction("0.5") == Fraction(1, 2)

    def test_parse_fraction_percent(self):
        assert parse_fraction("50%") == Fraction(1, 2)
        assert parse_fraction("8 %") == Fraction(2, 25)

    def test_parse_fraction_rejects_junk(self):
        for token in ("half", "Infinity", "inf%", "-inf", "NaN", "1e5000", "1e-5000 %"):
            with pytest.raises(ValueError):
                parse_fraction(token)

    def test_fraction_to_decimal_text(self):
        assert fraction_to_decimal_text(Fraction(1, 2)) == "0.5"
        assert fraction_to_decimal_text(Fraction(3)) == "3"

    def test_fraction_to_decimal_text_rejects_non_terminating(self):
        with pytest.raises(ValueError):
            fraction_to_decimal_text(Fraction(1, 3))

    def test_format_percent(self):
        assert format_percent(Fraction(2, 25)) == "8.00%"
        assert format_percent(Fraction(1, 3)) == "33.33%"


class TestFormatting:
    def test_text_plain(self):
        assert eur("1234567.89").text() == "1234567.89"

    def test_formatted_thousands(self):
        assert eur("1234567.89").formatted() == "1,234,567.89"

    def test_str_carries_currency(self):
        assert str(eur("1.50")) == "1.50 EUR"

    def test_negative_rendering(self):
        assert (-eur("1.50")).text() == "-1.50"


# The Fraction and Decimal implementations the integer kernel replaced. They
# stay here as the oracle: the kernel must agree with them bit for bit.


def reference_round(value) -> int:
    return round(Fraction(value))


def reference_scaled(units: int, factor: Fraction) -> int:
    return round(Fraction(units) * factor)


def reference_percent(value: Fraction, places: int) -> str:
    quantum = 10**places
    scaled = round(value * 100 * quantum)
    sign = "-" if scaled < 0 else ""
    digits = abs(scaled)
    return f"{sign}{digits // quantum}.{digits % quantum:0{places}d}%"


def reference_render(units: int, grouping: str) -> str:
    # Wide enough that Decimal rounds nothing; the default context keeps
    # only 28 significant digits.
    with localcontext(Context(prec=100)):
        amount = Decimal(units).scaleb(-2)
        return f"{amount:{grouping}.2f}"


def reference_parse(text: str) -> Fraction:
    token = text.strip()
    percent = token.endswith("%")
    if percent:
        token = token[:-1].strip()
    value = Fraction(Decimal(token))
    return value / 100 if percent else value


KERNEL = settings(max_examples=300, deadline=None)
BIG = 10**40
# Exact ties: an odd number of halves.
ties = st.integers(-BIG, BIG).map(lambda n: Fraction(2 * n + 1, 2))
rationals = st.one_of(
    ties, st.fractions(max_denominator=10**12), st.integers(-BIG, BIG)
)


class TestKernelMatchesReference:
    @KERNEL
    @given(value=rationals)
    def test_round_half_even(self, value):
        assert round_half_even(value) == reference_round(value)

    @KERNEL
    @given(
        units=st.integers(-BIG, BIG),
        factor=st.one_of(ties, st.fractions(max_denominator=10**9), st.integers(-9, 9)),
    )
    def test_scaled(self, units, factor):
        money = Money(units, "EUR")
        assert money.scaled(factor) == Money(reference_scaled(units, factor), "EUR")

    @KERNEL
    @given(
        value=st.one_of(
            # ties at the last rendered place of 2 and of 3 places
            st.integers(-BIG, BIG).map(lambda n: Fraction(2 * n + 1, 2 * 10**4)),
            st.integers(-BIG, BIG).map(lambda n: Fraction(2 * n + 1, 2 * 10**5)),
            st.fractions(max_denominator=10**9),
        ),
        places=st.sampled_from([0, 2, 3]),
    )
    def test_format_percent(self, value, places):
        assert format_percent(value, places) == reference_percent(value, places)

    @KERNEL
    @given(units=st.one_of(st.integers(-BIG, BIG), st.integers(-10**6, 10**6)))
    def test_text_and_formatted(self, units):
        money = Money(units, "EUR")
        assert money.text() == reference_render(units, "")
        assert money.formatted() == reference_render(units, ",")

    @KERNEL
    @given(
        mantissa=st.integers(-10**18, 10**18),
        exponent=st.integers(-12, 12),
        suffix=st.sampled_from(["", "%", " %"]),
    )
    def test_parse_fraction(self, mantissa, exponent, suffix):
        for token in (f"{mantissa}e{exponent}", str(Decimal(mantissa).scaleb(exponent))):
            text = token + suffix
            assert parse_fraction(text) == reference_parse(text)
