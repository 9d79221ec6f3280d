"""Fixed-point money core: construction, arithmetic, rounding, formatting."""

from __future__ import annotations

import re
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regcap import Money
from regcap.errors import CoreModelError
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
        "token", [
            "Infinity", "-inf", "NaN", "1e5000", "-1e5000", "1e-5000", "1e31",
            # Decimal() reads these, but a numeric cell takes ASCII digits only
            "1_000.00", "\uff11\uff10.00", "\u0661\u0662\u0663.00",
            # blanks around a refused token are quoted with it, as given
            "\xa01_000.00\u2003", " lots\n",
        ]
    )
    def test_rejects_non_finite_and_out_of_range_amounts(self, token):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            Money.from_decimal(token, "EUR")

    @pytest.mark.parametrize("token", ["10.25", " 10.25\n", "\xa010.25\u2003", "\t1025e-2 "])
    def test_reads_blanks_around_an_amount_as_a_cell_does(self, token):
        assert Money.from_decimal(token, "EUR") == eur("10.25")

    def test_magnitude_bound_keeps_31_integer_digits_and_any_zero(self):
        largest = "9" * (MAX_DECIMAL_EXPONENT + 1) + ".99"
        assert Money.from_decimal(largest).text() == largest
        assert Money.from_decimal("0e5000").units == 0

    def test_rejects_non_integer_units(self):
        # A bool is an int to isinstance, but Money(True) is not a cent.
        for units in (1.5, True, False):
            with pytest.raises(TypeError):
                Money(units=units)  # type: ignore[arg-type]

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
        # Amounts are compared through their units; Money itself is unordered.
        with pytest.raises(TypeError):
            eur("1") < eur("2")

    def test_currency_mismatch(self):
        with pytest.raises(CoreModelError, match="^EUR vs USD$"):
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

    def test_takes_the_first_currency_and_never_relabels(self):
        assert sum_money([Money(1, "USD")], currency="EUR") == Money(1, "USD")
        with pytest.raises(CoreModelError, match=r"^EUR vs USD$"):
            sum_money([eur("0.01"), Money(1, "USD")])


class TestFractionHelpers:
    def test_parse_fraction_decimal(self):
        assert parse_fraction("0.5") == Fraction(1, 2)

    def test_parse_fraction_percent(self):
        assert parse_fraction("50%") == Fraction(1, 2)
        assert parse_fraction("8 %") == Fraction(2, 25)

    def test_parse_fraction_rejects_junk(self):
        for token in (
            "half", "Infinity", "inf%", "-inf", "NaN", "1e5000", "1e-5000 %",
            "0_5", "1_0 %", "\uff15%", "0.\u0665",
        ):
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


def reference_percent(value: Fraction) -> str:
    scaled = round(value * 100 * 100)
    sign = "-" if scaled < 0 else ""
    digits = abs(scaled)
    return f"{sign}{digits // 100}.{digits % 100:02d}%"


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
            # ties at the last rendered place, and at the one after it
            st.integers(-BIG, BIG).map(lambda n: Fraction(2 * n + 1, 2 * 10**4)),
            st.integers(-BIG, BIG).map(lambda n: Fraction(2 * n + 1, 2 * 10**5)),
            st.fractions(max_denominator=10**9),
            st.integers(-BIG, BIG),
        ),
    )
    def test_format_percent(self, value):
        assert format_percent(value) == reference_percent(value)

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
