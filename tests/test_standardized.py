"""Standardized credit risk: table fidelity, conversion, weighting, totals."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from regcap import (
    BankOptionPolicy,
    CapitalBase,
    CounterpartyClass,
    DEFAULT_CCF,
    DEFAULT_RISK_WEIGHTS,
    Exposure,
    Money,
    PillarOneInputs,
    RatingBucket,
    compliance,
    rwa_portfolio,
    validate_portfolio,
)
from regcap.errors import AggregationError, StandardizedCreditError
from regcap.money import format_percent, sum_money
from regcap.standardized import CcfTable, RiskWeightTable, WeightCell

from conftest import eur

LOW = BankOptionPolicy.LOW_END
HIGH = BankOptionPolicy.HIGH_END


class Line(NamedTuple):
    """One priced line, as the former per-line record held it."""

    exposure_id: str
    ccf: Fraction
    weight: Fraction
    amount: Money


def expand(view, total):
    """The lines of rwa_portfolio's columns, one Line each, in order."""
    return [
        Line(exposure_id, view.keys[index].ccf, view.keys[index].weight,
             Money(units, total.currency))
        for exposure_id, index, units in zip(view.ids, view.key_index, view.units)
    ]


def reference_rwa_exposure(exposure, table, ccf, policy):
    """The former per-line pricer: look both factors up, multiply, round once."""
    if exposure.off_balance_category is None:
        factor = Fraction(1)
    else:
        try:
            factor = ccf.factors[exposure.off_balance_category]
        except KeyError:
            raise StandardizedCreditError(
                f"unknown off-balance category {exposure.off_balance_category!r}"
            ) from None
    try:
        cell = table.cells[(exposure.counterparty, exposure.rating)]
    except KeyError:
        raise StandardizedCreditError(
            f"no weight for ({exposure.counterparty.key}, {exposure.rating.key})"
        ) from None
    weight = cell.resolve(policy)
    amount = exposure.nominal.scaled(factor * weight)
    return Line(exposure_id=exposure.id, ccf=factor, weight=weight, amount=amount)


def reference_rwa_portfolio(exposures, table, ccf, policy):
    """The former portfolio loop: one lookup per line, errors re-worded."""
    lines = []
    for exposure in exposures:
        try:
            lines.append(reference_rwa_exposure(exposure, table, ccf, policy))
        except StandardizedCreditError as err:
            raise type(err)(f"exposure {exposure.id!r}: {err}") from err
    currency = exposures[0].nominal.currency if exposures else "EUR"
    return lines, sum_money((line.amount for line in lines), currency=currency)


def expanded_rwa_portfolio(exposures, table, ccf, policy):
    """rwa_portfolio with its columns expanded to the reference's lines."""
    view, total = rwa_portfolio(validate_portfolio(exposures), table, ccf, policy)
    return expand(view, total), total


def price(exposure, **kwargs):
    """Price a one-exposure book and return its line."""
    return expand(*rwa_portfolio(validate_portfolio([exposure]), **kwargs))[0]


# Golden copy of the published weight matrix, row per class, one value per
# bucket in order (AAA..AA-, A+..A-, BBB+..BBB-, BB+..BB-, B+..B-, <B-,
# unrated), in percent. Range cells carry (low, high).
GOLDEN_WEIGHTS = {
    CounterpartyClass.SOVEREIGN: (0, 20, 50, 100, 100, 150, 100),
    CounterpartyClass.BANK: (20, 50, (50, 100), 100, 100, 150, (50, 100)),
    CounterpartyClass.BANK_SHORT_TERM: (20, 20, 20, 50, 50, 150, 20),
    CounterpartyClass.CORPORATE: (20, 50, 100, 100, 150, 150, 100),
}


def golden_cases():
    for counterparty, row in GOLDEN_WEIGHTS.items():
        for bucket, value in zip(RatingBucket, row):
            low, high = value if isinstance(value, tuple) else (value, value)
            yield counterparty, bucket, Fraction(low, 100), Fraction(high, 100)


class TestDefaultTableFidelity:
    @pytest.mark.parametrize(
        "counterparty,bucket,low,high",
        list(golden_cases()),
        ids=lambda v: getattr(v, "name", str(v)).lower(),
    )
    def test_all_cells_under_both_policies(self, counterparty, bucket, low, high):
        cell = DEFAULT_RISK_WEIGHTS.cells[(counterparty, bucket)]
        assert cell.resolve(LOW) == low
        assert cell.resolve(HIGH) == high

    def test_table_has_exactly_28_cells(self):
        assert len(DEFAULT_RISK_WEIGHTS.cells) == 28

    def test_exactly_two_range_cells_both_on_bank_row(self):
        ranged = [
            key for key, cell in DEFAULT_RISK_WEIGHTS.cells.items() if cell.is_range
        ]
        assert sorted(ranged, key=lambda k: int(k[1])) == [
            (CounterpartyClass.BANK, RatingBucket.BBB_PLUS_TO_BBB_MINUS),
            (CounterpartyClass.BANK, RatingBucket.UNRATED),
        ]

    def test_one_policy_resolves_both_range_cells_together(self):
        bank = CounterpartyClass.BANK
        bbb = DEFAULT_RISK_WEIGHTS.cells[(bank, RatingBucket.BBB_PLUS_TO_BBB_MINUS)]
        unrated = DEFAULT_RISK_WEIGHTS.cells[(bank, RatingBucket.UNRATED)]
        assert bbb.resolve(LOW) == unrated.resolve(LOW) == Fraction(1, 2)
        assert bbb.resolve(HIGH) == unrated.resolve(HIGH) == Fraction(1)


class TestTableValidation:
    def test_missing_cell_in_custom_table(self):
        sparse = RiskWeightTable(
            cells={
                (CounterpartyClass.CORPORATE, RatingBucket.UNRATED): WeightCell.fixed(
                    Fraction(1)
                )
            }
        )
        with pytest.raises(
            StandardizedCreditError, match=r"^exposure 'E': no weight for \(sovereign, unrated\)$"
        ):
            price(exposure(cls=CounterpartyClass.SOVEREIGN), table=sparse)

    def test_weights_capped_at_two(self):
        with pytest.raises(
            StandardizedCreditError, match=r"^weight cell \[21/10, 21/10\] outside \[0, 2\]$"
        ):
            WeightCell.fixed(Fraction(21, 10))
        with pytest.raises(
            StandardizedCreditError, match=r"^weight cell \[-1/10, 1/2\] outside \[0, 2\]$"
        ):
            WeightCell(Fraction(-1, 10), Fraction(1, 2))

    def test_custom_table_may_use_any_weight_up_to_cap(self):
        cell = WeightCell.fixed(Fraction(2))
        assert cell.resolve(LOW) == Fraction(2)


def exposure(id="E", cls=CounterpartyClass.CORPORATE, rating=RatingBucket.UNRATED,
             nominal="100.00", category=None, short_term=False) -> Exposure:
    return Exposure(
        id=id,
        counterparty=cls,
        rating=rating,
        nominal=eur(nominal),
        off_balance_category=category,
        short_term=short_term,
    )



class TestConvertOffBalance:
    """The credit equivalent, nominal x CCF, seen through a 100% weight line."""

    def test_worked_conversion(self):
        line = price(
            exposure(nominal="10000000.00", category="medium_term_confirmed_facility")
        )
        assert line.ccf == Fraction(1, 2)
        assert line.amount == eur("5000000.00")

    def test_zero_nominal(self):
        line = price(exposure(nominal="0", category="guarantee"))
        assert line.amount == eur("0")

    def test_identity_factor(self):
        line = price(exposure(nominal="1000.00", category="documentary_credit"))
        assert line.amount == eur("1000.00")

    def test_unknown_category(self):
        with pytest.raises(
            StandardizedCreditError,
            match="^exposure 'E': unknown off-balance category 'revolving_underwriting_facility'$",
        ):
            price(exposure(category="revolving_underwriting_facility"))

    def test_factor_bounds_enforced(self):
        with pytest.raises(
            StandardizedCreditError, match=r"^conversion factor for 'x' outside \[0, 1\]$"
        ):
            CcfTable(factors={"x": Fraction(3, 2)})

class TestRwaExposure:
    def test_worked_example_line(self):
        line = price(
            exposure(
                id="W1",
                cls=CounterpartyClass.BANK,
                rating=RatingBucket.AAA_TO_AA_MINUS,
                nominal="10000000.00",
                category="medium_term_confirmed_facility",
            )
        )
        assert line.ccf == Fraction(1, 2)
        assert line.weight == Fraction(1, 5)
        assert line.amount == eur("1000000.00")

    def test_zero_weight_sovereign(self):
        line = price(
            exposure(cls=CounterpartyClass.SOVEREIGN,
                     rating=RatingBucket.AAA_TO_AA_MINUS)
        )
        assert line.amount == eur("0")
        assert line.ccf == Fraction(1)

    def test_unrated_corporate_keeps_nominal(self):
        line = price(exposure(nominal="200.00"))
        assert line.amount == eur("200.00")

    def test_single_rounding_after_full_product(self):
        # 5 units x 0.5 x 0.7: exact product 1.75 -> 2 units; rounding the
        # credit equivalent first would give round(2.5)=2 -> 1.4 -> 1 unit
        table = RiskWeightTable(
            cells={
                (CounterpartyClass.CORPORATE, RatingBucket.UNRATED): WeightCell.fixed(
                    Fraction(7, 10)
                )
            }
        )
        ccf = CcfTable(factors={"g": Fraction(1, 2)})
        line = price(
            exposure(nominal="0.05", category="g"), table=table, ccf=ccf
        )
        assert line.amount.units == 2

    def test_propagates_missing_cell(self):
        sparse = RiskWeightTable(cells={})
        with pytest.raises(
            StandardizedCreditError, match=r"^exposure 'E': no weight for \(corporate, unrated\)$"
        ):
            price(exposure(), table=sparse)


class TestRwaPortfolio:
    def test_empty(self):
        view, total = rwa_portfolio(validate_portfolio([]))
        assert view.ids == view.key_index == view.units == view.keys == ()
        assert total == eur("0")

    def test_two_exposure_derived_total(self):
        book = validate_portfolio(
            [
                exposure(
                    id="W1",
                    cls=CounterpartyClass.BANK,
                    rating=RatingBucket.AAA_TO_AA_MINUS,
                    nominal="10000000.00",
                    category="medium_term_confirmed_facility",
                ),
                exposure(id="C1", nominal="200.00"),
            ]
        )
        view, total = rwa_portfolio(book)
        lines = expand(view, total)
        assert [line.amount for line in lines] == [eur("1000000.00"), eur("200.00")]
        assert total == eur("1000200.00")

    def test_three_exposure_brute_force_oracle(self):
        book = validate_portfolio(
            [
                exposure(id="A", cls=CounterpartyClass.SOVEREIGN,
                         rating=RatingBucket.BBB_PLUS_TO_BBB_MINUS, nominal="123.45"),
                exposure(id="B", cls=CounterpartyClass.BANK,
                         rating=RatingBucket.BB_PLUS_TO_BB_MINUS, nominal="67.89",
                         category="guarantee"),
                exposure(id="C", cls=CounterpartyClass.CORPORATE,
                         rating=RatingBucket.B_PLUS_TO_B_MINUS, nominal="0.07"),
            ]
        )
        _, total = rwa_portfolio(book, policy=HIGH)
        # independent recomputation with rational arithmetic
        expected_units = 0
        for e in book:
            ccf = (
                DEFAULT_CCF.factors[e.off_balance_category]
                if e.off_balance_category
                else Fraction(1)
            )
            weight = DEFAULT_RISK_WEIGHTS.cells[(e.counterparty, e.rating)].resolve(HIGH)
            expected_units += round(Fraction(e.nominal.units) * ccf * weight)
        assert total.units == expected_units

    def test_line_order_matches_input(self):
        book = validate_portfolio([exposure(id="Z"), exposure(id="A")])
        view, _ = rwa_portfolio(book)
        assert view.ids == ("Z", "A")

    def test_per_line_error_cites_exposure_id(self):
        book = validate_portfolio([exposure(id="BAD", category="mystery")])
        with pytest.raises(
            StandardizedCreditError,
            match="^exposure 'BAD': unknown off-balance category 'mystery'$",
        ):
            rwa_portfolio(book)

    def test_refuses_an_unvalidated_list(self):
        # a list skips validate_portfolio: here a negative amount and a repeated id
        line = exposure(nominal="-100.00")
        with pytest.raises(TypeError, match="validate_portfolio"):
            rwa_portfolio([line, line])


def required_capital(credit_rwa: Money) -> Money:
    """Minimum own funds with credit as the only risk, as compliance() sets it."""
    inputs = PillarOneInputs(
        credit_rwa=credit_rwa,
        market_capital_charge=eur("0"),
        oprisk_capital_charge=eur("0"),
    )
    return compliance(CapitalBase(eur("0")), inputs).min_required_capital


class TestRequiredCapital:
    def test_sub_b_minus_sovereign_needs_12_percent(self):
        line = price(
            exposure(cls=CounterpartyClass.SOVEREIGN, rating=RatingBucket.BELOW_B_MINUS,
                     nominal="100.00")
        )
        assert line.amount == eur("150.00")
        assert required_capital(line.amount) == eur("12.00")

    def test_zero(self):
        assert required_capital(eur("0")) == eur("0")

    def test_worked_example_capital(self):
        assert required_capital(eur("1000000.00")) == eur("80000.00")

    def test_negative_rejected(self):
        with pytest.raises(
            AggregationError, match="^credit rwa must be non-negative, got -1.00 EUR$"
        ):
            required_capital(-eur("1"))


class TestProperties:
    def test_off_balance_dominance(self):
        on = price(exposure(id="on", nominal="999.99"))
        off = price(
            exposure(id="off", nominal="999.99",
                     category="medium_term_confirmed_facility")
        )
        assert off.amount.units <= on.amount.units

    def test_rating_monotonicity_spot(self):
        rated = [b for b in RatingBucket if b is not RatingBucket.UNRATED]
        for counterparty in CounterpartyClass:
            for policy in (LOW, HIGH):
                cells = DEFAULT_RISK_WEIGHTS.cells
                weights = [cells[(counterparty, b)].resolve(policy) for b in rated]
                assert weights == sorted(weights), (counterparty, policy)


# ---------------------------------------------------------------------------
# Differential check against the per-line reference pricer

ALL_CELL_KEYS = [(c, b) for c in CounterpartyClass for b in RatingBucket]
CATEGORY_NAMES = ("guarantee", "facility", "credit")


@st.composite
def weight_cells(draw):
    denominator = draw(st.sampled_from([1, 3, 7, 100]))
    low = draw(st.integers(0, 2 * denominator))
    high = draw(st.one_of(st.just(low), st.integers(low, 2 * denominator)))
    return WeightCell(Fraction(low, denominator), Fraction(high, denominator))


@st.composite
def tables(draw, complete: bool):
    """A custom weight table (range cells included) and a conversion table;
    an incomplete pair may lack any cell and any category."""
    if complete:
        keys, categories = ALL_CELL_KEYS, CATEGORY_NAMES
    else:
        keys = draw(st.lists(st.sampled_from(ALL_CELL_KEYS), unique=True))
        categories = draw(st.lists(st.sampled_from(CATEGORY_NAMES), unique=True))
    cells = {key: draw(weight_cells()) for key in keys}
    factors = {}
    for category in categories:
        denominator = draw(st.sampled_from([1, 2, 3, 100]))
        factors[category] = Fraction(draw(st.integers(0, denominator)), denominator)
    return RiskWeightTable(cells=cells), CcfTable(factors=factors)


@st.composite
def books(draw):
    """Exposures drawn from a few (class, bucket, category) keys, so that most
    keys repeat, interleaved in any order."""
    keys = draw(st.lists(
        st.tuples(
            st.sampled_from(CounterpartyClass),
            st.sampled_from(RatingBucket),
            st.one_of(st.none(), st.sampled_from(CATEGORY_NAMES)),
        ),
        min_size=1, max_size=4,
    ))
    count = draw(st.integers(0, 12))
    return [
        Exposure(
            id=f"E{index}",
            counterparty=counterparty,
            rating=rating,
            nominal=Money(draw(st.integers(0, 10**9)), "EUR"),
            off_balance_category=category,
            short_term=counterparty is CounterpartyClass.BANK_SHORT_TERM,
        )
        for index, (counterparty, rating, category) in enumerate(
            draw(st.sampled_from(keys)) for _ in range(count)
        )
    ]


def outcome(pricer, book, table, ccf, policy):
    """(lines, total), or the (type, message) of the error raised."""
    try:
        return pricer(book, table, ccf, policy)
    except StandardizedCreditError as exc:
        return type(exc), str(exc)


class TestResolvedOncePerKey:
    @settings(max_examples=200, deadline=None)
    @given(books(), tables(complete=True), st.sampled_from(BankOptionPolicy))
    def test_matches_the_per_line_reference(self, book, pair, policy):
        table, ccf = pair
        lines, total = expanded_rwa_portfolio(book, table, ccf, policy)
        assert (lines, total) == reference_rwa_portfolio(book, table, ccf, policy)

    @settings(max_examples=100, deadline=None)
    @given(books(), tables(complete=True), st.sampled_from(BankOptionPolicy))
    def test_each_key_is_resolved_and_formatted_once(self, book, pair, policy):
        table, ccf = pair
        view, _ = rwa_portfolio(validate_portfolio(book), table, ccf, policy)
        assert sorted(set(view.key_index)) == list(range(len(view.keys)))
        distinct = {
            (e.counterparty, e.rating, e.off_balance_category) for e in book
        }
        assert len(view.keys) == len(distinct)
        for key in view.keys:
            assert key.product == key.ccf * key.weight
            assert key.ccf_text == format_percent(key.ccf)
            assert key.weight_text == format_percent(key.weight)

    @settings(max_examples=200, deadline=None)
    @given(books(), tables(complete=False), st.sampled_from(BankOptionPolicy))
    def test_errors_match_the_per_line_reference(self, book, pair, policy):
        table, ccf = pair
        assert outcome(expanded_rwa_portfolio, book, table, ccf, policy) == outcome(
            reference_rwa_portfolio, book, table, ccf, policy
        )

    def test_missing_cell_names_the_first_offending_exposure(self):
        corporate = (CounterpartyClass.CORPORATE, RatingBucket.UNRATED)
        table = RiskWeightTable(cells={corporate: WeightCell.fixed(Fraction(1))})
        book = [exposure(id="OK"), exposure(id="B1", cls=CounterpartyClass.BANK),
                exposure(id="B2", cls=CounterpartyClass.BANK)]
        expected = (StandardizedCreditError, "exposure 'B1': no weight for (bank, unrated)")
        for pricer in (expanded_rwa_portfolio, reference_rwa_portfolio):
            assert outcome(pricer, book, table, DEFAULT_CCF, LOW) == expected

    def test_unknown_category_checked_before_the_cell(self):
        book = [exposure(id="X", cls=CounterpartyClass.BANK, category="mystery")]
        table = RiskWeightTable(cells={})
        expected = (
            StandardizedCreditError, "exposure 'X': unknown off-balance category 'mystery'"
        )
        for pricer in (expanded_rwa_portfolio, reference_rwa_portfolio):
            assert outcome(pricer, book, table, DEFAULT_CCF, LOW) == expected
