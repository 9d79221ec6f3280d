"""Core model: rating parsing, exposures, portfolio and capital validation."""

from __future__ import annotations

import copy
import pickle
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regcap import (
    CapitalBase,
    CounterpartyClass,
    Exposure,
    IrbParams,
    Money,
    RatingBucket,
    ValidationFailure,
    load_portfolio,
    validate_portfolio,
)
from regcap.cli import _ESCAPES
from regcap.engine import IrbColumns
from regcap.errors import CoreModelError
from regcap.model import _CONTROL_CHARACTER, Portfolio, parse_rating
from regcap.standardized import ResolvedKey, StandardizedColumns

from conftest import DATA_DIR, eur

# The full published token set and where each token must land.
TOKEN_CASES = [
    ("AAA", RatingBucket.AAA_TO_AA_MINUS),
    ("AA+", RatingBucket.AAA_TO_AA_MINUS),
    ("AA", RatingBucket.AAA_TO_AA_MINUS),
    ("AA-", RatingBucket.AAA_TO_AA_MINUS),
    ("A+", RatingBucket.A_PLUS_TO_A_MINUS),
    ("A", RatingBucket.A_PLUS_TO_A_MINUS),
    ("A-", RatingBucket.A_PLUS_TO_A_MINUS),
    ("BBB+", RatingBucket.BBB_PLUS_TO_BBB_MINUS),
    ("BBB", RatingBucket.BBB_PLUS_TO_BBB_MINUS),
    ("BBB-", RatingBucket.BBB_PLUS_TO_BBB_MINUS),
    ("BB+", RatingBucket.BB_PLUS_TO_BB_MINUS),
    ("BB", RatingBucket.BB_PLUS_TO_BB_MINUS),
    ("BB-", RatingBucket.BB_PLUS_TO_BB_MINUS),
    ("B+", RatingBucket.B_PLUS_TO_B_MINUS),
    ("B", RatingBucket.B_PLUS_TO_B_MINUS),
    ("B-", RatingBucket.B_PLUS_TO_B_MINUS),
    ("<B-", RatingBucket.BELOW_B_MINUS),
    ("unrated", RatingBucket.UNRATED),
]


def on_balance(id: str, cls: CounterpartyClass = CounterpartyClass.CORPORATE,
               rating: RatingBucket = RatingBucket.UNRATED, nominal="100.00",
               **kwargs) -> Exposure:
    return Exposure(id=id, counterparty=cls, rating=rating, nominal=eur(nominal),
                    **kwargs)


class TestParseRating:
    @pytest.mark.parametrize("token,bucket", TOKEN_CASES)
    def test_token_map(self, token, bucket):
        assert parse_rating(token) is bucket

    def test_whitespace_and_case_insensitive(self):
        assert parse_rating("  bbb- ") is RatingBucket.BBB_PLUS_TO_BBB_MINUS
        assert parse_rating("UNRATED") is RatingBucket.UNRATED

    @pytest.mark.parametrize("junk", ["CCC", "D", "", "AAA+", "B--", "sub-b"])
    def test_unknown_tokens_rejected(self, junk):
        with pytest.raises(CoreModelError) as caught:
            parse_rating(junk)
        assert str(caught.value) == f"unknown rating token {junk!r}"

    def test_buckets_ordered_strong_to_weak(self):
        rated = [b for b in RatingBucket if b is not RatingBucket.UNRATED]
        assert rated == sorted(rated)
        assert RatingBucket.UNRATED == max(RatingBucket)


class TestValidatePortfolio:
    def test_empty_is_valid(self):
        portfolio = validate_portfolio([])
        assert len(portfolio) == 0

    def test_collects_all_violations_at_once(self):
        bad = [
            on_balance("X", nominal="-1.00"),
            on_balance("X"),
            Exposure(
                id="Y",
                counterparty=CounterpartyClass.BANK_SHORT_TERM,
                rating=RatingBucket.A_PLUS_TO_A_MINUS,
                nominal=eur("10.00"),
                short_term=False,
            ),
        ]
        with pytest.raises(ValidationFailure) as excinfo:
            validate_portfolio(bad)
        violations = excinfo.value.violations
        assert len(violations) == 3
        assert any("negative" in v for v in violations)
        assert any("duplicate" in v for v in violations)
        assert any("short-term" in v for v in violations)

    def test_mixed_currencies_rejected(self):
        from regcap import Money
        from decimal import Decimal

        items = [
            on_balance("A"),
            Exposure(
                id="B",
                counterparty=CounterpartyClass.CORPORATE,
                rating=RatingBucket.UNRATED,
                nominal=Money.from_decimal(Decimal("5"), "USD"),
            ),
        ]
        with pytest.raises(ValidationFailure, match="mixed currencies"):
            validate_portfolio(items)

    def test_pd_and_lgd_bounds_checked(self):
        bad = on_balance("A", pd=Fraction(3, 2), lgd=Fraction(-1, 10))
        with pytest.raises(ValidationFailure) as excinfo:
            validate_portfolio([bad])
        assert len(excinfo.value.violations) == 2

    def test_a_directly_built_portfolio_checks_itself(self):
        corporate, unrated = CounterpartyClass.CORPORATE, RatingBucket.UNRATED
        with pytest.raises(ValidationFailure) as excinfo:
            Portfolio(
                ("A", "A"), (corporate, corporate), (unrated, unrated),
                (-100_00, 100_00), (None, None), (False, False),
                (None, Fraction(3, 2)), (None, None), (None, None), (None, None), "EUR",
            )
        assert excinfo.value.violations == [
            "exposure 'A': negative amount -100.00 EUR",
            "duplicate id 'A'",
            "exposure 'A': pd 3/2 outside [0, 1]",
        ]
        bad = (
            on_balance("A", nominal="-100.00"),
            on_balance("A", pd=Fraction(3, 2)),
            Exposure("B", CounterpartyClass.CORPORATE, RatingBucket.UNRATED,
                     Money(100_00, "USD")),
        )
        with pytest.raises(ValidationFailure) as excinfo:
            validate_portfolio(bad, "EUR")
        assert excinfo.value.violations == [
            "exposure 'A': negative amount -100.00 EUR",
            "duplicate id 'A'",
            "exposure 'A': pd 3/2 outside [0, 1]",
            "mixed currencies: EUR, USD",
        ]

    def test_a_field_of_another_type_is_a_violation(self):
        bad = (
            on_balance("F", pd=0.5),
            Exposure("I", CounterpartyClass.CORPORATE, RatingBucket.UNRATED, 100),
            on_balance("E", ead=100.0, lgd=Decimal("0.5"), maturity_years="3"),
        )
        expected = [
            "exposure 'F': pd 0.5 is not a Fraction",
            "exposure 'I': nominal 100 is not Money",
            "exposure 'E': ead 100.0 is not Money",
            "exposure 'E': lgd Decimal('0.5') is not a Fraction",
            "exposure 'E': maturity '3' is not a Fraction",
        ]
        with pytest.raises(ValidationFailure) as excinfo:
            validate_portfolio(bad, "EUR")
        assert excinfo.value.violations == expected
        with pytest.raises(ValidationFailure) as excinfo:
            validate_portfolio(bad[1:])
        assert excinfo.value.violations == expected[1:]

    def test_int_components_are_accepted(self):
        exposure = on_balance("A", pd=0, lgd=1, ead=eur("1.00"), maturity_years=3)
        assert validate_portfolio([exposure], "EUR").exposures == (exposure,)

    def test_a_list_is_stored_as_a_tuple(self):
        columns = [["A"], [CounterpartyClass.CORPORATE], [RatingBucket.UNRATED], [100_00],
                   [None], [False], [None], [None], [None], [None]]
        portfolio = Portfolio(*columns, "EUR")
        for column in columns:
            column.append(column[0])
        assert portfolio.ids == ("A",)
        assert portfolio.exposures == (on_balance("A"),)

    def test_preserves_order_and_currency(self):
        portfolio = validate_portfolio([on_balance("A"), on_balance("B")])
        assert isinstance(portfolio, Portfolio)
        assert [e.id for e in portfolio] == ["A", "B"]
        assert portfolio.currency == "EUR"

    def test_off_balance_flag(self):
        exposure = on_balance("A", off_balance_category="guarantee")
        assert exposure.off_balance_category is not None
        assert on_balance("B").off_balance_category is None

    @pytest.mark.parametrize("bad_id,violation", [
        ("a\nb", "id 'a\\nb' contains a control character"),
        ("a\u2028b", "id 'a\\u2028b' contains a control character"),
        (7, "id 7 is not a string"),
        ("", "empty id"),
    ])
    def test_an_id_is_a_non_empty_string_without_control_characters(
        self, bad_id, violation
    ):
        # The text report prints one line per id; 'a\nb' would print two.
        with pytest.raises(ValidationFailure) as excinfo:
            validate_portfolio([on_balance(bad_id), on_balance("B")])
        assert excinfo.value.violations == [violation]
        corporate, unrated = CounterpartyClass.CORPORATE, RatingBucket.UNRATED
        with pytest.raises(ValidationFailure) as excinfo:
            Portfolio((bad_id,), (corporate,), (unrated,), (1,), (None,), (False,),
                      (None,), (None,), (None,), (None,), "EUR")
        assert excinfo.value.violations == [violation]

    def test_the_control_characters_are_the_regex_class_they_replace(self):
        # Every code point, surrogates included: the set holds exactly what the
        # class matched, and the CLI's table escapes each one as repr does.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        old = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")
        assert _CONTROL_CHARACTER == set(old.findall(every))
        assert every.translate(_ESCAPES) == old.sub(lambda match: repr(match[0])[1:-1], every)

    @pytest.mark.parametrize("column,value,violation", [
        ("ids", "B", "duplicate id 'B'"),
        ("nominal_units", -1, "exposure 'A': negative amount -0.01 EUR"),
        ("ead_units", -1, "exposure 'A': negative exposure-at-default -0.01 EUR"),
        ("nominal_units", 1.0, "exposure 'A': nominal 1.0 is not Money"),
        ("counterparties", "corporate", "exposure 'A': no counterparty class"),
        ("ratings", 6, "exposure 'A': no rating bucket"),
        ("counterparties", CounterpartyClass.BANK_SHORT_TERM,
         "exposure 'A': bank_short_term requires the short-term flag"),
        ("pds", Fraction(-1, 100), "exposure 'A': pd -1/100 outside [0, 1]"),
        ("pds", 2, "exposure 'A': pd 2 outside [0, 1]"),
        ("pds", 0.5, "exposure 'A': pd 0.5 is not a Fraction"),
        ("lgds", Fraction(101, 100), "exposure 'A': lgd 101/100 outside [0, 1]"),
        ("maturities", Fraction(0), "exposure 'A': maturity must be positive"),
        ("nominal_units", None, "exposure 'A': nominal None is not Money"),
        ("ead_units", "1", "exposure 'A': ead '1' is not Money"),
        ("lgds", 0.5, "exposure 'A': lgd 0.5 is not a Fraction"),
        ("maturities", "3", "exposure 'A': maturity '3' is not a Fraction"),
        ("pds", True, "exposure 'A': pd True is not a Fraction"),
    ])
    def test_each_rule_holds_for_columns_alone(self, column, value, violation):
        # One broken cell in an otherwise valid two-line book.
        book = validate_portfolio(
            [on_balance("A", ead=eur("1.00")), on_balance("B", ead=eur("1.00"))]
        )
        columns = {name: getattr(book, name) for name in Portfolio.__slots__}
        columns[column] = (value,) + columns[column][1:]
        with pytest.raises(ValidationFailure) as excinfo:
            Portfolio(**columns)
        assert excinfo.value.violations == [violation]

    def test_an_amount_in_another_currency_is_listed_in_its_own(self):
        bad = Exposure("A", CounterpartyClass.CORPORATE, RatingBucket.UNRATED,
                       Money(-100, "USD"))
        with pytest.raises(ValidationFailure) as excinfo:
            validate_portfolio([bad], "EUR")
        assert excinfo.value.violations == [
            "exposure 'A': negative amount -1.00 USD",
            "mixed currencies: EUR, USD",
        ]

    def test_a_bool_component_is_not_an_int(self):
        with pytest.raises(ValidationFailure) as excinfo:
            validate_portfolio([on_balance("A", pd=True, lgd=False, maturity_years=True)])
        assert excinfo.value.violations == [
            "exposure 'A': pd True is not a Fraction",
            "exposure 'A': lgd False is not a Fraction",
            "exposure 'A': maturity True is not a Fraction",
        ]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_break_is_listed_by_line_then_rule(self, data):
        # A valid book of 1-12 lines with 1-4 cells broken from BREAKS, each
        # of which names its message; the listing is line by line, and
        # within a line in the order of the rules' ranks.
        size = data.draw(st.integers(1, 12), label="lines")
        columns = {name: list(column) for name, column in zip(
            Portfolio.__slots__, zip(*[data.draw(valid_line(f"L{i}")) for i in range(size)])
        )}
        broken = data.draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.sampled_from(BREAKS)),
            min_size=1, max_size=4, unique_by=lambda cell: (cell[0], cell[1][0]),
        ).filter(lambda cells: all(line > 0 for line, (column, *_) in cells if column == "ids")))
        for line, (column, value, _, _) in broken:
            columns[column][line] = value
            if value is CounterpartyClass.BANK_SHORT_TERM:
                columns["short_term"][line] = False
        expected = [
            message if rank == 0 else f"exposure {columns['ids'][line]!r}: {message}"
            for line, (_, _, rank, message) in sorted(broken, key=lambda c: (c[0], c[1][2]))
        ]
        with pytest.raises(ValidationFailure) as excinfo:
            Portfolio(**columns, currency="EUR")
        assert excinfo.value.violations == expected

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValidationFailure, match="unequal length: 0, 1"):
            Portfolio(("A",), (), (), (), (), (), (), (), (), (), "EUR")


@st.composite
def valid_line(draw, exposure_id: str) -> tuple:
    """One valid line of a book, in Portfolio column order."""
    counterparty = draw(st.sampled_from(CounterpartyClass))
    component = st.none() | st.sampled_from([0, 1, Fraction(1, 100), Fraction(1, 2)])
    return (
        exposure_id, counterparty, draw(st.sampled_from(RatingBucket)),
        draw(st.integers(0, 10**9)), None,
        counterparty is CounterpartyClass.BANK_SHORT_TERM or draw(st.booleans()),
        draw(component), draw(component), draw(st.none() | st.integers(0, 10**9)),
        draw(st.none() | st.sampled_from([1, Fraction(1, 2), Fraction(5)])),
    )


# (column, bad value, rank of its rule, message): every rule of a book. An id
# is broken only past line 0, so "L0" is always a duplicate.
BREAKS = [
    ("ids", "L0", 0, "duplicate id 'L0'"),
    ("ids", "", 0, "empty id"),
    ("ids", "a\x85b", 0, "id 'a\\x85b' contains a control character"),
    ("ids", 7, 0, "id 7 is not a string"),
    ("counterparties", None, 1, "no counterparty class"),
    ("counterparties", "bank", 1, "no counterparty class"),
    ("ratings", None, 2, "no rating bucket"),
    ("ratings", 0, 2, "no rating bucket"),
    ("nominal_units", -1, 3, "negative amount -0.01 EUR"),
    ("nominal_units", 1.0, 3, "nominal 1.0 is not Money"),
    ("nominal_units", None, 3, "nominal None is not Money"),
    ("nominal_units", True, 3, "nominal True is not Money"),
    ("ead_units", -12345, 4, "negative exposure-at-default -123.45 EUR"),
    ("ead_units", Decimal("1"), 4, "ead Decimal('1') is not Money"),
    ("ead_units", False, 4, "ead False is not Money"),
    ("counterparties", CounterpartyClass.BANK_SHORT_TERM, 5,
     "bank_short_term requires the short-term flag"),
    ("pds", Fraction(-1, 100), 6, "pd -1/100 outside [0, 1]"),
    ("pds", 2, 6, "pd 2 outside [0, 1]"),
    ("pds", 0.5, 6, "pd 0.5 is not a Fraction"),
    ("pds", True, 6, "pd True is not a Fraction"),
    ("lgds", Fraction(101, 100), 7, "lgd 101/100 outside [0, 1]"),
    ("lgds", Decimal("0.5"), 7, "lgd Decimal('0.5') is not a Fraction"),
    ("maturities", 0, 8, "maturity must be positive"),
    ("maturities", Fraction(-1, 2), 8, "maturity must be positive"),
    ("maturities", "3", 8, "maturity '3' is not a Fraction"),
    ("maturities", False, 8, "maturity False is not a Fraction"),
]


IRB_FOUNDATION_CSV = (
    "id,class,rating,nominal,position,off_balance_category,pd\n"
    "F1,corporate,BBB,1000.00,on,,1%\n"
    "F2,bank,A,250.50,off,guarantee,0\n"
    "F3,sovereign,unrated,0,on,,1\n"
)


@pytest.fixture(
    params=["portfolio_golden.csv", "irb_foundation", "irb_small.csv", "empty"]
)
def loaded_book(request, tmp_path) -> Portfolio:
    """A standardized book, a foundation IRB book, the advanced IRB book with a
    zero ead, and a book with no lines."""
    path = DATA_DIR / request.param
    if request.param == "irb_foundation":
        path = tmp_path / "irb.csv"
        path.write_text(IRB_FOUNDATION_CSV, encoding="utf-8")
    elif request.param == "empty":
        path = tmp_path / "empty.csv"
        path.write_text("id,class,rating,nominal,position\n", encoding="utf-8")
    return load_portfolio(path)


class TestTwoWaysIntoAPortfolio:
    """load_portfolio fills the columns from cells, validate_portfolio from
    Exposure records; both must give the same book."""

    def test_validating_a_books_exposures_rebuilds_it(self, loaded_book):
        exposures = loaded_book.exposures
        assert len(exposures) == len(loaded_book)
        assert validate_portfolio(exposures, loaded_book.currency) == loaded_book
        assert tuple(loaded_book) == exposures

    def test_copies_are_equal(self, loaded_book):
        assert copy.copy(loaded_book) == loaded_book
        assert copy.deepcopy(loaded_book) == loaded_book
        assert pickle.loads(pickle.dumps(loaded_book)) == loaded_book

    def test_exposures_read_back_as_given(self):
        given = (
            on_balance("A", pd=0, lgd=1, ead=eur("0.00"), maturity_years=3),
            on_balance("B", cls=CounterpartyClass.BANK_SHORT_TERM, short_term=True,
                       pd=Fraction(1, 100), off_balance_category="guarantee"),
            on_balance("C", nominal="0.00"),
        )
        book = validate_portfolio(given)
        assert book.exposures == given
        first, second, third = book.exposures
        assert type(first.pd) is int and type(first.maturity_years) is int
        assert second.lgd is None and second.ead is None
        assert third.pd is None and third.off_balance_category is None
        # built afresh on each read, never kept by the book
        assert book.exposures is not book.exposures


class TestCapitalBase:
    def test_tier_split_must_sum(self):
        with pytest.raises(ValidationFailure, match="tier1 \\+ tier2"):
            CapitalBase(eur("100"), tier1=eur("60"), tier2=eur("30"))

    def test_tier_split_valid(self):
        base = CapitalBase(eur("100"), tier1=eur("60"), tier2=eur("40"))
        assert base.tier1 + base.tier2 == base.total_own_funds

    def test_tiers_come_in_pairs(self):
        with pytest.raises(ValidationFailure, match="together"):
            CapitalBase(eur("100"), tier1=eur("60"))

    def test_negative_total_rejected(self):
        with pytest.raises(ValidationFailure):
            CapitalBase(-eur("1"))


def _one_of_each_record():
    params = IrbParams(
        pd=Fraction(1, 100), lgd=Fraction(1, 2), ead=Money(1), maturity_years=Fraction(3)
    )
    return [
        Money(1),
        Exposure(
            id="E1",
            counterparty=CounterpartyClass.CORPORATE,
            rating=RatingBucket.UNRATED,
            nominal=Money(1),
        ),
        params,
        IrbColumns(
            ids=("E1",), units=(1,), pd_texts=("1.00%",), lgd_texts=("50.00%",),
            maturity_texts=("3",), weight_numerators=(1,), weight_denominators=(1,),
            weight_texts=("100.00%",), ead_units=(1,), off_balance=(False,),
        ),
        StandardizedColumns(
            ids=("E1",), key_index=(0,), units=(1,),
            keys=(
                ResolvedKey(Fraction(1), Fraction(1), Fraction(1), "100.00%", "100.00%"),
            ),
        ),
    ]


@pytest.mark.parametrize("record", _one_of_each_record(), ids=lambda r: type(r).__name__)
def test_per_exposure_records_are_slotted(record):
    # Pricing builds one IrbParams and Money per IRB line, and a book's
    # exposures one Exposure and Money per line; an instance dict each would
    # add tens of megabytes to a 100k-exposure run. The book and credit
    # columns hold the per-line figures that per-exposure records once held.
    assert "__slots__" in type(record).__dict__
    assert not hasattr(record, "__dict__")
