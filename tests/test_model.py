"""Core model: rating parsing, exposures, portfolio and capital validation."""

from __future__ import annotations

from fractions import Fraction

import pytest

from regcap import (
    CapitalBase,
    CounterpartyClass,
    Exposure,
    IrbParams,
    Money,
    RatingBucket,
    ValidationFailure,
    validate_portfolio,
)
from regcap.engine import IrbColumns
from regcap.errors import UnknownRating
from regcap.model import Portfolio, parse_rating
from regcap.standardized import ResolvedKey, StandardizedColumns

from conftest import eur

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
        with pytest.raises(UnknownRating):
            parse_rating(junk)

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

    def test_preserves_order_and_currency(self):
        portfolio = validate_portfolio([on_balance("A"), on_balance("B")])
        assert isinstance(portfolio, Portfolio)
        assert [e.id for e in portfolio] == ["A", "B"]
        assert portfolio.currency == "EUR"

    def test_off_balance_flag(self):
        exposure = on_balance("A", off_balance_category="guarantee")
        assert exposure.is_off_balance
        assert not on_balance("B").is_off_balance


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
            maturity_texts=("3",), weights=(Fraction(1),), weight_texts=("100.00%",),
            ead_units=(1,), off_balance=(False,),
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
    # A book holds one Exposure, IrbParams or Money per exposure; an instance
    # dict each would add tens of megabytes to a 100k-exposure run. The credit
    # columns hold the per-line figures that per-exposure records once held.
    assert "__slots__" in type(record).__dict__
    assert not hasattr(record, "__dict__")
