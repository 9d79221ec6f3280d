"""Randomized invariants over the credit, ratio, and parsing layers."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from regcap import (
    BankOptionPolicy,
    CapitalBase,
    CounterpartyClass,
    CreditApproach,
    DEFAULT_CCF,
    DEFAULT_RISK_WEIGHTS,
    Exposure,
    Money,
    PillarOneInputs,
    RatingBucket,
    compliance,
    denominator,
    rwa_irb,
    rwa_portfolio,
    validate_portfolio,
)
from regcap.errors import UnknownRating
from regcap.irb import IrbParams, components, params_for_exposure
from regcap.model import RATING_TOKENS, parse_rating
from regcap.money import round_half_even

CLASSES = tuple(CounterpartyClass)
BUCKETS = tuple(RatingBucket)
RATED_BUCKETS = tuple(b for b in RatingBucket if b is not RatingBucket.UNRATED)
POLICIES = tuple(BankOptionPolicy)
CATEGORIES = tuple(sorted(DEFAULT_CCF.factors))
# strength-ordered rated tokens; the unrated token sits outside the chain
ORDERED_TOKENS = tuple(t for t in RATING_TOKENS if t != "UNRATED")

MANY = settings(max_examples=200, deadline=None)


@st.composite
def exposures(draw, prefix: str, max_size: int = 8, unit_step: int = 1):
    count = draw(st.integers(0, max_size))
    built = []
    for index in range(count):
        counterparty = draw(st.sampled_from(CLASSES))
        off_balance = draw(st.booleans())
        built.append(
            Exposure(
                id=f"{prefix}{index}",
                counterparty=counterparty,
                rating=draw(st.sampled_from(BUCKETS)),
                nominal=Money(draw(st.integers(0, 10**7)) * unit_step, "EUR"),
                off_balance_category=(
                    draw(st.sampled_from(CATEGORIES)) if off_balance else None
                ),
                short_term=counterparty is CounterpartyClass.BANK_SHORT_TERM,
            )
        )
    return built


class TestStandardizedInvariants:
    @MANY
    @given(
        left=exposures("a"),
        right=exposures("b"),
        policy=st.sampled_from(POLICIES),
    )
    def test_rwa_additivity_over_disjoint_portfolios(self, left, right, policy):
        _, total_left = rwa_portfolio(validate_portfolio(left), policy=policy)
        _, total_right = rwa_portfolio(validate_portfolio(right), policy=policy)
        _, total_union = rwa_portfolio(validate_portfolio(left + right), policy=policy)
        assert total_union == total_left + total_right

    @MANY
    @given(
        items=exposures("h", unit_step=100),
        k=st.integers(1, 9),
        policy=st.sampled_from(POLICIES),
    )
    def test_homogeneity_at_representable_nominals(self, items, k, policy):
        # table weights are twentieths and factors are halves, so nominals
        # in whole-hundred units make every line product exact
        scaled = [
            Exposure(
                e.id, e.counterparty, e.rating, Money(e.nominal.units * k, "EUR"),
                e.off_balance_category, e.short_term,
            )
            for e in items
        ]
        _, base_total = rwa_portfolio(validate_portfolio(items), policy=policy)
        _, scaled_total = rwa_portfolio(validate_portfolio(scaled), policy=policy)
        assert scaled_total.units == k * base_total.units

    @MANY
    @given(
        counterparty=st.sampled_from(CLASSES),
        policy=st.sampled_from(POLICIES),
        i=st.integers(0, len(RATED_BUCKETS) - 1),
        j=st.integers(0, len(RATED_BUCKETS) - 1),
    )
    def test_rating_monotonicity_within_class(self, counterparty, policy, i, j):
        if i > j:
            i, j = j, i
        cells = DEFAULT_RISK_WEIGHTS.cells
        stronger = cells[(counterparty, RATED_BUCKETS[i])].resolve(policy)
        weaker = cells[(counterparty, RATED_BUCKETS[j])].resolve(policy)
        assert stronger <= weaker

    @MANY
    @given(
        counterparty=st.sampled_from(CLASSES),
        rating=st.sampled_from(BUCKETS),
        policy=st.sampled_from(POLICIES),
        units=st.integers(0, 10**9),
        category=st.sampled_from(CATEGORIES),
    )
    def test_off_balance_never_exceeds_on_balance(
        self, counterparty, rating, policy, units, category
    ):
        short = counterparty is CounterpartyClass.BANK_SHORT_TERM
        on = Exposure(
            id="on",
            counterparty=counterparty,
            rating=rating,
            nominal=Money(units, "EUR"),
            short_term=short,
        )
        off = Exposure(
            "off", on.counterparty, on.rating, on.nominal, category, on.short_term
        )
        _, on_total = rwa_portfolio(validate_portfolio([on]), policy=policy)
        _, off_total = rwa_portfolio(validate_portfolio([off]), policy=policy)
        assert off_total.units <= on_total.units


class TestIrbInvariants:
    @MANY
    @given(
        pd_hundredths=st.integers(0, 100),
        units=st.integers(0, 10**9),
    )
    def test_foundation_injects_supervisory_defaults(self, pd_hundredths, units):
        pd = Fraction(pd_hundredths, 100)
        book = validate_portfolio([Exposure(
            "F1", CounterpartyClass.CORPORATE, RatingBucket.UNRATED,
            Money(units, "EUR"), pd=pd,
        )])
        line = [column[0] for column in components(book, CreditApproach.IRB_FOUNDATION)]
        params = params_for_exposure(*line, book.currency)
        assert params.pd == pd
        assert params.lgd == Fraction(1, 2)
        assert params.ead == Money(units, "EUR")
        assert params.maturity_years == 3

    @MANY
    @given(
        denom=st.sampled_from([1, 2, 4, 5, 8, 10, 20, 25, 50]),
        numer=st.integers(0, 100),
        m=st.integers(0, 10**5),
        k=st.integers(1, 9),
        pd_hundredths=st.integers(0, 100),
    )
    def test_linear_in_ead_at_representable_points(
        self, denom, numer, m, k, pd_hundredths
    ):
        weight = Fraction(numer, denom)
        params = IrbParams(
            pd=Fraction(pd_hundredths, 100),
            lgd=Fraction(1, 2),
            ead=Money(denom * m, "EUR"),
            maturity_years=3,
        )
        scaled = IrbParams(
            params.pd, params.lgd, Money(denom * m * k, "EUR"), params.maturity_years
        )
        fn = lambda p: weight  # noqa: E731 - tiny fixed-weight stub
        assert rwa_irb(scaled, fn).units == k * rwa_irb(params, fn).units


class TestRatioInvariants:
    @MANY
    @given(
        credit=st.integers(0, 10**8),
        market_half=st.integers(0, 10**6),
        oprisk_half=st.integers(0, 10**6),
        capital=st.integers(1, 10**8),
        k=st.integers(1, 9),
    )
    def test_scale_invariance_at_even_charges(
        self, credit, market_half, oprisk_half, capital, k
    ):
        assume(credit + market_half + oprisk_half > 0)

        def build(scale: int) -> PillarOneInputs:
            return PillarOneInputs(
                credit_rwa=Money(credit * scale, "EUR"),
                market_capital_charge=Money(2 * market_half * scale, "EUR"),
                oprisk_capital_charge=Money(2 * oprisk_half * scale, "EUR"),
            )

        base = compliance(CapitalBase(Money(capital, "EUR")), build(1))
        scaled = compliance(CapitalBase(Money(capital * k, "EUR")), build(k))
        assert base.mcdonough == scaled.mcdonough
        assert base.mcdonough == Fraction(capital, denominator(build(1)).units)
        assert base.cooke == scaled.cooke

    @MANY
    @given(units=st.integers(0, 10**9))
    def test_gross_up_is_exact_inverse_of_floor(self, units):
        charge = Money(units, "EUR")
        base = denominator(
            PillarOneInputs(
                credit_rwa=Money(0, "EUR"),
                market_capital_charge=charge,
                oprisk_capital_charge=Money(0, "EUR"),
            )
        )
        assert round_half_even(Fraction(8, 100) * base.units) == units

    @MANY
    @given(
        credit=st.integers(1, 10**8),
        capital=st.integers(1, 10**8),
    )
    def test_collapse_identity(self, credit, capital):
        inputs = PillarOneInputs(
            credit_rwa=Money(credit, "EUR"),
            market_capital_charge=Money(0, "EUR"),
            oprisk_capital_charge=Money(0, "EUR"),
        )
        base = CapitalBase(Money(capital, "EUR"))
        report = compliance(base, inputs)
        exact = Fraction(base.total_own_funds.units, denominator(inputs).units)
        assert exact == report.cooke == report.mcdonough


class TestRatingParser:
    @MANY
    @given(token=st.sampled_from(tuple(RATING_TOKENS)))
    def test_total_over_published_tokens(self, token):
        assert parse_rating(token) is RATING_TOKENS[token]

    @MANY
    @given(
        i=st.integers(0, len(ORDERED_TOKENS) - 1),
        j=st.integers(0, len(ORDERED_TOKENS) - 1),
    )
    def test_bucket_order_follows_token_strength(self, i, j):
        if i > j:
            i, j = j, i
        assert parse_rating(ORDERED_TOKENS[i]) <= parse_rating(ORDERED_TOKENS[j])

    @MANY
    @given(text=st.text(max_size=12))
    def test_everything_else_rejected(self, text):
        assume(text.strip().upper() not in RATING_TOKENS)
        with pytest.raises(UnknownRating):
            parse_rating(text)
