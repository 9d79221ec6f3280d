"""Acceptance suite: one test per published criterion.

Each test is self-contained: tables and oracles are re-declared here rather
than imported from the unit-test modules, so a regression in those files
cannot silently weaken this suite. Randomized criteria use fixed seeds.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from regcap import (
    BankOptionPolicy,
    CapitalBase,
    CounterpartyClass,
    CreditApproach,
    DEFAULT_BETAS,
    DEFAULT_CCF,
    DEFAULT_RISK_WEIGHTS,
    Exposure,
    Money,
    NegativeGiPolicy,
    PillarOneInputs,
    RatingBucket,
    compliance,
    denominator,
    load_portfolio,
    rwa_irb,
    rwa_portfolio,
    tsa_capital,
    validate_portfolio,
)
from regcap.irb import IrbParams, components, params_for_exposure
from regcap.money import round_half_even
from regcap.oprisk import (
    AnnualIncome,
    BetaTable,
    BusinessLine,
    GrossIncomeRecord,
    IncomeHistory,
)

from conftest import DATA_DIR, eur, history_of_totals

RATED = (
    RatingBucket.AAA_TO_AA_MINUS,
    RatingBucket.A_PLUS_TO_A_MINUS,
    RatingBucket.BBB_PLUS_TO_BBB_MINUS,
    RatingBucket.BB_PLUS_TO_BB_MINUS,
    RatingBucket.B_PLUS_TO_B_MINUS,
    RatingBucket.BELOW_B_MINUS,
)
ALL_BUCKETS = RATED + (RatingBucket.UNRATED,)
CLASSES = tuple(CounterpartyClass)
POLICIES = (BankOptionPolicy.LOW_END, BankOptionPolicy.HIGH_END)
CATEGORIES = tuple(sorted(DEFAULT_CCF.factors))

# Published weight rows in percent; a (low, high) pair marks a range cell.
PUBLISHED_WEIGHTS = {
    CounterpartyClass.SOVEREIGN: (0, 20, 50, 100, 100, 150, 100),
    CounterpartyClass.BANK: (20, 50, (50, 100), 100, 100, 150, (50, 100)),
    CounterpartyClass.BANK_SHORT_TERM: (20, 20, 20, 50, 50, 150, 20),
    CounterpartyClass.CORPORATE: (20, 50, 100, 100, 150, 150, 100),
}

PUBLISHED_BETAS_PERCENT = {
    BusinessLine.CORPORATE_FINANCE: 18,
    BusinessLine.TRADING_AND_SALES: 18,
    BusinessLine.RETAIL_BANKING: 12,
    BusinessLine.COMMERCIAL_BANKING: 15,
    BusinessLine.PAYMENT_AND_SETTLEMENT: 18,
    BusinessLine.AGENCY_SERVICES: 15,
    BusinessLine.RETAIL_BROKERAGE: 12,
    BusinessLine.ASSET_MANAGEMENT: 12,
}


def test_criterion_1_table_fidelity():
    started = time.perf_counter()
    checked = 0
    for counterparty, row in PUBLISHED_WEIGHTS.items():
        for bucket, expected in zip(ALL_BUCKETS, row):
            for policy in POLICIES:
                if isinstance(expected, tuple):
                    low, high = expected
                    percent = low if policy is BankOptionPolicy.LOW_END else high
                else:
                    percent = expected
                cell = DEFAULT_RISK_WEIGHTS.cells[(counterparty, bucket)]
                weight = cell.resolve(policy)
                assert weight == Fraction(percent, 100), (
                    counterparty,
                    bucket,
                    policy,
                )
            checked += 1
    assert checked == 28
    for line, percent in PUBLISHED_BETAS_PERCENT.items():
        assert DEFAULT_BETAS.betas[line] == Fraction(percent, 100), line
    assert time.perf_counter() - started < 1.0


def _credit_only_requirement(credit_rwa: Money) -> Money:
    """The minimum own funds compliance() asks for when credit is the only risk."""
    inputs = PillarOneInputs(
        credit_rwa=credit_rwa,
        market_capital_charge=eur("0"),
        oprisk_capital_charge=eur("0"),
    )
    return compliance(CapitalBase(eur("0")), inputs).min_required_capital


def test_criterion_2_worked_example():
    portfolio = load_portfolio(DATA_DIR / "worked_example.csv")
    view, total = rwa_portfolio(portfolio)
    assert total == eur("1000000.00")
    key = view.keys[view.key_index[0]]
    assert key.ccf == Fraction(1, 2)
    assert key.weight == Fraction(1, 5)
    assert _credit_only_requirement(total) == eur("80000.00")


def test_criterion_3_sub_b_minus_sovereign():
    exposure = Exposure(
        id="SOV",
        counterparty=CounterpartyClass.SOVEREIGN,
        rating=RatingBucket.BELOW_B_MINUS,
        nominal=eur("100.00"),
    )
    _, total = rwa_portfolio(validate_portfolio([exposure]))
    assert total == eur("150.00")
    assert _credit_only_requirement(total) == eur("12.00")


def test_criterion_4_bia_average():
    from regcap import average_gross_income, bia_capital

    history = history_of_totals(2004, [eur("900.00"), eur("1000.00"), eur("1100.00")])
    average = average_gross_income(history)
    assert average == eur("1000.00")
    assert bia_capital(average) == eur("150.00")


def _tsa_oracle_units(history: IncomeHistory, betas: BetaTable,
                      policy: NegativeGiPolicy) -> int:
    total = Fraction(0)
    for line in BusinessLine:
        values = [annual.per_line[line].effective.units for annual in history.years]
        if policy is NegativeGiPolicy.EXCLUDE_NEGATIVE_YEARS:
            kept = [v for v in values if v >= 0]
            average = Fraction(sum(kept), len(kept)) if kept else Fraction(0)
        else:
            average = Fraction(sum(values), len(values))
        total += betas.betas[line] * average
    return max(round(total), 0)


def test_criterion_5_tsa_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20040626)
    for case in range(200):
        annuals = tuple(
            AnnualIncome(
                year=2004 + i,
                per_line={
                    line: GrossIncomeRecord(
                        amount=Money(rng.randint(-500, 2000), "EUR")
                    )
                    for line in BusinessLine
                },
            )
            for i in range(3)
        )
        history = IncomeHistory(years=annuals)
        for policy in NegativeGiPolicy:
            result = tsa_capital(history, DEFAULT_BETAS, policy)
            expected = _tsa_oracle_units(history, DEFAULT_BETAS, policy)
            assert result.total.units == expected, (case, policy)
    assert time.perf_counter() - started < 5.0


def test_criterion_6_denominator_identity():
    rng = random.Random(19880701)
    for _ in range(1000):
        units = rng.randint(0, 10**9)
        base = denominator(
            PillarOneInputs(
                credit_rwa=eur("0"),
                market_capital_charge=Money(units, "EUR"),
                oprisk_capital_charge=eur("0"),
            )
        )
        assert round_half_even(Fraction(8, 100) * base.units) == units
    for _ in range(1000):
        m = rng.randint(1, 4 * 10**7)
        inputs = PillarOneInputs(
            credit_rwa=Money(25 * m, "EUR"),
            market_capital_charge=eur("0"),
            oprisk_capital_charge=eur("0"),
        )
        at_floor = compliance(CapitalBase(Money(2 * m, "EUR")), inputs)
        assert at_floor.mcdonough == Fraction(8, 100)
        assert at_floor.surplus == eur("0")
        assert at_floor.compliant
        above = compliance(CapitalBase(Money(2 * m + 1, "EUR")), inputs)
        assert above.mcdonough > Fraction(8, 100)
        assert above.surplus == Money(1, "EUR")
        below = compliance(CapitalBase(Money(2 * m - 1, "EUR")), inputs)
        assert below.mcdonough < Fraction(8, 100)
        assert below.surplus == Money(-1, "EUR")
        assert not below.compliant


def _random_exposures(rng: random.Random, prefix: str, count: int,
                      unit_step: int = 1) -> list[Exposure]:
    built = []
    for index in range(count):
        counterparty = rng.choice(CLASSES)
        off_balance = rng.random() < 0.3
        built.append(
            Exposure(
                id=f"{prefix}{index}",
                counterparty=counterparty,
                rating=rng.choice(ALL_BUCKETS),
                nominal=Money(rng.randint(0, 10**7) * unit_step, "EUR"),
                off_balance_category=(
                    rng.choice(CATEGORIES) if off_balance else None
                ),
                short_term=counterparty is CounterpartyClass.BANK_SHORT_TERM,
            )
        )
    return built


def test_criterion_7_regime_collapse():
    rng = random.Random(20010913)
    for case in range(100):
        exposures = _random_exposures(rng, "p", rng.randint(0, 10))
        exposures.append(
            Exposure(
                id="anchor",
                counterparty=CounterpartyClass.CORPORATE,
                rating=RatingBucket.UNRATED,
                nominal=Money(rng.randint(1, 10**7), "EUR"),
            )
        )
        _, total = rwa_portfolio(validate_portfolio(exposures))
        capital = CapitalBase(Money(rng.randint(1, 10**9), "EUR"))
        inputs = PillarOneInputs(
            credit_rwa=total,
            market_capital_charge=eur("0"),
            oprisk_capital_charge=eur("0"),
        )
        report = compliance(capital, inputs)
        assert report.mcdonough == report.cooke, case
        exact = Fraction(capital.total_own_funds.units, denominator(inputs).units)
        assert report.mcdonough == exact, case


def _check_additivity(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        policy = rng.choice(POLICIES)
        left = _random_exposures(rng, "a", rng.randint(0, 6))
        right = _random_exposures(rng, "b", rng.randint(0, 6))
        _, total_left = rwa_portfolio(validate_portfolio(left), policy=policy)
        _, total_right = rwa_portfolio(validate_portfolio(right), policy=policy)
        _, union = rwa_portfolio(validate_portfolio(left + right), policy=policy)
        assert union == total_left + total_right
    return cases


def _check_homogeneity(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        policy = rng.choice(POLICIES)
        k = rng.randint(1, 9)
        items = _random_exposures(rng, "h", rng.randint(0, 6), unit_step=100)
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
    return cases


def _check_rating_monotonicity(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        counterparty = rng.choice(CLASSES)
        policy = rng.choice(POLICIES)
        i, j = sorted(rng.sample(range(len(RATED)), 2))
        cells = DEFAULT_RISK_WEIGHTS.cells
        stronger = cells[(counterparty, RATED[i])].resolve(policy)
        weaker = cells[(counterparty, RATED[j])].resolve(policy)
        assert stronger <= weaker
    return cases


def _check_irb_linearity(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        denom = rng.choice([1, 2, 4, 5, 8, 10, 20, 25, 50])
        weight = Fraction(rng.randint(0, 100), denom)
        m = rng.randint(0, 10**5)
        k = rng.randint(1, 9)
        params = IrbParams(
            pd=Fraction(rng.randint(0, 100), 100),
            lgd=Fraction(1, 2),
            ead=Money(denom * m, "EUR"),
            maturity_years=3,
        )
        scaled = IrbParams(
            params.pd, params.lgd, Money(denom * m * k, "EUR"), params.maturity_years
        )
        fn = lambda p: weight  # noqa: E731
        assert rwa_irb(scaled, fn).units == k * rwa_irb(params, fn).units
    return cases


def _check_foundation_injection(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        pd = Fraction(rng.randint(0, 100), 100)
        nominal = Money(rng.randint(0, 10**9), "EUR")
        book = validate_portfolio([Exposure(
            "F1", CounterpartyClass.CORPORATE, RatingBucket.UNRATED, nominal, pd=pd
        )])
        line = [column[0] for column in components(book, CreditApproach.IRB_FOUNDATION)]
        params = params_for_exposure(*line, book.currency)
        assert params.pd == pd
        assert params.lgd == Fraction(1, 2)
        assert params.ead == nominal
        assert params.maturity_years == 3
    return cases


def _check_scale_invariance(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        credit = rng.randint(1, 10**8)
        market = 2 * rng.randint(0, 10**6)
        oprisk = 2 * rng.randint(0, 10**6)
        capital = rng.randint(1, 10**8)
        k = rng.randint(1, 9)

        def build(scale: int) -> PillarOneInputs:
            return PillarOneInputs(
                credit_rwa=Money(credit * scale, "EUR"),
                market_capital_charge=Money(market * scale, "EUR"),
                oprisk_capital_charge=Money(oprisk * scale, "EUR"),
            )

        one = compliance(CapitalBase(Money(capital, "EUR")), build(1)).mcdonough
        many = compliance(CapitalBase(Money(capital * k, "EUR")), build(k)).mcdonough
        assert one == many == Fraction(capital, denominator(build(1)).units)
    return cases


def test_criterion_8_property_suite():
    started = time.perf_counter()
    rng = random.Random(20060101)
    checks = (
        _check_additivity,
        _check_homogeneity,
        _check_rating_monotonicity,
        _check_irb_linearity,
        _check_foundation_injection,
        _check_scale_invariance,
    )
    for check in checks:
        assert check(rng, 200) >= 200
    assert time.perf_counter() - started < 30.0


def _run_cli(args: list[str], hash_seed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("REGCAP_CONFIG", None)
    env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "regcap.cli", *args],
        capture_output=True,
        env=env,
        check=False,
    )


def test_criterion_9_cli_golden(tmp_path):
    golden = str(DATA_DIR / "portfolio_golden.csv")
    income = str(DATA_DIR / "income_3yr.csv")
    commands = {
        "compute": [
            "compute", "--portfolio", golden, "--capital", "150000.00",
            "--income", income,
        ],
        "compare": [
            "compare", "--portfolio", golden, "--capital", "150000.00",
            "--income", income,
        ],
        "disclose": [
            "disclose", "--portfolio", golden, "--capital", "150000.00",
            "--income", income, "--period", "2006-H2",
        ],
    }
    for name, args in commands.items():
        first = _run_cli(args, hash_seed="1")
        second = _run_cli(args, hash_seed="2")
        assert first.returncode == 0, (name, first.stderr)
        assert second.returncode == 0
        assert first.stdout == second.stdout, name
        assert first.stderr == b"" and second.stderr == b""

    json_a = tmp_path / "a.json"
    json_b = tmp_path / "b.json"
    base = ["compute", "--portfolio", golden, "--capital", "150000.00",
            "--income", income]
    assert _run_cli([*base, "--json-out", str(json_a)], "1").returncode == 0
    assert _run_cli([*base, "--json-out", str(json_b)], "2").returncode == 0
    assert json_a.read_bytes() == json_b.read_bytes()
    document = json.loads(json_a.read_text())
    assert document["credit"]["total_rwa"] == "1700350.00"

    shortfall = _run_cli(
        ["compute", "--portfolio", golden, "--capital", "1.00"], "1"
    )
    assert shortfall.returncode == 1

    broken = _run_cli(
        ["compute", "--portfolio", str(DATA_DIR / "bad_rating.csv"),
         "--capital", "1.00"],
        "1",
    )
    assert broken.returncode == 2
    assert broken.stdout == b""
    assert broken.stderr.startswith(b"error [input/config]:")
