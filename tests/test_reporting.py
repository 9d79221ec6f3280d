"""Report rendering: determinism, section rules, provenance labels."""

from __future__ import annotations

import copy
import json
import math
import re
import textwrap
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regcap import (
    BankOptionPolicy,
    CapitalBase,
    ConfigError,
    CounterpartyClass,
    CreditApproach,
    DEFAULT_BETAS,
    DEFAULT_CCF,
    EngineConfig,
    Exposure,
    Money,
    NonMonotoneFunction,
    OpRiskApproach,
    ParseError,
    PillarOneInputs,
    RatingBucket,
    RegcapError,
    SupervisoryAdjustment,
    ValidationFailure,
    load_income,
    load_portfolio,
    register_risk_weight_function,
    run_compare,
    run_compute,
    run_disclose,
    validate_portfolio,
)
from regcap.engine import TableSet
from regcap.errors import (
    AggregationError,
    CoreModelError,
    InternalRatingsError,
    OperationalRiskError,
    OutOfRange,
    StandardizedCreditError,
    UsageError,
)
from regcap.fileio import write_whole
from regcap.irb import _FUNCTIONS, IrbParams, evaluate_weight, risk_weight_function
from regcap.money import format_percent, fraction_to_decimal_text, units_text
from regcap.oprisk import ApproachKind, BetaTable, BusinessLine
from regcap.reporting import (
    _CHUNK,
    UNDEFINED_RATIO,
    _capital_rows,
    _config_rows,
    _disclosure_rows,
    _market_rows,
    _oprisk_rows,
    _solvency_rows,
    compare_document,
    compute_document,
    disclosure_document,
    json_chunks,
    render_compare_text,
    render_compute_text,
    render_disclosure_text,
    render_json,
)
from regcap.standardized import CcfTable, RiskWeightTable, WeightCell

from conftest import DATA_DIR, eur, run_python, write_bench_book


def fresh_worked_result(period: str | None = None):
    portfolio = load_portfolio(DATA_DIR / "worked_example.csv")
    income = load_income(DATA_DIR / "income_3yr.csv")
    return run_compute(
        EngineConfig(disclosure_period=period),
        portfolio,
        CapitalBase(eur("81000.00")),
        income=income,
    )


@pytest.fixture(scope="module")
def worked_result():
    return fresh_worked_result()


class TestComputeText:
    def test_identical_runs_render_identically(self, worked_result):
        assert render_compute_text(worked_result) == render_compute_text(
            fresh_worked_result()
        )

    def test_header_and_config_echo(self, worked_result):
        text = render_compute_text(worked_result)
        assert "REGULATORY CAPITAL REPORT" in text
        assert "bank option" in text
        assert "builtin" in text
        assert text.endswith("\n")

    @pytest.mark.parametrize("policy, echo", [
        (BankOptionPolicy.LOW_END, "the low end (25%, 33.33%)"),
        (BankOptionPolicy.HIGH_END, "the high end (50%, 125%)"),
    ])
    def test_the_bank_option_echo_lists_each_resolved_end(self, policy, echo):
        thirds = WeightCell(Fraction(1, 3), Fraction(1, 2))
        cells = {
            (CounterpartyClass.BANK, RatingBucket.UNRATED): thirds,
            (CounterpartyClass.SOVEREIGN, RatingBucket.UNRATED): thirds,
            (CounterpartyClass.CORPORATE, RatingBucket.UNRATED):
                WeightCell(Fraction(1, 4), Fraction(5, 4)),
            (CounterpartyClass.CORPORATE, RatingBucket.AAA_TO_AA_MINUS):
                WeightCell.fixed(Fraction(1, 5)),
        }
        config = EngineConfig(bank_policy=policy)

        def echoed(cells) -> tuple:
            tables = TableSet(RiskWeightTable(cells), DEFAULT_CCF, DEFAULT_BETAS)
            [row] = [row for row in _config_rows(config, tables) if row[0] == "bank option:"]
            return row[2:]

        # The echo names where the range cells are: three cells on three rows.
        assert echoed(cells) == (
            f"3 range cells on the sovereign, bank and corporate rows resolved to {echo}",
            policy.key,
        )
        corporate = (CounterpartyClass.CORPORATE, RatingBucket.UNRATED)
        one = {key: cell if key == corporate else WeightCell.fixed(cell.low)
               for key, cell in cells.items()}
        assert echoed(one)[0].startswith("1 range cell on the corporate row resolved to")
        # Two on the bank row, as in the built-in table, keep its wording.
        bank = {**one, corporate: WeightCell.fixed(Fraction(1)),
                (CounterpartyClass.BANK, RatingBucket.UNRATED): thirds,
                (CounterpartyClass.BANK, RatingBucket.AAA_TO_AA_MINUS): thirds}
        assert echoed(bank)[0] == (
            f"bank-row range cells resolved to the {policy.key.replace('_', ' ')}"
            f" ({format_percent(thirds.resolve(policy)).replace('.00%', '%')}),"
            " both cells together"
        )
        fixed = {key: WeightCell.fixed(cell.low) for key, cell in cells.items()}
        assert echoed(fixed) == ("the weights table has no range cell", policy.key)

    def test_worked_numbers_appear(self, worked_result):
        text = render_compute_text(worked_result)
        assert "1,000,000.00" in text
        assert "150.00" in text  # operational charge
        assert "COMPLIANT" in text

    def test_solvency_shows_both_ratios(self, worked_result):
        lines = render_compute_text(worked_result).splitlines()
        # both values start at column 35
        assert "solvency ratio (full denominator): 8.08%" in lines
        assert "credit-only reference ratio:       8.10%" in lines

    @pytest.mark.parametrize(
        "capital, label", [("81000.00", "surplus:"), ("79999.99", "shortfall:")]
    )
    def test_surplus_and_shortfall_values_start_at_column_19(self, capital, label):
        portfolio = load_portfolio(DATA_DIR / "worked_example.csv")
        result = run_compute(EngineConfig(), portfolio, CapitalBase(eur(capital)))
        lines = render_compute_text(result).splitlines()
        for name in (label, "minimum required:", "status:"):
            (line,) = [line for line in lines if line.startswith(f"{name} ")]
            assert line[:19] == f"{name:<19}" and line[19] != " ", line

    def test_basel1_hides_noncredit_sections(self):
        portfolio = load_portfolio(DATA_DIR / "worked_example.csv")
        result = run_compute(
            EngineConfig.basel1(), portfolio, CapitalBase(eur("80000.00"))
        )
        text = render_compute_text(result)
        assert "operational" not in text.lower()
        assert "market" not in text.lower()

    def test_tsa_report_carries_activity_footnote(self):
        portfolio = load_portfolio(DATA_DIR / "worked_example.csv")
        income = load_income(DATA_DIR / "income_3yr.csv")
        config = EngineConfig(oprisk_approach=OpRiskApproach.standardized())
        result = run_compute(
            config, portfolio, CapitalBase(eur("81000.00")), income=income
        )
        text = render_compute_text(result)
        assert "activity measures" in text
        assert "151.80" in text

    def test_undefined_ratio_rendering(self):
        portfolio = validate_portfolio((), "EUR")
        result = run_compute(EngineConfig(), portfolio, CapitalBase(eur("100.00")))
        text = render_compute_text(result)
        assert UNDEFINED_RATIO in text


class TestComputeJson:
    @pytest.mark.parametrize("approach", [
        OpRiskApproach.basic_indicator(), OpRiskApproach.standardized(),
        OpRiskApproach.advanced_hook("fixed"),
    ], ids=["basic_indicator", "standardized", "advanced"])
    def test_the_oprisk_block_names_its_income_years_or_why_it_is_zero(
        self, approach, monkeypatch
    ):
        monkeypatch.setattr("regcap.oprisk._ADVANCED_HOOKS",
                            {"fixed": lambda history: eur("500.00")})
        portfolio = load_portfolio(DATA_DIR / "worked_example.csv")
        income = load_income(DATA_DIR / "income_3yr.csv")
        for given, label, key, text, absent in (
            (income, "income years:", "income_years", "2004-2006", "note"),
            (None, "note:", "note",
             "no income history supplied; operational charge taken as zero",
             "income_years"),
        ):
            result = run_compute(EngineConfig(oprisk_approach=approach), portfolio,
                                 CapitalBase(eur("90000.00")), income=given)
            assert result.income is given
            oprisk = compute_document(result)["oprisk"]
            assert oprisk[key] == text and absent not in oprisk
            assert f"{label:<18} {text}" in render_compute_text(result).splitlines()

    def test_json_is_sorted_and_stable(self, worked_result):
        doc = compute_document(worked_result)
        rendered = render_json(doc)
        assert rendered == render_json(compute_document(fresh_worked_result()))
        parsed = json.loads(rendered)
        assert list(parsed) == sorted(parsed)

    def test_amounts_are_decimal_strings(self, worked_result):
        parsed = json.loads(render_json(compute_document(worked_result)))
        assert parsed["credit"]["total_rwa"] == "1000000.00"
        assert parsed["solvency"]["denominator"] == "1001875.00"

    def test_compliance_flag_round_trips(self, worked_result):
        # 8% of 1,001,875.00 is 80,150.00; own funds of 81,000.00 clear it
        parsed = json.loads(render_json(compute_document(worked_result)))
        assert parsed["solvency"]["compliant"] is True
        assert parsed["solvency"]["min_required_capital"] == "80150.00"


# ---------------------------------------------------------------------------
# Each summary fact is declared once, as a row: its text line and its JSON
# member must say the same thing.

# What a described JSON value prints as.
DESCRIPTIONS = {
    ("credit_approach", "standardized"): "standardized (external ratings)",
    ("credit_approach", "irb_advanced"): "internal ratings, advanced",
    ("bank_option_policy", "low_end"):
        "bank-row range cells resolved to the low end (50%), both cells together",
    ("approach", "basic_indicator"): "basic indicator (alpha = 15% of average gross income)",
    ("approach", "standardized"): "standardized (per-business-line beta)",
    ("compliant", True): "COMPLIANT",
    ("compliant", False): "NON-COMPLIANT",
}


def _printed(label: str, key: str, value) -> str:
    """The text that the JSON ``value`` under ``key`` prints as on its line."""
    if (key, value) in DESCRIPTIONS:
        return DESCRIPTIONS[key, value]
    if value is None:
        return UNDEFINED_RATIO
    if key == "surplus":  # the text line names the sign and prints the magnitude
        assert label == ("shortfall:" if value.startswith("-") else "surplus:")
        value = value.removeprefix("-")
    if re.fullmatch(r"-?[0-9]+\.[0-9]{2}", value):  # an amount: commas in the text
        return units_text(int(value.replace(".", "")), ",")
    return value


def _summary_sections(result) -> list[tuple[str, list]]:
    """Each summary section's JSON member in a compute document, and its rows."""
    sections = [
        ("config", _config_rows(result.config, result.tables)),
        ("capital", _capital_rows(result.capital)),
        ("solvency", _solvency_rows(result)),
    ]
    if result.oprisk is not None:
        sections.append(("oprisk", _oprisk_rows(result)))
    if result.market_charge is not None:
        sections.append(("market", _market_rows(result)))
    return sections


def _assert_rows_agree(rows: list, members: dict, text_lines: set[str]) -> None:
    facts = [row for row in rows if not isinstance(row, str)]
    assert members == {key: value for _, key, _, value in facts if key is not None}
    for label, key, text, value in facts:
        if label is not None:
            assert f"{label:<18} {text}" in text_lines
        if label is not None and key is not None:
            assert _printed(label, key, value) == text, (label, key)


SUMMARY_CASES = [
    pytest.param(
        regime, approach, tiers, adjusted, empty, oprisk,
        id=f"{regime}-{approach}-{tiers}-{adjusted}-{empty}-{oprisk}",
    )
    for regime in ("basel1", "basel2")
    for approach in ("standardized", "irb_advanced")
    for tiers in ("tiers", "no_tiers")
    for adjusted in ("adjusted", "floor")
    for empty in ("empty_book", "book")
    for oprisk in ("basic_indicator", "standardized", "no_income")
    if regime == "basel2"
    or (approach, adjusted, oprisk) == ("standardized", "floor", "no_income")
]


class TestTextAndJsonAgree:
    @pytest.mark.parametrize(
        "regime, approach, tiers, adjusted, empty, oprisk", SUMMARY_CASES
    )
    def test_every_summary_fact(self, regime, approach, tiers, adjusted, empty, oprisk):
        settings = dict(
            credit_approach=CreditApproach(approach), disclosure_period="2006-H2"
        )
        if adjusted == "adjusted":
            settings.update(
                min_ratio_override=Fraction(10, 100), capital_addon=eur("5000.00"),
                adjustment_justification="concentration",
            )
        if regime == "basel1":
            config = EngineConfig.basel1(**settings)
        else:
            settings["oprisk_approach"] = (
                OpRiskApproach.standardized() if oprisk == "standardized"
                else OpRiskApproach.basic_indicator()
            )
            config = EngineConfig(**settings)
        book = "irb_small.csv" if approach == "irb_advanced" else "worked_example.csv"
        portfolio = (
            validate_portfolio((), "EUR") if empty == "empty_book"
            else load_portfolio(DATA_DIR / book)
        )
        capital = (
            CapitalBase(eur("81000.00"), eur("60000.00"), eur("21000.00"))
            if tiers == "tiers" else CapitalBase(eur("81000.00"))
        )
        income = (
            load_income(DATA_DIR / "income_3yr.csv")
            if regime == "basel2" and oprisk != "no_income" else None
        )
        result = run_compute(config, portfolio, capital, income=income)
        document = json.loads(render_json(compute_document(result)))
        text_lines = set(render_compute_text(result).splitlines())
        for member, rows in _summary_sections(result):
            _assert_rows_agree(rows, document[member], text_lines)
        assert set(document["capital"]) == {"total_own_funds", "tier1", "tier2"}
        assert set(document["config"]["tables"]) == {"risk_weights", "ccf", "betas"}
        assert ("beta table:        builtin" in text_lines) == (regime == "basel2")

        disclosure = run_disclose(result)
        document = json.loads(render_json(disclosure_document(disclosure)))
        text_lines = set(render_disclosure_text(disclosure).splitlines())
        rows = _disclosure_rows(disclosure)
        _assert_rows_agree(rows, {key: document[key] for _, key, _, _ in rows}, text_lines)
        solvency = document["report"]["solvency"]
        ratio = solvency["full_ratio" if regime == "basel2" else "credit_only_ratio"]
        assert f"solvency ratio:    {_printed('', 'ratio', ratio)}" in text_lines
        assert f"status:            {_printed('', 'compliant', solvency['compliant'])}" in (
            text_lines
        )


# ---------------------------------------------------------------------------
# Differential check of the credit columns against the per-line formulas


def reference_params(exposure: Exposure, approach: CreditApproach) -> IrbParams:
    """An IRB line's components, checked: foundation keeps the bank's pd and
    takes an lgd of 1/2, the nominal as ead and a maturity of 3 years."""
    if approach is CreditApproach.IRB_FOUNDATION:
        return IrbParams(exposure.pd, Fraction(1, 2), exposure.nominal, Fraction(3))
    return IrbParams(exposure.pd, exposure.lgd, exposure.ead, exposure.maturity_years)


def reference_credit_lines(result) -> tuple[list[str], list[dict]]:
    """The credit section's line rows and line dicts, each line formatted from
    its exact factors as the per-line renderers did before the columns."""
    config = result.config
    texts, docs = [], []
    for exposure in result.portfolio:
        if config.credit_approach is CreditApproach.STANDARDIZED:
            category = exposure.off_balance_category
            ccf = Fraction(1) if category is None else result.tables.ccf.factors[category]
            cell = result.tables.risk_weights.cells[(exposure.counterparty, exposure.rating)]
            weight = cell.resolve(config.bank_policy)
            amount = exposure.nominal.scaled(ccf * weight)
            texts.append(
                f"{exposure.id:<12} {format_percent(ccf):>8}"
                f" {format_percent(weight):>8} {amount.formatted():>18}"
            )
            docs.append({
                "id": exposure.id,
                "ccf": format_percent(ccf),
                "weight": format_percent(weight),
                "amount": amount.text(),
            })
            continue
        params = reference_params(exposure, config.credit_approach)
        weight = Fraction(*evaluate_weight(risk_weight_function(config.irb_function), params))
        amount = params.ead.scaled(weight)
        off_balance = exposure.off_balance_category is not None
        flag = " (off-balance)" if off_balance else ""
        texts.append(
            f"{exposure.id:<12} {format_percent(params.pd):>8}"
            f" {format_percent(params.lgd):>8}"
            f" {fraction_to_decimal_text(params.maturity_years):>9}"
            f" {format_percent(weight):>8}"
            f" {amount.formatted():>18}{flag}"
        )
        docs.append({
            "id": exposure.id,
            "pd": format_percent(params.pd),
            "lgd": format_percent(params.lgd),
            "maturity_years": fraction_to_decimal_text(params.maturity_years),
            "ead": params.ead.text(),
            "weight": format_percent(weight),
            "amount": amount.text(),
            "off_balance": off_balance,
        })
    return texts, docs


FLOAT_FUNCTION = "test_reporting_float"


def float_weight(params) -> float:
    """A non-decreasing float weight: nearly every line gets its own weight."""
    pd, lgd = float(params.pd), float(params.lgd)
    return lgd * (0.1 + 3.0 * math.sqrt(pd)) * (0.9 + 0.04 * float(params.maturity_years))


@pytest.fixture(scope="module")
def float_function():
    register_risk_weight_function(FLOAT_FUNCTION, float_weight)
    yield FLOAT_FUNCTION
    _FUNCTIONS.pop(FLOAT_FUNCTION)


def _fractions(denominators):
    return st.builds(
        lambda d, n: Fraction(n % (d + 1), d), st.sampled_from(denominators),
        st.integers(0, 10**6),
    )


@st.composite
def table_sets(draw):
    """Weights and conversion factors in thirds and sevenths too, whose
    percent texts round; every class, bucket and default category priced."""
    cells = {}
    for counterparty in CounterpartyClass:
        for bucket in RatingBucket:
            denominator = draw(st.sampled_from([1, 3, 7, 100]))
            low = draw(st.integers(0, 2 * denominator))
            high = draw(st.integers(low, 2 * denominator))
            cells[counterparty, bucket] = WeightCell(
                Fraction(low, denominator), Fraction(high, denominator)
            )
    factors = {}
    for category in DEFAULT_CCF.factors:
        denominator = draw(st.sampled_from([1, 2, 3, 100]))
        factors[category] = Fraction(draw(st.integers(0, denominator)), denominator)
    return TableSet(RiskWeightTable(cells), CcfTable(factors), DEFAULT_BETAS)


@st.composite
def standardized_books(draw):
    exposures = []
    for index in range(draw(st.integers(0, 8))):
        counterparty = draw(st.sampled_from(CounterpartyClass))
        exposures.append(Exposure(
            id=f"S{index}",
            counterparty=counterparty,
            rating=draw(st.sampled_from(RatingBucket)),
            nominal=Money(draw(st.integers(0, 10**13)), "EUR"),
            off_balance_category=draw(
                st.one_of(st.none(), st.sampled_from(sorted(DEFAULT_CCF.factors)))
            ),
            short_term=counterparty is CounterpartyClass.BANK_SHORT_TERM,
        ))
    return validate_portfolio(exposures, "EUR")


@st.composite
def irb_books(draw):
    size = draw(st.integers(0, 8))
    return validate_portfolio(
        [
            Exposure(
                id=f"I{index}",
                counterparty=CounterpartyClass.CORPORATE,
                rating=RatingBucket.UNRATED,
                nominal=Money(draw(st.integers(0, 10**13)), "EUR"),
                off_balance_category=draw(st.one_of(st.none(), st.just("guarantee"))),
                pd=draw(_fractions([100, 10_000, 1_000_000])),
                lgd=draw(_fractions([100, 1000])),
                ead=Money(draw(st.integers(0, 10**13)), "EUR"),
                maturity_years=Fraction(draw(st.integers(1, 300)), 10),
            )
            for index in range(size)
        ],
        "EUR",
    )


def _rendered_credit_lines(result) -> tuple[list[str], list[dict]]:
    text = render_compute_text(result).splitlines()
    first = text.index("CREDIT RISK") + 3  # title, rule, column header
    last = next(i for i, line in enumerate(text) if line.startswith("total risk-weighted"))
    document = json.loads(render_json(compute_document(result)))
    return text[first:last], document["credit"]["lines"]


class TestCreditColumnsMatchPerLineFormulas:
    @settings(max_examples=150, deadline=None)
    @given(
        book=standardized_books(), policy=st.sampled_from(BankOptionPolicy),
        tables=st.one_of(st.none(), table_sets()),
    )
    def test_standardized_lines(self, book, policy, tables):
        config = EngineConfig(bank_policy=policy)
        result = run_compute(config, book, CapitalBase(eur("1.00")), tables=tables)
        assert _rendered_credit_lines(result) == reference_credit_lines(result)

    @settings(max_examples=150, deadline=None)
    @given(book=irb_books())
    def test_advanced_irb_lines(self, float_function, book):
        _assert_irb_lines_match(book, CreditApproach.IRB_ADVANCED, float_function)

    @settings(max_examples=150, deadline=None)
    @given(book=irb_books())
    def test_foundation_irb_lines(self, float_function, book):
        _assert_irb_lines_match(book, CreditApproach.IRB_FOUNDATION, float_function)


def _assert_irb_lines_match(book, approach: CreditApproach, function: str) -> None:
    result = run_compute(
        EngineConfig(credit_approach=approach, irb_function=function), book,
        CapitalBase(eur("1.00")),
    )
    assert _rendered_credit_lines(result) == reference_credit_lines(result)
    view, fn = result.credit.lines, risk_weight_function(function)
    assert list(zip(view.weight_numerators, view.weight_denominators)) == [
        evaluate_weight(fn, reference_params(exposure, approach)) for exposure in book
    ]


def reference_json(document) -> str:
    """The encoder render_json replaced, kept as its oracle."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


# Quotes, backslashes, control characters and non-ASCII, besides any other
# code point.
ESCAPED = '"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'
json_text = st.text(st.one_of(st.sampled_from(ESCAPED), st.characters()), max_size=8)
# Floats include NaN, both infinities and -0.0, and ints reach past 2**64.
json_scalars = st.one_of(
    json_text, st.booleans(), st.none(), st.integers(-(2**80), 2**80),
    st.sampled_from([-(2**64) - 1, 2**64, 2**200]),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324]),
)
# Keys of the dicts in a list come from a small alphabet, so that
# neighbouring dicts often have the same keys, in the same or another
# insertion order, or overlapping key sets; empty dicts, scalars and nested
# lists of dicts come between them.
LINE_KEYS = st.sampled_from(["a", "b", "c", "\u00e9"])
json_documents = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(json_text, children, max_size=4),
        st.lists(
            st.dictionaries(LINE_KEYS, children, max_size=4) | children, max_size=6
        ),
    ),
    max_leaves=30,
)


def _fixture_documents():
    for name in ("portfolio_golden.csv", "worked_example.csv"):
        portfolio = load_portfolio(DATA_DIR / name)
        income = load_income(DATA_DIR / "income_3yr.csv")
        capital = CapitalBase(eur("81000.00"))
        result = run_compute(EngineConfig(), portfolio, capital, income=income)
        yield compute_document(result)
        yield compare_document(
            run_compare(EngineConfig(), portfolio, capital, income=income)
        )
        config = EngineConfig(disclosure_period="2006-H1")
        period_result = run_compute(config, portfolio, capital, income=income)
        yield disclosure_document(run_disclose(period_result))


def _credit_book(ids, irb: bool):
    """A book with one exposure per id; every other line is off balance."""
    return validate_portfolio(
        [
            Exposure(
                id=exposure_id,
                counterparty=CounterpartyClass.CORPORATE,
                rating=RatingBucket.UNRATED,
                nominal=Money(1_000_000 + 37 * index, "EUR"),
                off_balance_category="guarantee" if index % 2 else None,
                **(dict(
                    pd=Fraction(1 + index % 997, 10_000), lgd=Fraction(45, 100),
                    ead=Money(2_000_000 + 41 * index, "EUR"),
                    maturity_years=Fraction(5 + index % 40, 2),
                ) if irb else {}),
            )
            for index, exposure_id in enumerate(ids)
        ],
        "EUR",
    )


def _credit_run(book, irb: bool, function: str):
    config = EngineConfig(
        credit_approach=CreditApproach.IRB_ADVANCED, irb_function=function
    ) if irb else EngineConfig()
    return run_compute(config, book, CapitalBase(eur("1.00")))


class TestRenderJson:
    @settings(max_examples=300, deadline=None)
    @given(document=json_documents)
    def test_matches_json_dumps(self, document):
        assert render_json(document) == reference_json(document)

    def test_every_kind_of_scalar_matches_json_dumps(self):
        scalars = ["caf\u00e9\u2028", None, True, False, 0, -1, 2**64, -(2**70), 1.5,
                   -0.0, math.nan, math.inf, -math.inf, 1e300, RatingBucket.UNRATED]
        document = {"list": scalars, "dict": {str(i): v for i, v in enumerate(scalars)}}
        assert render_json(document) == reference_json(document)
        with pytest.raises(TypeError, match="^Object of type Fraction is not JSON serializable$"):
            render_json({"ratio": Fraction(1, 2)})

    def test_report_documents_match_json_dumps(self):
        documents = list(_fixture_documents())
        assert len(documents) == 6
        for document in documents:
            output = render_json(document)
            assert output == reference_json(json.loads(output))

    @pytest.mark.parametrize("irb", [False, True], ids=["standardized", "irb"])
    def test_lists_longer_than_a_chunk_match_json_dumps(self, irb, float_function):
        # The lines are joined a chunk at a time: two whole chunks and one
        # line of a third.
        book = _credit_book([f"L{index}" for index in range(2 * _CHUNK + 1)], irb)
        result = _credit_run(book, irb, float_function)
        output = render_json(compute_document(result))
        assert output == reference_json(json.loads(output))
        assert _rendered_credit_lines(result) == reference_credit_lines(result)

    @pytest.mark.parametrize("irb", [False, True], ids=["standardized", "irb"])
    def test_ids_are_escaped_as_json_dumps_escapes_them(self, irb, float_function):
        # The id is the one field of a credit line that the writer escapes.
        ids = ['q"uote', "back\\slash", "a/b", "caf\u00e9", "smile\U0001f600", "plain"]
        result = _credit_run(_credit_book(ids, irb), irb, float_function)
        output = render_json(compute_document(result))
        assert output == reference_json(json.loads(output))
        assert output.isascii()
        assert [line["id"] for line in json.loads(output)["credit"]["lines"]] == ids

    def test_the_json_escaper_fallback_writes_the_same_bytes(self):
        # A priced book whose ids need every kind of escape, and the control
        # characters that an id may not hold.
        build = textwrap.dedent(r"""
            from regcap import (CapitalBase, CounterpartyClass, EngineConfig, Exposure,
                                Money, RatingBucket, run_compute, validate_portfolio)
            from regcap.reporting import compute_document
            ids = ['q"uote', "back\\slash", "a/b", "caf\u00e9", "smile\U0001f600"]
            book = validate_portfolio([
                Exposure(exposure_id, CounterpartyClass.BANK, RatingBucket.UNRATED,
                         Money(100, "EUR"))
                for exposure_id in ids
            ])
            result = run_compute(EngineConfig(), book, CapitalBase(Money(100, "EUR")))
            document = {"c0": "".join(map(chr, range(32))), "report": compute_document(result)}
        """)
        script = textwrap.dedent("""
            import sys
            sys.modules["_json"] = None  # the C escaper's import fails; json.encoder's runs
            import json.encoder
            from regcap import reporting
        """) + build + textwrap.dedent("""
            fallback = json.encoder.py_encode_basestring_ascii
            print(reporting.encode_basestring_ascii is fallback)
            sys.stdout.write(reporting.render_json(document))
        """)
        fell_back, output = run_python(script).split("\n", 1)
        scope: dict = {}
        exec(build, scope)
        expected = render_json(scope["document"])
        assert fell_back == "True"
        assert output == expected == reference_json(json.loads(expected))
        assert '"q\\"uote"' in output and "\\ud83d\\ude00" in output and "\\u001f" in output

    @pytest.mark.parametrize(
        "workload, irb", [("std_book_100k", False), ("irb_book_100k", True)],
        ids=["standardized", "irb"],
    )
    def test_peak_memory_is_bounded_by_the_output(
        self, workload, irb, bench_weight, tmp_path
    ):
        # The credit lines are joined a chunk at a time and the document
        # once, so the peak is the output plus the chunks it is joined from,
        # about 2.0 times the output; one dict per line took it to 3.7-4.0.
        path = write_bench_book(tmp_path / "portfolio.csv", 5000, workload)
        result = _credit_run(load_portfolio(path), irb, bench_weight)
        tracemalloc.start()
        try:
            rendered = render_json(compute_document(result))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(json.loads(rendered)["credit"]["lines"]) == 5000
        assert peak <= 2.1 * len(rendered)

    @pytest.mark.parametrize(
        "workload, irb", [("std_book_100k", False), ("irb_book_100k", True)],
        ids=["standardized", "irb"],
    )
    def test_a_written_document_is_never_held_whole(
        self, workload, irb, bench_weight, tmp_path
    ):
        # write_whole takes the pieces as json_chunks makes them, so the peak
        # is one credit chunk, the lines it is joined from and its encoding,
        # about 0.5 times the file; the whole text and its bytes took 2.0.
        path = write_bench_book(tmp_path / "portfolio.csv", 5000, workload)
        document = compute_document(_credit_run(load_portfolio(path), irb, bench_weight))
        out = tmp_path / "out.json"
        tracemalloc.start()
        try:
            write_whole(out, json_chunks(document))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert out.read_bytes() == render_json(document).encode("utf-8")
        assert size > 4 * _CHUNK * 100
        assert peak <= 0.6 * size

    @pytest.mark.parametrize("irb", [False, True], ids=["standardized", "irb"])
    def test_credit_lines_read_and_change_as_a_list_of_dicts(self, irb, float_function):
        result = _credit_run(_credit_book(["A", "B", "C"], irb), irb, float_function)
        document = compute_document(result)
        changed = copy.deepcopy(document)  # before any line dict is made
        output = render_json(document)
        lines = document["credit"]["lines"]
        assert list(lines) == json.loads(output)["credit"]["lines"]
        assert lines[-1] is lines[2] and lines[2]["id"] == "C"
        with pytest.raises(IndexError):
            lines[3]
        # A changed line shows in what is written, and only in its copy.
        changed["credit"]["lines"][1]["amount"] = "1.00"
        assert render_json(document) == output
        written = render_json(changed)
        assert written == reference_json(json.loads(written))
        assert [line["amount"] for line in json.loads(written)["credit"]["lines"]] == [
            lines[0]["amount"], "1.00", lines[2]["amount"]
        ]


def _markers(comparison) -> list[tuple[str, bool, str]]:
    """The (name, applied, note) of each reform marker, read from the compare
    document and checked to be printed alike, and alone, in the compare text."""
    markers = [
        (marker["name"], marker["applied"], marker["note"])
        for marker in compare_document(comparison)["novelties"]
    ]
    lines = render_compare_text(comparison).splitlines()
    start = lines.index("reform markers applied in this run:") + 1
    assert lines[start:] == [
        f"  [{'x' if applied else ' '}] {name}: {note}" for name, applied, note in markers
    ] + ["=" * 72]
    return markers


class TestCompareText:
    def test_columns_and_markers(self):
        portfolio = load_portfolio(DATA_DIR / "worked_example.csv")
        income = load_income(DATA_DIR / "income_3yr.csv")
        compare = run_compare(
            EngineConfig(), portfolio, CapitalBase(eur("81000.00")), income=income
        )
        text = render_compare_text(compare)
        assert "credit-only" in text
        assert "[x] operational risk enters the denominator" in text
        assert "[ ] recognition of risk-mitigation techniques" in text
        assert "+150.00" in text

    def test_compare_document_has_novelties(self):
        portfolio = load_portfolio(DATA_DIR / "worked_example.csv")
        compare = run_compare(EngineConfig(), portfolio, CapitalBase(eur("80000.00")))
        doc = compare_document(compare)
        assert len(doc["novelties"]) == 5
        assert doc["required_delta"] == "0.00"

    def test_novelty_markers(self):
        compare = run_compare(
            EngineConfig(disclosure_period="2006-H1"),
            load_portfolio(DATA_DIR / "worked_example.csv"),
            CapitalBase(eur("81000.00")),
            income=load_income(DATA_DIR / "income_3yr.csv"),
        )
        markers = _markers(compare)
        applied = {name: flag for name, flag, _ in markers}
        assert applied["operational risk enters the denominator"]
        assert applied["choice of methods per risk type"]
        assert not applied["recognition of risk-mitigation techniques"]
        assert not applied["individual supervisory requirements above the floor"]
        assert applied["semiannual public disclosure"]
        assert len(markers) == 5

    def test_supervisory_novelty_prints_the_floor_as_a_percent(self):
        compare = run_compare(
            EngineConfig(min_ratio_override=Fraction(1, 10), capital_addon=eur("5000.00")),
            load_portfolio(DATA_DIR / "worked_example.csv"),
            CapitalBase(eur("81000.00")),
        )
        notes = {name: (flag, note) for name, flag, note in _markers(compare)}
        assert notes["individual supervisory requirements above the floor"] == (
            True, "minimum ratio 10.00%, add-on 5000.00 EUR"
        )


class TestDisclosureText:
    def test_sections_present(self):
        report = run_disclose(fresh_worked_result("2006-H1"))
        text = render_disclosure_text(report)
        assert "SEMIANNUAL CAPITAL ADEQUACY DISCLOSURE" in text
        assert "2006-H1" in text
        assert "own funds" in text.lower()
        assert "operational" in text.lower()

    def test_document_period_and_scope(self):
        report = run_disclose(fresh_worked_result("2006-H2"))
        doc = disclosure_document(report)
        assert doc["period"] == "2006-H2"
        assert doc["scope"] == "single entity"


def _raised(build) -> RegcapError:
    """The error that calling ``build`` raises."""
    with pytest.raises(RegcapError) as caught:
        build()
    return caught.value


class TestProvenance:
    @pytest.mark.parametrize(
        ("exc", "label"),
        [
            (ParseError("x"), "input/config"),
            (ConfigError("x"), "input/config"),
            (UsageError("x"), "usage"),
            (CoreModelError("x"), "core model"),
            (_raised(lambda: Money(1) + Money(1, "USD")), "core model"),
            (StandardizedCreditError("x"), "standardized credit"),
            (OutOfRange("x"), "internal ratings"),
            (_raised(lambda: risk_weight_function("no-such-function")), "internal ratings"),
            (OperationalRiskError("x"), "operational risk"),
            (AggregationError("x"), "aggregation"),
            (
                _raised(lambda: SupervisoryAdjustment(minimum_ratio=Fraction(6, 100))),
                "aggregation",
            ),
            (RegcapError("x"), "engine"),
            (NonMonotoneFunction("x"), "internal ratings"),
            (_raised(lambda: WeightCell.fixed(Fraction(3))), "standardized credit"),
            (_raised(lambda: CcfTable({"x": Fraction(2)})), "standardized credit"),
            (
                _raised(lambda: BetaTable(dict.fromkeys(BusinessLine, Fraction(2)))),
                "operational risk",
            ),
            (
                _raised(lambda: OpRiskApproach(ApproachKind.ADVANCED)),
                "operational risk",
            ),
            (
                _raised(lambda: PillarOneInputs(-Money(1), Money(0), Money(0))),
                "aggregation",
            ),
        ],
    )
    def test_error_provenance(self, exc, label):
        assert exc.layer == label

    @pytest.mark.parametrize(
        "error",
        [
            CoreModelError, StandardizedCreditError, OperationalRiskError, AggregationError,
            ConfigError, OutOfRange, ValidationFailure,
        ],
    )
    def test_constructor_range_errors_are_still_value_errors(self, error):
        # fileio and library callers catch these constructors' ValueError
        assert issubclass(error, ValueError)

    def test_every_error_type_declares_a_known_layer(self):
        labels = {
            "input/config",
            "core model",
            "standardized credit",
            "internal ratings",
            "operational risk",
            "aggregation",
            "usage",
        }
        areas = {
            RegcapError,
            CoreModelError,
            StandardizedCreditError,
            InternalRatingsError,
            OperationalRiskError,
            AggregationError,
            ParseError,
            ConfigError,
            UsageError,
        }
        pending, subclasses = [RegcapError], set()
        while pending:
            children = pending.pop().__subclasses__()
            subclasses.update(children)
            pending.extend(children)
        assert len(subclasses) == 15
        for cls in subclasses:
            assert cls.layer in labels, cls.__name__
            # only an area class says which area it is; the rest inherit it
            assert ("layer" in cls.__dict__) == (cls in areas), cls.__name__
        assert RegcapError.layer == "engine"
