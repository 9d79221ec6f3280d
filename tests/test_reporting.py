"""Report rendering: determinism, section rules, provenance labels."""

from __future__ import annotations

import json
import math
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
    CurrencyMismatch,
    IncompleteHistory,
    InvalidApproach,
    InvalidBeta,
    InvalidOverride,
    InvalidWeight,
    MissingCell,
    MissingPeriod,
    NegativeBlock,
    OutOfRange,
    UnknownRating,
)
from regcap.irb import (
    _FUNCTIONS,
    evaluate_weight,
    params_for_exposure,
    risk_weight_function,
)
from regcap.money import format_percent, fraction_to_decimal_text
from regcap.oprisk import ApproachKind, BetaTable, BusinessLine
from regcap.reporting import (
    UNDEFINED_RATIO,
    compare_document,
    compute_document,
    disclosure_document,
    render_compare_text,
    render_compute_text,
    render_disclosure_text,
    render_json,
)
from regcap.standardized import CcfTable, RiskWeightTable, WeightCell

from conftest import DATA_DIR, eur


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

    def test_worked_numbers_appear(self, worked_result):
        text = render_compute_text(worked_result)
        assert "1,000,000.00" in text
        assert "150.00" in text  # operational charge
        assert "COMPLIANT" in text

    def test_solvency_shows_both_ratios(self, worked_result):
        text = render_compute_text(worked_result)
        assert "full-denominator ratio" in text.lower() or "8.0" in text
        assert "credit-only" in text.lower()

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
# Differential check of the credit columns against the per-line formulas


def reference_credit_lines(result) -> tuple[list[str], list[dict]]:
    """The credit section's line rows and line dicts, each line formatted from
    its exact factors as the per-line renderers did before the columns."""
    config = result.config
    texts, docs = [], []
    for index, exposure in enumerate(result.portfolio):
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
        params = params_for_exposure(result.portfolio, index, config.credit_approach)
        weight = evaluate_weight(risk_weight_function(config.irb_function), params)
        amount = params.ead.scaled(weight)
        flag = " (off-balance)" if exposure.is_off_balance else ""
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
            "off_balance": exposure.is_off_balance,
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
    return text[first:last], compute_document(result)["credit"]["lines"]


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
        config = EngineConfig(
            credit_approach=CreditApproach.IRB_ADVANCED, irb_function=float_function
        )
        result = run_compute(config, book, CapitalBase(eur("1.00")))
        assert _rendered_credit_lines(result) == reference_credit_lines(result)


def reference_json(document) -> str:
    """The encoder render_json replaced, kept as its oracle."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


# Quotes, backslashes, control characters and non-ASCII, besides any other
# code point.
ESCAPED = '"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'
json_text = st.text(st.one_of(st.sampled_from(ESCAPED), st.characters()), max_size=8)
json_scalars = st.one_of(
    json_text, st.booleans(), st.none(), st.integers(-(10**20), 10**20)
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


def _irb_shaped_document(lines: int) -> dict:
    return {
        "config": {"regime": "basel2", "credit_approach": "irb_advanced"},
        "credit": {
            "approach": "irb_advanced",
            "total_rwa": "123456789.00",
            "lines": [
                {
                    "id": f"E{i:06d}",
                    "pd": "1.25%",
                    "lgd": "45.00%",
                    "maturity_years": "2.5",
                    "ead": f"{1000 + i}.00",
                    "weight": "87.31%",
                    "amount": f"{870 + i}.31",
                    "off_balance": i % 2 == 0,
                }
                for i in range(lines)
            ],
        },
        "capital": {"total_own_funds": "1.00", "tier1": None, "tier2": None},
    }


class TestRenderJson:
    @settings(max_examples=300, deadline=None)
    @given(document=json_documents)
    def test_matches_json_dumps(self, document):
        assert render_json(document) == reference_json(document)

    def test_report_documents_match_json_dumps(self):
        documents = list(_fixture_documents())
        assert len(documents) == 6
        for document in documents:
            assert render_json(document) == reference_json(document)

    def test_peak_memory_is_bounded_by_the_output(self):
        # json.dumps with indent peaks at about 6.6 times its output here.
        document = _irb_shaped_document(5000)
        tracemalloc.start()
        try:
            rendered = render_json(document)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rendered == reference_json(document)
        assert peak <= 3 * len(rendered)


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
            (MissingPeriod("x"), "input/config"),
            (UnknownRating("x"), "core model"),
            (CurrencyMismatch("x"), "core model"),
            (MissingCell("x"), "standardized credit"),
            (OutOfRange("x"), "internal ratings"),
            (IncompleteHistory("x"), "operational risk"),
            (InvalidOverride("x"), "aggregation"),
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
            InvalidWeight, InvalidBeta, InvalidApproach, NegativeBlock, OutOfRange,
            InvalidOverride, ValidationFailure, ConfigError,
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
        }
        pending, subclasses = [RegcapError], []
        while pending:
            children = pending.pop().__subclasses__()
            subclasses.extend(children)
            pending.extend(children)
        assert len(subclasses) >= 17
        for cls in subclasses:
            assert cls.__dict__.get("layer") in labels, cls.__name__
        assert RegcapError.layer == "engine"
