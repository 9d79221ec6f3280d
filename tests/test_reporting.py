"""Report rendering: determinism, section rules, provenance labels."""

from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regcap import (
    ApproachKind,
    BetaTable,
    BusinessLine,
    CapitalBase,
    CcfTable,
    ConfigError,
    CurrencyMismatch,
    EngineConfig,
    IncompleteHistory,
    InvalidOverride,
    MissingCell,
    MissingPeriod,
    Money,
    NonMonotoneFunction,
    OpRiskApproach,
    OutOfRange,
    ParseError,
    PillarOneInputs,
    Portfolio,
    RegcapError,
    SupervisoryAdjustment,
    UnknownRating,
    WeightCell,
    load_income,
    load_portfolio,
    run_compare,
    run_compute,
    run_disclose,
)
from regcap.errors import InvalidApproach, InvalidBeta, InvalidWeight, NegativeBlock
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
        portfolio = Portfolio(exposures=(), currency="EUR")
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
json_documents = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(json_text, children, max_size=4),
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
        "error", [InvalidWeight, InvalidBeta, InvalidApproach, NegativeBlock]
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
