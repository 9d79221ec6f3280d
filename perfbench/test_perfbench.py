"""Tests of the benchmark's own code: generator, oracle, spans and a smoke run.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import gc
import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import bookgen
import irbfn
import oracle
import reference
import run
import spans
import worker

from regcap import (
    BankOptionPolicy,
    CapitalBase,
    CreditApproach,
    EngineConfig,
    Money,
    load_income,
    load_portfolio,
    register_risk_weight_function,
    run_compute,
)
from regcap.reporting import compute_document, render_compute_text

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def small(monkeypatch, exposures: int) -> None:
    """Shrink every workload's book for a quick run."""
    specs = {
        name: dataclasses.replace(spec, exposures=exposures)
        for name, spec in bookgen.SPECS.items()
    }
    monkeypatch.setattr(bookgen, "SPECS", specs)


def rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# Generator


@pytest.mark.parametrize("workload", sorted(bookgen.SPECS))
def test_generator_is_deterministic(monkeypatch, tmp_path, workload):
    small(monkeypatch, 500)
    first = bookgen.generate(workload, 7, tmp_path / "a")
    second = bookgen.generate(workload, 7, tmp_path / "b")
    other = bookgen.generate(workload, 8, tmp_path / "c")
    names = sorted(p.name for p in first.directory.iterdir())
    assert names == sorted(p.name for p in second.directory.iterdir())
    for name in names:
        assert (first.directory / name).read_bytes() == (second.directory / name).read_bytes()
    assert first.capital == second.capital
    assert (first.directory / "portfolio.csv").read_bytes() != (
        other.directory / "portfolio.csv"
    ).read_bytes()


def test_generator_covers_classes_ratings_and_off_balance(monkeypatch, tmp_path):
    small(monkeypatch, 5000)
    inputs = bookgen.generate("irb_book_100k", 3, tmp_path)
    book = rows(tmp_path / "portfolio.csv")
    assert len(book) == 5000
    assert {row["class"] for row in book} == set(oracle.CLASSES)
    assert {row["rating"] for row in book} == set(bookgen.RATING_TOKENS)
    assert len(bookgen.RATING_TOKENS) == 18
    for row in book:
        assert (row["short_term_flag"] == "true") == (row["class"] == "bank_short_term")
    off = [row for row in book if row["position"] == "off"]
    assert 0.17 < len(off) / len(book) < 0.23
    assert {row["off_balance_category"] for row in off} == set(oracle.CCF)
    for column in ("pd", "lgd"):
        percent = sum(row[column].endswith("%") for row in book)
        assert 0.45 < percent / len(book) < 0.55
    assert all(row["ead"] and row["maturity"] for row in book)
    ties = [row for row in book if row["pd"] == "0"]
    assert {row["lgd"] for row in ties} == {lgd for lgd, _, _ in bookgen.TIE_ROWS}
    assert inputs.spec.irb


def test_tie_rows_depend_on_the_shortest_decimal_rule(monkeypatch, tmp_path):
    """Each tie row rounds differently under the float's exact binary value."""
    for lgd, base, step in bookgen.TIE_ROWS:
        weight = irbfn.weight(0.0, float(lgd), 2.5)
        for ead in (base, base + step * 12345):
            decimal_rule = oracle.round_div(ead * oracle.float_weight(weight)[0],
                                            oracle.float_weight(weight)[1])
            binary_rule = round(ead * Fraction(weight))
            assert decimal_rule != binary_rule


def test_generator_writes_three_years_for_both_oprisk_approaches(monkeypatch, tmp_path):
    small(monkeypatch, 10)
    bia = bookgen.generate("std_book_100k", 1, tmp_path / "bia")
    tsa = bookgen.generate("irb_book_100k", 1, tmp_path / "tsa")
    bia_rows = rows(bia.directory / "income.csv")
    assert [(r["year"], r["line"]) for r in bia_rows] == [
        (str(year), "TOTAL") for year in bookgen.INCOME_YEARS
    ]
    tsa_rows = rows(tsa.directory / "income.csv")
    assert {(r["year"], r["line"]) for r in tsa_rows} == {
        (str(year), line) for year in bookgen.INCOME_YEARS for line in oracle.BUSINESS_LINES
    }


def test_generated_tables_load_as_the_builtin_tables(tmp_path):
    from regcap import DEFAULT_BETAS, DEFAULT_CCF, DEFAULT_RISK_WEIGHTS
    from regcap import load_betas, load_ccf, load_risk_weights

    for name, text in bookgen.table_texts().items():
        (tmp_path / f"{name}.tbl").write_text(text, encoding="utf-8")
    assert load_risk_weights(tmp_path / "risk_weights.tbl") == DEFAULT_RISK_WEIGHTS
    assert load_ccf(tmp_path / "ccf.tbl") == DEFAULT_CCF
    assert load_betas(tmp_path / "betas.tbl") == DEFAULT_BETAS


# ---------------------------------------------------------------------------
# Oracle


def eur(text: str) -> Money:
    return Money.from_decimal(Decimal(text), "EUR")


def golden_result(policy: BankOptionPolicy = BankOptionPolicy.LOW_END):
    portfolio = load_portfolio(DATA / "portfolio_golden.csv")
    income = load_income(DATA / "income_3yr.csv")
    config = EngineConfig(bank_policy=policy)
    return run_compute(config, portfolio, CapitalBase(eur("150000.00")), income)


def golden_expected(policy: str = "low_end") -> oracle.Expected:
    return oracle.expected(oracle.Run(
        portfolio=str(DATA / "portfolio_golden.csv"),
        income=str(DATA / "income_3yr.csv"),
        capital_units=15_000_000,
        bank_policy=policy,
    ))


@pytest.mark.parametrize("policy", list(BankOptionPolicy))
def test_oracle_agrees_with_run_compute_on_the_golden_book(policy):
    result = golden_result(policy)
    exp = golden_expected(policy.value)
    assert oracle.check_compute_document(compute_document(result), exp) == []
    assert oracle.check_compute_text(render_compute_text(result), exp) == []
    assert exp.exit_status == result.exit_status


def test_oracle_agrees_with_run_compute_on_the_worked_example():
    portfolio = load_portfolio(DATA / "worked_example.csv")
    result = run_compute(EngineConfig(), portfolio, CapitalBase(eur("81000.00")))
    exp = oracle.expected(oracle.Run(
        portfolio=str(DATA / "worked_example.csv"), income=None,
        capital_units=8_100_000,
    ))
    assert exp.total_rwa == 100_000_000  # 10,000,000.00 x 50% x 20%
    assert oracle.check_compute_document(compute_document(result), exp) == []
    assert exp.exit_status == result.exit_status == 0


def test_oracle_agrees_with_run_compute_on_an_irb_book(monkeypatch, tmp_path):
    small(monkeypatch, 300)
    inputs = bookgen.generate("irb_book_100k", 5, tmp_path)
    register_risk_weight_function("perfbench_test_float", irbfn.CountingWeight())
    config = EngineConfig(
        credit_approach=CreditApproach.IRB_ADVANCED, irb_function="perfbench_test_float"
    )
    portfolio = load_portfolio(tmp_path / "portfolio.csv")
    capital = CapitalBase(eur(inputs.capital))
    result = run_compute(config, portfolio, capital)
    exp = oracle.expected(oracle.Run(
        portfolio=str(tmp_path / "portfolio.csv"), income=None,
        capital_units=oracle.cell_units(inputs.capital), irb=True,
    ))
    assert oracle.check_compute_document(compute_document(result), exp) == []


def test_oracle_catches_a_one_unit_perturbation():
    result = golden_result()
    exp = golden_expected()
    document = compute_document(result)
    bumped = copy.deepcopy(document)
    line = bumped["credit"]["lines"][3]
    line["amount"] = oracle.money_text(oracle.cell_units(line["amount"]) + 1)
    problems = oracle.check_compute_document(bumped, exp)
    assert len(problems) == 1 and line["id"] in problems[0]
    text = render_compute_text(result)
    total = oracle.grouped_money_text(exp.total_rwa)
    wrong = oracle.grouped_money_text(exp.total_rwa + 1)
    assert oracle.check_compute_text(text.replace(total, wrong), exp)


def test_a_report_unlike_the_first_fails_even_when_both_pass_the_oracle(
    monkeypatch, tmp_path
):
    small(monkeypatch, 40)
    inputs = bookgen.generate("std_book_100k", 1, tmp_path)
    monkeypatch.chdir(tmp_path)
    result, text, document, _ = worker.Book(inputs.capital).report()
    # The oracle reads the totals, not the text's per-line rows.
    first_row = next(line for line in text.splitlines() if line.startswith("E000001 "))
    outputs = {"a": (text, document), "b": (text.replace(first_row, first_row + " "), document)}
    summary = {"outputs": {}, "reports": [], "errors": [], "reference_digests": [],
               "rerender_identical": True}
    for key, (report_text, report_json) in outputs.items():
        (tmp_path / f"{key}.txt").write_text(report_text, encoding="utf-8")
        (tmp_path / f"{key}.json").write_text(report_json, encoding="utf-8")
        summary["outputs"][key] = [f"{key}.txt", f"{key}.json"]
    for key in ("a", "a", "b"):
        summary["reports"].append({"failed": False, "digest": key,
                                   "exit_status": result.exit_status})
    outcome = run.Outcome()
    run.check_book(inputs, summary, outcome)
    assert (outcome.attempted, outcome.failed) == (3, 1)
    assert outcome.problems == ["report 2: output differs from the first report"]


def test_oracle_reads_floats_at_their_shortest_decimal():
    assert Fraction(*oracle.float_weight(0.1)) == Fraction(1, 10)
    assert Fraction(*oracle.float_weight(1e-05)) == Fraction(1, 100_000)
    assert Fraction(*oracle.float_weight(1 / 3)) == Fraction("0.3333333333333333")
    assert oracle.round_half_even(Fraction(5, 2)) == 2
    assert oracle.round_half_even(Fraction(-5, 2)) == -2
    assert oracle.round_half_even(Fraction(7, 2)) == 4
    assert oracle.percent_text(Fraction(1, 8)) == "12.50%"


# ---------------------------------------------------------------------------
# Reference task


def test_reference_passes_are_deterministic_and_checked():
    meter = reference.Meter(rows=300)
    meter()
    meter()
    assert len(meter.times) == 2 and min(meter.times) > 0
    assert gc.isenabled()
    assert meter.digests == {reference.work(300)}
    # Each stage against the mean of the passes beside it.
    assert reference.paced([3.0, 8.0], [1.0, 2.0, 6.0]) == 3.0 / 1.5 + 8.0 / 4.0
    assert run.reference_problems(sorted(meter.digests), 300) == []
    assert len(run.reference_problems(["0" * 64], 300)) == 1


# ---------------------------------------------------------------------------
# Spans


def test_self_times_subtract_children_and_aggregated_calls():
    records = [
        {"id": 0, "name": "a", "parent": None, "run": "r", "start": 0.0, "end": 10.0,
         "calls": {"irb.rwa_irb": {"count": 4, "seconds": 2.0}}},
        {"id": 1, "name": "b", "parent": 0, "run": "r", "start": 1.0, "end": 4.0,
         "calls": {}},
        {"id": 2, "name": "c", "parent": 1, "run": "r", "start": 2.0, "end": 3.0,
         "calls": {}},
    ]
    totals = spans.self_times(records)
    assert totals["a"] == {"seconds": 5.0, "count": 1}
    assert totals["b"] == {"seconds": 2.0, "count": 1}
    assert totals["c"] == {"seconds": 1.0, "count": 1}
    assert totals["irb.rwa_irb"] == {"seconds": 2.0, "count": 4}


def test_instrumentation_restores_the_originals():
    from regcap import engine

    original = engine.rwa_portfolio
    recorder = spans.Recorder()
    instrumentation = spans.Instrumentation(recorder, *spans.regcap_targets())
    assert engine.rwa_portfolio is not original
    instrumentation.remove()
    assert engine.rwa_portfolio is original


# ---------------------------------------------------------------------------
# Smoke runs


@pytest.mark.parametrize("workload", sorted(bookgen.SPECS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run_has_no_failures(monkeypatch, workload, trace):
    small(monkeypatch, 40)
    monkeypatch.setattr(run, "CLI_MIN_INVOCATIONS", 5)
    monkeypatch.setattr(run, "CLI_TRACED_ROTATIONS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    outcome = run.run(workload, 1, 0.0, trace)
    assert outcome.attempted >= 1
    assert outcome.failed == 0, outcome.problems
    assert outcome.problems == []
    names = set(outcome.metrics)
    if trace:
        assert names == set(run.LAYERS) | set(run.COUNTS)
        if workload == "irb_book_100k":
            assert outcome.metrics["irb.weight_fn_calls_per_exposure"]["value"] == 2.0
    else:
        assert names == {"exposures_per_ref", "setup_s", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in outcome.metrics.values())


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # std_book_100k is for runs by hand only.
    assert {w["name"] for w in spec["workloads"]} == set(bookgen.SPECS) - {"std_book_100k"}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "exposures_per_ref", "setup_s", "peak_rss_mb"
    }
    assert {m["name"] for m in spec["per_layer"]} == set(run.LAYERS) | set(run.COUNTS)
