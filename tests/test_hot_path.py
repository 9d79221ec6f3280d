"""Guards on the per-line work of loading and pricing a book, without a clock.

A shared machine cannot resolve a timing change of a few percent, but it can
count objects, calls and traced bytes exactly. The book is the first 1,000
lines of the benchmark's seed-1 ``irb_book_100k`` book (20,000 for the
memory guard), written by ``perfbench/bookgen.py`` and priced with its float
weight function.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from regcap import CapitalBase, CreditApproach, EngineConfig, Exposure, Money, run_compute
from regcap import fileio

from conftest import DATA_DIR, PERFBENCH, write_bench_book

REGCAP = str(Path(fileio.__file__).resolve().parent)
LINES = 1_000

# Calls of regcap's own functions per line, as this module counts them on
# CPython 3.11 (later versions inline comprehensions and count fewer). A
# change that adds per-line work raises them; lower a pin when a change
# removes calls, so that the guard keeps what was won. Each resumption of a
# generator counts as a call.
LOAD_CALLS_PER_LINE = 11.701
PRICING_CALLS_PER_LINE = 5.86
FOUNDATION_PRICING_CALLS_PER_LINE = 5.066

# The tracemalloc peak of loading a book, over what the loaded book holds.
# Rows stream into the columns, so neither the file's text nor a record per
# row is alive at the end: the loader reads about 1.6 here, and read 2.28
# when it kept a tuple per row until the columns were built.
PEAK_LINES = 20_000
LOAD_PEAK_RATIO = 1.75


@pytest.fixture(scope="module")
def bench_book(tmp_path_factory, bench_weight):
    """The book file and a config that prices it with the float weight."""
    path = write_bench_book(tmp_path_factory.mktemp("hot_path") / "portfolio.csv", LINES)
    return path, EngineConfig(
        credit_approach=CreditApproach.IRB_ADVANCED, irb_function=bench_weight
    )


def _calls(work, counted) -> tuple[object, int]:
    """work()'s value and the number of calls into functions whose code object
    ``counted`` accepts.

    Garbage is collected first: a suspended regcap generator that an earlier
    test left in a reference cycle would otherwise be closed by a collection
    inside ``work`` and counted as one of its calls.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and counted(frame.f_code):
            calls += 1

    gc.collect()
    sys.setprofile(profile)
    try:
        value = work()
    finally:
        sys.setprofile(None)
    return value, calls


def _regcap_calls(work) -> tuple[object, int]:
    """work()'s value and the number of calls into functions of regcap's source."""
    return _calls(work, lambda code: code.co_filename.startswith(REGCAP))


@pytest.mark.parametrize("book", ["bench", "irb_small.csv", "portfolio_golden.csv"])
def test_loading_builds_no_exposure_or_money(book, bench_book, monkeypatch):
    path = bench_book[0] if book == "bench" else DATA_DIR / book
    built = []
    for record in (Exposure, Money):
        original = record.__init__

        def counting(self, *args, original=original, **kwargs):
            built.append(type(self).__name__)
            original(self, *args, **kwargs)

        monkeypatch.setattr(record, "__init__", counting)
    portfolio = fileio.load_portfolio(path)
    assert built == []
    assert len(portfolio.exposures) == len(portfolio) > 0
    assert built.count("Exposure") == len(portfolio)


def test_calls_per_line_stay_pinned(bench_book):
    path, config = bench_book
    portfolio, load_calls = _regcap_calls(lambda: fileio.load_portfolio(path))
    capital = CapitalBase(Money(10**15))
    result, pricing_calls = _regcap_calls(lambda: run_compute(config, portfolio, capital))
    assert len(result.credit.lines.ids) == LINES
    assert load_calls / LINES <= LOAD_CALLS_PER_LINE
    assert pricing_calls / LINES <= PRICING_CALLS_PER_LINE


def test_foundation_pricing_calls_stay_pinned(bench_book):
    # The same book under foundation: its lgd, ead and maturity columns are
    # sourced once per run, not once per line.
    path, config = bench_book
    portfolio = fileio.load_portfolio(path)
    config = EngineConfig(
        credit_approach=CreditApproach.IRB_FOUNDATION, irb_function=config.irb_function
    )
    capital = CapitalBase(Money(10**15))
    result, pricing_calls = _regcap_calls(lambda: run_compute(config, portfolio, capital))
    assert len(result.credit.lines.ids) == LINES
    assert pricing_calls / LINES <= FOUNDATION_PRICING_CALLS_PER_LINE


def test_pricing_builds_no_fraction_per_line(bench_book):
    # Each weight is kept as its integer numerator and denominator, so the
    # Fractions a run builds are its few ratios and totals: 13 here, against
    # 1,013 when each line's weight was a Fraction.
    path, config = bench_book
    portfolio = fileio.load_portfolio(path)
    capital = CapitalBase(Money(10**15))
    new = Fraction.__new__.__code__
    result, built = _calls(lambda: run_compute(config, portfolio, capital), new.__eq__)
    assert len(result.credit.lines.ids) == LINES
    assert built <= LINES // 20


def test_credit_view_holds_nothing_the_collector_tracks(bench_book):
    # Ints, strs and bools only: the kept columns give the cyclic collector
    # no reason to run while a book is priced.
    path, config = bench_book
    result = run_compute(config, fileio.load_portfolio(path), CapitalBase(Money(10**15)))
    view = result.credit.lines
    assert len(view.ids) == LINES
    for name in type(view).__slots__:
        assert not any(map(gc.is_tracked, getattr(view, name))), name


def test_equal_texts_of_the_credit_view_are_one_string(bench_book):
    path, config = bench_book
    result = run_compute(config, fileio.load_portfolio(path), CapitalBase(Money(10**15)))
    view = result.credit.lines
    for column in (view.pd_texts, view.lgd_texts, view.maturity_texts, view.weight_texts):
        assert len({id(text) for text in column}) == len(set(column)) < len(column)


def test_load_peaks_near_the_book_it_returns(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    path = write_bench_book(tmp_path / "portfolio.csv", PEAK_LINES)
    gc.collect()
    tracemalloc.start()
    try:
        portfolio = fileio.load_portfolio(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(portfolio) == PEAK_LINES
    assert peak <= LOAD_PEAK_RATIO * held
