"""Guards on the per-line work of loading and pricing a book, without a clock.

A shared machine cannot resolve a timing change of a few percent, but it can
count objects and calls exactly. The book is the first 1,000 lines of the
benchmark's seed-1 ``irb_book_100k`` book, written by ``perfbench/bookgen.py``
and priced with its float weight function.
"""

from __future__ import annotations

import dataclasses
import importlib
import random
import sys
from pathlib import Path

import pytest

from regcap import CapitalBase, CreditApproach, EngineConfig, Exposure, Money, run_compute
from regcap import fileio, irb

from conftest import DATA_DIR

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REGCAP = str(Path(fileio.__file__).resolve().parent)
LINES = 1_000

# Calls of regcap's own functions per line, as this module counts them on
# CPython 3.11 (later versions inline comprehensions and count fewer). A
# change that adds per-line work raises them; lower a pin when a change
# removes calls, so that the guard keeps what was won.
LOAD_CALLS_PER_LINE = 18.649
PRICING_CALLS_PER_LINE = 12.604


@pytest.fixture(scope="module")
def bench_book(tmp_path_factory):
    """The book file and a config that prices it with the float weight."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        bookgen = importlib.import_module("bookgen")
        irbfn = importlib.import_module("irbfn")
        patch.setitem(irb._FUNCTIONS, irbfn.NAME, irbfn.CountingWeight())
        spec = dataclasses.replace(bookgen.SPECS["irb_book_100k"], exposures=LINES)
        lines, _ = bookgen.book_lines(random.Random("irb_book_100k:1"), spec)
        path = tmp_path_factory.mktemp("hot_path") / "portfolio.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = EngineConfig(
            credit_approach=CreditApproach.IRB_ADVANCED, irb_function=irbfn.NAME
        )
        yield path, config


def _regcap_calls(work) -> tuple[object, int]:
    """work()'s value and the number of calls into functions of regcap's source."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(REGCAP):
            calls += 1

    sys.setprofile(profile)
    try:
        value = work()
    finally:
        sys.setprofile(None)
    return value, calls


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
