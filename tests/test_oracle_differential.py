"""Whole CLI reports on drawn books, checked against the benchmark's oracle.

``perfbench/oracle.py`` prices a generated book with its own literal tables,
``fractions.Fraction`` and one half-even rounding per product, sharing no
code with regcap. Each example here draws a seed and a size, writes a book
with ``perfbench/bookgen.py``'s line generators, runs ``compute`` and
``compare`` through ``cli.main`` at a capital exactly at the requirement and
one minor unit below it, and checks every line, total, verdict and exit
status against the oracle. Standardized books run under both bank policies;
advanced-IRB books price with the benchmark's float weight function.
"""

from __future__ import annotations

import importlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from regcap import cli, irb, register_risk_weight_function

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """The benchmark's generator, oracle and weight function, in a work directory.

    The config names its table files relative to the working directory. The
    float weight is registered on a copy of the registry, so no other test
    sees it.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        bench = SimpleNamespace(**{
            name: importlib.import_module(name) for name in ("bookgen", "irbfn", "oracle")
        })
        patch.setattr(irb, "_FUNCTIONS", dict(irb._FUNCTIONS))
        register_risk_weight_function(bench.irbfn.NAME, bench.irbfn.CountingWeight())
        patch.chdir(tmp_path_factory.mktemp("oracle"))
        yield bench


def _write_inputs(bench, spec, seed: int) -> None:
    bookgen = bench.bookgen
    rng = random.Random(seed)
    book, _ = bookgen.book_lines(rng, spec)
    income, _ = bookgen.income_lines(rng, spec)
    files = {
        bookgen.PORTFOLIO: "\n".join(book) + "\n",
        bookgen.INCOME: "\n".join(income) + "\n",
        bookgen.CONFIG: bookgen.config_text(spec),
    }
    tables = bookgen.table_texts()
    files.update({f"{name}.tbl": tables[name] for name in spec.tables})
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")


def _run(bench, command: str, capital_units: int) -> tuple[int, str, dict]:
    """Exit status, stdout and the --json-out document of one CLI run."""
    bookgen = bench.bookgen
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        status = cli.main([
            command, "--config", bookgen.CONFIG, "--portfolio", bookgen.PORTFOLIO,
            "--income", bookgen.INCOME, "--capital", bench.oracle.money_text(capital_units),
            "--json-out", "out.json",
        ])
    assert stderr.getvalue() == ""
    document = json.loads(Path("out.json").read_text(encoding="utf-8"))
    return status, stdout.getvalue(), document


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    size=st.integers(1, 40),
    irb_book=st.booleans(),
    bank_policy=st.sampled_from(["low_end", "high_end"]),
    oprisk=st.sampled_from(["basic_indicator", "standardized"]),
)
def test_cli_reports_match_the_oracle(bench, seed, size, irb_book, bank_policy, oprisk):
    bookgen, oracle = bench.bookgen, bench.oracle
    spec = bookgen.BookSpec(
        size, irb_book, oprisk, bank_policy, ("risk_weights", "ccf", "betas")
    )
    _write_inputs(bench, spec, seed)

    def expected(capital_units: int):
        base = dict(portfolio=bookgen.PORTFOLIO, capital_units=capital_units,
                    bank_policy=bank_policy)
        full = oracle.expected(
            oracle.Run(income=bookgen.INCOME, irb=irb_book, oprisk=oprisk, **base)
        )
        # The credit-only leg prices every book standardized, with no income.
        credit_only = oracle.expected(oracle.Run(income=None, oprisk=None, **base))
        return full, credit_only

    full, credit_only = expected(0)
    required = max(full.min_required, credit_only.min_required)
    for capital_units in (required, max(required - 1, 0)):
        full, credit_only = expected(capital_units)
        status, text, document = _run(bench, "compute", capital_units)
        assert oracle.check_compute_document(document, full) == []
        assert oracle.check_compute_text(text, full) == []
        assert status == full.exit_status
        status, _, document = _run(bench, "compare", capital_units)
        assert oracle.check_compare_document(document, full, credit_only) == []
        assert status == max(full.exit_status, credit_only.exit_status)
