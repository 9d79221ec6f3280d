"""Shared test helpers: money, fixture paths, a fresh interpreter, summary lines."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from regcap import Money
from regcap.oprisk import AnnualIncome, GrossIncomeRecord, IncomeHistory

DATA_DIR = Path(__file__).parent / "data"


def eur(text: str | int) -> Money:
    """Money from a plain decimal literal, e.g. eur("10000000.00")."""
    return Money.from_decimal(Decimal(str(text)), "EUR")


def history_of_totals(first_year: int, totals: list[Money]) -> IncomeHistory:
    """A totals-only income history, one amount per year from first_year."""
    return IncomeHistory(
        years=tuple(
            AnnualIncome(year=first_year + i, total=GrossIncomeRecord(amount=amount))
            for i, amount in enumerate(totals)
        )
    )


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def run_python(script: str) -> str:
    """Run ``script`` in a fresh interpreter importing regcap from ``src``; its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True, timeout=60)
    return done.stdout


# One verdict line per acceptance criterion, printed after the run so the
# outcome is visible without digging through the dots.
_ACCEPTANCE_OUTCOMES: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE_OUTCOMES[name] = "PASS" if report.outcome == "passed" else "FAIL"
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE_OUTCOMES[name] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_OUTCOMES:
        return

    def criterion_number(name: str) -> int:
        match = re.search(r"criterion_(\d+)", name)
        return int(match.group(1)) if match else 99

    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_OUTCOMES, key=criterion_number):
        label = name.removeprefix("test_criterion_")
        number, _, slug = label.partition("_")
        terminalreporter.write_line(
            f"criterion {number} [{slug.replace('_', ' ')}]:"
            f" {_ACCEPTANCE_OUTCOMES[name]}"
        )
