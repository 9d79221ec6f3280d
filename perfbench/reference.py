"""A fixed standard-library task that gauges how fast the machine runs now.

    python3 reference.py ROWS      # prints the digest of one pass

The machine the benchmark runs on is shared: the same work can take twice as
long in a slow phase, and phases last from under a second to many minutes.
So the benchmark times regcap against this task, run between the stages of
every report (in-process) and once per rotation of CLI invocations (as a
fresh interpreter, like the invocations). A slow phase stretches both alike.

The task does the kinds of work regcap does, on data of its own: it imports
the standard-library modules regcap imports, parses CSV cells into
``Decimal`` and ``Fraction`` values, prices them with one half-even rounding,
and renders a text table and a JSON document. It runs none of regcap's code,
so a change to regcap never changes its time. It must stay as it is: the
gated figures are in units of its time.
"""

from __future__ import annotations

# The standard-library modules regcap imports, for the same start-up cost
# when this file runs as a fresh interpreter.
import argparse
import csv
import enum
import functools  # noqa: F401
import gc
import hashlib
import io
import json
import math
import os  # noqa: F401
import re  # noqa: F401
import sys
import time
import typing  # noqa: F401
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from pathlib import Path  # noqa: F401

PASS_ROWS = 20_000  # one in-process pass between report stages
CLI_ROWS = 2_000  # one fresh-interpreter pass per CLI rotation
CENT = Decimal("0.01")


class Position(enum.Enum):
    ON = "on"
    OFF = "off"


@dataclass(frozen=True)
class Row:
    id: str
    amount: Decimal
    pd: Fraction
    lgd: Fraction
    position: Position


def source(rows: int) -> str:
    """``rows`` CSV lines made from their index alone, PD and LGD half as percents."""
    lines = ["id,amount,pd,lgd,position"]
    for i in range(rows):
        n = i * 7919 % 1_000_003
        if i % 2:
            pd, lgd = f"0.{n % 200_000:06d}", f"0.{50 + n % 850:03d}"
        else:
            pd, lgd = f"{n % 20}.{n % 10_000:04d}%", f"{5 + n % 85}.{n % 10}%"
        position = "off" if i % 5 == 0 else "on"
        lines.append(f"R{i:06d},{n * 37 % 10**9}.{n % 100:02d},{pd},{lgd},{position}")
    return "\n".join(lines) + "\n"


def fraction(cell: str) -> Fraction:
    if cell.endswith("%"):
        return Fraction(cell[:-1]) / 100
    return Fraction(cell)


def work(rows: int) -> str:
    """Parse, price and render ``rows`` lines; return the digest of the outputs."""
    table = [
        Row(cells["id"], Decimal(cells["amount"]), fraction(cells["pd"]),
            fraction(cells["lgd"]), Position(cells["position"]))
        for cells in csv.DictReader(io.StringIO(source(rows)))
    ]
    total = Decimal(0)
    lines, records = [], []
    for row in table:
        weight = float(row.lgd) * (0.1 + 3.0 * math.sqrt(float(row.pd)))
        amount = (row.amount * Decimal(repr(weight))).quantize(CENT, ROUND_HALF_EVEN)
        if row.position is Position.OFF:
            amount = (amount / 2).quantize(CENT, ROUND_HALF_EVEN)
        total += amount
        lines.append(f"{row.id:<8} {row.amount:>18,} {weight:>10.4%} {amount:>18,}")
        records.append({"id": row.id, "amount": str(amount), "weight": repr(weight),
                        "pd": str(row.pd), "lgd": str(row.lgd)})
    text = "\n".join(lines) + f"\ntotal {total:,}\n"
    document = json.dumps({"lines": records, "total": str(total)}, indent=2)
    return hashlib.sha256(text.encode() + b"\0" + document.encode()).hexdigest()


class Meter:
    """In-process passes of ``rows`` lines: the time of each, and their digests."""

    def __init__(self, rows: int = PASS_ROWS) -> None:
        self.rows = rows
        self.times: list[float] = []
        self.digests: set[str] = set()

    def __call__(self) -> None:
        # The cyclic collector is off during a pass, so that its time does not
        # depend on how many objects the program around it holds. Reference
        # counting frees everything a pass makes.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.digests.add(work(self.rows))
            self.times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()


def paced(stages: list[float], passes: list[float]) -> float:
    """Stage time in units of reference passes.

    ``passes`` ran before each stage and after the last one. Each stage is
    measured against the mean of the two passes beside it, so that a change
    in the machine's speed from one stage to the next cancels too.
    """
    return sum(
        stage / ((passes[i] + passes[i + 1]) / 2) for i, stage in enumerate(stages)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", type=int)
    args = parser.parse_args(argv)
    sys.stdout.write(work(args.rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
