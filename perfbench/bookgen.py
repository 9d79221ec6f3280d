"""Seeded synthetic inputs for the benchmark: books, income, tables, config.

Every byte is drawn from ``random.Random(seed)`` with integer arithmetic
only, so the same workload and seed give the same files on any platform.
The table files are written from the oracle's literal copies of the
published values, so a program that loads them must price exactly as the
oracle does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import irbfn
import oracle

# The 18 published rating tokens: 16 letter grades, the literal "<B-" and
# the unrated marker.
RATING_TOKENS = (
    "AAA", "AA+", "AA", "AA-", "A+", "A", "A-", "BBB+", "BBB", "BBB-",
    "BB+", "BB", "BB-", "B+", "B", "B-", "<B-", "unrated",
)
OFF_BALANCE_PERCENT = 20
# IRB rows (one in TIE_ODDS) whose ead x weight is an exact rounding tie when
# the float weight is read at its shortest decimal (0.05, 0.025 and 0.1 at
# pd 0, maturity 2.5) but not at its binary value, so that a change of that
# reading rule moves amounts: (lgd, ead base, ead step) in minor units.
TIE_ODDS = 500
TIE_ROWS = (("0.5", 10, 40), ("0.25", 20, 80), ("1", 5, 20))
INCOME_YEARS = (2004, 2005, 2006)
INCOME_HEADER = (
    "year,line,amount,provisions,banking_book_results,"
    "extraordinary_items,insurance_income"
)
STD_HEADER = "id,class,rating,nominal,position,off_balance_category,short_term_flag"
IRB_HEADER = STD_HEADER + ",pd,lgd,ead,maturity"


@dataclass(frozen=True)
class BookSpec:
    """One workload's inputs: book shape, regime options and table files."""

    exposures: int
    irb: bool
    oprisk: str  # "basic_indicator" or "standardized"
    bank_policy: str
    tables: tuple[str, ...]  # which of risk_weights, ccf, betas get files
    period: str | None = None


SPECS = {
    "std_book_100k": BookSpec(100_000, False, "basic_indicator", "low_end", ()),
    "irb_book_100k": BookSpec(
        100_000, True, "standardized", "low_end", ("ccf", "betas")
    ),
    "cli_small": BookSpec(
        200, False, "standardized", "high_end",
        ("risk_weights", "ccf", "betas"), period="2006-H2",
    ),
}


# File names inside a workload directory.
PORTFOLIO, INCOME, CONFIG = "portfolio.csv", "income.csv", "regcap.cfg"


@dataclass(frozen=True)
class Inputs:
    """Where the generated files are, and own funds that cover any draw."""

    directory: Path
    spec: BookSpec
    capital: str


def _amount_units(rng: random.Random) -> int:
    if rng.randrange(500) == 0:
        return 0
    digits = rng.randrange(3, 12)
    return rng.randrange(10 ** (digits - 1), 10**digits)


def _fraction_cell(rng: random.Random, numerator: int, places: int) -> str:
    """``numerator / 10**places`` written as a decimal or, half the time, a percent."""
    if rng.randrange(2):
        whole, rest = divmod(numerator, 10 ** (places - 2))
        return f"{whole}.{rest:0{places - 2}d}%"
    return f"0.{numerator:0{places}d}"


def book_lines(rng: random.Random, spec: BookSpec) -> tuple[list[str], int]:
    """Portfolio CSV lines and the sum of every line's largest amount."""
    lines = [IRB_HEADER if spec.irb else STD_HEADER]
    categories = tuple(oracle.CCF)
    bound = 0
    for number in range(1, spec.exposures + 1):
        counterparty = oracle.CLASSES[rng.randrange(len(oracle.CLASSES))]
        rating = RATING_TOKENS[rng.randrange(len(RATING_TOKENS))]
        nominal = _amount_units(rng)
        if rng.randrange(100) < OFF_BALANCE_PERCENT:
            position, category = "off", categories[rng.randrange(len(categories))]
        else:
            position, category = "on", ""
        flag = "true" if counterparty == "bank_short_term" else ""
        row = (
            f"E{number:06d},{counterparty},{rating},{oracle.money_text(nominal)},"
            f"{position},{category},{flag}"
        )
        largest = nominal
        if spec.irb:
            if rng.randrange(TIE_ODDS) == 0:
                lgd, base, step = TIE_ROWS[rng.randrange(len(TIE_ROWS))]
                pd, ead, maturity = "0", base + step * rng.randrange(10**6), "2.5"
            else:
                pd = _fraction_cell(rng, rng.randrange(1, 200_000), 6)
                lgd = _fraction_cell(rng, rng.randrange(50, 900), 3)
                ead = _amount_units(rng) or 1  # zero EAD skips the weight call
                tenths = rng.randrange(1, 50)
                maturity = f"{tenths // 10}.{tenths % 10}"
            row += f",{pd},{lgd},{oracle.money_text(ead)},{maturity}"
            largest = max(largest, ead)
        lines.append(row)
        bound += largest
    return lines, bound


def _income_row(rng: random.Random, year: int, line: str, scale: int) -> tuple[str, int]:
    amount = rng.randrange(scale // 10, scale)
    excluded = [
        rng.randrange(scale // 20) if rng.randrange(3) == 0 else None
        for _ in range(4)
    ]
    if rng.randrange(6) == 0:  # a loss year
        amount = -amount
    cells = ",".join("" if e is None else oracle.money_text(e) for e in excluded)
    size = abs(amount) + sum(e for e in excluded if e is not None)
    return f"{year},{line},{oracle.money_text(amount)},{cells}", size


def income_lines(rng: random.Random, spec: BookSpec) -> tuple[list[str], int]:
    """Income CSV lines (TOTAL rows for BIA, per-line rows for TSA) and their size."""
    lines = [INCOME_HEADER]
    size = 0
    for year in INCOME_YEARS:
        names = oracle.BUSINESS_LINES if spec.oprisk == "standardized" else ("TOTAL",)
        for name in names:
            row, row_size = _income_row(rng, year, name, 10**12)
            lines.append(row)
            size += row_size
    return lines, size


def table_texts() -> dict[str, str]:
    """The three table files, written from the oracle's literal values."""
    weights = ["# risk-weight table: class  bucket  weight"]
    for counterparty in oracle.CLASSES:
        for bucket, cell in zip(oracle.BUCKETS, oracle.WEIGHTS[counterparty]):
            if isinstance(cell, tuple):
                value = f"{oracle.decimal_text(cell[0])}..{oracle.decimal_text(cell[1])}"
            else:
                value = oracle.decimal_text(cell)
            weights.append(f"{counterparty}  {bucket}  {value}")
    ccf = ["# conversion-factor table: category  factor"]
    ccf += [f"{name}  {oracle.decimal_text(v)}" for name, v in oracle.CCF.items()]
    betas = ["# business-line multiplier table: line  beta"]
    betas += [f"{name}  {oracle.decimal_text(v)}" for name, v in oracle.BETAS.items()]
    return {
        "risk_weights": "\n".join(weights) + "\n",
        "ccf": "\n".join(ccf) + "\n",
        "betas": "\n".join(betas) + "\n",
    }


def config_text(spec: BookSpec) -> str:
    lines = [
        "regime = basel2",
        f"credit.approach = {'irb_advanced' if spec.irb else 'standardized'}",
        f"credit.bank_policy = {spec.bank_policy}",
        f"oprisk.approach = {spec.oprisk}",
        "oprisk.negative_gi_policy = exclude_negative_years",
        "currency = EUR",
    ]
    if spec.irb:
        lines.append(f"irb.function = {irbfn.NAME}")
    lines += [f"tables.{name} = {name}.tbl" for name in spec.tables]
    if spec.period:
        lines.append(f"disclosure.period = {spec.period}")
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int, directory: Path) -> Inputs:
    """Write one workload's inputs under ``directory``; file names are relative."""
    spec = SPECS[workload]
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    book, exposure_size = book_lines(rng, spec)
    income, income_size = income_lines(rng, spec)
    # Enough own funds whatever the draw: 8% of the largest possible RWA
    # (weights stay below 3.5) plus the largest possible operational charge.
    capital = (3 * exposure_size) // 10 + income_size // 5 + 100
    files = {
        PORTFOLIO: "\n".join(book) + "\n",
        INCOME: "\n".join(income) + "\n",
        CONFIG: config_text(spec),
    }
    tables = table_texts()
    files.update({f"{name}.tbl": tables[name] for name in spec.tables})
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return Inputs(directory=directory, spec=spec, capital=oracle.money_text(capital))
