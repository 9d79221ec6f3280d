"""Independent exactness oracle for regcap reports.

It shares no code with regcap. It holds literal copies of the published
tables, reads the generated files with the ``csv`` module and
``fractions.Fraction``, prices every line as one exact product with one
half-even rounding, and derives the operational charge, the denominator and
the verdict. ``check_*`` functions compare a rendered document or text
report against that expectation and return a list of problems; an empty
list means the report is exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction

import irbfn

CLASSES = ("sovereign", "bank", "bank_short_term", "corporate")
BUCKETS = (
    "aaa_to_aa_minus",
    "a_plus_to_a_minus",
    "bbb_plus_to_bbb_minus",
    "bb_plus_to_bb_minus",
    "b_plus_to_b_minus",
    "below_b_minus",
    "unrated",
)
_GRADES = (("AAA", "AA+", "AA", "AA-"), ("A+", "A", "A-"), ("BBB+", "BBB", "BBB-"),
           ("BB+", "BB", "BB-"), ("B+", "B", "B-"), ("<B-",), ("UNRATED",))
BUCKET_OF_TOKEN = {token: index for index, grades in enumerate(_GRADES) for token in grades}


def _pct(value: int) -> Fraction:
    return Fraction(value, 100)


_BANK_RANGE = (_pct(50), _pct(100))

# The 4 x 7 weight matrix; a tuple is a (low, high) range cell.
WEIGHTS = {
    "sovereign": tuple(map(_pct, (0, 20, 50, 100, 100, 150, 100))),
    "bank": (_pct(20), _pct(50), _BANK_RANGE, _pct(100), _pct(100), _pct(150),
             _BANK_RANGE),
    "bank_short_term": tuple(map(_pct, (20, 20, 20, 50, 50, 150, 20))),
    "corporate": tuple(map(_pct, (20, 50, 100, 100, 150, 150, 100))),
}
CCF = {
    "medium_term_confirmed_facility": _pct(50),
    "documentary_credit": _pct(100),
    "guarantee": _pct(100),
    "bonded_obligation": _pct(100),
}
BETAS = {
    "corporate_finance": _pct(18),
    "trading_and_sales": _pct(18),
    "retail_banking": _pct(12),
    "commercial_banking": _pct(15),
    "payment_and_settlement": _pct(18),
    "agency_services": _pct(15),
    "asset_management": _pct(12),
    "retail_brokerage": _pct(12),
}
BUSINESS_LINES = tuple(BETAS)
ALPHA = _pct(15)
FLOOR = _pct(8)
CHARGE_MULTIPLIER = Fraction(25, 2)
EXCLUDED_COLUMNS = (
    "provisions", "banking_book_results", "extraordinary_items", "insurance_income",
)


# ---------------------------------------------------------------------------
# Exact arithmetic and rendering rules, on integer numerator/denominator pairs


def round_div(num: int, den: int) -> int:
    """``num / den`` (den > 0) rounded once, half to even."""
    whole, rest = divmod(num, den)
    twice = 2 * rest
    if twice > den or (twice == den and whole % 2):
        whole += 1
    return whole


def round_half_even(value: Fraction) -> int:
    return round_div(value.numerator, value.denominator)


def decimal_parts(text: str) -> tuple[int, int]:
    """A decimal literal, exponent allowed, as (numerator, power-of-ten denominator)."""
    mantissa, _, exponent = text.strip().lower().partition("e")
    sign = -1 if mantissa.startswith("-") else 1
    whole, _, decimals = mantissa.lstrip("+-").partition(".")
    if not (whole + decimals).isdigit():
        raise ValueError(f"not a decimal: {text!r}")
    num = sign * int(whole + decimals)
    places = len(decimals) - int(exponent or 0)
    return (num, 10**places) if places >= 0 else (num * 10**-places, 1)


def cell_ratio(text: str) -> tuple[int, int]:
    """A decimal or percentage cell as (numerator, denominator)."""
    token = text.strip()
    if token.endswith("%"):
        num, den = decimal_parts(token[:-1])
        return num, den * 100
    return decimal_parts(token)


def cell_units(text: str) -> int:
    """A money cell in minor units (cents)."""
    num, den = decimal_parts(text)
    units, rest = divmod(num * 100, den)
    if rest:
        raise ValueError(f"amount {text!r} has sub-cent digits")
    return units


def float_weight(value: float) -> tuple[int, int]:
    """A float read at its shortest round-trip decimal: 0.1 is one tenth."""
    return decimal_parts(repr(value))


def money_text(units: int) -> str:
    sign = "-" if units < 0 else ""
    whole, cents = divmod(abs(units), 100)
    return f"{sign}{whole}.{cents:02d}"


def grouped_money_text(units: int) -> str:
    sign = "-" if units < 0 else ""
    whole, cents = divmod(abs(units), 100)
    return f"{sign}{whole:,}.{cents:02d}"


def ratio_percent_text(num: int, den: int) -> str:
    """Percentage with two places, rounded half to even."""
    scaled = round_div(num * 10_000, den)
    sign = "-" if scaled < 0 else ""
    whole, rest = divmod(abs(scaled), 100)
    return f"{sign}{whole}.{rest:02d}%"


def percent_text(value: Fraction) -> str:
    return ratio_percent_text(value.numerator, value.denominator)


def decimal_text(value: Fraction) -> str:
    """Shortest exact decimal of a terminating fraction, e.g. 1/5 -> 0.2."""
    value = Fraction(value)
    for places in range(0, 30):
        scaled = value * 10**places
        if scaled.denominator == 1:
            break
    else:
        raise ValueError(f"{value} has no short decimal form")
    digits = str(abs(scaled.numerator)).rjust(places + 1, "0")
    sign = "-" if value < 0 else ""
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


# ---------------------------------------------------------------------------
# Expected figures


@dataclass(frozen=True)
class Run:
    """What the oracle needs to know about one configured run."""

    portfolio: str
    income: str | None
    capital_units: int
    irb: bool = False
    bank_policy: str = "low_end"
    oprisk: str | None = "basic_indicator"  # None in the credit-only regime


@dataclass(frozen=True)
class Expected:
    lines: tuple[dict, ...]
    total_rwa: int
    charge: int | None
    average_income: int | None
    per_line: dict | None
    income_years: str | None
    denominator: int
    shares: dict | None
    full_ratio: str | None
    credit_only_ratio: str | None
    min_required: int
    surplus: int
    compliant: bool

    @property
    def exit_status(self) -> int:
        return 0 if self.compliant else 1


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        return [
            {key.strip(): (value or "").strip() for key, value in row.items()}
            for row in reader
            if any((value or "").strip() for value in row.values())
        ]


class _Pricer:
    """Line pricing; the few distinct table factors are resolved once each."""

    def __init__(self, bank_policy: str) -> None:
        self.bank_policy = bank_policy
        self.factors: dict[tuple[str, str, str], tuple] = {}
        self.maturities: dict[str, str] = {}

    def _factor(self, key: tuple[str, str, str]) -> tuple:
        counterparty, rating, category = key
        cell = WEIGHTS[counterparty.lower()][BUCKET_OF_TOKEN[rating.upper()]]
        if isinstance(cell, tuple):
            cell = cell[0] if self.bank_policy == "low_end" else cell[1]
        ccf = CCF[category] if category else Fraction(1)
        product = ccf * cell
        return (product.numerator, product.denominator,
                percent_text(ccf), percent_text(cell))

    def standardized(self, row: dict[str, str]) -> tuple[dict, int]:
        key = (row["class"], row["rating"], row.get("off_balance_category", ""))
        factor = self.factors.get(key)
        if factor is None:
            factor = self.factors[key] = self._factor(key)
        num, den, ccf_text, weight_text = factor
        units = round_div(cell_units(row["nominal"]) * num, den)
        line = {"id": row["id"], "ccf": ccf_text, "weight": weight_text,
                "amount": money_text(units)}
        return line, units

    def irb(self, row: dict[str, str]) -> tuple[dict, int]:
        pd, lgd = cell_ratio(row["pd"]), cell_ratio(row["lgd"])
        maturity = cell_ratio(row["maturity"])
        ead = cell_units(row["ead"])
        weight = float_weight(irbfn.weight(pd[0] / pd[1], lgd[0] / lgd[1],
                                           maturity[0] / maturity[1]))
        units = round_div(ead * weight[0], weight[1])
        maturity_text = self.maturities.get(row["maturity"])
        if maturity_text is None:
            maturity_text = self.maturities[row["maturity"]] = decimal_text(
                Fraction(*maturity)
            )
        line = {
            "id": row["id"],
            "pd": ratio_percent_text(*pd),
            "lgd": ratio_percent_text(*lgd),
            "maturity_years": maturity_text,
            "ead": money_text(ead),
            "weight": ratio_percent_text(*weight),
            "amount": money_text(units),
            "off_balance": bool(row.get("off_balance_category")),
        }
        return line, units


def _policy_mean(values: list[int]) -> Fraction:
    kept = [value for value in values if value >= 0]
    return Fraction(sum(kept), len(kept)) if kept else Fraction(0)


def _effective_income(path: str) -> tuple[dict[str, list[int]], str]:
    """Effective income per line key (``TOTAL`` for firm-wide), oldest year
    first, and the span of years."""
    by_line: dict[str, dict[int, int]] = {}
    for row in _rows(path):
        units = cell_units(row["amount"])
        units -= sum(cell_units(row[c]) for c in EXCLUDED_COLUMNS if row.get(c))
        line = row["line"].lower() if row["line"].upper() != "TOTAL" else "TOTAL"
        by_line.setdefault(line, {})[int(row["year"])] = units
    years = sorted({year for values in by_line.values() for year in values})
    effective = {line: [v[y] for y in sorted(v)] for line, v in by_line.items()}
    return effective, f"{years[0]}-{years[-1]}"


def expected(run: Run) -> Expected:
    pricer = _Pricer(run.bank_policy)
    price = pricer.irb if run.irb else pricer.standardized
    lines, total = [], 0
    for row in _rows(run.portfolio):
        line, units = price(row)
        lines.append(line)
        total += units
    charge = average = per_line = years = None
    charge_exact = Fraction(0)
    if run.oprisk is not None:
        charge = 0
        if run.income is not None:
            effective, years = _effective_income(run.income)
            if run.oprisk == "basic_indicator":
                if "TOTAL" in effective:
                    yearly = effective["TOTAL"]
                else:
                    yearly = [sum(v) for v in zip(*effective.values())]
                average = round_half_even(_policy_mean(yearly))
                charge = round_half_even(average * ALPHA) if average > 0 else 0
            else:
                exact = {
                    line: BETAS[line] * _policy_mean(effective[line])
                    for line in BUSINESS_LINES
                }
                per_line = {line: round_half_even(v) for line, v in exact.items()}
                charge = max(round_half_even(sum(exact.values())), 0)
        charge_exact = CHARGE_MULTIPLIER * charge
    exact_denominator = total + charge_exact
    denominator = round_half_even(exact_denominator)
    min_required = round_half_even(FLOOR * denominator)
    surplus = run.capital_units - min_required
    shares = None
    if exact_denominator:
        shares = {
            "credit": percent_text(total / exact_denominator),
            "market": percent_text(Fraction(0)),
            "oprisk": percent_text(charge_exact / exact_denominator),
        }
    return Expected(
        lines=tuple(lines),
        total_rwa=total,
        charge=charge,
        average_income=average,
        per_line=per_line,
        income_years=years,
        denominator=denominator,
        shares=shares,
        full_ratio=(
            percent_text(Fraction(run.capital_units, denominator)) if denominator else None
        ),
        credit_only_ratio=(
            percent_text(Fraction(run.capital_units, total)) if total else None
        ),
        min_required=min_required,
        surplus=surplus,
        compliant=surplus >= 0,
    )


# ---------------------------------------------------------------------------
# Checks against rendered output


def _compare(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: report says {got!r}, oracle says {want!r}")


def check_compute_document(doc: dict, exp: Expected, label: str = "") -> list[str]:
    """Every line, the totals and the verdict of a compute document."""
    problems: list[str] = []
    lines = doc["credit"]["lines"]
    _compare(problems, f"{label}line count", len(lines), len(exp.lines))
    for got, want in zip(lines, exp.lines):
        if got != want:
            problems.append(f"{label}line {want['id']}: report {got}, oracle {want}")
            if len(problems) > 20:
                return problems
    _compare(problems, f"{label}total_rwa", doc["credit"]["total_rwa"],
             money_text(exp.total_rwa))
    if exp.charge is None:
        _compare(problems, f"{label}oprisk", "oprisk" in doc, False)
    else:
        oprisk = doc["oprisk"]
        _compare(problems, f"{label}oprisk charge", oprisk["charge"],
                 money_text(exp.charge))
        if exp.average_income is not None:
            _compare(problems, f"{label}average income", oprisk.get("average_income"),
                     money_text(exp.average_income))
        if exp.per_line is not None:
            want = {line: money_text(v) for line, v in exp.per_line.items()}
            _compare(problems, f"{label}per-line charges", oprisk.get("per_line"), want)
        _compare(problems, f"{label}income years", oprisk.get("income_years"),
                 exp.income_years)
    solvency = doc["solvency"]
    for key, want in (
        ("denominator", money_text(exp.denominator)),
        ("min_required_capital", money_text(exp.min_required)),
        ("surplus", money_text(exp.surplus)),
        ("compliant", exp.compliant),
        ("full_ratio", exp.full_ratio),
        ("credit_only_ratio", exp.credit_only_ratio),
        ("shares", exp.shares),
    ):
        _compare(problems, f"{label}{key}", solvency[key], want)
    return problems


def check_compute_text(text: str, exp: Expected) -> list[str]:
    """The text report's credit line count, totals and status line."""
    problems: list[str] = []
    wanted = (
        f"total risk-weighted assets: {grouped_money_text(exp.total_rwa)}",
        f"denominator:       {grouped_money_text(exp.denominator)}",
        f"minimum required:  {grouped_money_text(exp.min_required)}",
        f"status:            {'COMPLIANT' if exp.compliant else 'NON-COMPLIANT'}",
    )
    present = set(text.splitlines())
    for line in wanted:
        if line not in present:
            problems.append(f"text report lacks {line!r}")
    ids = {line["id"] for line in exp.lines}
    credit_lines = sum(1 for line in text.splitlines() if line.split(" ", 1)[0] in ids)
    _compare(problems, "text credit lines", credit_lines, len(exp.lines))
    return problems


def check_compare_document(doc: dict, full: Expected, credit_only: Expected) -> list[str]:
    problems = check_compute_document(doc["full"], full, "full ")
    problems += check_compute_document(doc["credit_only"], credit_only, "credit-only ")
    _compare(problems, "required_delta", doc["required_delta"],
             money_text(full.min_required - credit_only.min_required))
    return problems


def check_disclosure_document(doc: dict, exp: Expected, period: str) -> list[str]:
    problems = check_compute_document(doc["report"], exp)
    _compare(problems, "period", doc["period"], period)
    return problems


def check_validate_text(text: str, run: Run) -> list[str]:
    wanted = f"portfolio OK: {len(_rows(run.portfolio))} exposure(s)\n"
    if run.income is not None:
        wanted += f"income OK: years {_effective_income(run.income)[1]}\n"
    wanted += "config OK\n"
    return [] if text == wanted else [f"validate printed {text!r}, expected {wanted!r}"]
