"""File ingestion and table round-tripping.

Three plain-text surfaces, all UTF-8 with '.' decimal separators:

* table files: whitespace-separated ``key [key] value`` lines, ``#``
  comments; weights either a single decimal fraction or ``low..high``;
* portfolio files: CSV with a mandatory header (id, class, rating, nominal,
  position, plus optional columns); unknown columns are rejected;
* income files: CSV of (year, line, amount) rows with optional excluded-item
  columns, where line is a business-line key or TOTAL.

Loaded tables carry a ``path#sha256-prefix`` provenance label so reports can
cite exactly which file produced a number. Dump then load is the identity.
"""

from __future__ import annotations

import csv
import hashlib
import io
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

from .config import _parse_bool
from .errors import MissingLine, ParseError, RegcapError
from .model import (
    CounterpartyClass,
    Exposure,
    Portfolio,
    RatingBucket,
    id_problem,
    parse_rating,
    validate_portfolio,  # noqa: F401  not called here; perfbench's tracer spans it by this name
)
from .money import (
    DEFAULT_CURRENCY,
    Money,
    decimal_units,
    fraction_to_decimal_text,
    parse_fraction,
)
from .oprisk import (
    AnnualIncome,
    BetaTable,
    BusinessLine,
    GrossIncomeRecord,
    IncomeHistory,
)
from .standardized import CcfTable, RiskWeightTable, WeightCell

_CLASS_BY_KEY = {member.key: member for member in CounterpartyClass}
_BUCKET_BY_KEY = {member.key: member for member in RatingBucket}


def table_source(path: str | Path, text: str) -> str:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    return f"{path}#{digest}"


def _table_rows(text: str, origin: str, fields: int):
    """Yield (line_number, tokens) for data lines, checking token counts."""
    # Only "\n" ends a line (reading has turned "\r\n" and "\r" into it);
    # splitlines() would also break at a form feed inside a comment.
    for number, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != fields:
            raise ParseError(
                f"expected {fields} whitespace-separated fields, got {len(tokens)}"
                f" in {origin}",
                line=number,
            )
        yield number, tokens


def _cell_error(path: Path, line: int, column: str, reason) -> ParseError:
    return ParseError(f"{reason} in {path}", line=line, column=column)


def _parse_fraction_cell(token: str, path: Path, line: int, column: str) -> Fraction:
    try:
        return parse_fraction(token)
    except ValueError as exc:
        raise _cell_error(path, line, column, exc) from exc


def _parse_cell(token: str, path: Path, number: int) -> WeightCell:
    low_text, is_range, high_text = token.partition("..")
    low = _parse_fraction_cell(low_text, path, number, "weight")
    high = _parse_fraction_cell(high_text, path, number, "weight") if is_range else low
    try:
        return WeightCell(low, high)
    except ValueError as exc:
        raise _cell_error(path, number, "weight", exc) from exc


def load_risk_weights(path: str | Path) -> RiskWeightTable:
    """Read a risk-weight table file (class, bucket, weight per line)."""
    path = Path(path)
    text = _read_text(path)
    cells: dict[tuple[CounterpartyClass, RatingBucket], WeightCell] = {}
    for number, (class_key, bucket_key, weight_token) in _table_rows(
        text, str(path), 3
    ):
        try:
            counterparty = _CLASS_BY_KEY[class_key.lower()]
        except KeyError:
            raise ParseError(
                f"unknown counterparty class {class_key!r} in {path}",
                line=number,
                column="class",
            ) from None
        try:
            bucket = _BUCKET_BY_KEY[bucket_key.lower()]
        except KeyError:
            raise ParseError(
                f"unknown rating bucket {bucket_key!r} in {path}",
                line=number,
                column="bucket",
            ) from None
        key = (counterparty, bucket)
        if key in cells:
            raise ParseError(
                f"duplicate cell ({class_key}, {bucket_key}) in {path}", line=number
            )
        cells[key] = _parse_cell(weight_token, path, number)
    return RiskWeightTable(cells=cells, source=table_source(path, text))


def dump_risk_weights(table: RiskWeightTable, path: str | Path) -> None:
    """Write a table in the loadable schema, rows in declaration order."""
    lines = [
        "# risk-weight table: class  bucket  weight",
        "# weight is a decimal fraction; range cells use low..high",
    ]
    ordered = sorted(
        table.cells.items(),
        key=lambda item: (
            list(CounterpartyClass).index(item[0][0]),
            int(item[0][1]),
        ),
    )
    for (counterparty, bucket), cell in ordered:
        if cell.is_range:
            value = (
                f"{fraction_to_decimal_text(cell.low)}"
                f"..{fraction_to_decimal_text(cell.high)}"
            )
        else:
            value = fraction_to_decimal_text(cell.low)
        lines.append(f"{counterparty.key}  {bucket.key}  {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_ccf(path: str | Path) -> CcfTable:
    """Read a conversion-factor table file (category, factor per line)."""
    path = Path(path)
    text = _read_text(path)
    factors: dict[str, Fraction] = {}
    for number, (category, factor_token) in _table_rows(text, str(path), 2):
        if category in factors:
            raise ParseError(f"duplicate category {category!r} in {path}", line=number)
        factor = _parse_fraction_cell(factor_token, path, number, "factor")
        if not 0 <= factor <= 1:
            reason = f"conversion factor {factor_token} outside [0, 1]"
            raise _cell_error(path, number, "factor", reason)
        factors[category] = factor
    return CcfTable(factors=factors, source=table_source(path, text))


def dump_ccf(table: CcfTable, path: str | Path) -> None:
    lines = ["# conversion-factor table: category  factor"]
    for category in sorted(table.factors):
        lines.append(f"{category}  {fraction_to_decimal_text(table.factors[category])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_betas(path: str | Path) -> BetaTable:
    """Read a business-line multiplier file (line, beta per line)."""
    path = Path(path)
    text = _read_text(path)
    betas: dict[BusinessLine, Fraction] = {}
    for number, (line_key, beta_token) in _table_rows(text, str(path), 2):
        try:
            line = BusinessLine.from_key(line_key)
        except ValueError as exc:
            raise _cell_error(path, number, "line", exc) from exc
        if line in betas:
            raise ParseError(f"duplicate line {line_key!r} in {path}", line=number)
        beta = _parse_fraction_cell(beta_token, path, number, "beta")
        if not 0 <= beta <= 1:
            reason = f"beta for {line.key} outside [0, 1]"
            raise _cell_error(path, number, "beta", reason)
        betas[line] = beta
    try:
        return BetaTable(betas=betas, source=table_source(path, text))
    except MissingLine as exc:
        raise ParseError(f"{exc} in {path}") from exc


def dump_betas(table: BetaTable, path: str | Path) -> None:
    lines = ["# business-line multiplier table: line  beta"]
    for line in BusinessLine:
        lines.append(f"{line.key}  {fraction_to_decimal_text(table.betas[line])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc


# ---------------------------------------------------------------------------
# Portfolio files

PORTFOLIO_REQUIRED = ("id", "class", "rating", "nominal", "position")
PORTFOLIO_OPTIONAL = (
    "off_balance_category",
    "short_term_flag",
    "pd",
    "lgd",
    "ead",
    "maturity",
)

def _read_header(
    reader, path: Path, required: tuple[str, ...], optional: tuple[str, ...]
) -> list[str]:
    """The CSV header's column names: known, unique, and all required present."""
    try:
        row = next(reader)
    except StopIteration:
        raise ParseError(f"{path} is empty; a header row is mandatory", line=1) from None
    names = [name.strip() for name in row]
    known = set(required) | set(optional)
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ParseError(
            f"unknown column(s) {', '.join(repr(n) for n in unknown)} in {path}",
            line=1,
        )
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ParseError(
            f"duplicate column(s) {', '.join(repr(n) for n in duplicates)} in {path}",
            line=1,
        )
    missing = [name for name in required if name not in names]
    if missing:
        raise ParseError(
            f"missing required column(s) {', '.join(repr(n) for n in missing)}"
            f" in {path}",
            line=1,
        )
    return names


def _csv_records(path: Path, required: tuple[str, ...], optional: tuple[str, ...]):
    """Yield (line number, cells) for each non-blank data row.

    ``cells`` is a tuple of one string per column of ``required + optional``,
    in that order whatever the header's order: each column's index is looked
    up once, from the header, and a known column the header leaves out
    points at one empty cell appended to every row. The line number is the
    physical line on which the row ends, so a quoted cell spanning lines
    keeps its line breaks and shifts no later citation. The header is
    checked by ``_read_header`` and every data row must have one cell per
    column. A row the csv module cannot read (an oversized cell, say) is a
    ParseError citing its line.
    """
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        names = _read_header(reader, path, required, optional)
        width = len(names)
        index = {name: position for position, name in enumerate(names)}
        pick = itemgetter(*(index.get(name, width) for name in required + optional))
        for row in reader:
            if not "".join(row).strip():
                continue
            if len(row) != width:
                raise ParseError(
                    f"expected {width} fields, got {len(row)} in {path}",
                    line=reader.line_num,
                )
            row.append("")
            yield reader.line_num, pick(row)
    except csv.Error as exc:
        raise ParseError(f"{exc} in {path}", line=reader.line_num) from exc


def _units_cell(token: str, path: Path, line: int, column: str) -> int:
    try:
        return decimal_units(token)
    except ValueError as exc:
        raise _cell_error(path, line, column, exc) from exc


def _parse_money_cell(
    token: str, currency: str, path: Path, line: int, column: str
) -> Money:
    return Money(_units_cell(token, path, line, column), currency)


def _optional_money(
    token: str, currency: str, path: Path, line: int, column: str
) -> Money | None:
    token = token.strip()
    return _parse_money_cell(token, currency, path, line, column) if token else None


def _optional_fraction(
    token: str, fractions: dict[str, Fraction], path: Path, line: int, column: str
) -> Fraction | None:
    """A cell's value, shared with every equal token already parsed in the file."""
    token = token.strip()
    if not token:
        return None
    value = fractions.get(token)
    if value is None:
        value = fractions[token] = _parse_fraction_cell(token, path, line, column)
    return value


def _parse_line(
    cells: tuple[str, ...], path: Path, line: int, fractions: dict[str, Fraction]
) -> tuple:
    """One portfolio row as a line of the Portfolio's columns.

    ``cells`` are in ``PORTFOLIO_REQUIRED + PORTFOLIO_OPTIONAL`` order;
    ``fractions`` maps each token already parsed in this file to its value,
    so repeated pd, lgd and maturity cells share one.
    """
    (
        exposure_id, class_key, rating_token, nominal_token, position,
        category, flag_token, pd_token, lgd_token, ead_token, maturity_token,
    ) = cells
    exposure_id = exposure_id.strip()
    problem = id_problem(exposure_id)
    if problem is not None:
        raise _cell_error(path, line, "id", problem)

    class_key = class_key.strip().lower()
    counterparty = _CLASS_BY_KEY.get(class_key)
    if counterparty is None:
        raise _cell_error(path, line, "class", f"unknown counterparty class {class_key!r}")

    try:
        rating = parse_rating(rating_token)
    except RegcapError as exc:
        raise _cell_error(path, line, "rating", exc) from exc

    nominal = _units_cell(nominal_token.strip(), path, line, "nominal")

    position = position.strip().lower()
    if position not in ("on", "off"):
        raise _cell_error(
            path, line, "position", f"position must be 'on' or 'off', got {position!r}"
        )
    category = category.strip() or None
    if position == "off" and category is None:
        raise _cell_error(
            path, line, "off_balance_category",
            "off-balance position needs a category",
        )
    if position == "on" and category is not None:
        raise _cell_error(
            path, line, "off_balance_category",
            "on-balance position must leave the category empty",
        )

    flag_token = flag_token.strip().lower()
    try:
        short_term = _parse_bool(flag_token) if flag_token else False
    except ValueError as exc:
        raise _cell_error(path, line, "short_term_flag", exc) from exc

    ead_token = ead_token.strip()
    return (
        exposure_id,
        counterparty,
        rating,
        nominal,
        category,
        short_term,
        _optional_fraction(pd_token, fractions, path, line, "pd"),
        _optional_fraction(lgd_token, fractions, path, line, "lgd"),
        _units_cell(ead_token, path, line, "ead") if ead_token else None,
        _optional_fraction(maturity_token, fractions, path, line, "maturity"),
    )


def load_portfolio(path: str | Path, currency: str = DEFAULT_CURRENCY) -> Portfolio:
    """Read and validate a portfolio file; errors cite line and column.

    The cells fill the Portfolio's columns directly, amounts as minor units
    of ``currency``; no Exposure or Money is built per row.
    """
    path = Path(path)
    records = _csv_records(path, PORTFOLIO_REQUIRED, PORTFOLIO_OPTIONAL)
    fractions: dict[str, Fraction] = {}
    lines = [_parse_line(cells, path, number, fractions) for number, cells in records]
    columns = zip(*lines) if lines else [()] * len(Exposure.__slots__)
    return Portfolio(*columns, currency)


# ---------------------------------------------------------------------------
# Income files

INCOME_REQUIRED = ("year", "line", "amount")
INCOME_OPTIONAL = (
    "provisions",
    "banking_book_results",
    "extraordinary_items",
    "insurance_income",
)

TOTAL_LINE = "TOTAL"


def load_income(path: str | Path, currency: str = DEFAULT_CURRENCY) -> IncomeHistory:
    """Read a three-year income statement file into an IncomeHistory."""
    path = Path(path)
    totals: dict[int, GrossIncomeRecord] = {}
    per_line: dict[int, dict[BusinessLine, GrossIncomeRecord]] = {}
    records = _csv_records(path, INCOME_REQUIRED, INCOME_OPTIONAL)
    for number, (year_token, line_token, amount_token, *excluded) in records:
        year_token = year_token.strip()
        try:
            year = int(year_token)
        except ValueError:
            raise _cell_error(
                path, number, "year", f"not a year: {year_token!r}"
            ) from None
        income = GrossIncomeRecord(
            _parse_money_cell(amount_token.strip(), currency, path, number, "amount"),
            *(
                _optional_money(token, currency, path, number, column)
                for column, token in zip(INCOME_OPTIONAL, excluded)
            ),
        )
        line_token = line_token.strip()
        if line_token.upper() == TOTAL_LINE:
            if year in totals:
                raise ParseError(
                    f"duplicate TOTAL row for year {year} in {path}", line=number
                )
            totals[year] = income
            continue
        try:
            business_line = BusinessLine.from_key(line_token)
        except ValueError as exc:
            raise _cell_error(path, number, "line", exc) from exc
        year_lines = per_line.setdefault(year, {})
        if business_line in year_lines:
            raise ParseError(
                f"duplicate {business_line.key} row for year {year} in {path}",
                line=number,
            )
        year_lines[business_line] = income

    years = sorted(set(totals) | set(per_line))
    annuals = tuple(
        AnnualIncome(
            year=year, total=totals.get(year), per_line=per_line.get(year, {})
        )
        for year in years
    )
    return IncomeHistory(years=annuals)
