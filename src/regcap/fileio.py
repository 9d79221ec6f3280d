"""File ingestion and table round-tripping.

Three plain-text surfaces, all UTF-8 with '.' decimal separators:

* table files: whitespace-separated ``key [key] value`` lines, ``#``
  comments; weights either a single decimal fraction or ``low..high``;
* portfolio files: CSV with a mandatory header (id, class, rating, nominal,
  position, plus optional columns); unknown columns are rejected;
* income files: CSV of (year, line, amount) rows with optional excluded-item
  columns, where line is a business-line key or TOTAL.

Loaded tables carry a ``path#sha256-prefix`` provenance label, a digest of
the file's bytes, so reports can cite exactly which file produced a number.
Dump then load is the identity.

A regular file regcap writes is replaced whole or not at all (``write_whole``).
Every file is read as bytes and checked as UTF-8 before any line is parsed.
CSV rows are then read one at a time from a text stream over those bytes,
and a portfolio row's cells go straight into the book's columns. Each row
is read under one error boundary: its loader notes the column of each cell
before reading it, and a ValueError from the cell, a parser's or one of the
loader's own rules, becomes a ParseError citing that line and column.
"""

from __future__ import annotations

import csv
import errno
import io
import os
import stat
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

from .config import _data_lines, _parse_bool
from .errors import MissingLine, ParseError
from .model import (
    CounterpartyClass,
    Exposure,
    Portfolio,
    RATING_TOKENS,
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
    INCOME_EXCLUSIONS,
    IncomeHistory,
)
from .standardized import CcfTable, RiskWeightTable, WeightCell

try:
    # hashlib loads and initialises OpenSSL's libcrypto, a few MB of resident
    # memory for one digest per table file; the interpreter's own module is lean:
    # _sha2 from CPython 3.12, _sha256 before it.
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

_CLASS_BY_KEY = {member.key: member for member in CounterpartyClass}
_BUCKET_BY_KEY = {member.key: member for member in RatingBucket}


def table_source(path: str | Path, data: bytes) -> str:
    """``path#`` and the first 12 hex digits of the SHA-256 of the file's bytes."""
    return f"{path}#{sha256(data).hexdigest()[:12]}"


def write_whole(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, whole or not at all.

    A regular file, through any symlink, is replaced by a complete temporary file
    with its mode, so a write that fails in the run leaves it as it was; a device
    or FIFO is written in place. The OSError raised names ``path``; "" is
    refused, not taken for the working directory that Path("") stands for.
    """
    if path == "":
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    path = Path(path)
    try:
        mode = path.stat().st_mode if path.exists() else None
        if mode is not None and not stat.S_ISREG(mode):
            path.write_text(text, encoding="utf-8")
            return
        target = Path(os.path.realpath(path))
        temporary = target.parent / f".{target.name}.{os.getpid()}.tmp"
        try:
            temporary.write_text(text, encoding="utf-8")
            if mode is not None:
                os.chmod(temporary, stat.S_IMODE(mode))
            os.replace(temporary, target)
        finally:
            temporary.unlink(missing_ok=True)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _table_rows(text: str, origin: str, fields: int):
    """Yield (line_number, tokens) for data lines, checking token counts."""
    for number, line in _data_lines(text):
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


def load_risk_weights(path: str | Path) -> RiskWeightTable:
    """Read a risk-weight table file (class, bucket, weight per line)."""
    path = _input_path(path)
    text, source = _read_table(path)
    cells: dict[tuple[CounterpartyClass, RatingBucket], WeightCell] = {}
    for number, (class_key, bucket_key, weight_token) in _table_rows(
        text, str(path), 3
    ):
        column = "class"
        try:
            counterparty = _CLASS_BY_KEY.get(class_key.lower())
            if counterparty is None:
                raise ValueError(f"unknown counterparty class {class_key!r}")
            column = "bucket"
            bucket = _BUCKET_BY_KEY.get(bucket_key.lower())
            if bucket is None:
                raise ValueError(f"unknown rating bucket {bucket_key!r}")
            key = (counterparty, bucket)
            if key in cells:
                raise ParseError(
                    f"duplicate cell ({class_key}, {bucket_key}) in {path}", line=number
                )
            column = "weight"
            low_text, is_range, high_text = weight_token.partition("..")
            low = parse_fraction(low_text)
            cells[key] = WeightCell(low, parse_fraction(high_text) if is_range else low)
        except ValueError as exc:
            raise _cell_error(path, number, column, exc) from exc
    return RiskWeightTable(cells=cells, source=source)


def dump_risk_weights(table: RiskWeightTable, path: str | Path) -> None:
    """Write a table in the loadable schema, rows in declaration order."""
    lines = [
        "# risk-weight table: class  bucket  weight",
        "# weight is a decimal fraction; range cells use low..high",
    ]
    classes = list(CounterpartyClass)
    ordered = sorted(
        table.cells.items(), key=lambda item: (classes.index(item[0][0]), int(item[0][1]))
    )
    for (counterparty, bucket), cell in ordered:
        value = fraction_to_decimal_text(cell.low)
        if cell.is_range:
            value += f"..{fraction_to_decimal_text(cell.high)}"
        lines.append(f"{counterparty.key}  {bucket.key}  {value}")
    write_whole(path, "\n".join(lines) + "\n")


def load_ccf(path: str | Path) -> CcfTable:
    """Read a conversion-factor table file (category, factor per line)."""
    path = _input_path(path)
    text, source = _read_table(path)
    factors: dict[str, Fraction] = {}
    for number, (category, factor_token) in _table_rows(text, str(path), 2):
        if category in factors:
            raise ParseError(f"duplicate category {category!r} in {path}", line=number)
        try:
            factor = parse_fraction(factor_token)
            if not 0 <= factor <= 1:
                raise ValueError(f"conversion factor {factor_token} outside [0, 1]")
        except ValueError as exc:
            raise _cell_error(path, number, "factor", exc) from exc
        factors[category] = factor
    return CcfTable(factors=factors, source=source)


def dump_ccf(table: CcfTable, path: str | Path) -> None:
    lines = ["# conversion-factor table: category  factor"]
    for category in sorted(table.factors):
        lines.append(f"{category}  {fraction_to_decimal_text(table.factors[category])}")
    write_whole(path, "\n".join(lines) + "\n")


def load_betas(path: str | Path) -> BetaTable:
    """Read a business-line multiplier file (line, beta per line)."""
    path = _input_path(path)
    text, source = _read_table(path)
    betas: dict[BusinessLine, Fraction] = {}
    for number, (line_key, beta_token) in _table_rows(text, str(path), 2):
        column = "line"
        try:
            line = BusinessLine.from_key(line_key)
            if line in betas:
                raise ParseError(f"duplicate line {line_key!r} in {path}", line=number)
            column = "beta"
            beta = parse_fraction(beta_token)
            if not 0 <= beta <= 1:
                raise ValueError(f"beta for {line.key} outside [0, 1]")
        except ValueError as exc:
            raise _cell_error(path, number, column, exc) from exc
        betas[line] = beta
    try:
        return BetaTable(betas=betas, source=source)
    except MissingLine as exc:
        raise ParseError(f"{exc} in {path}") from exc


def dump_betas(table: BetaTable, path: str | Path) -> None:
    lines = ["# business-line multiplier table: line  beta"]
    for line in BusinessLine:
        lines.append(f"{line.key}  {fraction_to_decimal_text(table.betas[line])}")
    write_whole(path, "\n".join(lines) + "\n")


def _input_path(path: str | Path) -> Path:
    """The path a reader reads; "" is refused, not read as the working directory
    that Path("") stands for."""
    if path == "":
        raise ParseError(f"not a path: {path!r}")
    return Path(path)


def _read_text(path: Path) -> tuple[io.TextIOWrapper, bytes]:
    """The file as a text stream that reads "\r\n" and "\r" as "\n", and its
    bytes, checked to decode as UTF-8 before anything reads them.

    The text is decoded a chunk at a time as lines are read, so a CSV file
    is never held whole as a str (an io.StringIO would keep 4 bytes a
    character of it).
    """
    try:
        data = path.read_bytes()
        data.decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), data


def _read_table(path: Path) -> tuple[str, str]:
    """A table file's text, newlines translated, and its provenance label."""
    stream, data = _read_text(path)
    return stream.read(), table_source(path, data)


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
    reader = csv.reader(_read_text(path)[0])
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


def _shared_fraction(token: str, fractions: dict[str, Fraction]) -> Fraction | None:
    """A cell's value, shared with every equal token parsed before; None if blank."""
    token = token.strip()
    if not token:
        return None
    value = fractions.get(token)
    if value is None:
        value = fractions[token] = parse_fraction(token)
    return value


def _portfolio_columns(path: Path) -> list[list]:
    """A portfolio file's parsed cells as one list per Portfolio column.

    Each row is parsed as the csv reader reaches it, and each value goes
    straight onto the end of its column: no row is kept as a record of its
    own. Equal pd, lgd and maturity tokens share one Fraction, through a
    map of the tokens parsed so far that ends with this call.
    """
    columns: list[list] = [[] for _ in Exposure.__slots__]
    (
        add_id, add_counterparty, add_rating, add_nominal, add_category,
        add_short_term, add_pd, add_lgd, add_ead, add_maturity,
    ) = [column.append for column in columns]
    fractions: dict[str, Fraction] = {}
    for line, cells in _csv_records(path, PORTFOLIO_REQUIRED, PORTFOLIO_OPTIONAL):
        (
            exposure_id, class_key, rating_token, nominal_token, position,
            category, flag_token, pd_token, lgd_token, ead_token, maturity_token,
        ) = cells
        column = "id"
        try:
            exposure_id = exposure_id.strip()
            problem = id_problem(exposure_id)
            if problem is not None:
                raise ValueError(problem)
            add_id(exposure_id)

            # Most cells are written as the key itself; the others are read
            # as the grammar allows.
            column = "class"
            counterparty = _CLASS_BY_KEY.get(class_key)
            if counterparty is None:
                class_key = class_key.strip().lower()
                counterparty = _CLASS_BY_KEY.get(class_key)
                if counterparty is None:
                    raise ValueError(f"unknown counterparty class {class_key!r}")
            add_counterparty(counterparty)
            column = "rating"
            rating = RATING_TOKENS.get(rating_token)
            add_rating(parse_rating(rating_token) if rating is None else rating)
            column = "nominal"
            add_nominal(decimal_units(nominal_token.strip()))

            column = "position"
            position = position.strip().lower()
            if position not in ("on", "off"):
                raise ValueError(f"position must be 'on' or 'off', got {position!r}")
            column = "off_balance_category"
            category = category.strip() or None
            if position == "off" and category is None:
                raise ValueError("off-balance position needs a category")
            if position == "on" and category is not None:
                raise ValueError("on-balance position must leave the category empty")
            add_category(category)
            column = "short_term_flag"
            flag_token = flag_token.strip().lower()
            add_short_term(_parse_bool(flag_token) if flag_token else False)

            # A token parsed before, written the same way, is one lookup.
            column = "pd"
            pd = fractions.get(pd_token)
            if pd is None and pd_token:
                pd = _shared_fraction(pd_token, fractions)
            add_pd(pd)
            column = "lgd"
            lgd = fractions.get(lgd_token)
            if lgd is None and lgd_token:
                lgd = _shared_fraction(lgd_token, fractions)
            add_lgd(lgd)
            column = "ead"
            ead_token = ead_token.strip()
            add_ead(decimal_units(ead_token) if ead_token else None)
            column = "maturity"
            maturity = fractions.get(maturity_token)
            if maturity is None and maturity_token:
                maturity = _shared_fraction(maturity_token, fractions)
            add_maturity(maturity)
        except ValueError as exc:
            raise _cell_error(path, line, column, exc) from exc
    return columns


def load_portfolio(path: str | Path, currency: str = DEFAULT_CURRENCY) -> Portfolio:
    """Read and validate a portfolio file; errors cite line and column.

    The rows stream from the file into the Portfolio's columns, amounts as
    minor units of ``currency``; no Exposure, Money or per-row record is
    built. Each column list becomes its tuple in turn, so at most one list
    and its tuple are alive together.
    """
    columns = _portfolio_columns(_input_path(path))
    for position, column in enumerate(columns):
        columns[position] = tuple(column)
    return Portfolio(*columns, currency)


# ---------------------------------------------------------------------------
# Income files

INCOME_REQUIRED = ("year", "line", "amount")
INCOME_OPTIONAL = INCOME_EXCLUSIONS

TOTAL_LINE = "TOTAL"


def load_income(path: str | Path, currency: str = DEFAULT_CURRENCY) -> IncomeHistory:
    """Read a three-year income statement file into an IncomeHistory."""
    path = _input_path(path)
    totals: dict[int, GrossIncomeRecord] = {}
    per_line: dict[int, dict[BusinessLine, GrossIncomeRecord]] = {}
    records = _csv_records(path, INCOME_REQUIRED, INCOME_OPTIONAL)
    for number, (year_token, line_token, amount_token, *excluded) in records:
        column = "year"
        try:
            year_token = year_token.strip()
            # int() would also read digit-group underscores and non-ASCII digits
            if "_" in year_token or not year_token.isascii():
                raise ValueError
            year = int(year_token)
            column = "amount"
            amount = Money(decimal_units(amount_token.strip()), currency)
            exclusions = []
            for column, token in zip(INCOME_OPTIONAL, excluded):
                token = token.strip()
                exclusions.append(Money(decimal_units(token), currency) if token else None)
            income = GrossIncomeRecord(amount, *exclusions)
            column = "line"
            line_token = line_token.strip()
            if line_token.upper() == TOTAL_LINE:
                if year in totals:
                    raise ParseError(
                        f"duplicate TOTAL row for year {year} in {path}", line=number
                    )
                totals[year] = income
                continue
            business_line = BusinessLine.from_key(line_token)
            year_lines = per_line.setdefault(year, {})
            if business_line in year_lines:
                raise ParseError(
                    f"duplicate {business_line.key} row for year {year} in {path}",
                    line=number,
                )
            year_lines[business_line] = income
        except ValueError as exc:
            # int()'s own message names no year.
            reason = f"not a year: {year_token!r}" if column == "year" else exc
            raise _cell_error(path, number, column, reason) from exc
    annuals = tuple(
        AnnualIncome(year=year, total=totals.get(year), per_line=per_line.get(year, {}))
        for year in sorted(set(totals) | set(per_line))
    )
    return IncomeHistory(years=annuals)
