"""Table, portfolio, and income file formats: round-trips and diagnostics."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regcap import (
    CounterpartyClass,
    DEFAULT_BETAS,
    DEFAULT_CCF,
    DEFAULT_RISK_WEIGHTS,
    ParseError,
    RatingBucket,
    RegcapError,
    ValidationFailure,
    load_betas,
    load_ccf,
    load_income,
    load_portfolio,
    load_risk_weights,
)
from regcap.fileio import (
    INCOME_OPTIONAL,
    PORTFOLIO_OPTIONAL,
    PORTFOLIO_REQUIRED,
    dump_betas,
    dump_ccf,
    dump_risk_weights,
    table_source,
    write_whole,
)
from regcap.oprisk import BusinessLine

from conftest import DATA_DIR, eur, run_python


def _rows(name: str) -> list[list[str]]:
    """A fixture CSV as cells; the fixtures quote no cell."""
    text = (DATA_DIR / name).read_text(encoding="utf-8")
    return [line.split(",") for line in text.splitlines()]


def _write_columns(path, rows: list[list[str]], columns: list[str]) -> None:
    """Write ``rows`` (header first) with only ``columns``, in that order."""
    header = rows[0]
    picked = [header.index(column) for column in columns]
    path.write_text(
        "".join(",".join(row[i] for i in picked) + "\n" for row in rows),
        encoding="utf-8",
    )


def _outcome(load, path):
    """What loading ``path`` gives: the value, or the error's text, line and column."""
    try:
        return load(path)
    except RegcapError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


# A cell that breaks its column, or that is blank where a value may be needed.
BAD_CELLS = st.sampled_from(["??", "", "-1", "1e5000", "true"])


def _column_order_cases(rows: list[list[str]], optional: tuple[str, ...]):
    """A permuted header leaving out some optional columns, and maybe one
    replaced data cell."""
    header = rows[0]
    return st.tuples(
        st.permutations(header),
        st.sets(st.sampled_from(optional)),
        st.none() | st.tuples(
            st.integers(1, len(rows) - 1), st.sampled_from(header), BAD_CELLS
        ),
    )


@pytest.fixture(scope="module")
def order_dir(tmp_path_factory):
    """Where the column-order property rewrites its file, example by example."""
    return tmp_path_factory.mktemp("order")


def _check_column_order(load, path, rows, case) -> None:
    """The permuted file loads as the canonical file with the left-out
    columns blanked, error text, line and column included."""
    order, omitted, bad = case
    header = rows[0]
    rows = [list(row) for row in rows]
    for row in rows[1:]:
        for column in omitted:
            row[header.index(column)] = ""
    if bad is not None:
        number, column, token = bad
        if column in omitted:
            omitted = omitted - {column}
        rows[number][header.index(column)] = token
    _write_columns(path, rows, header)
    canonical = _outcome(load, path)
    _write_columns(path, rows, [column for column in order if column not in omitted])
    assert _outcome(load, path) == canonical


@pytest.mark.parametrize(
    "read",
    [load_risk_weights, load_ccf, load_betas, load_portfolio, load_income],
    ids=lambda read: read.__name__,
)
def test_a_reader_refuses_an_empty_path(tmp_path, monkeypatch, read):
    # not the working directory that Path("") stands for
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ParseError) as excinfo:
        read("")
    assert str(excinfo.value) == "not a path: ''"


@pytest.mark.parametrize(
    "write",
    [
        lambda path: write_whole(path, "text\n"),
        lambda path: dump_risk_weights(DEFAULT_RISK_WEIGHTS, path),
        lambda path: dump_ccf(DEFAULT_CCF, path),
        lambda path: dump_betas(DEFAULT_BETAS, path),
    ],
    ids=["write_whole", "dump_risk_weights", "dump_ccf", "dump_betas"],
)
def test_a_writer_refuses_an_empty_path(tmp_path, monkeypatch, write):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(OSError) as excinfo:
        write("")
    assert str(excinfo.value) == "[Errno 2] No such file or directory: ''"
    assert os.listdir(tmp_path) == []


class TestTableRoundTrips:
    def test_risk_weights(self, tmp_path):
        path = tmp_path / "weights.tbl"
        dump_risk_weights(DEFAULT_RISK_WEIGHTS, path)
        loaded = load_risk_weights(path)
        assert loaded == DEFAULT_RISK_WEIGHTS

    def test_risk_weights_preserve_range_cells(self, tmp_path):
        path = tmp_path / "weights.tbl"
        dump_risk_weights(DEFAULT_RISK_WEIGHTS, path)
        loaded = load_risk_weights(path)
        cell = loaded.cells[(CounterpartyClass.BANK, RatingBucket.BBB_PLUS_TO_BBB_MINUS)]
        assert cell.is_range
        assert cell.low == Fraction(1, 2)
        assert cell.high == Fraction(1, 1)

    def test_ccf(self, tmp_path):
        path = tmp_path / "ccf.tbl"
        dump_ccf(DEFAULT_CCF, path)
        assert load_ccf(path) == DEFAULT_CCF

    def test_betas(self, tmp_path):
        path = tmp_path / "betas.tbl"
        dump_betas(DEFAULT_BETAS, path)
        assert load_betas(path) == DEFAULT_BETAS

    def test_loaded_source_cites_path_and_hash(self, tmp_path):
        path = tmp_path / "ccf.tbl"
        dump_ccf(DEFAULT_CCF, path)
        loaded = load_ccf(path)
        name, _, digest = loaded.source.partition("#")
        assert name == str(path)
        assert len(digest) == 12
        assert DEFAULT_CCF.source == "builtin"

    def test_bad_weight_token(self, tmp_path):
        path = tmp_path / "weights.tbl"
        for token in ("lots", "Infinity", "inf%", "1e5000"):
            path.write_text(f"sovereign aaa_to_aa_minus {token}\n")
            with pytest.raises(ParseError) as excinfo:
                load_risk_weights(path)
            assert excinfo.value.column == "weight"

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "weights.tbl"
        path.write_text(
            "sovereign aaa_to_aa_minus 0%\nsovereign aaa_to_aa_minus 20%\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_risk_weights(path)

    def test_ccf_out_of_bounds(self, tmp_path):
        path = tmp_path / "ccf.tbl"
        path.write_text("guarantee 120%\n")
        with pytest.raises(ParseError):
            load_ccf(path)

    def test_beta_out_of_bounds_cites_line_and_column(self, tmp_path):
        path = tmp_path / "betas.tbl"
        path.write_text(
            "".join(
                f"{line.key} {'1.5' if number == 2 else '0.15'}\n"
                for number, line in enumerate(DEFAULT_BETAS.betas, start=1)
            )
        )
        with pytest.raises(ParseError) as excinfo:
            load_betas(path)
        assert str(excinfo.value) == (
            f"line 2, column 'beta': beta for trading_and_sales outside [0, 1] in {path}"
        )

    # One bad line in each table file, after a comment and a good line: the
    # loader, the line, the column cited and the reason given.
    CELL_ERRORS = [
        (load_risk_weights, "alien aaa_to_aa_minus 0%", "class",
         "unknown counterparty class 'alien'"),
        (load_risk_weights, "sovereign zzz 0%", "bucket", "unknown rating bucket 'zzz'"),
        (load_risk_weights, "sovereign a_plus_to_a_minus lots", "weight",
         "not a decimal fraction: 'lots'"),
        (load_risk_weights, "sovereign a_plus_to_a_minus x..1", "weight",
         "not a decimal fraction: 'x'"),
        (load_risk_weights, "sovereign a_plus_to_a_minus 1..x", "weight",
         "not a decimal fraction: 'x'"),
        (load_risk_weights, "sovereign a_plus_to_a_minus 300%", "weight",
         "weight cell [3, 3] outside [0, 2]"),
        (load_risk_weights, "sovereign a_plus_to_a_minus 1..0.5", "weight",
         "weight cell [1, 1/2] outside [0, 2]"),
        (load_ccf, "other x", "factor", "not a decimal fraction: 'x'"),
        (load_ccf, "other 120%", "factor", "conversion factor 120% outside [0, 1]"),
        (load_ccf, "other -1%", "factor", "conversion factor -1% outside [0, 1]"),
        (load_betas, "hedge 0.1", "line", "unknown business line 'hedge'"),
        (load_betas, "corporate_finance x", "beta", "not a decimal fraction: 'x'"),
        (load_betas, "corporate_finance 0.1_2", "beta",
         "not a decimal fraction: '0.1_2'"),
        (load_betas, "corporate_finance 1.5", "beta",
         "beta for corporate_finance outside [0, 1]"),
    ]

    @pytest.mark.parametrize(
        "load, bad, column, reason",
        CELL_ERRORS,
        ids=[f"{load.__name__}-{bad}" for load, bad, _, _ in CELL_ERRORS],
    )
    def test_each_column_cites_its_bad_cell(self, tmp_path, load, bad, column, reason):
        good = {
            load_risk_weights: "sovereign aaa_to_aa_minus 0%",
            load_ccf: "guarantee 100%",
            load_betas: "retail_banking 0.12",
        }[load]
        path = tmp_path / "table.tbl"
        path.write_text(f"# a comment\n{good}\n{bad}\n")
        with pytest.raises(ParseError) as excinfo:
            load(path)
        assert (excinfo.value.line, excinfo.value.column) == (3, column)
        assert str(excinfo.value) == f"line 3, column {column!r}: {reason} in {path}"

    @pytest.mark.parametrize(
        "load, bad, reason",
        [
            (load_risk_weights, "sovereign aaa_to_aa_minus x",
             "duplicate cell (sovereign, aaa_to_aa_minus)"),
            (load_ccf, "guarantee x", "duplicate category 'guarantee'"),
            (load_betas, "Retail_Banking x", "duplicate line 'Retail_Banking'"),
        ],
        ids=["risk_weights", "ccf", "betas"],
    )
    def test_a_duplicate_is_cited_before_its_value_is_read(self, tmp_path, load, bad, reason):
        good = {
            load_risk_weights: "sovereign aaa_to_aa_minus 0%",
            load_ccf: "guarantee 100%",
            load_betas: "retail_banking 0.12",
        }[load]
        path = tmp_path / "table.tbl"
        path.write_text(f"{good}\n{bad}\n")
        with pytest.raises(ParseError) as excinfo:
            load(path)
        assert (excinfo.value.line, excinfo.value.column) == (2, None)
        assert str(excinfo.value) == f"line 2: {reason} in {path}"

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "betas.tbl"
        dump_betas(DEFAULT_BETAS, path)
        decorated = "# custom note\n\n" + path.read_text()
        path.write_text(decorated)
        assert load_betas(path) == DEFAULT_BETAS

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_ccf(tmp_path / "absent.tbl")

    @pytest.mark.parametrize("separator", ["\f", "\u2028"], ids=["form-feed", "u2028"])
    def test_comment_with_a_line_separator_is_one_line(self, tmp_path, separator):
        path = tmp_path / "ccf.tbl"
        lines = [f"# ccf table{separator} revised", "medium_term_confirmed_facility 0.5"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load_ccf(path).factors == {"medium_term_confirmed_facility": Fraction(1, 2)}
        path.write_text("\n".join([*lines, "guarantee 120%"]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_ccf(path)
        assert excinfo.value.line == 3


class TestTableDigest:
    """The provenance digest comes from the interpreter's own SHA-256 when it
    has one, so that a run need not load OpenSSL through ``hashlib``."""

    DATA = "guarantee 100%\n# a comment, and a non-ASCII \u00e9\n".encode("utf-8")

    @pytest.mark.skipif(
        not any(map(importlib.util.find_spec, ("_sha2", "_sha256"))),
        reason="this interpreter has no _sha2 or _sha256 module; the hashlib fallback runs",
    )
    def test_a_cli_run_loads_no_openssl(self, tmp_path):
        argv = [
            "compute", "--portfolio", str(DATA_DIR / "worked_example.csv"),
            "--income", str(DATA_DIR / "income_3yr.csv"), "--capital", "81000.00",
            "--json-out", str(tmp_path / "out.json"),
        ]
        for flag, table, writer in (
            ("--risk-weights", DEFAULT_RISK_WEIGHTS, dump_risk_weights),
            ("--ccf", DEFAULT_CCF, dump_ccf),
            ("--betas", DEFAULT_BETAS, dump_betas),
        ):
            path = tmp_path / f"{flag[2:]}.tbl"
            writer(table, path)
            argv += [flag, str(path)]
        script = textwrap.dedent(f"""
            import contextlib, io, json, sys
            from regcap.cli import main
            with contextlib.redirect_stdout(io.StringIO()) as out:
                status = main({argv!r})
            print(json.dumps([status, out.getvalue(), "_hashlib" in sys.modules]))
        """)
        status, report, openssl = json.loads(run_python(script))
        assert status == 0
        assert f"{tmp_path / 'ccf.tbl'}#" in report  # a table was read and hashed
        assert (tmp_path / "out.json").exists()
        assert not openssl

    def test_the_hashlib_fallback_gives_the_same_label(self):
        script = textwrap.dedent(f"""
            import hashlib, json, sys
            # the lean imports fail; hashlib's runs
            sys.modules["_sha2"] = sys.modules["_sha256"] = None
            from regcap import fileio
            print(json.dumps([fileio.sha256 is hashlib.sha256,
                              fileio.table_source("ccf.tbl", {self.DATA!r})]))
        """)
        fell_back, label = json.loads(run_python(script))
        digest = hashlib.sha256(self.DATA).hexdigest()[:12]
        assert fell_back
        assert label == table_source("ccf.tbl", self.DATA) == f"ccf.tbl#{digest}"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_a_label_digests_the_file_bytes(self, tmp_path, newline):
        path = tmp_path / "ccf.tbl"
        data = self.DATA.replace(b"\n", newline.encode())
        path.write_bytes(data)
        label = load_ccf(path).source
        assert label == f"{path}#{hashlib.sha256(data).hexdigest()[:12]}"


class TestPortfolioCsv:
    def test_golden_portfolio_loads(self):
        portfolio = load_portfolio(DATA_DIR / "portfolio_golden.csv")
        assert len(portfolio) == 10
        by_id = {exposure.id: exposure for exposure in portfolio}
        assert by_id["S1"].counterparty is CounterpartyClass.SOVEREIGN
        assert by_id["S1"].rating is RatingBucket.AAA_TO_AA_MINUS
        assert by_id["S1"].nominal == eur("500000.00")
        assert by_id["B1"].off_balance_category is not None
        assert by_id["B1"].off_balance_category == "medium_term_confirmed_facility"
        assert by_id["B3"].counterparty is CounterpartyClass.BANK_SHORT_TERM
        assert by_id["B3"].short_term
        assert by_id["C1"].rating is RatingBucket.UNRATED

    def test_bad_rating_cites_line_and_column(self):
        with pytest.raises(ParseError) as excinfo:
            load_portfolio(DATA_DIR / "bad_rating.csv")
        assert excinfo.value.line == 3
        assert excinfo.value.column == "rating"

    NON_FINITE = [
        ("pd", "100.00,Infinity", "not a finite number: 'Infinity'"),
        ("pd", "100.00,inf%", "not a finite number: 'inf%'"),
        ("pd", "100.00,NaN", "not a finite number: 'NaN'"),
        ("pd", "100.00,1e5000", "magnitude of '1e5000' outside 1e-30 to 1e31, 1e31 excluded"),
        ("pd", "100.00,1e-5000", "magnitude of '1e-5000' outside 1e-30 to 1e31, 1e31 excluded"),
        ("nominal", "1e5000,1%", "magnitude of '1e5000' outside 1e-30 to 1e31, 1e31 excluded"),
        ("nominal", "-Infinity,1%", "not a finite number: '-Infinity'"),
        ("nominal", "1.234,1%", "amount '1.234' has more than 2 decimal places"),
    ]

    @pytest.mark.parametrize(
        "column, cells, reason",
        NON_FINITE,
        ids=[f"{column}-{cells}" for column, cells, _ in NON_FINITE],
    )
    def test_non_finite_or_huge_cell_cites_line_and_column(
        self, tmp_path, column, cells, reason
    ):
        path = tmp_path / "p.csv"
        path.write_text(
            "id,class,rating,nominal,pd,position\n"
            "X1,corporate,AAA,100.00,1%,on\n"
            f"X2,corporate,AAA,{cells},on\n"
        )
        with pytest.raises(ParseError) as excinfo:
            load_portfolio(path)
        assert (excinfo.value.line, excinfo.value.column) == (3, column)
        assert str(excinfo.value) == f"line 3, column {column!r}: {reason} in {path}"

    def test_header_only_gives_empty_portfolio(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,class,rating,nominal,position\n")
        portfolio = load_portfolio(path)
        assert len(portfolio) == 0

    def test_template_loads_back_empty(self, tmp_path):
        path = tmp_path / "template.csv"
        path.write_text(",".join(PORTFOLIO_REQUIRED + PORTFOLIO_OPTIONAL) + "\n")
        assert len(load_portfolio(path)) == 0

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,class,rating,nominal,position,color\n")
        with pytest.raises(ParseError) as excinfo:
            load_portfolio(path)
        assert excinfo.value.line == 1

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,class,rating,position\n")
        with pytest.raises(ParseError, match="nominal"):
            load_portfolio(path)

    def test_duplicate_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,class,rating,nominal,position,rating\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_portfolio(path)

    def test_off_position_requires_category(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "id,class,rating,nominal,position\nX1,corporate,AAA,100.00,off\n"
        )
        with pytest.raises(ParseError) as excinfo:
            load_portfolio(path)
        assert excinfo.value.line == 2

    def test_on_position_forbids_category(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "id,class,rating,nominal,position,off_balance_category\n"
            "X1,corporate,AAA,100.00,on,guarantee\n"
        )
        with pytest.raises(ParseError):
            load_portfolio(path)

    def test_unknown_position_token(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "id,class,rating,nominal,position\nX1,corporate,AAA,100.00,sideways\n"
        )
        with pytest.raises(ParseError) as excinfo:
            load_portfolio(path)
        assert excinfo.value.column == "position"

    def test_duplicate_ids_fail_validation(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "id,class,rating,nominal,position\n"
            "X1,corporate,AAA,100.00,on\n"
            "X1,corporate,AAA,100.00,on\n"
        )
        with pytest.raises(ValidationFailure, match="X1"):
            load_portfolio(path)

    def test_irb_fields_parse(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "id,class,rating,nominal,position,pd,lgd,ead,maturity\n"
            "X1,corporate,AAA,100.00,on,1%,0.45,90.00,2.5\n"
        )
        exposure = next(iter(load_portfolio(path)))
        assert exposure.pd == Fraction(1, 100)
        assert exposure.lgd == Fraction(45, 100)
        assert exposure.ead == eur("90.00")
        assert exposure.maturity_years == Fraction(5, 2)

    @pytest.mark.parametrize(
        "cell",
        ['"A\n1"', '"A\r\n1"', '"A\t1"', "A\x001", "A\x7f1", "A\x851",
         "A\u20281", "A\u20291"],
    )
    def test_id_with_control_character_rejected(self, tmp_path, cell):
        path = tmp_path / "p.csv"
        path.write_text(
            f"id,class,rating,nominal,position\n{cell},corporate,AAA,1.00,on\n",
            encoding="utf-8",
            newline="",
        )
        with pytest.raises(ParseError, match="contains a control character") as excinfo:
            load_portfolio(path)
        assert excinfo.value.line == 2 + cell.count("\n")
        assert excinfo.value.column == "id"

    def test_lines_counted_physically_after_a_multi_line_cell(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "id,class,rating,nominal,position\n"
            'X1,corporate,AAA,"100.00\n",on\n'
            "X2,corporate,CCC,100.00,on\n"
        )
        with pytest.raises(ParseError) as excinfo:
            load_portfolio(path)
        assert (excinfo.value.line, excinfo.value.column) == (4, "rating")
        path.write_text(
            "id,class,rating,nominal,position\n"
            'X1,corporate,AAA,"100.00\n",on\n'
            "X2,corporate,AAA,100.00\n"
        )
        with pytest.raises(ParseError, match="expected 5 fields") as excinfo:
            load_portfolio(path)
        assert excinfo.value.line == 4

    # One bad cell in each column of a full row: the column cited, the cells
    # that differ from a good row, and the reason given.
    CELL_ERRORS = [
        ("id", {"id": ""}, "empty id"),
        ("id", {"id": "X\x07"}, "id 'X\\x07' contains a control character"),
        ("class", {"class": " Alien "}, "unknown counterparty class 'alien'"),
        ("rating", {"rating": "ZZZ"}, "unknown rating token 'ZZZ'"),
        ("nominal", {"nominal": "lots"}, "not a decimal amount: 'lots'"),
        ("nominal", {"nominal": "1_000.00"}, "not a decimal amount: '1_000.00'"),
        # a refused number is quoted as written, blanks and all, as a flag's is
        ("nominal", {"nominal": " 1_0 "}, "not a decimal amount: ' 1_0 '"),
        ("position", {"position": "maybe"},
         "position must be 'on' or 'off', got 'maybe'"),
        ("off_balance_category", {"position": "off"},
         "off-balance position needs a category"),
        ("off_balance_category", {"off_balance_category": "guarantee"},
         "on-balance position must leave the category empty"),
        ("short_term_flag", {"short_term_flag": "PERHAPS"},
         "not a boolean: 'perhaps'"),
        ("pd", {"pd": "x"}, "not a decimal fraction: 'x'"),
        ("pd", {"pd": " x "}, "not a decimal fraction: ' x '"),
        ("lgd", {"lgd": " x "}, "not a decimal fraction: ' x '"),
        ("ead", {"ead": "1.234"}, "amount '1.234' has more than 2 decimal places"),
        ("ead", {"ead": " 1.234 "}, "amount ' 1.234 ' has more than 2 decimal places"),
        ("ead", {"ead": "x"}, "not a decimal amount: 'x'"),
        ("maturity", {"maturity": "x"}, "not a decimal fraction: 'x'"),
        ("pd", {"pd": "\u0661%"}, "not a decimal fraction: '\u0661%'"),
        ("ead", {"ead": "\uff19\uff10.00"}, "not a decimal amount: '\uff19\uff10.00'"),
        ("maturity", {"maturity": "2_5"}, "not a decimal fraction: '2_5'"),
        ("maturity", {"maturity": " 2_5"}, "not a decimal fraction: ' 2_5'"),
    ]

    @pytest.mark.parametrize(
        "column, bad, reason",
        CELL_ERRORS,
        ids=[f"{column}-{','.join(bad.values())}" for column, bad, _ in CELL_ERRORS],
    )
    def test_each_column_cites_its_bad_cell(self, tmp_path, column, bad, reason):
        good = {
            "id": "X1", "class": "corporate", "rating": "AAA", "nominal": "100.00",
            "position": "on", "off_balance_category": "", "short_term_flag": "no",
            "pd": "1%", "lgd": "0.45", "ead": "90.00", "maturity": "2.5",
        }
        row = {**good, "id": "X2", **bad}
        path = tmp_path / "p.csv"
        path.write_text(
            "".join(",".join(cells) + "\n" for cells in (good, good.values(), row.values())),
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            load_portfolio(path)
        assert (excinfo.value.line, excinfo.value.column) == (3, column)
        assert str(excinfo.value) == f"line 3, column {column!r}: {reason} in {path}"

    def test_repeated_fraction_tokens_share_one_value(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "id,class,rating,nominal,position,pd,lgd,ead,maturity\n"
            "X1,corporate,AAA,100.00,on,1%,0.45,90.00,2.5\n"
            "X2,corporate,AAA,100.00,on,1%, 0.45 ,90.00,2.5\n"
        )
        first, second = load_portfolio(path)
        assert first.pd is second.pd
        assert first.lgd is second.lgd
        assert first.maturity_years is second.maturity_years

    @settings(max_examples=100, deadline=None)
    @given(case=_column_order_cases(_rows("irb_small.csv"), PORTFOLIO_OPTIONAL))
    def test_columns_are_read_by_header_name(self, order_dir, case):
        _check_column_order(
            load_portfolio, order_dir / "p.csv", _rows("irb_small.csv"), case
        )

    @pytest.mark.parametrize("blank", ["", " ", "\t", "\xa0\u2003"])
    def test_a_blank_ead_cell_is_no_ead(self, tmp_path, blank):
        path = tmp_path / "p.csv"
        path.write_text(
            f"id,class,rating,nominal,position,ead\nX1,corporate,AAA,100.00,on,{blank}\n",
            encoding="utf-8",
        )
        assert load_portfolio(path).ead_units == (None,)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "id,class,rating,nominal,position\n\nX1,corporate,AAA,100.00,on\n\n"
        )
        assert len(load_portfolio(path)) == 1


class TestIncomeCsv:
    @settings(max_examples=100, deadline=None)
    @given(case=_column_order_cases(_rows("income_3yr.csv"), INCOME_OPTIONAL))
    def test_columns_are_read_by_header_name(self, order_dir, case):
        _check_column_order(
            load_income, order_dir / "income.csv", _rows("income_3yr.csv"), case
        )

    # One bad cell in each column of a full row: the column cited, the cells
    # that differ from a good row, and the reason given.
    CELL_ERRORS = [
        ("year", {"year": " MMIV "}, "not a year: 'MMIV'"),
        # int() and Decimal() read these, but a numeric cell takes ASCII digits only
        ("year", {"year": "2_005"}, "not a year: '2_005'"),
        ("year", {"year": "\uff12\uff10\uff10\uff15"},
         "not a year: '\uff12\uff10\uff10\uff15'"),
        ("amount", {"amount": "1_000.00"}, "not a decimal amount: '1_000.00'"),
        # a refused number is quoted as written, blanks and all, as a flag's is
        ("amount", {"amount": " 1_0 "}, "not a decimal amount: ' 1_0 '"),
        ("amount", {"amount": "\u0661\u0662\u0663.00"},
         "not a decimal amount: '\u0661\u0662\u0663.00'"),
        ("line", {"line": "hedge_fund_desk"}, "unknown business line 'hedge_fund_desk'"),
        ("amount", {"amount": "x"}, "not a decimal amount: 'x'"),
        ("amount", {"amount": "1.234"}, "amount '1.234' has more than 2 decimal places"),
        ("provisions", {"provisions": "x"}, "not a decimal amount: 'x'"),
        ("provisions", {"provisions": " x "}, "not a decimal amount: ' x '"),
        ("banking_book_results", {"banking_book_results": "1.234"},
         "amount '1.234' has more than 2 decimal places"),
        ("extraordinary_items", {"extraordinary_items": "NaN"},
         "not a finite number: 'NaN'"),
        ("insurance_income", {"insurance_income": "1e5000"},
         "magnitude of '1e5000' outside 1e-30 to 1e31, 1e31 excluded"),
    ]

    @pytest.mark.parametrize(
        "column, bad, reason",
        CELL_ERRORS,
        ids=[f"{column}-{','.join(bad.values())}" for column, bad, _ in CELL_ERRORS],
    )
    def test_each_column_cites_its_bad_cell(self, tmp_path, column, bad, reason):
        good = {
            "year": "2004", "line": "TOTAL", "amount": "100.00", "provisions": "1.00",
            "banking_book_results": "2.00", "extraordinary_items": "3.00",
            "insurance_income": "4.00",
        }
        row = {**good, "year": "2005", **bad}
        path = tmp_path / "income.csv"
        path.write_text(
            "".join(",".join(cells) + "\n" for cells in (good, good.values(), row.values())),
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            load_income(path)
        assert (excinfo.value.line, excinfo.value.column) == (3, column)
        assert str(excinfo.value) == f"line 3, column {column!r}: {reason} in {path}"

    @pytest.mark.parametrize("blank", ["", " ", "\t", "\xa0\u2003"])
    def test_a_blank_exclusion_cell_is_no_exclusion(self, tmp_path, blank):
        path = tmp_path / "income.csv"
        path.write_text(
            "year,line,amount,provisions\n"
            + "".join(f"{year},TOTAL,100.00,{blank}\n" for year in (2004, 2005, 2006)),
            encoding="utf-8",
        )
        assert [annual.total.provisions for annual in load_income(path).years] == [None] * 3

    def test_a_year_is_read_the_way_int_reads_it(self, tmp_path):
        path = tmp_path / "income.csv"
        path.write_text("year,line,amount\n2004,TOTAL,1.00\n +02004 ,TOTAL,1.00\n")
        with pytest.raises(ParseError) as excinfo:
            load_income(path)
        assert str(excinfo.value) == f"line 3: duplicate TOTAL row for year 2004 in {path}"

    def test_golden_income_loads(self):
        history = load_income(DATA_DIR / "income_3yr.csv")
        assert history.span() == "2004-2006"
        assert [annual.year for annual in history.years] == [2004, 2005, 2006]
        assert history.years[0].effective_total() == eur("900.00")
        assert history.years[1].effective_total() == eur("1000.00")
        assert history.years[2].effective_total() == eur("1100.00")

    def test_exclusions_applied_per_record(self):
        history = load_income(DATA_DIR / "income_3yr.csv")
        first = history.years[0]
        assert first.total.amount == eur("1000.00")
        assert first.total.effective == eur("900.00")
        line = first.per_line[BusinessLine.CORPORATE_FINANCE]
        assert line.effective == eur("140.00")

    def test_per_line_total_mismatch(self, tmp_path):
        path = tmp_path / "income.csv"
        rows = ["year,line,amount"]
        for year in (2004, 2005, 2006):
            rows.append(f"{year},TOTAL,100.00")
            rows.append(f"{year},retail_banking,99.00")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationFailure, match="per-line"):
            load_income(path)

    def test_duplicate_total_row(self, tmp_path):
        path = tmp_path / "income.csv"
        path.write_text(
            "year,line,amount\n2004,TOTAL,100.00\n2004,TOTAL,100.00\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_income(path)

    def test_duplicate_line_year_row(self, tmp_path):
        path = tmp_path / "income.csv"
        path.write_text(
            "year,line,amount\n"
            "2004,retail_banking,50.00\n"
            "2004,retail_banking,50.00\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_income(path)

    def test_unknown_line_name(self, tmp_path):
        path = tmp_path / "income.csv"
        path.write_text("year,line,amount\n2004,hedge_fund_desk,50.00\n")
        with pytest.raises(ParseError) as excinfo:
            load_income(path)
        assert excinfo.value.column == "line"

    def test_two_years_incomplete(self, tmp_path):
        path = tmp_path / "income.csv"
        path.write_text(
            "year,line,amount\n2004,TOTAL,100.00\n2005,TOTAL,100.00\n"
        )
        from regcap.errors import OperationalRiskError

        with pytest.raises(
            OperationalRiskError, match="^need exactly three annual records, got 2$"
        ):
            load_income(path)

    def test_duplicate_column(self, tmp_path):
        path = tmp_path / "income.csv"
        path.write_text(
            "year,line,amount,amount\n"
            + "".join(f"{year},TOTAL,1.00,2.00\n" for year in (2004, 2005, 2006))
        )
        with pytest.raises(ParseError, match="duplicate column") as excinfo:
            load_income(path)
        assert excinfo.value.line == 1

    def test_bad_year_token(self, tmp_path):
        path = tmp_path / "income.csv"
        path.write_text("year,line,amount\nMMIV,TOTAL,100.00\n")
        with pytest.raises(ParseError) as excinfo:
            load_income(path)
        assert excinfo.value.column == "year"
