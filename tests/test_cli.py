"""Command-line behaviour: exit codes, stream contract, file outputs."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import signal
import stat
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from regcap import DEFAULT_BETAS, DEFAULT_CCF, DEFAULT_RISK_WEIGHTS
from regcap.cli import main
from regcap.config import SETTINGS
from regcap.fileio import (
    dump_betas,
    dump_ccf,
    dump_risk_weights,
    load_betas,
    load_ccf,
    load_risk_weights,
)
from regcap.irb import _FUNCTIONS

from conftest import DATA_DIR, run_python

WORKED = str(DATA_DIR / "worked_example.csv")
GOLDEN = str(DATA_DIR / "portfolio_golden.csv")
INCOME = str(DATA_DIR / "income_3yr.csv")
BAD_RATING = str(DATA_DIR / "bad_rating.csv")
CONFIG = str(DATA_DIR / "config_basel2.cfg")


class TestCompute:
    def test_compliant_run_exits_zero(self, capsys):
        status = main(
            ["compute", "--portfolio", WORKED, "--capital", "80000.00"]
        )
        captured = capsys.readouterr()
        assert status == 0
        assert "COMPLIANT" in captured.out
        assert captured.err == ""

    def test_shortfall_exits_one(self, capsys):
        status = main(
            ["compute", "--portfolio", WORKED, "--capital", "79999.99"]
        )
        captured = capsys.readouterr()
        assert status == 1
        assert "NON-COMPLIANT" in captured.out

    def test_parse_error_exits_two_with_labeled_stderr(self, capsys):
        status = main(
            ["compute", "--portfolio", BAD_RATING, "--capital", "1.00"]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error [input/config]:")
        assert "line 3" in captured.err

    def test_missing_file_exits_two(self, capsys):
        status = main(
            ["compute", "--portfolio", "no_such.csv", "--capital", "1.00"]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith("error [input/config]:")

    @pytest.mark.parametrize("surface", ["portfolio", "income"])
    def test_oversized_csv_cell_exits_two(self, capsys, tmp_path, surface):
        # longer than the csv module's 131,072-character field limit
        cell = "1" * 140_000
        path = tmp_path / f"{surface}.csv"
        if surface == "portfolio":
            header = "id,class,rating,nominal,position"
            path.write_text(f"{header}\nA1,corporate,AAA,{cell},on\n")
            inputs = ["--portfolio", str(path)]
        else:
            path.write_text(f"year,line,amount\n2004,TOTAL,{cell}\n")
            inputs = ["--portfolio", WORKED, "--income", str(path)]
        status = main(["compute", "--capital", "1.00", *inputs])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error [input/config]: line 2: field larger")
        assert captured.err.endswith(f" in {path}\n")
        assert captured.err.count("\n") == 1

    def test_bad_capital_amount_exits_two(self, capsys, tmp_path):
        betas = tmp_path / "betas.tbl"
        betas.write_text(
            "".join(f"{line.key} 1.5\n" for line in DEFAULT_BETAS.betas)
        )
        partial_betas = tmp_path / "partial_betas.tbl"
        partial_betas.write_text("corporate_finance 0.15\n")
        cases = [
            (["--capital", amount], "--capital")
            for amount in ("lots", "Infinity", "1e5000", "1.234")
        ]
        cases += [
            (["--capital", amount], f"--capital: not a decimal amount: {amount!r}\n")
            for amount in (
                "1_000.00", "\uff11\uff10\uff10\uff10", "\u0661\u0662\u0663.00",
                "\xa01_000.00\u2003",
            )
        ]
        cases += [
            (["--capital", "1.234"], "--capital: amount '1.234' has more than 2"),
            (["--capital", "1.00", "--market-charge", "-5"], "--market-charge"),
            (
                ["--capital", "1.00", "--betas", str(betas)],
                f"line 1, column 'beta': beta for corporate_finance outside [0, 1] in {betas}",
            ),
            (["--capital", "1.00", "--betas", str(partial_betas)], str(partial_betas)),
        ]
        for flags, cited in cases:
            status = main(["compute", "--portfolio", WORKED, *flags])
            captured = capsys.readouterr()
            assert status == 2
            assert captured.err.startswith("error [input/config]:")
            assert cited in captured.err
            assert captured.err.count("\n") == 1

    def test_malformed_period_exits_two(self, capsys, tmp_path):
        document = tmp_path / "o.json"
        for period in ("garbage", "2006-H2\n", "\u0662\u0660\u0660\u0666-H2"):
            for command in ("compute", "compare", "disclose"):
                status = main(
                    [command, "--portfolio", WORKED, "--capital", "80000.00"]
                    + ["--period", period, "--json-out", str(document)]
                )
                captured = capsys.readouterr()
                assert status == 2
                assert captured.out == ""
                assert captured.err == (
                    "error [input/config]: period must be a half-year tag like"
                    f" 2006-H1 or 2006-H2, got {period!r}\n"
                )
                assert not document.exists()

    def test_empty_book_takes_the_configured_currency(self, capsys, tmp_path):
        portfolio = tmp_path / "empty.csv"
        portfolio.write_text("id,class,rating,nominal,position\n")
        for command in ("compute", "compare"):
            status = main(
                [command, "--portfolio", str(portfolio), "--capital", "1"]
                + ["--currency", "USD"]
            )
            captured = capsys.readouterr()
            assert status == 0
            assert captured.err == ""
            assert "USD" in captured.out

    def test_unexpected_exception_exits_two_with_one_line(
        self, capsys, tmp_path, monkeypatch
    ):
        def failing(params):
            raise RuntimeError("weight table\nunavailable")

        monkeypatch.setitem(_FUNCTIONS, "failing", failing)
        portfolio = tmp_path / "p.csv"
        portfolio.write_text(
            "id,class,rating,nominal,position,pd\nX1,corporate,AAA,100.00,on,1%\n"
        )
        status = main(
            [
                "compute", "--portfolio", str(portfolio), "--capital", "1.00",
                "--credit-approach", "irb_foundation", "--irb-function", "failing",
            ]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == "error [internal]: RuntimeError: weight table\\nunavailable\n"

    def test_json_out_written(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        status = main(
            [
                "compute",
                "--portfolio",
                WORKED,
                "--capital",
                "80000.00",
                "--income",
                INCOME,
                "--json-out",
                str(out),
            ]
        )
        assert status == 1
        document = json.loads(out.read_text())
        assert document["credit"]["total_rwa"] == "1000000.00"
        assert document["oprisk"]["charge"] == "150.00"

    @pytest.mark.parametrize("command", ["compute", "compare", "disclose"])
    def test_unwritable_json_out_prints_no_report(self, capsys, tmp_path, command):
        # The document is written before the text report: a run that cannot
        # write it exits 2 with one line and nothing on stdout.
        status = main(
            [
                command, "--portfolio", GOLDEN, "--capital", "100",
                "--period", "2006-H2", "--json-out", str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error [input/config]: [Errno 21] Is a directory")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, flag", [
        (command, flag)
        for command in ("compute", "compare", "disclose")
        for flag in (
            "--config", "--portfolio", "--income", "--market-charge", "--tier1",
            "--tier2", "--json-out",
        )
    ] + [  # validate takes no capital flags, dump-tables no run inputs
        ("validate", "--config"), ("validate", "--portfolio"), ("validate", "--income"),
        ("dump-tables", "--config"), ("dump-tables", "--out-dir"),
    ])
    def test_an_empty_run_input_is_refused(self, capsys, tmp_path, monkeypatch, command, flag):
        # An empty value (say, an unset shell variable) is a value, not an
        # absent flag: it must not drop the config file, the operational
        # charge, the market charge, a tier or the document. An empty path
        # is named as given, not as the working directory Path("") stands
        # for, and nothing is written there.
        monkeypatch.chdir(tmp_path)
        if command == "dump-tables":
            argv = [command, flag, ""]
        elif command == "validate":
            argv = [command, "--portfolio", WORKED, flag, ""]
        else:
            argv = [command, "--portfolio", WORKED, "--period", "2006-H2",
                    "--capital", "90000", flag, ""]
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        if flag in ("--market-charge", "--tier1", "--tier2"):
            assert captured.err == f"error [input/config]: {flag}: not a decimal amount: ''\n"
        else:
            assert captured.err == f"error [input/config]: {flag}: not a path: ''\n"
        assert os.listdir(tmp_path) == []

    def test_a_value_that_fails_to_parse_names_its_key(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("supervisor.min_ratio = abc\n")
        cases = [
            (["--config", str(config)], "supervisor.min_ratio: not a decimal fraction: 'abc'"),
            (["--capital-addon", "abc"], "supervisor.addon: not a decimal amount: 'abc'"),
        ]
        for flags, message in cases:
            status = main(["compute", "--portfolio", WORKED, "--capital", "1.00", *flags])
            captured = capsys.readouterr()
            assert status == 2
            assert captured.out == ""
            assert captured.err == f"error [input/config]: {message}\n"

    @pytest.mark.parametrize(
        "flag, amount",
        [("--capital", "80008.00"), ("--tier1", "80000.00"), ("--tier2", "8.00"),
         ("--market-charge", "8.00"), ("--capital-addon", "8.00")],
    )
    def test_an_amount_flag_reads_blanks_around_the_number(self, capsys, flag, amount):
        # as a file cell does: a no-break or em space around it is no part of it
        outcomes = []
        for value in (amount, f"\xa0{amount}\u2003"):
            status = main(["compute", "--portfolio", WORKED, "--capital", "80008.00",
                           "--tier1", "80000.00", "--tier2", "8.00", flag, value])
            outcomes.append((status, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == ""

    def test_market_charge_flag(self, capsys):
        status = main(
            [
                "compute",
                "--portfolio",
                WORKED,
                "--capital",
                "80008.00",
                "--market-charge",
                "8.00",
            ]
        )
        captured = capsys.readouterr()
        assert status == 0
        assert "1,000,100.00" in captured.out

    def test_config_file_with_flag_override(self, capsys):
        # file says basic_indicator; the flag narrows it to standardized
        status = main(
            [
                "compute",
                "--config",
                CONFIG,
                "--oprisk-approach",
                "standardized",
                "--portfolio",
                WORKED,
                "--capital",
                "81000.00",
                "--income",
                INCOME,
            ]
        )
        captured = capsys.readouterr()
        assert status == 0
        assert "151.80" in captured.out

    def test_missing_portfolio_flag_is_usage_error(self, capsys):
        status = main(["compute", "--capital", "1.00"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == (
            "error [usage]: the following arguments are required: --portfolio\n"
        )

    def test_supervisory_flags(self, capsys):
        status = main(
            [
                "compute",
                "--portfolio",
                WORKED,
                "--capital",
                "80000.00",
                "--min-ratio-override",
                "10%",
                "--justification",
                "concentration",
            ]
        )
        captured = capsys.readouterr()
        assert status == 1
        assert "100,000.00" in captured.out

    @pytest.mark.parametrize(
        "flag, path",
        [
            ("--risk-weights", "w\nstatus:            COMPLIANT.tbl"),
            ("--ccf", "c\tf.tbl"),
            ("--betas", "b\u2028.tbl"),
        ],
    )
    def test_table_path_with_a_control_character_exits_two(self, capsys, flag, path):
        # the path would be echoed in the report, where it could forge a line
        status = main(["compute", "--portfolio", WORKED, "--capital", "1.00", flag, path])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error [input/config]: tables.")
        assert "contains a control character" in captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize(
        "flag, name, shown",
        [
            ("--portfolio", "bad\nname.csv", "bad\\nname.csv"),
            ("--income", "no\rincome\x85.csv", "no\\rincome\\x85.csv"),
            ("--config", "no\tconfig\u2028.cfg", "no\\tconfig\\u2028.cfg"),
        ],
    )
    def test_a_path_with_a_control_character_gives_one_diagnostic_line(
        self, capsys, tmp_path, flag, name, shown
    ):
        # The portfolio exists and has a bad nominal; the other two are missing.
        path = tmp_path / name
        if flag == "--portfolio":
            path.write_text(
                "id,class,rating,nominal,position,off_balance_category\n"
                "W1,bank,AAA,abc,on,\n",
                encoding="utf-8",
            )
        status = main(
            ["compute", "--portfolio", WORKED, "--capital", "1.00", flag, str(path)]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error [input/config]: ")
        assert captured.err.endswith("\n") and captured.err[:-1].isprintable()
        assert f"{tmp_path}/{shown}" in captured.err

    def test_a_usage_error_with_a_line_break_gives_one_diagnostic_line(self, capsys):
        status = main(["compute", "--portfolio", WORKED, "--capital", "1.00", "odd\nword"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err == "error [usage]: unrecognized arguments: odd\\nword\n"


class TestCompare:
    def test_smoke_and_exit(self, capsys):
        status = main(
            [
                "compare",
                "--portfolio",
                WORKED,
                "--capital",
                "81000.00",
                "--income",
                INCOME,
            ]
        )
        captured = capsys.readouterr()
        assert status == 0
        assert "credit-only" in captured.out
        assert "[x] operational risk enters the denominator" in captured.out

    def test_basel1_config_rejected(self, capsys):
        status = main(
            [
                "compare",
                "--regime",
                "basel1",
                "--portfolio",
                WORKED,
                "--capital",
                "81000.00",
            ]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith("error [input/config]:")


class TestDisclose:
    def test_requires_period(self, capsys):
        status = main(
            ["disclose", "--portfolio", WORKED, "--capital", "80000.00"]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert "period" in captured.err

    def test_with_period(self, capsys):
        status = main(
            [
                "disclose",
                "--portfolio",
                WORKED,
                "--capital",
                "80000.00",
                "--period",
                "2006-H2",
            ]
        )
        captured = capsys.readouterr()
        assert status == 0
        assert "SEMIANNUAL CAPITAL ADEQUACY DISCLOSURE" in captured.out
        assert "2006-H2" in captured.out


class TestDumpTables:
    def test_written_tables_load_back_as_defaults(self, capsys, tmp_path):
        status = main(["dump-tables", "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert status == 0
        assert captured.out.count("wrote ") == 3
        assert load_risk_weights(tmp_path / "risk_weights.tbl") == DEFAULT_RISK_WEIGHTS
        assert load_ccf(tmp_path / "ccf.tbl") == DEFAULT_CCF
        assert load_betas(tmp_path / "betas.tbl") == DEFAULT_BETAS

    @pytest.mark.parametrize("policy, weight, echo", [
        ("low_end", "30.00%", "low end (30%)"),
        ("high_end", "70.00%", "high end (70%)"),
    ])
    def test_the_bank_option_echo_states_the_loaded_table(
        self, capsys, tmp_path, policy, weight, echo
    ):
        assert main(["dump-tables", "--out-dir", str(tmp_path)]) == 0
        table = tmp_path / "risk_weights.tbl"
        text = table.read_text()
        for cell in ("bbb_plus_to_bbb_minus", "unrated"):
            text = text.replace(f"bank  {cell}  0.5..1", f"bank  {cell}  0.3..0.7")
        table.write_text(text)
        book = tmp_path / "book.csv"
        book.write_text("id,class,rating,nominal,position\nB1,bank,BBB,1000.00,on\n")
        capsys.readouterr()
        status = main([
            "compute", "--portfolio", str(book), "--capital", "1000",
            "--risk-weights", str(table), "--bank-policy", policy,
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert f" {weight} " in out.split("CREDIT RISK")[1].splitlines()[3]
        assert (
            f"bank option:       bank-row range cells resolved to the {echo},"
            " both cells together\n"
        ) in out


# Runs main(argv) under a file-size limit, with SIGXFSZ ignored so that a
# write past the limit fails with EFBIG; prints [status, stdout, stderr].
_LIMITED_RUN = """
import contextlib, io, json, resource, signal
from regcap.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    status = main({argv!r})
print(json.dumps([status, out.getvalue(), err.getvalue()]))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="POSIX file-size limits")
@pytest.mark.parametrize(
    "command, limit, target",
    [("compute", 2000, "out.json"), ("dump-tables", 200, "risk_weights.tbl")],
)
def test_a_write_cut_short_leaves_the_file_as_it_was(tmp_path, command, limit, target):
    path = tmp_path / target
    path.write_text("previous\n")
    argv = {
        "compute": ["compute", "--portfolio", GOLDEN, "--capital", "100",
                    "--json-out", str(path)],
        "dump-tables": ["dump-tables", "--out-dir", str(tmp_path)],
    }[command]
    status, out, err = json.loads(run_python(_LIMITED_RUN.format(limit=limit, argv=argv)))
    assert (status, out) == (2, "")
    reason = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
    assert err == f"error [input/config]: {reason}: {str(path)!r}\n"
    assert path.read_text() == "previous\n"
    assert [entry.name for entry in tmp_path.iterdir()] == [target]


def _json_out(path) -> str:
    status = main(["compute", "--portfolio", GOLDEN, "--capital", "1000000",
                   "--json-out", str(path)])
    assert status == 0
    return path.read_text() if path.is_file() else ""


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="symlinks")
def test_json_out_through_a_symlink_updates_the_file_it_points_to(tmp_path, capsys):
    expected = _json_out(tmp_path / "direct.json")
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("previous\n")
    link.symlink_to(real)
    _json_out(link)
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == link.read_text() == expected


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_json_out_keeps_the_mode_of_the_file_it_replaces(tmp_path, capsys):
    out = tmp_path / "out.json"
    out.write_text("previous\n")
    out.chmod(0o600)
    assert json.loads(_json_out(out))["credit"]
    assert stat.S_IMODE(out.stat().st_mode) == 0o600


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes")
def test_json_out_to_a_fifo_writes_through_it(tmp_path, capsys):
    expected = _json_out(tmp_path / "direct.json")
    fifo = tmp_path / "out.json"
    os.mkfifo(fifo)
    # a reader opened first lets the run open the pipe for writing at once
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        _json_out(fifo)
        written = os.read(reader, 1 << 16).decode("utf-8")
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert written == expected


# regcap as its console script runs it, so that the interpreter's own flush
# of stdout and stderr at exit takes part.
_ENTRY = "import sys; from regcap.cli import main; sys.exit(main(sys.argv[1:]))"
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _limit_file_size() -> None:
    import resource

    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (1000, 1000))


def _failed_report(case: str, unbuffered: bool, tmp_path,
                   command: list[str] | None = None) -> tuple[int, str, str]:
    """Run regcap (a compute unless ``command`` is given) whose output cannot
    all be written: [status, stdout, stderr] of the run, each stream read back
    where it can be."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if command is None:
        portfolio = str(tmp_path / "absent.csv") if case.startswith("stderr") else GOLDEN
        command = ["compute", "--portfolio", portfolio, "--capital", "1000000"]
    argv = [sys.executable, "-c", _ENTRY, *command]
    out, err = tmp_path / "out", tmp_path / "err"
    with contextlib.ExitStack() as stack:
        streams = {"stdout": stack.enter_context(out.open("wb")),
                   "stderr": stack.enter_context(err.open("wb"))}
        preexec = None
        if case == "closed-pipe":
            reader, streams["stdout"] = os.pipe()
            os.close(reader)
            stack.callback(os.close, streams["stdout"])
        elif case == "file-size-limit":
            preexec = _limit_file_size
        elif case.endswith("-closed"):  # closed at start: Python sets the stream to None
            fd = 2 if case == "stderr-closed" else 1
            preexec = lambda: os.close(fd)  # noqa: E731
        else:
            full = "stderr" if case == "stderr-full" else "stdout"
            streams[full] = stack.enter_context(open("/dev/full", "wb"))
        status = subprocess.run(argv, env=env, timeout=60, preexec_fn=preexec,
                                **streams).returncode
    return status, out.read_text(), err.read_text()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "case, code",
    [
        ("stdout-full", errno.ENOSPC),
        ("closed-pipe", errno.EPIPE),
        ("file-size-limit", errno.EFBIG),
        ("stderr-full", None),
        ("stdout-closed", errno.EBADF),
        ("stderr-closed", None),
    ],
)
def test_a_report_that_cannot_be_written_exits_two(tmp_path, case, code, unbuffered):
    status, out, err = _failed_report(case, unbuffered, tmp_path)
    assert status == 2
    if case.startswith("stderr"):  # the diagnostic is dropped, and nothing else written
        assert (out, err) == ("", "")
    else:
        assert err == f"error [input/config]: [Errno {code}] {os.strerror(code)}\n"
    if case == "file-size-limit":
        assert len(out) == 1000


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "case, code", [("stdout-full", errno.ENOSPC), ("stdout-closed", errno.EBADF)]
)
@pytest.mark.parametrize(
    "command",
    [["--help"], ["compute", "--help"], ["validate", "--portfolio", GOLDEN]],
    ids=["help", "compute-help", "validate"],
)
def test_help_and_validate_fail_closed_on_stdout(tmp_path, command, case, code,
                                                 unbuffered):
    status, _, err = _failed_report(case, unbuffered, tmp_path, command)
    assert (status, err) == (
        2, f"error [input/config]: [Errno {code}] {os.strerror(code)}\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_json_out_to_dev_stdout_writes_to_the_pipe(tmp_path, capsys):
    expected = _json_out(tmp_path / "direct.json")
    script = (
        "import sys; from regcap.cli import main; sys.stdout.flush(); "
        f"main(['compute', '--portfolio', {GOLDEN!r}, '--capital', '1000000', "
        "'--json-out', '/dev/stdout'])"
    )
    assert run_python(script).startswith(expected)


class TestValidate:
    def test_valid_inputs(self, capsys):
        status = main(
            ["validate", "--portfolio", GOLDEN, "--income", INCOME]
        )
        captured = capsys.readouterr()
        assert status == 0
        assert "portfolio OK: 10 exposure(s)" in captured.out
        assert "income OK: years 2004-2006" in captured.out
        assert "config OK" in captured.out

    def test_invalid_portfolio(self, capsys):
        status = main(["validate", "--portfolio", BAD_RATING])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith("error [input/config]:")

    @pytest.mark.parametrize(
        "cells", ["100.00,Infinity", "100.00,inf%", "100.00,1e5000", "1e5000,1%"]
    )
    def test_non_finite_or_huge_cell_exits_two(self, capsys, tmp_path, cells):
        portfolio = tmp_path / "p.csv"
        portfolio.write_text(
            f"id,class,rating,nominal,pd,position\nX1,corporate,AAA,{cells},on\n"
        )
        status = main(["validate", "--portfolio", str(portfolio)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error [input/config]: line 2, column")
        assert captured.err.count("\n") == 1

    def test_downgrade_without_override_exits_two(self, capsys):
        argv = [
            "validate",
            "--portfolio",
            GOLDEN,
            "--previous-oprisk-approach",
            "standardized",
        ]
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error [operational risk]:")
        assert main([*argv, "--downgrade-override"]) == 0

    def test_table_that_cannot_price_the_book_exits_two(self, capsys, tmp_path):
        risk_weights = tmp_path / "rw1.tbl"
        risk_weights.write_text("corporate aaa_to_aa_minus 20%\n")
        argv = ["--portfolio", WORKED, "--risk-weights", str(risk_weights)]
        assert main(["compute", "--capital", "1.00", *argv]) == 2
        compute_err = capsys.readouterr().err
        status = main(["validate", *argv])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == compute_err
        assert captured.err.startswith("error [standardized credit]:")

    def test_table_that_cannot_price_the_credit_only_leg_exits_two(
        self, capsys, tmp_path
    ):
        # compare prices an IRB book with the standardized tables as well
        risk_weights = tmp_path / "rw1.tbl"
        risk_weights.write_text("corporate aaa_to_aa_minus 20%\n")
        argv = [
            "--portfolio", str(DATA_DIR / "irb_small.csv"),
            "--credit-approach", "irb_advanced", "--risk-weights", str(risk_weights),
        ]
        assert main(["compute", "--capital", "1.00", *argv]) == 1
        capsys.readouterr()
        assert main(["compare", "--capital", "1.00", *argv]) == 2
        compare_err = capsys.readouterr().err
        status = main(["validate", *argv])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == compare_err
        assert captured.err.startswith("error [standardized credit]:")

    def test_income_under_credit_only_regime_exits_two(self, capsys):
        status = main(
            ["validate", "--portfolio", WORKED, "--regime", "basel1"]
            + ["--income", INCOME]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error [input/config]:")
        assert "income" in captured.err

    def test_unknown_config_key_reports_origin(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("regime = basel2\nunknown.key = 1\n")
        status = main(
            ["validate", "--config", str(config), "--portfolio", GOLDEN]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert "unknown.key" in captured.err


# Flags whose values regcap parses itself, the choice flags argparse checks
# and a flag no command takes; the file flags are fuzzed through their
# contents.
CAPITAL_FLAGS = ("--capital", "--tier1", "--tier2", "--market-charge")
CONFIG_FLAGS = (
    "--irb-function", "--oprisk-approach", "--previous-oprisk-approach",
    "--min-ratio-override", "--capital-addon", "--period", "--currency",
)
CHOICE_FLAGS = {s.flag: s.choices for s in SETTINGS if s.choices}
UNKNOWN_FLAG = "--no-such-flag"
PLAUSIBLE_VALUES = ("1.00", "81000.00", "0", "10%", "2006-H2", "EUR", "standardized")


@pytest.fixture(scope="module")
def seed_files(tmp_path_factory):
    """The directory the fuzzed files go to, and one valid seed per file flag."""
    directory = tmp_path_factory.mktemp("totality")
    seeds = {
        "--portfolio": (DATA_DIR / "portfolio_golden.csv").read_bytes(),
        "--income": (DATA_DIR / "income_3yr.csv").read_bytes(),
        "--config": (DATA_DIR / "config_basel2.cfg").read_bytes(),
    }
    for flag, table, writer in (
        ("--risk-weights", DEFAULT_RISK_WEIGHTS, dump_risk_weights),
        ("--ccf", DEFAULT_CCF, dump_ccf),
        ("--betas", DEFAULT_BETAS, dump_betas),
    ):
        writer(table, directory / "table")
        seeds[flag] = (directory / "table").read_bytes()
    return directory, seeds


def _apply_edits(data: bytes, edits) -> bytes:
    for position, cut, insert in edits:
        position = min(position, len(data))
        data = data[:position] + insert + data[position + cut:]
    return data


def _mutated(seed: bytes):
    """The seed with a few byte edits, or arbitrary bytes instead."""
    edit = st.tuples(st.integers(0, len(seed)), st.integers(0, 3), st.binary(max_size=3))
    return st.one_of(
        st.lists(edit, min_size=1, max_size=4).map(lambda e: _apply_edits(seed, e)),
        st.binary(max_size=64),
    )


class TestTotality:
    """main() is total over broken input files and arbitrary flag text."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_main_returns_a_status_and_keeps_the_stream_contract(
        self, seed_files, data
    ):
        directory, seeds = seed_files
        command = data.draw(
            st.sampled_from(["compute", "compare", "disclose", "validate"])
        )
        argv = [command]
        given_files = [
            flag for flag in seeds
            if flag == "--portfolio" or data.draw(st.booleans(), label=flag)
        ]
        broken = data.draw(st.sampled_from([None, *given_files]), label="mutated")
        for flag in given_files:
            path = directory / flag[2:]
            seed = seeds[flag]
            path.write_bytes(data.draw(_mutated(seed)) if flag == broken else seed)
            argv += [flag, str(path)]
        flags = CONFIG_FLAGS
        if command != "validate":
            flags += CAPITAL_FLAGS
            argv.append("--capital=81000.00")  # a drawn --capital comes later and wins
            if data.draw(st.booleans(), label="--json-out"):
                argv += ["--json-out", str(directory / "out.json")]
        flags += (*CHOICE_FLAGS, UNKNOWN_FLAG)
        for flag in data.draw(st.lists(st.sampled_from(flags), max_size=2, unique=True)):
            plausible = st.sampled_from(CHOICE_FLAGS.get(flag, PLAUSIBLE_VALUES))
            value = data.draw(st.one_of(plausible, st.text(max_size=12)), label=flag)
            argv.append(f"{flag}={value}")

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)

        assert status in (0, 1, 2)
        if status == 2:
            # [internal] marks a fault in regcap, never in its inputs.
            assert err.getvalue().startswith("error [")
            assert not err.getvalue().startswith("error [internal]")
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().endswith("\n")
        else:
            assert err.getvalue() == ""
        if status == 1:
            assert "NON-COMPLIANT" in out.getvalue()


# The config flags the validate property draws: the choice flags with one of
# their choices, the switches, and the flags whose values regcap parses.
SWITCHES = tuple(s.flag for s in SETTINGS if s.parser is bool)
# Refusals that belong to a command, not to its inputs: compare needs the
# full regime and disclose a period, and validate asks for neither.
OWN_REFUSALS = {
    "compare": "error [input/config]: comparison requires the full regime configured\n",
    "disclose": (
        "error [input/config]: disclosure needs a semiannual period such as 2006-H2\n"
    ),
}


def _thinned(seed: bytes):
    """The seed with some of its lines left out."""
    lines = seed.splitlines(keepends=True)
    keep = st.lists(st.booleans(), min_size=len(lines), max_size=len(lines))
    return keep.map(lambda kept: b"".join(l for l, k in zip(lines, kept) if k))


def _config_flag(data, flag: str) -> str:
    if flag in SWITCHES:
        return flag
    if flag in CHOICE_FLAGS:
        return f"{flag}={data.draw(st.sampled_from(CHOICE_FLAGS[flag]), label=flag)}"
    values = st.one_of(st.sampled_from(PLAUSIBLE_VALUES), st.text(max_size=12))
    return f"{flag}={data.draw(values, label=flag)}"


class TestValidatePromise:
    """What validate passes, compute, compare and disclose price."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_command_prices_what_validate_passes(self, seed_files, data):
        directory, seeds = seed_files
        seeds = {
            **seeds,
            "--portfolio": data.draw(st.sampled_from([
                seeds["--portfolio"], (DATA_DIR / "irb_small.csv").read_bytes(),
            ]), label="book"),
        }
        given_files = [
            flag for flag in seeds
            if flag == "--portfolio" or data.draw(st.booleans(), label=flag)
        ]
        broken = data.draw(st.sampled_from([None, *given_files]), label="mutated")
        argv = []
        for flag in given_files:
            path = directory / flag[2:]
            seed = seeds[flag]
            if flag == broken:
                seed = data.draw(st.one_of(_mutated(seed), _thinned(seed)))
            path.write_bytes(seed)
            argv += [flag, str(path)]
        flags = sorted({*CHOICE_FLAGS, *SWITCHES, *CONFIG_FLAGS})
        chosen = data.draw(st.lists(st.sampled_from(flags), max_size=3, unique=True))
        argv += [_config_flag(data, flag) for flag in chosen]

        def run(command: str, *extra: str) -> tuple[int, str]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                status = main([command, *argv, *extra])
            return status, err.getvalue()

        if run("validate")[0] != 0:
            return
        for command in ("compute", "compare", "disclose"):
            status, err = run(command, "--capital", "81000.00")
            if err != OWN_REFUSALS.get(command):
                assert (status, err) in ((0, ""), (1, "")), (command, argv)


IRB_SMALL = (DATA_DIR / "irb_small.csv").read_text(encoding="utf-8").splitlines()
IRB_COLUMNS = IRB_SMALL[0].split(",")
IRB_IDS = [line.split(",")[0] for line in IRB_SMALL[1:]]
COMMAND_FLAGS = {
    "compute": ["--capital", "1000000.00"],
    "compare": ["--capital", "1000000.00"],
    "disclose": ["--capital", "1000000.00", "--period", "2006-H1"],
    "validate": [],
}

# Decimal texts of a positive amount, with up to four places.
_positive = st.integers(1, 10**8).map(lambda n: str(Decimal(n).scaleb(-4)))
# Above one, as a decimal or as a percent above 100%.
_above_one = st.one_of(
    st.integers(10**4 + 1, 10**8).map(lambda n: str(Decimal(n).scaleb(-4))),
    st.integers(10**4 + 1, 10**8).map(lambda n: f"{Decimal(n).scaleb(-2)}%"),
)
_negative = st.one_of(
    _positive.map(lambda text: f"-{text}"), _positive.map(lambda text: f"-{text}%")
)
OUT_OF_RANGE = st.one_of(
    st.tuples(st.sampled_from(["pd", "lgd"]), st.one_of(_above_one, _negative)),
    st.tuples(
        st.just("ead"),
        st.integers(1, 10**10).map(lambda n: f"-{Decimal(n).scaleb(-2)}"),
    ),
    st.tuples(
        st.just("maturity"),
        st.one_of(st.sampled_from(["0", "0.0", "-0", "0%"]), _negative),
    ),
)


def _irb_book(row: int, column: str, token: str) -> str:
    """irb_small.csv with one cell of one data row replaced."""
    lines = list(IRB_SMALL)
    cells = lines[1 + row].split(",")
    cells[IRB_COLUMNS.index(column)] = token
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _run_irb(command: str, book) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([
            command, "--credit-approach", "irb_advanced", "--portfolio", str(book),
            *COMMAND_FLAGS[command],
        ])
    return status, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def irb_book_path(tmp_path_factory):
    return tmp_path_factory.mktemp("irb") / "book.csv"


class TestIrbComponentRange:
    """Every subcommand refuses an out-of-range IRB component and prices its
    boundary values; the component is range-checked once, when the book is
    built."""

    @settings(max_examples=150, deadline=None)
    @given(
        command=st.sampled_from(sorted(COMMAND_FLAGS)),
        row=st.integers(0, len(IRB_IDS) - 1),
        cell=OUT_OF_RANGE,
    )
    def test_an_out_of_range_component_exits_two_naming_the_exposure(
        self, irb_book_path, command, row, cell
    ):
        column, token = cell
        irb_book_path.write_text(_irb_book(row, column, token), encoding="utf-8")
        status, out, err = _run_irb(command, irb_book_path)
        assert status == 2
        assert out == ""
        assert err.startswith(f"error [core model]: exposure {IRB_IDS[row]!r}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    @pytest.mark.parametrize(
        "column, token",
        [("pd", "0"), ("pd", "1"), ("pd", "100%"), ("lgd", "1"), ("ead", "0"),
         ("maturity", "0.1")],
    )
    def test_boundary_components_price(self, tmp_path, command, column, token):
        for row in range(len(IRB_IDS)):
            book = tmp_path / f"book-{row}.csv"
            book.write_text(_irb_book(row, column, token), encoding="utf-8")
            status, out, err = _run_irb(command, book)
            assert status in (0, 1), err
            assert err == ""
            assert out
