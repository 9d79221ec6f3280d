"""Command-line behaviour: exit codes, stream contract, file outputs."""

from __future__ import annotations

import json

import pytest

from regcap import DEFAULT_BETAS, DEFAULT_CCF, DEFAULT_RISK_WEIGHTS
from regcap.cli import main
from regcap.fileio import load_betas, load_ccf, load_risk_weights

from conftest import DATA_DIR

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

    def test_bad_capital_amount_exits_two(self, capsys):
        for amount in ("lots", "Infinity", "1e5000"):
            status = main(
                ["compute", "--portfolio", WORKED, "--capital", amount]
            )
            captured = capsys.readouterr()
            assert status == 2
            assert "--capital" in captured.err
            assert captured.err.count("\n") == 1

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
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "--capital", "1.00"])
        assert excinfo.value.code == 2

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

    def test_unknown_config_key_reports_origin(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("regime = basel2\nunknown.key = 1\n")
        status = main(
            ["validate", "--config", str(config), "--portfolio", GOLDEN]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert "unknown.key" in captured.err
