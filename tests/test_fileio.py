"""Table, portfolio, and income file formats: round-trips and diagnostics."""

from __future__ import annotations

from fractions import Fraction

import pytest

from regcap import (
    CounterpartyClass,
    DEFAULT_BETAS,
    DEFAULT_CCF,
    DEFAULT_RISK_WEIGHTS,
    ParseError,
    RatingBucket,
    ValidationFailure,
    load_betas,
    load_ccf,
    load_income,
    load_portfolio,
    load_risk_weights,
)
from regcap.fileio import (
    PORTFOLIO_OPTIONAL,
    PORTFOLIO_REQUIRED,
    dump_betas,
    dump_ccf,
    dump_risk_weights,
)
from regcap.oprisk import BusinessLine

from conftest import DATA_DIR, eur


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


class TestPortfolioCsv:
    def test_golden_portfolio_loads(self):
        portfolio = load_portfolio(DATA_DIR / "portfolio_golden.csv")
        assert len(portfolio) == 10
        by_id = {exposure.id: exposure for exposure in portfolio}
        assert by_id["S1"].counterparty is CounterpartyClass.SOVEREIGN
        assert by_id["S1"].rating is RatingBucket.AAA_TO_AA_MINUS
        assert by_id["S1"].nominal == eur("500000.00")
        assert by_id["B1"].is_off_balance
        assert by_id["B1"].off_balance_category == "medium_term_confirmed_facility"
        assert by_id["B3"].counterparty is CounterpartyClass.BANK_SHORT_TERM
        assert by_id["B3"].short_term
        assert by_id["C1"].rating is RatingBucket.UNRATED

    def test_bad_rating_cites_line_and_column(self):
        with pytest.raises(ParseError) as excinfo:
            load_portfolio(DATA_DIR / "bad_rating.csv")
        assert excinfo.value.line == 3
        assert excinfo.value.column == "rating"

    @pytest.mark.parametrize(
        "column, cells",
        [
            ("pd", "100.00,Infinity"),
            ("pd", "100.00,inf%"),
            ("pd", "100.00,NaN"),
            ("pd", "100.00,1e5000"),
            ("pd", "100.00,1e-5000"),
            ("nominal", "1e5000,1%"),
            ("nominal", "-Infinity,1%"),
            ("nominal", "1.234,1%"),
        ],
    )
    def test_non_finite_or_huge_cell_cites_line_and_column(
        self, tmp_path, column, cells
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
        assert "Decimal(" not in str(excinfo.value)

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

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "id,class,rating,nominal,position\n\nX1,corporate,AAA,100.00,on\n\n"
        )
        assert len(load_portfolio(path)) == 1


class TestIncomeCsv:
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
        from regcap.errors import IncompleteHistory

        with pytest.raises(IncompleteHistory):
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
