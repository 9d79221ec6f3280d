"""Run settings: one table behind config keys, CLI flags and EngineConfig."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from regcap.cli import _config_from_args, build_parser, main
from regcap.config import SETTINGS, EngineConfig, load_config

from conftest import DATA_DIR

WORKED = str(DATA_DIR / "worked_example.csv")
README = Path(__file__).parent.parent / "README.md"

# Two non-default values per key: (file value, flag value).
SAMPLES = {
    "regime": ("basel2", "basel1"),
    "credit.approach": ("irb_advanced", "irb_foundation"),
    "credit.bank_policy": ("low_end", "high_end"),
    "irb.function": ("first", "second"),
    "oprisk.approach": ("basic_indicator", "standardized"),
    "oprisk.previous_approach": ("standardized", "basic_indicator"),
    "oprisk.downgrade_override": ("false", "true"),
    "oprisk.negative_gi_policy": ("exclude_negative_years", "include_all"),
    "tables.risk_weights": ("a_rw.tbl", "b_rw.tbl"),
    "tables.ccf": ("a_ccf.tbl", "b_ccf.tbl"),
    "tables.betas": ("a_betas.tbl", "b_betas.tbl"),
    "supervisor.min_ratio": ("9%", "10%"),
    "supervisor.addon": ("1.00", "5.25"),
    "supervisor.justification": ("first review", "second review"),
    "disclosure.period": ("2006-H1", "2006-H2"),
    "currency": ("GBP", "USD"),
}


def _flag_argv(setting, value: str) -> list[str]:
    if setting.parser is bool:
        assert value == "true"
        return [setting.flag]
    return [setting.flag, value]


def _config_from_flags(argv: list[str]) -> EngineConfig:
    args = build_parser().parse_args(["validate", "--portfolio", WORKED, *argv])
    return _config_from_args(args)


def _setting_id(setting) -> str:
    return setting.key


class TestSettingsTable:
    def test_one_row_per_engine_config_field(self):
        assert sorted(s.field for s in SETTINGS) == sorted(EngineConfig.__slots__)

    def test_keys_and_flags_are_unique(self):
        assert len({s.key for s in SETTINGS}) == len(SETTINGS)
        assert len({s.flag for s in SETTINGS}) == len(SETTINGS)

    def test_every_setting_has_samples(self):
        assert sorted(SAMPLES) == sorted(s.key for s in SETTINGS)

    def test_readme_ini_block_lists_exactly_the_keys(self):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        keys = [line.partition("=")[0].strip() for line in block.splitlines()]
        assert sorted(keys) == sorted(s.key for s in SETTINGS)

    def test_enum_flags_offer_the_enum_values(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _config_from_flags(["--bank-policy", "mid"])
        assert excinfo.value.code == 2
        assert "choose from 'low_end', 'high_end'" in capsys.readouterr().err


@pytest.mark.parametrize("setting", SETTINGS, ids=_setting_id)
class TestFileAndFlagAgree:
    def test_file_line_and_flag_build_equal_configs(self, setting, tmp_path):
        value = SAMPLES[setting.key][1]
        path = tmp_path / "run.cfg"
        path.write_text(f"{setting.key} = {value}\n")
        from_file = load_config(str(path))
        from_flag = _config_from_flags(_flag_argv(setting, value))
        assert from_file == from_flag
        field = setting.field
        assert getattr(from_flag, field) != getattr(EngineConfig(), field)

    def test_flag_overrides_file_value(self, setting, tmp_path):
        file_value, flag_value = SAMPLES[setting.key]
        path = tmp_path / "run.cfg"
        path.write_text(f"{setting.key} = {file_value}\n")
        flag_argv = _flag_argv(setting, flag_value)
        both = _config_from_flags(["--config", str(path), *flag_argv])
        assert both == _config_from_flags(flag_argv)


@pytest.mark.parametrize(
    "line, detail",
    [
        ("credit.bank_policy = mid", "expected one of low_end, high_end; got 'mid'"),
        ("oprisk.downgrade_override = maybe", "not a boolean: 'maybe'"),
        ("oprisk.approach = fancy", "unknown operational-risk approach 'fancy'"),
        ("supervisor.min_ratio = lots", "not a decimal fraction: 'lots'"),
        ("supervisor.addon = 1.234", "amount '1.234' has more than 2 decimal"),
        ("currency = not a code", "three-letter ISO code such as EUR, got 'not a"),
    ],
    ids=["enum", "bool", "approach", "fraction", "amount", "currency"],
)
def test_bad_value_exits_two(capsys, tmp_path, line, detail):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    status = main(["validate", "--config", str(path), "--portfolio", WORKED])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error [input/config]:")
    assert detail in captured.err
    assert captured.err.count("\n") == 1


def test_non_utf8_config_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"regime = basel2\xff\n")
    status = main(["validate", "--config", str(path), "--portfolio", WORKED])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error [input/config]: config file ")
    assert "is not valid UTF-8" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("separator", ["\f", "\u2028"], ids=["form-feed", "u2028"])
def test_comment_with_a_line_separator_is_one_line(capsys, tmp_path, separator):
    path = tmp_path / "c.cfg"
    lines = [f"# run configuration{separator} revised", "regime = basel2"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_config(path).regime.value == "basel2"
    path.write_text("\n".join([*lines, "no equals sign"]) + "\n", encoding="utf-8")
    status = main(["validate", "--config", str(path), "--portfolio", WORKED])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err == f"error [input/config]: {path}, line 3: expected key = value\n"
