"""Run settings: one table behind config keys, CLI flags and EngineConfig."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from regcap.cli import _config_from_args, build_parser, main
from regcap.config import ENV_CONFIG_PATH, SETTINGS, EngineConfig, load_config
from regcap.errors import ConfigError
from regcap.money import Money
from regcap.oprisk import OpRiskApproach, register_advanced_hook

from conftest import DATA_DIR

WORKED = str(DATA_DIR / "worked_example.csv")
INCOME = str(DATA_DIR / "income_3yr.csv")
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


# Each subcommand with the inputs it requires, so that only the flags differ.
COMMAND_ARGV = {
    "compute": ["compute", "--portfolio", WORKED, "--capital", "1"],
    "compare": ["compare", "--portfolio", WORKED, "--capital", "1"],
    "disclose": ["disclose", "--portfolio", WORKED, "--capital", "1"],
    "dump-tables": ["dump-tables"],
    "validate": ["validate", "--portfolio", WORKED],
}


def _config_from_flags(argv: list[str], command: str = "validate") -> EngineConfig:
    args = build_parser().parse_args([*COMMAND_ARGV[command], *argv])
    return _config_from_args(args)


def _setting_id(setting) -> str:
    return setting.key


class TestSettingsTable:
    def test_one_row_per_engine_config_field(self):
        assert EngineConfig.__slots__ == tuple(s.field for s in SETTINGS)
        default = EngineConfig()
        for setting in SETTINGS:
            assert getattr(default, setting.field) == setting.default, setting.key

    def test_keys_and_flags_are_unique(self):
        assert len({s.key for s in SETTINGS}) == len(SETTINGS)
        assert len({s.flag for s in SETTINGS}) == len(SETTINGS)

    def test_every_setting_has_samples(self):
        assert sorted(SAMPLES) == sorted(s.key for s in SETTINGS)

    def test_readme_ini_block_lists_exactly_the_keys(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        lines = [line for line in block.splitlines() if not line.startswith("#")]
        keys = [line.partition("=")[0].strip() for line in lines]
        assert sorted(keys) == sorted(s.key for s in SETTINGS)
        # the documented values are the defaults
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert load_config(str(path)) == EngineConfig()

    def test_enum_flags_offer_the_enum_values(self, capsys):
        status = main(["validate", "--portfolio", WORKED, "--bank-policy", "mid"])
        assert status == 2
        assert capsys.readouterr().err == (
            "error [usage]: argument --bank-policy: invalid choice: 'mid'"
            " (choose from 'low_end', 'high_end')\n"
        )


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

    @pytest.mark.parametrize("command", COMMAND_ARGV)
    def test_every_command_takes_the_flag(self, setting, command, tmp_path):
        file_value, flag_value = SAMPLES[setting.key]
        path = tmp_path / "run.cfg"
        path.write_text(f"{setting.key} = {file_value}\n")
        flag_argv = _flag_argv(setting, flag_value)
        both = _config_from_flags(["--config", str(path), *flag_argv], command)
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
    key = line.partition("=")[0].strip()
    assert captured.err.startswith(f"error [input/config]: {key}: ")
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


def test_an_advanced_hook_name_keeps_its_case(capsys, tmp_path, monkeypatch):
    # only the advanced: prefix ignores case; a hook is selected by its exact name
    monkeypatch.setattr("regcap.oprisk._ADVANCED_HOOKS", {})
    register_advanced_hook("AMA", lambda history: Money(123456))
    path = tmp_path / "ama.cfg"
    path.write_text("oprisk.approach = ADVANCED:AMA\n")
    assert load_config(path).oprisk_approach == OpRiskApproach.advanced_hook("AMA")
    run = ["compute", "--portfolio", WORKED, "--income", INCOME, "--capital", "90000.00"]
    assert main([*run, "--oprisk-approach", "advanced:AMA"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "1,234.56" in captured.out
    assert main([*run, "--oprisk-approach", "advanced:ama"]) == 2
    assert capsys.readouterr().err == (
        "error [operational risk]: no advanced estimator registered as 'ama'\n"
    )


@pytest.mark.parametrize(
    "text, detail",
    [
        ("# run\nbogus = 1\n", "line 2: unknown key 'bogus'"),
        ("regime = basel2\n\nregime = basel1\n", "line 3: duplicate key 'regime'"),
    ],
    ids=["unknown", "duplicate"],
)
def test_a_bad_config_line_is_named(capsys, tmp_path, text, detail):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as excinfo:
        load_config(str(path))
    assert str(excinfo.value) == f"{path}, {detail}"
    status = main(["validate", "--config", str(path), "--portfolio", WORKED])
    assert status == 2
    assert capsys.readouterr() == ("", f"error [input/config]: {path}, {detail}\n")


def test_a_missing_config_file_is_named(capsys, tmp_path):
    path = tmp_path / "absent.cfg"
    expected = (
        f"cannot read config file {path}:"
        f" [Errno 2] No such file or directory: '{path}'"
    )
    with pytest.raises(ConfigError) as excinfo:
        load_config(str(path))
    assert str(excinfo.value) == expected
    status = main(["validate", "--config", str(path), "--portfolio", WORKED])
    assert status == 2
    assert capsys.readouterr() == ("", f"error [input/config]: {expected}\n")


def test_unknown_override_keys_are_all_named(monkeypatch):
    # flags are built from SETTINGS, so only a library caller can pass one
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    with pytest.raises(ConfigError) as excinfo:
        load_config(None, {"zeta": "1", "regime": "basel2", "alpha.key": "2"})
    assert str(excinfo.value) == "unknown config keys: alpha.key, zeta"


@pytest.mark.parametrize(
    "variable", [None, str(DATA_DIR / "config_basel2.cfg")], ids=["unset", "set"]
)
def test_an_empty_config_flag_is_refused(capsys, monkeypatch, variable):
    # not "no flag": neither $REGCAP_CONFIG's file nor the built-ins stand in
    if variable is None:
        monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    else:
        monkeypatch.setenv(ENV_CONFIG_PATH, variable)
    status = main(["validate", "--portfolio", WORKED, "--config", ""])
    assert status == 2
    assert capsys.readouterr() == ("", "error [input/config]: --config: not a path: ''\n")


def test_an_empty_config_variable_reads_no_file(capsys, monkeypatch):
    monkeypatch.setenv(ENV_CONFIG_PATH, "")
    assert load_config() == EngineConfig()
    assert main(["validate", "--portfolio", WORKED]) == 0
    assert capsys.readouterr() == ("portfolio OK: 1 exposure(s)\nconfig OK\n", "")


@pytest.mark.parametrize("command", ["compute", "validate"])
def test_an_unregistered_advanced_hook_fails_without_income(
    capsys, tmp_path, monkeypatch, command
):
    monkeypatch.setattr("regcap.oprisk._ADVANCED_HOOKS", {})
    path = tmp_path / "c.cfg"
    path.write_text("oprisk.approach = advanced:X\n")
    status = main([*COMMAND_ARGV[command], "--config", str(path)])
    assert status == 2
    assert capsys.readouterr() == (
        "", "error [operational risk]: no advanced estimator registered as 'X'\n"
    )
