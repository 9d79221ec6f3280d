"""Engine configuration: regimes, approach selection, policy knobs.

Config files are plain ``key = value`` lines with ``#`` comments. Every key
has a matching CLI flag that overrides it and an EngineConfig field; the
three, and the field's default, are declared once, in ``SETTINGS``. The
default config path can be supplied via the REGCAP_CONFIG environment
variable.
"""

from __future__ import annotations

import enum
import os
import re
from pathlib import Path
from typing import Any, Mapping

from .aggregation import SupervisoryAdjustment
from .errors import AggregationError, ConfigError, OperationalRiskError
from .model import _CONTROL_CHARACTER, MINIMUM_CAPITAL_RATIO
from .money import DEFAULT_CURRENCY, Money, parse_fraction
from .oprisk import ApproachKind, NegativeGiPolicy, OpRiskApproach
from .record import KeyedEnum, Record
from .standardized import BankOptionPolicy

ENV_CONFIG_PATH = "REGCAP_CONFIG"

# A disclosure period is a half-year tag: four ASCII digits, -H1 or -H2.
_PERIOD = re.compile("[0-9]{4}-H[12]")


class Regime(KeyedEnum):
    BASEL1 = "basel1"
    BASEL2 = "basel2"


class CreditApproach(KeyedEnum):
    STANDARDIZED = "standardized"
    IRB_FOUNDATION = "irb_foundation"
    IRB_ADVANCED = "irb_advanced"


def _parse_bool(token: str) -> bool:
    lowered = token.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {token!r}")


def _parse_approach(token: str) -> OpRiskApproach:
    stripped = token.strip()
    # a hook is registered under its exact name: only the prefix ignores case
    if stripped[:9].lower() == "advanced:":
        name = stripped[9:].strip()
        if not name:
            raise ValueError("advanced approach needs a hook name after the colon")
        return OpRiskApproach.advanced_hook(name)
    lowered = stripped.lower()
    if lowered == ApproachKind.BASIC_INDICATOR.key:
        return OpRiskApproach.basic_indicator()
    if lowered == ApproachKind.STANDARDIZED.key:
        return OpRiskApproach.standardized()
    raise ValueError(
        f"unknown operational-risk approach {token!r}; expected basic_indicator,"
        " standardized, or advanced:<hook>"
    )


def _parse_currency(token: str) -> str:
    if not (len(token) == 3 and token.isascii() and token.isalpha() and token.isupper()):
        raise ValueError(
            f"must be a three-letter ISO code such as EUR, got {token!r}"
        )
    return token


class Setting(Record, defaults=dict(help=None, default=None)):
    """One run setting: its config key, CLI flag, EngineConfig field and
    that field's default.

    ``parser`` turns the raw text into the field value. An enum class
    accepts its values case-insensitively (and the flag offers them as
    choices), ``bool`` makes the flag a switch, and ``Money`` reads an
    amount in the run's currency. ``help`` is argparse text, so ``%`` is
    doubled.
    """

    __slots__ = ("key", "flag", "field", "parser", "help", "default")

    @property
    def choices(self) -> list[str] | None:
        if isinstance(self.parser, enum.EnumMeta):
            return [member.key for member in self.parser]
        return None

    def parse(self, token: str, currency: str) -> Any:
        if self.parser is Money:
            return Money.from_decimal(token, currency)
        if self.parser is bool:
            return _parse_bool(token)
        choices = self.choices
        if choices is None:
            return self.parser(token)
        try:
            return self.parser(token.strip().lower())
        except ValueError:
            raise ValueError(
                f"expected one of {', '.join(choices)}; got {token!r}"
            ) from None


# Every run setting, in --help order and EngineConfig field order. A flag
# overrides its key's file value.
SETTINGS = (
    Setting("regime", "--regime", "regime", Regime, default=Regime.BASEL2),
    Setting(
        "credit.approach", "--credit-approach", "credit_approach", CreditApproach,
        default=CreditApproach.STANDARDIZED,
    ),
    Setting(
        "credit.bank_policy", "--bank-policy", "bank_policy", BankOptionPolicy,
        default=BankOptionPolicy.LOW_END,
    ),
    Setting(
        "irb.function", "--irb-function", "irb_function", str,
        "registered risk-weight function name", default="constant",
    ),
    Setting(
        "oprisk.approach", "--oprisk-approach", "oprisk_approach", _parse_approach,
        "basic_indicator, standardized, or advanced:<hook>",
        default=OpRiskApproach.basic_indicator(),
    ),
    Setting(
        "oprisk.previous_approach", "--previous-oprisk-approach",
        "previous_oprisk_approach", _parse_approach,
        "previously approved approach, for the downgrade rule",
    ),
    Setting(
        "oprisk.downgrade_override", "--downgrade-override", "downgrade_override",
        bool, "supervisory override allowing a simpler approach than before",
        default=False,
    ),
    Setting(
        "oprisk.negative_gi_policy", "--negative-gi-policy", "negative_gi_policy",
        NegativeGiPolicy, default=NegativeGiPolicy.EXCLUDE_NEGATIVE_YEARS,
    ),
    Setting(
        "tables.risk_weights", "--risk-weights", "risk_weights_path", str,
        "risk-weight table file",
    ),
    Setting("tables.ccf", "--ccf", "ccf_path", str, "conversion-factor table file"),
    Setting(
        "tables.betas", "--betas", "betas_path", str,
        "business-line multiplier table file",
    ),
    Setting(
        "supervisor.min_ratio", "--min-ratio-override", "min_ratio_override",
        parse_fraction, "supervisory floor, e.g. 10%%",
    ),
    Setting(
        "supervisor.addon", "--capital-addon", "capital_addon", Money,
        "supervisory capital add-on amount",
    ),
    Setting(
        "supervisor.justification", "--justification", "adjustment_justification",
        str, "supervisory adjustment rationale", default="",
    ),
    Setting(
        "disclosure.period", "--period", "disclosure_period", str,
        "disclosure period, e.g. 2006-H2",
    ),
    Setting(
        "currency", "--currency", "currency", _parse_currency,
        "ISO currency code (default EUR)", default=DEFAULT_CURRENCY,
    ),
)


class EngineConfig(Record, defaults={s.field: s.default for s in SETTINGS}):
    """Validated run configuration: one field per row of ``SETTINGS``, in
    its order and with its default.

    The credit-only regime admits no operational-risk approach, no market
    charge, no internal-ratings approach, and no supervisory adjustment;
    the full regime requires an operational-risk approach. The supervisory
    floor, the disclosure period's form and the downgrade rule (a simpler
    operational-risk approach than the previous one needs the override) are
    checked here, at load time.
    """

    __slots__ = tuple(s.field for s in SETTINGS)

    def __init__(self, *values, **named) -> None:
        super().__init__(*values, **named)
        problems = []
        if self.regime is Regime.BASEL1:
            if self.oprisk_approach is not None:
                problems.append(
                    "the credit-only regime admits no operational-risk approach"
                )
            if self.credit_approach is not CreditApproach.STANDARDIZED:
                problems.append(
                    "internal-ratings approaches are not available in the"
                    " credit-only regime"
                )
            if self.min_ratio_override is not None or self.capital_addon is not None:
                problems.append(
                    "supervisory adjustments are not available in the"
                    " credit-only regime"
                )
        else:
            if self.oprisk_approach is None:
                problems.append("the full regime requires an operational-risk approach")
        # a path is echoed in the reports, where a line break would forge a line
        for key, path in (
            ("tables.risk_weights", self.risk_weights_path), ("tables.ccf", self.ccf_path),
            ("tables.betas", self.betas_path),
        ):
            if path and _CONTROL_CHARACTER.search(str(path)):
                problems.append(f"{key}: path {str(path)!r} contains a control character")
        period = self.disclosure_period
        if period is not None and not _PERIOD.fullmatch(period):
            problems.append(
                f"period must be a half-year tag like 2006-H1 or 2006-H2, got {period!r}"
            )
        try:
            self.adjustment()
        except AggregationError as exc:
            problems.append(str(exc))
        if problems:
            raise ConfigError("; ".join(problems))
        previous = self.previous_oprisk_approach
        if (
            self.oprisk_approach is not None
            and previous is not None
            and not self.downgrade_override
            and self.oprisk_approach.complexity < previous.complexity
        ):
            raise OperationalRiskError(
                "supervisory override required to revert to a simpler approach"
            )

    def adjustment(self) -> SupervisoryAdjustment | None:
        """The supervisory adjustment, or None when neither knob is set."""
        if self.min_ratio_override is None and self.capital_addon is None:
            return None
        return SupervisoryAdjustment(
            minimum_ratio=(
                self.min_ratio_override
                if self.min_ratio_override is not None
                else MINIMUM_CAPITAL_RATIO
            ),
            addon=self.capital_addon,
        )

    @classmethod
    def basel1(cls, **kwargs) -> EngineConfig:
        kwargs.setdefault("oprisk_approach", None)
        return cls(regime=Regime.BASEL1, **kwargs)


_KEYS = frozenset(setting.key for setting in SETTINGS)


def _data_lines(text: str):
    """Yield (line_number, stripped line), skipping blank and ``#`` lines."""
    # Only "\n" ends a line (reading has turned "\r\n" and "\r" into it);
    # splitlines() would also break at a form feed inside a comment.
    for number, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if line and not line.startswith("#"):
            yield number, line


def load_config(path: str | None = None, overrides: Mapping[str, str] | None = None) -> EngineConfig:
    """Config from an explicit path, the environment default, or built-ins.

    The file's ``key = value`` lines are checked against ``SETTINGS`` (an
    unknown or repeated key is refused); ``overrides`` (CLI flags) win over
    its values key by key. An empty value leaves the field at its default.
    An empty ``path`` is refused; an empty ``$REGCAP_CONFIG`` names no file.
    """
    if path == "":
        raise ConfigError(f"not a path: {path!r}")
    values: dict[str, str] = {}
    source = path or os.environ.get(ENV_CONFIG_PATH)
    if source:
        file = Path(source)
        try:
            text = file.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {file}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {file} is not valid UTF-8: {exc}") from exc
        for number, line in _data_lines(text):
            if "=" not in line:
                raise ConfigError(f"{file}, line {number}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise ConfigError(f"{file}, line {number}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{file}, line {number}: duplicate key {key!r}")
            values[key] = value.strip()
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    unknown = sorted(set(values) - _KEYS)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    currency = values.get("currency") or DEFAULT_CURRENCY
    fields: dict[str, Any] = {}
    for setting in SETTINGS:
        token = values.get(setting.key)
        if token:
            try:
                fields[setting.field] = setting.parse(token, currency)
            except ValueError as exc:
                raise ConfigError(f"{setting.key}: {exc}") from exc
    if fields.pop("regime", None) is Regime.BASEL1:
        return EngineConfig.basel1(**fields)
    return EngineConfig(**fields)
