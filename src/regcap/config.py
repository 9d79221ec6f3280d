"""Engine configuration: regimes, approach selection, policy knobs.

Config files are plain ``key = value`` lines with ``#`` comments. Every key
has a matching CLI flag that overrides it; both are declared once, in
``SETTINGS``. The default config path can be supplied via the REGCAP_CONFIG
environment variable.
"""

from __future__ import annotations

import enum
import os
import re
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Mapping

from .aggregation import SupervisoryAdjustment
from .errors import ConfigError, DowngradeWithoutOverride, InvalidOverride
from .model import MINIMUM_CAPITAL_RATIO
from .money import DEFAULT_CURRENCY, Money, parse_fraction
from .oprisk import ApproachKind, NegativeGiPolicy, OpRiskApproach
from .record import Record
from .standardized import BankOptionPolicy

ENV_CONFIG_PATH = "REGCAP_CONFIG"

# A disclosure period is a half-year tag: four ASCII digits, -H1 or -H2.
_PERIOD = re.compile("[0-9]{4}-H[12]")


class Regime(enum.Enum):
    BASEL1 = "basel1"
    BASEL2 = "basel2"

    @property
    def key(self) -> str:
        return self.value


class CreditApproach(enum.Enum):
    STANDARDIZED = "standardized"
    IRB_FOUNDATION = "irb_foundation"
    IRB_ADVANCED = "irb_advanced"

    @property
    def key(self) -> str:
        return self.value

    @property
    def uses_irb(self) -> bool:
        return self is not CreditApproach.STANDARDIZED


class EngineConfig(Record):
    """Validated run configuration.

    The credit-only regime admits no operational-risk approach, no market
    charge, no internal-ratings approach, and no supervisory adjustment;
    the full regime requires an operational-risk approach. The supervisory
    floor, the disclosure period's form and the downgrade rule (a simpler
    operational-risk approach than the previous one needs the override) are
    checked here, at load time.
    """

    __slots__ = (
        "regime", "credit_approach", "bank_policy", "irb_function", "oprisk_approach",
        "previous_oprisk_approach", "downgrade_override", "negative_gi_policy",
        "risk_weights_path", "ccf_path", "betas_path", "min_ratio_override",
        "capital_addon", "adjustment_justification", "disclosure_period", "currency",
    )

    def __init__(
        self,
        regime: Regime = Regime.BASEL2,
        credit_approach: CreditApproach = CreditApproach.STANDARDIZED,
        bank_policy: BankOptionPolicy = BankOptionPolicy.LOW_END,
        irb_function: str = "constant",
        oprisk_approach: OpRiskApproach | None = OpRiskApproach.basic_indicator(),
        previous_oprisk_approach: OpRiskApproach | None = None,
        downgrade_override: bool = False,
        negative_gi_policy: NegativeGiPolicy = NegativeGiPolicy.EXCLUDE_NEGATIVE_YEARS,
        risk_weights_path: str | None = None, ccf_path: str | None = None,
        betas_path: str | None = None, min_ratio_override: Fraction | None = None,
        capital_addon: Money | None = None, adjustment_justification: str = "",
        disclosure_period: str | None = None, currency: str = DEFAULT_CURRENCY,
    ) -> None:
        super().__init__(
            regime, credit_approach, bank_policy, irb_function, oprisk_approach,
            previous_oprisk_approach, downgrade_override, negative_gi_policy,
            risk_weights_path, ccf_path, betas_path, min_ratio_override,
            capital_addon, adjustment_justification, disclosure_period, currency,
        )
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
        period = self.disclosure_period
        if period is not None and not _PERIOD.fullmatch(period):
            problems.append(
                f"period must be a half-year tag like 2006-H1 or 2006-H2, got {period!r}"
            )
        try:
            self.adjustment()
        except InvalidOverride as exc:
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
            raise DowngradeWithoutOverride(
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


def _parse_bool(token: str) -> bool:
    lowered = token.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {token!r}")


def _parse_approach(token: str) -> OpRiskApproach:
    lowered = token.strip().lower()
    if lowered.startswith("advanced:"):
        name = lowered.split(":", 1)[1].strip()
        if not name:
            raise ValueError("advanced approach needs a hook name after the colon")
        return OpRiskApproach.advanced_hook(name)
    if lowered == ApproachKind.BASIC_INDICATOR.value:
        return OpRiskApproach.basic_indicator()
    if lowered == ApproachKind.STANDARDIZED.value:
        return OpRiskApproach.standardized()
    raise ValueError(
        f"unknown operational-risk approach {token!r}; expected basic_indicator,"
        " standardized, or advanced:<hook>"
    )


def _parse_currency(token: str) -> str:
    if not (len(token) == 3 and token.isascii() and token.isalpha() and token.isupper()):
        raise ValueError(
            f"currency must be a three-letter ISO code such as EUR, got {token!r}"
        )
    return token


class Setting(Record):
    """One run setting: its config key, CLI flag and EngineConfig field.

    ``parser`` turns the raw text into the field value. An enum class
    accepts its values case-insensitively (and the flag offers them as
    choices), ``bool`` makes the flag a switch, and ``Money`` reads an
    amount in the run's currency. ``help`` is argparse text, so ``%`` is
    doubled.
    """

    __slots__ = ("key", "flag", "field", "parser", "help")

    def __init__(
        self, key: str, flag: str, field: str, parser: Callable[..., Any],
        help: str | None = None,
    ) -> None:
        super().__init__(key, flag, field, parser, help)

    @property
    def choices(self) -> list[str] | None:
        if isinstance(self.parser, enum.EnumMeta):
            return [member.value for member in self.parser]
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


# Every run setting, in --help order. A flag overrides its key's file value.
SETTINGS = (
    Setting("regime", "--regime", "regime", Regime),
    Setting("credit.approach", "--credit-approach", "credit_approach", CreditApproach),
    Setting("credit.bank_policy", "--bank-policy", "bank_policy", BankOptionPolicy),
    Setting(
        "irb.function", "--irb-function", "irb_function", str,
        "registered risk-weight function name",
    ),
    Setting(
        "oprisk.approach", "--oprisk-approach", "oprisk_approach", _parse_approach,
        "basic_indicator, standardized, or advanced:<hook>",
    ),
    Setting(
        "oprisk.previous_approach", "--previous-oprisk-approach",
        "previous_oprisk_approach", _parse_approach,
        "previously approved approach, for the downgrade rule",
    ),
    Setting(
        "oprisk.downgrade_override", "--downgrade-override", "downgrade_override",
        bool, "supervisory override allowing a simpler approach than before",
    ),
    Setting(
        "oprisk.negative_gi_policy", "--negative-gi-policy", "negative_gi_policy",
        NegativeGiPolicy,
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
        str, "supervisory adjustment rationale",
    ),
    Setting(
        "disclosure.period", "--period", "disclosure_period", str,
        "disclosure period, e.g. 2006-H2",
    ),
    Setting(
        "currency", "--currency", "currency", _parse_currency,
        "ISO currency code (default EUR)",
    ),
)

_KEYS = frozenset(setting.key for setting in SETTINGS)


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Read ``key = value`` lines into a raw mapping, rejecting unknown keys."""
    values: dict[str, str] = {}
    # Only "\n" ends a line (reading has turned "\r\n" and "\r" into it);
    # splitlines() would also break at a form feed inside a comment.
    for number, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}, line {number}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{origin}, line {number}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}, line {number}: duplicate key {key!r}")
        values[key] = value
    return values


def read_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc
    return parse_config_text(text, origin=str(path))


def build_config(values: Mapping[str, str]) -> EngineConfig:
    """Assemble an EngineConfig from raw key strings (file and/or flags).

    An empty value leaves the field at its default.
    """
    unknown = sorted(set(values) - _KEYS)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    currency = values.get("currency") or DEFAULT_CURRENCY
    kwargs: dict[str, Any] = {}
    try:
        for setting in SETTINGS:
            token = values.get(setting.key)
            if token:
                kwargs[setting.field] = setting.parse(token, currency)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if kwargs.get("regime") is Regime.BASEL1:
        kwargs.setdefault("oprisk_approach", None)
    return EngineConfig(**kwargs)


def load_config(path: str | None = None, overrides: Mapping[str, str] | None = None) -> EngineConfig:
    """Config from an explicit path, the environment default, or built-ins.

    ``overrides`` (CLI flags) win over file values key by key.
    """
    values: dict[str, str] = {}
    source = path or os.environ.get(ENV_CONFIG_PATH)
    if source:
        values.update(read_config_file(source))
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    return build_config(values)
