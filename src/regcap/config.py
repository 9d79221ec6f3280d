"""Engine configuration: regimes, approach selection, policy knobs.

Config files are plain ``key = value`` lines with ``#`` comments. Every key
has a matching CLI flag that overrides it. The default config path can be
supplied via the REGCAP_CONFIG environment variable.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .aggregation import SupervisoryAdjustment
from .errors import ConfigError, DowngradeWithoutOverride, InvalidOverride
from .model import MINIMUM_CAPITAL_RATIO
from .money import DEFAULT_CURRENCY, Money, parse_fraction
from .oprisk import ApproachKind, NegativeGiPolicy, OpRiskApproach
from .standardized import BankOptionPolicy

ENV_CONFIG_PATH = "REGCAP_CONFIG"


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


@dataclass(frozen=True)
class EngineConfig:
    """Validated run configuration.

    The credit-only regime admits no operational-risk approach, no market
    charge, no internal-ratings approach, and no supervisory adjustment;
    the full regime requires an operational-risk approach. The supervisory
    floor and the downgrade rule (a simpler operational-risk approach than
    the previous one needs the override) are checked here, at load time.
    """

    regime: Regime = Regime.BASEL2
    credit_approach: CreditApproach = CreditApproach.STANDARDIZED
    bank_policy: BankOptionPolicy = BankOptionPolicy.LOW_END
    irb_function: str = "constant"
    oprisk_approach: OpRiskApproach | None = field(
        default_factory=OpRiskApproach.basic_indicator
    )
    previous_oprisk_approach: OpRiskApproach | None = None
    downgrade_override: bool = False
    negative_gi_policy: NegativeGiPolicy = NegativeGiPolicy.EXCLUDE_NEGATIVE_YEARS
    risk_weights_path: str | None = None
    ccf_path: str | None = None
    betas_path: str | None = None
    min_ratio_override: Fraction | None = None
    capital_addon: Money | None = None
    adjustment_justification: str = ""
    disclosure_period: str | None = None
    currency: str = DEFAULT_CURRENCY

    def __post_init__(self) -> None:
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
            justification=self.adjustment_justification,
        )

    @classmethod
    def basel1(cls, **kwargs) -> EngineConfig:
        kwargs.setdefault("oprisk_approach", None)
        return cls(regime=Regime.BASEL1, **kwargs)

    def with_values(self, **kwargs) -> EngineConfig:
        return replace(self, **kwargs)


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


def _enum_by_value(cls, token: str):
    try:
        return cls(token.strip().lower())
    except ValueError:
        expected = ", ".join(member.value for member in cls)
        raise ValueError(f"expected one of {expected}; got {token!r}") from None


# Recognized config keys. Each entry maps the raw string to a constructor
# argument; assembly and cross-field validation happen in build_config.
CONFIG_KEYS = (
    "regime",
    "currency",
    "credit.approach",
    "credit.bank_policy",
    "irb.function",
    "oprisk.approach",
    "oprisk.previous_approach",
    "oprisk.downgrade_override",
    "oprisk.negative_gi_policy",
    "tables.risk_weights",
    "tables.ccf",
    "tables.betas",
    "supervisor.min_ratio",
    "supervisor.addon",
    "supervisor.justification",
    "disclosure.period",
)


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Read ``key = value`` lines into a raw mapping, rejecting unknown keys."""
    values: dict[str, str] = {}
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}, line {number}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
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
    return parse_config_text(text, origin=str(path))


def build_config(values: Mapping[str, str]) -> EngineConfig:
    """Assemble an EngineConfig from raw key strings (file and/or flags)."""
    unknown = sorted(set(values) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))

    def take(key: str) -> str | None:
        value = values.get(key)
        return value if value not in (None, "") else None

    try:
        regime = (
            _enum_by_value(Regime, take("regime")) if take("regime") else Regime.BASEL2
        )
        currency = take("currency") or DEFAULT_CURRENCY
        kwargs: dict = {"regime": regime, "currency": currency}
        if take("credit.approach"):
            kwargs["credit_approach"] = _enum_by_value(
                CreditApproach, take("credit.approach")
            )
        if take("credit.bank_policy"):
            kwargs["bank_policy"] = _enum_by_value(
                BankOptionPolicy, take("credit.bank_policy")
            )
        if take("irb.function"):
            kwargs["irb_function"] = take("irb.function")
        if take("oprisk.approach"):
            kwargs["oprisk_approach"] = _parse_approach(take("oprisk.approach"))
        elif regime is Regime.BASEL1:
            kwargs["oprisk_approach"] = None
        if take("oprisk.previous_approach"):
            kwargs["previous_oprisk_approach"] = _parse_approach(
                take("oprisk.previous_approach")
            )
        if take("oprisk.downgrade_override"):
            kwargs["downgrade_override"] = _parse_bool(take("oprisk.downgrade_override"))
        if take("oprisk.negative_gi_policy"):
            kwargs["negative_gi_policy"] = _enum_by_value(
                NegativeGiPolicy, take("oprisk.negative_gi_policy")
            )
        for key, attr in (
            ("tables.risk_weights", "risk_weights_path"),
            ("tables.ccf", "ccf_path"),
            ("tables.betas", "betas_path"),
        ):
            if take(key):
                kwargs[attr] = take(key)
        if take("supervisor.min_ratio"):
            kwargs["min_ratio_override"] = parse_fraction(take("supervisor.min_ratio"))
        if take("supervisor.addon"):
            try:
                amount = Decimal(take("supervisor.addon"))
            except InvalidOperation:
                raise ValueError(
                    f"not a decimal amount: {take('supervisor.addon')!r}"
                ) from None
            kwargs["capital_addon"] = Money.from_decimal(amount, currency)
        if take("supervisor.justification"):
            kwargs["adjustment_justification"] = take("supervisor.justification")
        if take("disclosure.period"):
            kwargs["disclosure_period"] = take("disclosure.period")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
