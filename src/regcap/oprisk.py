"""Operational-risk capital: basic-indicator and standardized approaches.

The indicator is average gross income over three consecutive years, after
the standard exclusions (provisions, realized banking-book results,
extraordinary items, insurance income). The firm-wide charge is alpha times
that average; the standardized charge applies a per-business-line beta to
per-line averages. Advanced measurement is an extension hook only.

Negative-income years have no sourced treatment, so a policy object decides:
the default drops negative years from both numerator and denominator (all
negative means zero income), the alternative averages all three as-is.

Rounding: the firm-wide average is itself a money amount (rounded once at
minor-unit scale), and each charge rounds once after its full product. The
standardized total rounds the exact rational sum of the eight line charges,
so it may differ from the sum of the individually rounded line figures by a
minor unit; the total is authoritative.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Callable, Mapping

from .errors import DuplicateAdvancedHook, MissingLine, OperationalRiskError, ValidationFailure
from .money import Money, round_half_even, sum_money
from .record import KeyedEnum, Record

# Firm-wide gross-income multiplier for the basic-indicator approach.
ALPHA = Fraction(15, 100)


class BusinessLine(KeyedEnum):
    CORPORATE_FINANCE = "corporate_finance"
    TRADING_AND_SALES = "trading_and_sales"
    RETAIL_BANKING = "retail_banking"
    COMMERCIAL_BANKING = "commercial_banking"
    PAYMENT_AND_SETTLEMENT = "payment_and_settlement"
    AGENCY_SERVICES = "agency_services"
    ASSET_MANAGEMENT = "asset_management"
    RETAIL_BROKERAGE = "retail_brokerage"

    @classmethod
    def from_key(cls, key: str) -> BusinessLine:
        try:
            return cls(key.strip().lower())
        except ValueError:
            raise ValueError(f"unknown business line {key!r}") from None


class BetaTable(Record, uncompared=("source",)):
    """Per-line multipliers; a table must price all eight lines."""

    __slots__ = ("betas", "source")

    def __init__(self, betas: Mapping[BusinessLine, Fraction], source: str = "builtin") -> None:
        absent = [line.key for line in BusinessLine if line not in betas]
        if absent:
            raise MissingLine(absent)
        for line, beta in betas.items():
            if not 0 <= beta <= 1:
                raise OperationalRiskError(f"beta for {line.key} outside [0, 1]")
        super().__init__(betas, source)


DEFAULT_BETAS = BetaTable(
    betas={
        BusinessLine.CORPORATE_FINANCE: Fraction(18, 100),
        BusinessLine.TRADING_AND_SALES: Fraction(18, 100),
        BusinessLine.RETAIL_BANKING: Fraction(12, 100),
        BusinessLine.COMMERCIAL_BANKING: Fraction(15, 100),
        BusinessLine.PAYMENT_AND_SETTLEMENT: Fraction(18, 100),
        BusinessLine.AGENCY_SERVICES: Fraction(15, 100),
        BusinessLine.ASSET_MANAGEMENT: Fraction(12, 100),
        BusinessLine.RETAIL_BROKERAGE: Fraction(12, 100),
    },
)


class NegativeGiPolicy(KeyedEnum):
    EXCLUDE_NEGATIVE_YEARS = "exclude_negative_years"
    INCLUDE_ALL = "include_all"


# The items gross income excludes, in the order an income file's optional
# columns name them.
INCOME_EXCLUSIONS = (
    "provisions", "banking_book_results", "extraordinary_items", "insurance_income"
)
_excluded = attrgetter(*INCOME_EXCLUSIONS)


class GrossIncomeRecord(Record, defaults=dict.fromkeys(INCOME_EXCLUSIONS)):
    """A raw income figure with its excluded items retained for audit.

    ``effective`` is what enters the capital formulas: the raw amount less
    provisions, realized banking-book results, extraordinary items, and
    insurance income. Raw and effective may both be negative.
    """

    __slots__ = ("amount", *INCOME_EXCLUSIONS)

    @property
    def effective(self) -> Money:
        value = self.amount
        for excluded in _excluded(self):
            if excluded is not None:
                value = value - excluded
        return value


class AnnualIncome(Record):
    """One year's gross income: firm-wide total and/or per-line figures.

    ``per_line`` defaults to a fresh empty mapping.
    """

    __slots__ = ("year", "total", "per_line")

    def __init__(
        self, year: int, total: GrossIncomeRecord | None = None,
        per_line: Mapping[BusinessLine, GrossIncomeRecord] | None = None,
    ) -> None:
        super().__init__(year, total, {} if per_line is None else per_line)

    def effective_total(self) -> Money:
        if self.total is not None:
            return self.total.effective
        if self.per_line:
            return sum_money(record.effective for record in self.per_line.values())
        raise OperationalRiskError(f"year {self.year} has no gross-income data")


class IncomeHistory(Record):
    """Exactly three consecutive annual records, oldest first."""

    __slots__ = ("years",)

    def __init__(self, years: tuple[AnnualIncome, AnnualIncome, AnnualIncome]) -> None:
        if len(years) != 3:
            raise OperationalRiskError(f"need exactly three annual records, got {len(years)}")
        labels = [annual.year for annual in years]
        if labels != [labels[0], labels[0] + 1, labels[0] + 2]:
            raise OperationalRiskError(
                f"years must be consecutive and ascending, got {labels}"
            )
        violations = []
        for annual in years:
            if annual.total is not None and annual.per_line:
                per_line_sum = sum(
                    record.effective.units for record in annual.per_line.values()
                )
                if per_line_sum != annual.total.effective.units:
                    violations.append(
                        f"year {annual.year}: per-line income sums to "
                        f"{per_line_sum}, total says {annual.total.effective.units}"
                        " (minor units)"
                    )
        if violations:
            raise ValidationFailure(violations)
        super().__init__(years)

    def span(self) -> str:
        return f"{self.years[0].year}-{self.years[-1].year}"


def _policy_mean_units(
    unit_values: list[int], policy: NegativeGiPolicy
) -> Fraction:
    """Mean of annual figures in minor units, exact, per negative-year policy."""
    if policy is NegativeGiPolicy.EXCLUDE_NEGATIVE_YEARS:
        kept = [units for units in unit_values if units >= 0]
        if not kept:
            return Fraction(0)
        return Fraction(sum(kept), len(kept))
    return Fraction(sum(unit_values), len(unit_values))


def average_gross_income(
    history: IncomeHistory,
    policy: NegativeGiPolicy = NegativeGiPolicy.EXCLUDE_NEGATIVE_YEARS,
) -> Money:
    """Three-year average of effective gross income under the policy."""
    totals = [annual.effective_total() for annual in history.years]
    mean = _policy_mean_units([t.units for t in totals], policy)
    return Money(round_half_even(mean), totals[0].currency)


def bia_capital(gi: Money) -> Money:
    """Basic-indicator charge: alpha times average income, floored at zero."""
    if gi.units <= 0:
        return Money.zero(gi.currency)
    return gi.scaled(ALPHA)


class TsaResult(Record):
    """Standardized-approach outcome; total is the authoritative figure."""

    __slots__ = ("per_line", "total")


def tsa_capital(
    history: IncomeHistory,
    betas: BetaTable = DEFAULT_BETAS,
    policy: NegativeGiPolicy = NegativeGiPolicy.EXCLUDE_NEGATIVE_YEARS,
) -> TsaResult:
    """Standardized charge: per-line average income times the line's beta.

    Income is measured per line, never firm-wide. Every line must appear in
    every year (explicit zeros allowed). The total rounds the exact rational
    sum of line charges once; a negative aggregate (possible only when
    negative years are included) offsets to zero, never to a capital credit.
    """
    absent = sorted(
        {
            line.key
            for annual in history.years
            for line in BusinessLine
            if line not in annual.per_line
        }
    )
    if absent:
        raise MissingLine(absent)
    currency = history.years[0].effective_total().currency
    per_line: dict[BusinessLine, Money] = {}
    total_exact = Fraction(0)
    for line in BusinessLine:
        units = [annual.per_line[line].effective.units for annual in history.years]
        charge_exact = betas.betas[line] * _policy_mean_units(units, policy)
        per_line[line] = Money(round_half_even(charge_exact), currency)
        total_exact += charge_exact
    total_units = max(round_half_even(total_exact), 0)
    return TsaResult(per_line=per_line, total=Money(total_units, currency))


class ApproachKind(KeyedEnum):
    BASIC_INDICATOR = "basic_indicator"
    STANDARDIZED = "standardized"
    ADVANCED = "advanced"


class OpRiskApproach(Record):
    """One of the three approaches; advanced carries its hook name."""

    __slots__ = ("kind", "hook")

    def __init__(self, kind: ApproachKind, hook: str | None = None) -> None:
        if (kind is ApproachKind.ADVANCED) != (hook is not None):
            raise OperationalRiskError("hook name is required exactly for the advanced approach")
        super().__init__(kind, hook)

    @classmethod
    def basic_indicator(cls) -> OpRiskApproach:
        return cls(ApproachKind.BASIC_INDICATOR)

    @classmethod
    def standardized(cls) -> OpRiskApproach:
        return cls(ApproachKind.STANDARDIZED)

    @classmethod
    def advanced_hook(cls, name: str) -> OpRiskApproach:
        return cls(ApproachKind.ADVANCED, hook=name)

    @property
    def complexity(self) -> int:
        """The kind's position in ApproachKind, which declares the simplest
        first: reverting to a simpler approach needs a supervisory override."""
        return list(ApproachKind).index(self.kind)

    @property
    def key(self) -> str:
        if self.kind is ApproachKind.ADVANCED:
            return f"advanced:{self.hook}"
        return self.kind.key


AdvancedEstimator = Callable[[IncomeHistory], Money]

_ADVANCED_HOOKS: dict[str, AdvancedEstimator] = {}


def register_advanced_hook(name: str, estimator: AdvancedEstimator) -> None:
    """Register an external advanced-measurement estimator under a new name."""
    if name in _ADVANCED_HOOKS:
        raise DuplicateAdvancedHook(
            f"an advanced estimator is already registered as {name!r}"
        )
    _ADVANCED_HOOKS[name] = estimator


def advanced_hook(name: str) -> AdvancedEstimator:
    try:
        return _ADVANCED_HOOKS[name]
    except KeyError:
        raise OperationalRiskError(
            f"no advanced estimator registered as {name!r}"
        ) from None
