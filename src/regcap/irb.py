"""Internal-ratings-based credit parameterization.

Builds the (PD, LGD, EAD, maturity) quadruple per exposure under foundation
or advanced sourcing and applies a pluggable risk-weight function to it. No
supervisory closed form ships here: the engine provides a registration API,
a constant reference function, and a monotonicity gate for anything plugged
in via configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable

from .config import CreditApproach
from .errors import NonFiniteWeight, OutOfRange, UnknownFunction, ValidationFailure
from .model import Exposure
from .money import Money

# Supervisory foundation inputs: 50% recovery, exposure at nominal value,
# three-year maturity.
FOUNDATION_RECOVERY_RATE = Fraction(1, 2)
FOUNDATION_LGD = 1 - FOUNDATION_RECOVERY_RATE
FOUNDATION_MATURITY_YEARS = Fraction(3)


@dataclass(frozen=True, slots=True)
class IrbParams:
    """The four risk components; every field explicit, no silent defaults."""

    pd: Fraction
    lgd: Fraction
    ead: Money
    maturity_years: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.pd.numerator <= self.pd.denominator:
            raise OutOfRange(f"pd {self.pd} outside [0, 1]")
        if not 0 <= self.lgd.numerator <= self.lgd.denominator:
            raise OutOfRange(f"lgd {self.lgd} outside [0, 1]")
        if self.ead.is_negative:
            raise OutOfRange(f"ead {self.ead} is negative")
        if self.maturity_years.numerator <= 0:
            raise OutOfRange(f"maturity {self.maturity_years} must be positive")


RiskWeightFunction = Callable[[IrbParams], Fraction]


def foundation_params(pd: Fraction, nominal: Money) -> IrbParams:
    """Foundation sourcing: bank supplies PD, supervisor fixes the rest."""
    return IrbParams(
        pd=pd,
        lgd=FOUNDATION_LGD,
        ead=nominal,
        maturity_years=FOUNDATION_MATURITY_YEARS,
    )


def params_for_exposure(exposure: Exposure, approach: CreditApproach) -> IrbParams:
    """Source the risk components for one exposure under an IRB approach."""
    if exposure.pd is None:
        raise ValidationFailure([f"exposure {exposure.id!r}: pd required for irb"])
    if approach is CreditApproach.IRB_FOUNDATION:
        return foundation_params(exposure.pd, exposure.nominal)
    missing = [
        name
        for name, value in (
            ("lgd", exposure.lgd),
            ("ead", exposure.ead),
            ("maturity", exposure.maturity_years),
        )
        if value is None
    ]
    if missing:
        raise ValidationFailure(
            [f"exposure {exposure.id!r}: {m} required for advanced irb" for m in missing]
        )
    return IrbParams(
        pd=exposure.pd,
        lgd=exposure.lgd,
        ead=exposure.ead,
        maturity_years=exposure.maturity_years,
    )


def _coerce_weight(value) -> Fraction:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteWeight(f"risk-weight function returned {value!r}")
        return Fraction(Decimal(repr(value)))
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, Decimal):
        if not value.is_finite():
            raise NonFiniteWeight(f"risk-weight function returned {value!r}")
        return Fraction(value)
    raise NonFiniteWeight(f"risk-weight function returned {value!r}")


def evaluate_weight(fn: RiskWeightFunction, params: IrbParams) -> Fraction:
    """Call a risk-weight function and vet the result (finite, >= 0)."""
    weight = _coerce_weight(fn(params))
    if weight < 0:
        raise NonFiniteWeight(f"risk-weight function returned negative weight {weight}")
    return weight


@dataclass(frozen=True)
class MonotonicityGrid:
    """Sampling spec for the registration gate; covers [0, 1] endpoints."""

    pd_steps: int = 20
    lgd_steps: int = 20
    ead: Money = Money(100_00)
    maturity_years: Fraction = FOUNDATION_MATURITY_YEARS

    def pd_values(self) -> list[Fraction]:
        return [Fraction(i, self.pd_steps - 1) for i in range(self.pd_steps)]

    def lgd_values(self) -> list[Fraction]:
        return [Fraction(i, self.lgd_steps - 1) for i in range(self.lgd_steps)]


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of a grid check; on failure, the first violating pair."""

    passed: bool
    witness: tuple[IrbParams, IrbParams] | None = None
    weights: tuple[Fraction, Fraction] | None = None

    def message(self) -> str:
        if self.passed:
            return "monotone non-decreasing in pd and lgd over the grid"
        a, b = self.witness
        wa, wb = self.weights
        return (
            f"weight decreases from {wa} to {wb} between "
            f"(pd={a.pd}, lgd={a.lgd}) and (pd={b.pd}, lgd={b.lgd})"
        )


def check_monotonicity(
    fn: RiskWeightFunction, grid: MonotonicityGrid = MonotonicityGrid()
) -> MonotonicityReport:
    """Grid-check that a function never decreases in pd or in lgd."""
    pds = grid.pd_values()
    lgds = grid.lgd_values()
    cache: dict[tuple[Fraction, Fraction], tuple[IrbParams, Fraction]] = {}

    def point(pd: Fraction, lgd: Fraction) -> tuple[IrbParams, Fraction]:
        key = (pd, lgd)
        if key not in cache:
            params = IrbParams(pd=pd, lgd=lgd, ead=grid.ead,
                               maturity_years=grid.maturity_years)
            cache[key] = (params, evaluate_weight(fn, params))
        return cache[key]

    steps = [((prev, lgd), (cur, lgd)) for lgd in lgds for prev, cur in zip(pds, pds[1:])]
    steps += [((pd, prev), (pd, cur)) for pd in pds for prev, cur in zip(lgds, lgds[1:])]
    for low, high in steps:
        (low_params, low_weight), (high_params, high_weight) = point(*low), point(*high)
        if high_weight < low_weight:
            return MonotonicityReport(
                passed=False,
                witness=(low_params, high_params),
                weights=(low_weight, high_weight),
            )
    return MonotonicityReport(passed=True)


_FUNCTIONS: dict[str, RiskWeightFunction] = {}


def register_risk_weight_function(
    name: str,
    fn: RiskWeightFunction,
    grid: MonotonicityGrid | None = MonotonicityGrid(),
) -> None:
    """Register a named risk-weight function, gating on monotonicity.

    Pass grid=None to skip the gate (e.g. for deliberately bad functions
    under test via direct calls, which never need registration).
    """
    if grid is not None:
        report = check_monotonicity(fn, grid)
        if not report.passed:
            raise ValueError(f"{name!r} rejected: {report.message()}")
    _FUNCTIONS[name] = fn


def risk_weight_function(name: str) -> RiskWeightFunction:
    """Resolve a registered function by config name."""
    try:
        return _FUNCTIONS[name]
    except KeyError:
        raise UnknownFunction(f"no risk-weight function registered as {name!r}") from None


def rwa_irb(params: IrbParams, fn: RiskWeightFunction | str) -> Money:
    """Risk-weighted amount ead x f(params); exactly zero at zero ead."""
    if isinstance(fn, str):
        fn = risk_weight_function(fn)
    if params.ead.units == 0:
        return Money.zero(params.ead.currency)
    return params.ead.scaled(evaluate_weight(fn, params))


# Reference function: weight 1 regardless of inputs. Useful for wiring tests
# and as the documented default until a supervisory formula is registered.
register_risk_weight_function("constant", lambda params: Fraction(1))
