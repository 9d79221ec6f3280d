"""Internal-ratings-based credit parameterization.

Builds the (PD, LGD, EAD, maturity) quadruple per exposure under foundation
or advanced sourcing and applies a pluggable risk-weight function to it. No
supervisory closed form ships here: the engine provides a registration API,
a constant reference function, and a monotonicity gate for anything plugged
in via configuration.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Callable

from .config import CreditApproach
from .errors import (
    DuplicateFunction,
    NonFiniteWeight,
    NonMonotoneFunction,
    OutOfRange,
    UnknownFunction,
    ValidationFailure,
)
from .model import Portfolio
from .money import Money
from .record import Record, init_field

# Supervisory foundation inputs: 50% recovery, exposure at nominal value,
# three-year maturity.
FOUNDATION_RECOVERY_RATE = Fraction(1, 2)
FOUNDATION_LGD = 1 - FOUNDATION_RECOVERY_RATE
FOUNDATION_MATURITY_YEARS = Fraction(3)


class IrbParams(Record):
    """The four risk components; every field explicit, no silent defaults."""

    __slots__ = ("pd", "lgd", "ead", "maturity_years")

    def __init__(self, pd: Fraction, lgd: Fraction, ead: Money, maturity_years: Fraction) -> None:
        if not 0 <= pd.numerator <= pd.denominator:
            raise OutOfRange(f"pd {pd} outside [0, 1]")
        if not 0 <= lgd.numerator <= lgd.denominator:
            raise OutOfRange(f"lgd {lgd} outside [0, 1]")
        if ead.is_negative:
            raise OutOfRange(f"ead {ead} is negative")
        if maturity_years.numerator <= 0:
            raise OutOfRange(f"maturity {maturity_years} must be positive")
        _set_components(self, pd, lgd, ead, maturity_years)


def _set_components(
    params: IrbParams, pd: Fraction, lgd: Fraction, ead: Money, maturity_years: Fraction
) -> IrbParams:
    """Fill in the four fields of ``params`` without checking them."""
    init_field(params, "pd", pd)
    init_field(params, "lgd", lgd)
    init_field(params, "ead", ead)
    init_field(params, "maturity_years", maturity_years)
    return params


RiskWeightFunction = Callable[[IrbParams], Fraction]


def foundation_params(pd: Fraction, nominal: Money) -> IrbParams:
    """Foundation sourcing: bank supplies PD, supervisor fixes the rest."""
    return IrbParams(
        pd=pd,
        lgd=FOUNDATION_LGD,
        ead=nominal,
        maturity_years=FOUNDATION_MATURITY_YEARS,
    )


def params_for_exposure(
    portfolio: Portfolio, index: int, approach: CreditApproach
) -> IrbParams:
    """Source the risk components of line ``index`` of a book under an IRB approach.

    The Portfolio's constructor has already range-checked every component,
    so IrbParams is filled in without its public constructor's second check.
    """
    pd = portfolio.pds[index]
    if pd is None:
        raise ValidationFailure([f"exposure {portfolio.ids[index]!r}: pd required for irb"])
    if approach is CreditApproach.IRB_FOUNDATION:
        return _set_components(
            object.__new__(IrbParams), pd, FOUNDATION_LGD,
            Money(portfolio.nominal_units[index], portfolio.currency),
            FOUNDATION_MATURITY_YEARS,
        )
    lgd, ead, maturity_years = (
        portfolio.lgds[index], portfolio.ead_units[index], portfolio.maturities[index]
    )
    if lgd is None or ead is None or maturity_years is None:
        raise ValidationFailure([
            f"exposure {portfolio.ids[index]!r}: {name} required for advanced irb"
            for name, value in (("lgd", lgd), ("ead", ead), ("maturity", maturity_years))
            if value is None
        ])
    return _set_components(
        object.__new__(IrbParams), pd, lgd, Money(ead, portfolio.currency), maturity_years
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
    if weight.numerator < 0:
        raise NonFiniteWeight(f"risk-weight function returned negative weight {weight}")
    return weight


# The registration gate samples pd and lgd at 20 evenly spaced points each,
# both ends of [0, 1] included, at a fixed ead and the foundation maturity.
GATE_STEPS = 20
GATE_VALUES = tuple(Fraction(i, GATE_STEPS - 1) for i in range(GATE_STEPS))
GATE_EAD = Money(100_00)


def check_monotonicity(fn: RiskWeightFunction) -> str | None:
    """Grid-check that a function never decreases in pd or in lgd.

    Returns None when it never does, else a message naming the first
    decreasing step. Every pd step is checked at each lgd, then every lgd
    step at each pd; each grid point is evaluated at most once, when a step
    first needs it.
    """
    points: list[list[tuple[IrbParams, Fraction] | None]] = [
        [None] * GATE_STEPS for _ in range(GATE_STEPS)
    ]

    def point(i: int, j: int) -> tuple[IrbParams, Fraction]:
        entry = points[i][j]
        if entry is None:
            params = IrbParams(pd=GATE_VALUES[i], lgd=GATE_VALUES[j], ead=GATE_EAD,
                               maturity_years=FOUNDATION_MATURITY_YEARS)
            entry = points[i][j] = (params, evaluate_weight(fn, params))
        return entry

    last = GATE_STEPS - 1
    steps = [((i, j), (i + 1, j)) for j in range(GATE_STEPS) for i in range(last)]
    steps += [((i, j), (i, j + 1)) for i in range(GATE_STEPS) for j in range(last)]
    for low, high in steps:
        (a, low_weight), (b, high_weight) = point(*low), point(*high)
        if high_weight < low_weight:
            return (
                f"weight decreases from {low_weight} to {high_weight} between "
                f"(pd={a.pd}, lgd={a.lgd}) and (pd={b.pd}, lgd={b.lgd})"
            )
    return None


# Reference function: weight 1 regardless of inputs. Useful for wiring tests
# and as the documented default until a supervisory formula is registered.
# Being constant it is monotone by construction, so it skips the gate.
_FUNCTIONS: dict[str, RiskWeightFunction] = {"constant": lambda params: Fraction(1)}


def register_risk_weight_function(name: str, fn: RiskWeightFunction) -> None:
    """Register a named risk-weight function that passes the monotonicity gate.

    A name already taken, the built-in "constant" included, is refused.
    """
    if name in _FUNCTIONS:
        raise DuplicateFunction(f"a risk-weight function is already registered as {name!r}")
    problem = check_monotonicity(fn)
    if problem is not None:
        raise NonMonotoneFunction(f"{name!r} rejected: {problem}")
    _FUNCTIONS[name] = fn


def risk_weight_function(name: str) -> RiskWeightFunction:
    """Resolve a registered function by config name."""
    try:
        return _FUNCTIONS[name]
    except KeyError:
        raise UnknownFunction(f"no risk-weight function registered as {name!r}") from None


def rwa_irb(params: IrbParams, fn: RiskWeightFunction | str) -> Money:
    """Risk-weighted amount ead x f(params), as the engine prices an IRB line.

    The weight is vetted at every ead, zero included.
    """
    if isinstance(fn, str):
        fn = risk_weight_function(fn)
    return params.ead.scaled(evaluate_weight(fn, params))
