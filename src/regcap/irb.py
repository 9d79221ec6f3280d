"""Internal-ratings-based credit parameterization.

Builds the (PD, LGD, EAD, maturity) quadruple per exposure under foundation
or advanced sourcing and applies a pluggable risk-weight function to it. No
supervisory closed form ships here: the engine provides a registration API,
a constant reference function, and a monotonicity gate for anything plugged
in via configuration.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from decimal import Decimal
from fractions import Fraction

from .config import CreditApproach
from .errors import (
    DuplicateFunction,
    InternalRatingsError,
    NonFiniteWeight,
    NonMonotoneFunction,
    OutOfRange,
)
from .model import Portfolio, component_problems
from .money import Money, _divide_half_even
from .record import Record, init_field

# Supervisory foundation inputs: 50% recovery, exposure at nominal value,
# three-year maturity.
FOUNDATION_RECOVERY_RATE = Fraction(1, 2)
FOUNDATION_LGD = 1 - FOUNDATION_RECOVERY_RATE
FOUNDATION_MATURITY_YEARS = Fraction(3)


class IrbParams(Record):
    """The four risk components; every field explicit, no silent defaults, and
    each held to the book's rules: OutOfRange names every field that breaks one."""

    __slots__ = ("pd", "lgd", "ead", "maturity_years")

    def __post_init__(self) -> None:
        problems = component_problems(self.pd, self.lgd, self.ead, self.maturity_years)
        if problems:
            raise OutOfRange("; ".join(problems))


RiskWeightFunction = Callable[[IrbParams], "float | int | Fraction | Decimal"]


def components(portfolio: Portfolio, approach: CreditApproach) -> tuple[tuple, ...]:
    """The (pds, lgds, ead_units, maturities) columns an IRB approach prices a
    book with. Foundation takes the bank's pd and the supervisory inputs above."""
    if approach is not CreditApproach.IRB_FOUNDATION:
        return portfolio.pds, portfolio.lgds, portfolio.ead_units, portfolio.maturities
    count = len(portfolio.pds)
    return (portfolio.pds, (FOUNDATION_LGD,) * count, portfolio.nominal_units,
            (FOUNDATION_MATURITY_YEARS,) * count)


def missing_components(portfolio: Portfolio, approach: CreditApproach) -> list[str]:
    """Every component a book lacks under an IRB approach, line by line, and
    pd, lgd, ead, maturity within a line."""
    sources = ("irb",) + ("advanced irb",) * 3
    return [
        f"exposure {exposure_id!r}: {name} required for {source}"
        for exposure_id, *line in zip(portfolio.ids, *components(portfolio, approach))
        for name, source, value in zip(("pd", "lgd", "ead", "maturity"), sources, line)
        if value is None
    ]


def params_for_exposure(
    pd: Fraction, lgd: Fraction, ead_units: int, maturity_years: Fraction, currency: str
) -> IrbParams:
    """IrbParams of components that already hold to the book's rules, as a
    Portfolio checks them when built, and its ead Money, filled in without
    their public constructors' check."""
    ead = object.__new__(Money)
    init_field(ead, "units", ead_units)
    init_field(ead, "currency", currency)
    params = object.__new__(IrbParams)
    init_field(params, "pd", pd)
    init_field(params, "lgd", lgd)
    init_field(params, "ead", ead)
    init_field(params, "maturity_years", maturity_years)
    return params


def evaluate_weight(fn: RiskWeightFunction, params: IrbParams) -> tuple[int, int]:
    """Call a risk-weight function and vet the result (finite, >= 0).

    Returns the weight's exact (numerator, denominator), in lowest terms with
    a positive denominator. A float is read at its shortest round-trip
    decimal (``repr``); an int, a bool, a Fraction or a finite Decimal
    exactly; anything else is refused.
    """
    value = fn(params)
    if isinstance(value, float) and math.isfinite(value):
        numerator, denominator = Decimal(repr(value)).as_integer_ratio()
    elif isinstance(value, (int, Fraction)) or (
        isinstance(value, Decimal) and value.is_finite()
    ):
        numerator, denominator = value.as_integer_ratio()
    else:
        raise NonFiniteWeight(f"risk-weight function returned {value!r}")
    if numerator < 0:
        weight = Fraction(numerator, denominator)
        raise NonFiniteWeight(f"risk-weight function returned negative weight {weight}")
    return numerator, denominator


# The registration gate samples pd and lgd at 20 evenly spaced points each,
# both ends of [0, 1] included, at a fixed ead and the foundation maturity.
GATE_STEPS = 20
GATE_VALUES = tuple(Fraction(i, GATE_STEPS - 1) for i in range(GATE_STEPS))
GATE_EAD = Money(100_00)


def check_monotonicity(fn: RiskWeightFunction) -> str | None:
    """Grid-check that a function never decreases in pd or in lgd.

    Returns None when it never does, else a message naming the first
    decreasing step. Every grid point is evaluated once, up front; then every
    pd step is checked at each lgd, and every lgd step at each pd. Weights
    are compared as integer ratios by cross-multiplying (denominators are
    positive).
    """
    # Constants that hold to the book's rules, as tests/test_irb.py checks,
    # so each point skips the check.
    weights = [
        [evaluate_weight(fn, params_for_exposure(
            pd, lgd, GATE_EAD.units, FOUNDATION_MATURITY_YEARS, GATE_EAD.currency
        )) for lgd in GATE_VALUES]
        for pd in GATE_VALUES
    ]
    last = GATE_STEPS - 1
    steps = [((i, j), (i + 1, j)) for j in range(GATE_STEPS) for i in range(last)]
    steps += [((i, j), (i, j + 1)) for i in range(GATE_STEPS) for j in range(last)]
    for (i, j), (k, m) in steps:
        (low_n, low_d), (high_n, high_d) = weights[i][j], weights[k][m]
        if high_n * low_d < low_n * high_d:
            return (
                f"weight decreases from {Fraction(low_n, low_d)} to "
                f"{Fraction(high_n, high_d)} between "
                f"(pd={GATE_VALUES[i]}, lgd={GATE_VALUES[j]}) and "
                f"(pd={GATE_VALUES[k]}, lgd={GATE_VALUES[m]})"
            )
    return None


# Reference function: weight 1 regardless of inputs. Useful for wiring tests
# and as the documented default until a supervisory formula is registered.
# Being constant it is monotone by construction, so it skips the gate.
_FUNCTIONS: dict[str, RiskWeightFunction] = {"constant": lambda params: 1}


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
        raise InternalRatingsError(f"no risk-weight function registered as {name!r}") from None


def rwa_irb(params: IrbParams, fn: RiskWeightFunction | str) -> Money:
    """Risk-weighted amount ead x f(params), as the engine prices an IRB line.

    The weight is vetted at every ead, zero included.
    """
    if isinstance(fn, str):
        fn = risk_weight_function(fn)
    numerator, denominator = evaluate_weight(fn, params)
    ead = params.ead
    return Money(_divide_half_even(ead.units * numerator, denominator), ead.currency)
