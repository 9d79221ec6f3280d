"""The benchmark's own IRB risk-weight function, registered by name.

It returns a float, so regcap reads it at its shortest round-trip decimal.
It is non-decreasing in PD and LGD, so it passes the registration gate.
"""

from __future__ import annotations

import math

NAME = "perfbench_float"


def weight(pd, lgd, maturity) -> float:
    return float(lgd) * (0.1 + 3.0 * math.sqrt(float(pd))) * (0.9 + 0.04 * float(maturity))


class CountingWeight:
    """The registered function: weight(params), counting its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, params) -> float:
        self.calls += 1
        return weight(params.pd, params.lgd, params.maturity_years)
