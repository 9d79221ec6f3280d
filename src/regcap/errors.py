"""Exception types shared across the engine.

Each engine area has one class that names it in ``layer``:
``CoreModelError``, ``StandardizedCreditError``, ``InternalRatingsError``,
``OperationalRiskError`` and ``AggregationError``; ``ParseError`` and
``ConfigError`` name the inputs (``input/config``) and ``UsageError`` the
command-line arguments the parser refuses (``usage``). Every other error
inherits its area's ``layer``, and the command line prints that label in
its one-line diagnostic. The core-model, standardized, operational-risk,
aggregation and config classes are ``ValueError``s, as is ``OutOfRange``,
so a record constructor given an out-of-range value raises a ``ValueError``.
"""

from __future__ import annotations


class RegcapError(Exception):
    """Base class for every error raised by this package."""

    layer = "engine"


class CoreModelError(RegcapError, ValueError):
    """Money, rating tokens and exposures: a currency mismatch or an unknown rating."""

    layer = "core model"


class StandardizedCreditError(RegcapError, ValueError):
    """Lookup tables: a missing cell, an unknown category, a weight out of range."""

    layer = "standardized credit"


class InternalRatingsError(RegcapError):
    """Risk-weight functions and their inputs; an unregistered function name."""

    layer = "internal ratings"


class OperationalRiskError(RegcapError, ValueError):
    """Income histories, multipliers, approaches and advanced estimators."""

    layer = "operational risk"


class AggregationError(RegcapError, ValueError):
    """The denominator's blocks and the supervisory minimum-ratio override."""

    layer = "aggregation"


class ValidationFailure(CoreModelError):
    """Carries every violation found, never just the first."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class OutOfRange(InternalRatingsError, ValueError):
    """Probability or fraction outside its legal interval."""


class NonFiniteWeight(InternalRatingsError):
    """A risk-weight function returned a non-finite or negative weight."""


class NonMonotoneFunction(InternalRatingsError):
    """A risk-weight function decreases in pd or lgd on the registration grid."""


class DuplicateFunction(InternalRatingsError):
    """A risk-weight function is already registered under the requested name."""


class MissingLine(OperationalRiskError):
    """Business lines absent from a per-line income statement."""

    def __init__(self, lines: list[str]):
        self.lines = sorted(lines)
        super().__init__("missing business lines: " + ", ".join(self.lines))


class DuplicateAdvancedHook(OperationalRiskError):
    """An advanced estimator is already registered under the requested name."""


class ParseError(RegcapError):
    """Input file violates its schema; cites the offending location."""

    layer = "input/config"

    def __init__(self, reason: str, line: int | None = None, column: str | None = None):
        self.reason = reason
        self.line = line
        self.column = column
        where = []
        if line is not None:
            where.append(f"line {line}")
        if column is not None:
            where.append(f"column {column!r}")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {reason}" if prefix else reason)


class ConfigError(RegcapError, ValueError):
    """Engine configuration is inconsistent or unreadable, or a disclosure
    has no reporting period."""

    layer = "input/config"


class UsageError(RegcapError):
    """Command-line arguments the parser refuses: an unknown flag, a value
    outside a flag's choices, or a required flag left out."""

    layer = "usage"
