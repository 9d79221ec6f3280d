"""Exception types shared across the engine.

Each type names the engine area it comes from in ``layer``; the command
line prints that label in its one-line diagnostic. The types raised by
record constructors for an out-of-range value are also ``ValueError``s.
"""

from __future__ import annotations


class RegcapError(Exception):
    """Base class for every error raised by this package."""

    layer = "engine"


class CurrencyMismatch(RegcapError):
    """Arithmetic or comparison attempted across different currencies."""

    layer = "core model"


class UnknownRating(RegcapError):
    """Rating token outside the published bucket grammar."""

    layer = "core model"


class ValidationFailure(RegcapError, ValueError):
    """Carries every violation found, never just the first."""

    layer = "core model"

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class MissingCell(RegcapError):
    """Risk-weight table has no entry for a (class, bucket) pair."""

    layer = "standardized credit"


class UnknownCategory(RegcapError):
    """Off-balance category does not resolve in the active CCF table."""

    layer = "standardized credit"


class InvalidWeight(RegcapError, ValueError):
    """Weight cell or conversion factor outside its legal interval."""

    layer = "standardized credit"


class OutOfRange(RegcapError, ValueError):
    """Probability or fraction outside its legal interval."""

    layer = "internal ratings"


class UnknownFunction(RegcapError):
    """No risk-weight function registered under the requested name."""

    layer = "internal ratings"


class NonFiniteWeight(RegcapError):
    """A risk-weight function returned a non-finite or negative weight."""

    layer = "internal ratings"


class NonMonotoneFunction(RegcapError):
    """A risk-weight function decreases in pd or lgd on the registration grid."""

    layer = "internal ratings"


class DuplicateFunction(RegcapError):
    """A risk-weight function is already registered under the requested name."""

    layer = "internal ratings"


class IncompleteHistory(RegcapError):
    """Gross-income history does not cover exactly three consecutive years."""

    layer = "operational risk"


class MissingLine(RegcapError):
    """Business lines absent from a per-line income statement."""

    layer = "operational risk"

    def __init__(self, lines: list[str]):
        self.lines = sorted(lines)
        super().__init__("missing business lines: " + ", ".join(self.lines))


class InvalidBeta(RegcapError, ValueError):
    """Business-line multiplier outside [0, 1]."""

    layer = "operational risk"


class InvalidApproach(RegcapError, ValueError):
    """Hook name given to a non-advanced approach, or missing from an advanced one."""

    layer = "operational risk"


class DowngradeWithoutOverride(RegcapError):
    """Operational-risk approach moved to a simpler one without the override flag."""

    layer = "operational risk"


class UnregisteredAdvancedHook(RegcapError):
    """Advanced operational-risk approach selected but no estimator registered."""

    layer = "operational risk"


class DuplicateAdvancedHook(RegcapError):
    """An advanced estimator is already registered under the requested name."""

    layer = "operational risk"


class InvalidOverride(RegcapError, ValueError):
    """Supervisory minimum-ratio override below the 8% floor."""

    layer = "aggregation"


class NegativeBlock(RegcapError, ValueError):
    """A denominator block (credit RWA or a capital charge) below zero."""

    layer = "aggregation"


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


class MissingPeriod(RegcapError):
    """Disclosure requested without a reporting period."""

    layer = "input/config"


class ConfigError(RegcapError, ValueError):
    """Engine configuration is internally inconsistent."""

    layer = "input/config"
