"""Run orchestration: wiring credit, operational, and market blocks.

run_compute is the full pipeline behind the command line: resolve tables,
compute the credit block per the configured approach, the operational block
per its approach, fold in the market input, and judge compliance. run_compare
puts the credit-only regime next to the full one, and run_disclose shapes a
computed result into the semiannual disclosure document. Each result keeps
only what its run produced; what the config decides is read from the config.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from operator import is_

from .aggregation import PillarOneInputs, compliance
from .config import CreditApproach, EngineConfig, Regime
from .errors import ConfigError, ValidationFailure
from .fileio import load_betas, load_ccf, load_risk_weights
from .irb import (
    components,
    evaluate_weight,
    missing_components,
    params_for_exposure,
    risk_weight_function,
    rwa_irb,  # noqa: F401  not called here; perfbench's tracer spans it by this name
)
from .model import CapitalBase, Portfolio
from .money import Money, _divide_half_even, format_percent, fraction_to_decimal_text
from .oprisk import (
    ApproachKind,
    DEFAULT_BETAS,
    IncomeHistory,
    advanced_hook,
    average_gross_income,
    bia_capital,
    tsa_capital,
)
from .record import Record
from .standardized import DEFAULT_CCF, DEFAULT_RISK_WEIGHTS, rwa_portfolio


class TableSet(Record):
    """The three active lookup tables with their provenance labels."""

    __slots__ = ("risk_weights", "ccf", "betas")


def resolve_tables(config: EngineConfig) -> TableSet:
    """Load tables from configured paths, falling back to the built-ins."""
    return TableSet(
        risk_weights=(
            load_risk_weights(config.risk_weights_path)
            if config.risk_weights_path
            else DEFAULT_RISK_WEIGHTS
        ),
        ccf=load_ccf(config.ccf_path) if config.ccf_path else DEFAULT_CCF,
        betas=load_betas(config.betas_path) if config.betas_path else DEFAULT_BETAS,
    )


class IrbColumns(Record):
    """The internal-ratings credit lines as columns, in input order.

    Line i is exposure ``ids[i]`` at the exact weight
    ``weight_numerators[i] / weight_denominators[i]`` (in lowest terms, the
    denominator positive) on an ead of ``ead_units[i]``, priced to
    ``units[i]`` minor units of the total's currency. The pd, lgd, maturity
    and weight columns hold the texts the reports print, formatted once
    when the line is priced.
    """

    __slots__ = (
        "ids", "units", "pd_texts", "lgd_texts", "maturity_texts", "weight_numerators",
        "weight_denominators", "weight_texts", "ead_units", "off_balance",
    )


class CreditResult(Record):
    """Credit block outcome: the per-line columns plus the exact total."""

    __slots__ = ("total_rwa", "lines")


class OpRiskResult(
    Record, defaults=dict(average_income=None, tsa=None, income_span=None, note=None)
):
    """Operational block outcome; note explains a zero-by-absence charge."""

    __slots__ = ("charge", "average_income", "tsa", "income_span", "note")


class ComputeResult(Record):
    __slots__ = (
        "config", "portfolio", "capital", "tables", "credit", "oprisk",
        "market_charge", "report",
    )

    @property
    def exit_status(self) -> int:
        return 0 if self.report.compliant else 1


def _texts(values: tuple[Fraction, ...], render) -> tuple[str, ...]:
    """``render(value)`` for each value, rendered once per distinct object,
    with one string per distinct text.

    Keyed by identity, which ``values`` keeps unique while it holds them:
    hashing a Fraction costs more than rendering it, and a loaded book shares
    one object per distinct token. Distinct objects often render alike (a pd
    has many more digits than its two-decimal percent), so equal texts are
    shared.
    """
    rendered = {id(value): value for value in values}
    shared: dict[str, str] = {}
    for key, value in rendered.items():
        text = render(value)
        rendered[key] = shared.setdefault(text, text)
    return tuple([rendered[id(value)] for value in values])


def _hundredths(values: tuple[Fraction, ...]) -> list[int]:
    """Each value in hundredths of a percent, rounded half-even as
    ``format_percent`` rounds it, computed once per distinct object (keyed by
    identity, as in ``_texts``)."""
    counts = {id(value): value for value in values}
    for key, value in counts.items():
        numerator, denominator = value.as_integer_ratio()
        counts[key] = _divide_half_even(numerator * 10_000, denominator)
    return [counts[id(value)] for value in values]


def _percent_texts(hundredths: list[int], texts: dict[int, str]) -> tuple[str, ...]:
    """The text ``format_percent`` prints for each count of hundredths (all
    >= 0), built once per count and kept in ``texts`` for the next column."""
    for count in set(hundredths).difference(texts):
        texts[count] = f"{count // 100}.{count % 100:02d}%"
    return tuple(map(texts.__getitem__, hundredths))


def _credit_block(config: EngineConfig, portfolio: Portfolio, tables: TableSet) -> CreditResult:
    if config.credit_approach is CreditApproach.STANDARDIZED:
        lines, total = rwa_portfolio(
            portfolio, tables.risk_weights, tables.ccf, config.bank_policy
        )
        return CreditResult(total_rwa=total, lines=lines)
    fn = risk_weight_function(config.irb_function)
    pds, lgds, eads, maturities = components(portfolio, config.credit_approach)
    # Identity tests in C: ``None in column`` would call Fraction.__eq__ per line.
    if any(map(is_, chain(pds, lgds, eads, maturities), repeat(None))):
        raise ValidationFailure(missing_components(portfolio, config.credit_approach))
    currency = portfolio.currency
    units, numerators, denominators, weights = [], [], [], []
    for pd, lgd, ead, maturity in zip(pds, lgds, eads, maturities):
        numerator, denominator = evaluate_weight(
            fn, params_for_exposure(pd, lgd, ead, maturity, currency)
        )
        # One half-even division per figure: the line's units, and its
        # weight in hundredths of a percent (the weight is >= 0).
        units.append(_divide_half_even(ead * numerator, denominator))
        weights.append(_divide_half_even(numerator * 10_000, denominator))
        numerators.append(numerator)
        denominators.append(denominator)
    # A line missing a component has been refused, so the book's columns
    # hold a value on every line; pd and lgd are in [0, 1].
    percent_texts: dict[int, str] = {}
    lines = IrbColumns(
        portfolio.ids, tuple(units),
        _percent_texts(_hundredths(pds), percent_texts),
        _percent_texts(_hundredths(lgds), percent_texts),
        _texts(maturities, fraction_to_decimal_text),
        tuple(numerators), tuple(denominators), _percent_texts(weights, percent_texts), eads,
        tuple([category is not None for category in portfolio.categories]),
    )
    return CreditResult(total_rwa=Money(sum(units), currency), lines=lines)


def _oprisk_block(
    config: EngineConfig, income: IncomeHistory | None, tables: TableSet, currency: str
) -> OpRiskResult:
    approach = config.oprisk_approach
    if approach.kind is ApproachKind.ADVANCED:  # an unregistered hook fails on any run
        estimator = advanced_hook(approach.hook)
    if income is None:
        return OpRiskResult(
            charge=Money.zero(currency),
            note="no income history supplied; operational charge taken as zero",
        )
    if approach.kind is ApproachKind.BASIC_INDICATOR:
        average = average_gross_income(income, config.negative_gi_policy)
        return OpRiskResult(
            charge=bia_capital(average),
            average_income=average,
            income_span=income.span(),
        )
    if approach.kind is ApproachKind.STANDARDIZED:
        result = tsa_capital(income, tables.betas, config.negative_gi_policy)
        return OpRiskResult(
            charge=result.total,
            tsa=result,
            income_span=income.span(),
        )
    charge = estimator(income)
    if charge.is_negative:
        raise ConfigError(
            f"advanced estimator {approach.hook!r} returned a negative charge"
        )
    return OpRiskResult(charge=charge, income_span=income.span())


def run_compute(
    config: EngineConfig,
    portfolio: Portfolio,
    capital: CapitalBase,
    income: IncomeHistory | None = None,
    market_charge: Money | None = None,
    tables: TableSet | None = None,
) -> ComputeResult:
    """The full pipeline: credit + operational + market into compliance."""
    if tables is None:
        tables = resolve_tables(config)
    if config.regime is Regime.BASEL1:
        if market_charge is not None and market_charge.units != 0:
            raise ConfigError(
                "the credit-only regime admits no market charge in the denominator"
            )
        if income is not None:
            raise ConfigError(
                "the credit-only regime admits no operational-risk income data"
            )
    credit = _credit_block(config, portfolio, tables)
    return _complete(config, portfolio, capital, income, market_charge, tables, credit)


def _complete(
    config: EngineConfig,
    portfolio: Portfolio,
    capital: CapitalBase,
    income: IncomeHistory | None,
    market_charge: Money | None,
    tables: TableSet,
    credit: CreditResult,
) -> ComputeResult:
    """Add the operational and market blocks to a priced credit block and judge."""
    currency = config.currency
    zero = Money.zero(currency)
    if config.regime is Regime.BASEL2:
        oprisk = _oprisk_block(config, income, tables, currency)
        market = market_charge if market_charge is not None else zero
    else:
        oprisk = None
        market = None
    inputs = PillarOneInputs(
        credit_rwa=credit.total_rwa,
        market_capital_charge=market if market is not None else zero,
        oprisk_capital_charge=oprisk.charge if oprisk is not None else zero,
    )
    report = compliance(capital, inputs, config.adjustment())
    return ComputeResult(
        config=config,
        portfolio=portfolio,
        capital=capital,
        tables=tables,
        credit=credit,
        oprisk=oprisk,
        market_charge=market,
        report=report,
    )


class Novelty(Record):
    """One reform marker in the regime comparison."""

    __slots__ = ("name", "applied", "note")


class CompareResult(Record):
    """Side-by-side of the credit-only and full regimes on the same book."""

    __slots__ = ("credit_only", "full", "required_delta", "novelties")

    @property
    def exit_status(self) -> int:
        both = self.credit_only.report.compliant and self.full.report.compliant
        return 0 if both else 1


def _novelties(result: ComputeResult) -> tuple[Novelty, ...]:
    config = result.config
    oprisk = result.oprisk
    adjustment_active = config.adjustment() is not None
    market_units = result.market_charge.units if result.market_charge else 0
    return (
        Novelty(
            name="operational risk enters the denominator",
            applied=oprisk is not None and oprisk.charge.units > 0,
            note=(
                f"charge {oprisk.charge}" if oprisk is not None else "no charge"
            ),
        ),
        Novelty(
            name="choice of methods per risk type",
            applied=True,
            note=(
                f"credit: {config.credit_approach.key};"
                f" operational: {config.oprisk_approach.key if oprisk else 'none'};"
                f" market: {'input figure' if market_units else 'none'}"
            ),
        ),
        Novelty(
            name="recognition of risk-mitigation techniques",
            applied=False,
            note="not modeled by this engine",
        ),
        Novelty(
            name="individual supervisory requirements above the floor",
            applied=adjustment_active,
            note=(
                f"minimum ratio {format_percent(result.report.minimum_ratio)},"
                f" add-on {result.report.addon}"
                if adjustment_active
                else "none configured"
            ),
        ),
        Novelty(
            name="semiannual public disclosure",
            applied=config.disclosure_period is not None,
            note=config.disclosure_period or "no period configured",
        ),
    )


def run_compare(
    config: EngineConfig,
    portfolio: Portfolio,
    capital: CapitalBase,
    income: IncomeHistory | None = None,
    market_charge: Money | None = None,
    tables: TableSet | None = None,
) -> CompareResult:
    """Compute both regimes on identical inputs and diff the requirements.

    The credit-only leg always prices credit with the standardized table
    (internal ratings did not exist there) and carries no adjustment.
    """
    if config.regime is not Regime.BASEL2:
        raise ConfigError("comparison requires the full regime configured")
    if tables is None:
        tables = resolve_tables(config)
    full = run_compute(config, portfolio, capital, income, market_charge, tables)
    credit_only_config = EngineConfig.basel1(
        bank_policy=config.bank_policy,
        risk_weights_path=config.risk_weights_path,
        ccf_path=config.ccf_path,
        currency=config.currency,
    )
    if config.credit_approach is CreditApproach.STANDARDIZED:
        # Same book, tables and bank policy: the full leg's credit block is
        # exactly what the credit-only leg would price.
        credit = full.credit
    else:
        credit = _credit_block(credit_only_config, portfolio, tables)
    credit_only = _complete(
        credit_only_config, portfolio, capital, None, None, tables, credit
    )
    delta = full.report.min_required_capital - credit_only.report.min_required_capital
    return CompareResult(
        credit_only=credit_only,
        full=full,
        required_delta=delta,
        novelties=_novelties(full),
    )


class DisclosureReport(Record):
    """A computed result whose config names a disclosure period."""

    __slots__ = ("result",)


def run_disclose(result: ComputeResult) -> DisclosureReport:
    """Shape a computed result into the semiannual disclosure document.

    The period is the configured one, whose form the config checked at load.
    """
    if not result.config.disclosure_period:
        raise ConfigError("disclosure needs a semiannual period such as 2006-H2")
    return DisclosureReport(result)
