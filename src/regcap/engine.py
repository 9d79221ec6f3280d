"""Run orchestration: wiring credit, operational, and market blocks.

run_compute is the full pipeline behind the command line: resolve tables,
compute the credit block per the configured approach, the operational block
per its approach, fold in the market input, and judge compliance. run_compare
puts the credit-only regime next to the full one, and run_disclose shapes a
computed result into the semiannual disclosure document. Each result keeps
only what its run produced; what the config decides is read from the config.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .aggregation import (
    CapitalReport,
    PillarOneInputs,
    compliance,
)
from .config import CreditApproach, EngineConfig, Regime
from .errors import ConfigError, MissingPeriod
from .fileio import load_betas, load_ccf, load_risk_weights
from .irb import (
    IrbParams,
    evaluate_weight,
    params_for_exposure,
    risk_weight_function,
    rwa_irb,  # noqa: F401  not called here; perfbench's tracer spans it by this name
)
from .model import CapitalBase, Portfolio
from .money import Money, sum_money
from .oprisk import (
    ApproachKind,
    BetaTable,
    DEFAULT_BETAS,
    IncomeHistory,
    TsaResult,
    advanced_hook,
    average_gross_income,
    bia_capital,
    tsa_capital,
)
from .standardized import (
    CcfTable,
    DEFAULT_CCF,
    DEFAULT_RISK_WEIGHTS,
    RiskWeightTable,
    RwaLine,
    rwa_portfolio,
)

@dataclass(frozen=True)
class TableSet:
    """The three active lookup tables with their provenance labels."""

    risk_weights: RiskWeightTable
    ccf: CcfTable
    betas: BetaTable


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


@dataclass(frozen=True, slots=True)
class IrbLine:
    """Per-exposure internal-ratings record: the components and the outcome."""

    exposure_id: str
    params: IrbParams
    weight: Fraction
    amount: Money
    off_balance: bool = False


@dataclass(frozen=True)
class CreditResult:
    """Credit block outcome: per-line detail plus the exact total."""

    total_rwa: Money
    lines: tuple[RwaLine, ...] = ()
    irb_lines: tuple[IrbLine, ...] = ()


@dataclass(frozen=True)
class OpRiskResult:
    """Operational block outcome; note explains a zero-by-absence charge."""

    charge: Money
    average_income: Money | None = None
    tsa: TsaResult | None = None
    income_span: str | None = None
    note: str | None = None


@dataclass(frozen=True)
class ComputeResult:
    config: EngineConfig
    portfolio: Portfolio
    capital: CapitalBase
    tables: TableSet
    credit: CreditResult
    oprisk: OpRiskResult | None
    market_charge: Money | None
    report: CapitalReport

    @property
    def exit_status(self) -> int:
        return 0 if self.report.compliant else 1


def _credit_block(
    config: EngineConfig, portfolio: Portfolio, tables: TableSet, currency: str
) -> CreditResult:
    if config.credit_approach is CreditApproach.STANDARDIZED:
        lines, total = rwa_portfolio(
            portfolio, tables.risk_weights, tables.ccf, config.bank_policy
        )
        return CreditResult(total_rwa=total, lines=tuple(lines))
    fn = risk_weight_function(config.irb_function)
    irb_lines = []
    for exposure in portfolio:
        params = params_for_exposure(exposure, config.credit_approach)
        weight = evaluate_weight(fn, params)
        irb_lines.append(
            IrbLine(
                exposure_id=exposure.id,
                params=params,
                weight=weight,
                amount=params.ead.scaled(weight),
                off_balance=exposure.is_off_balance,
            )
        )
    total = sum_money((line.amount for line in irb_lines), currency=currency)
    return CreditResult(total_rwa=total, irb_lines=tuple(irb_lines))


def _oprisk_block(
    config: EngineConfig, income: IncomeHistory | None, tables: TableSet, currency: str
) -> OpRiskResult:
    approach = config.oprisk_approach
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
    estimator = advanced_hook(approach.hook)
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
    credit = _credit_block(config, portfolio, tables, config.currency)
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


@dataclass(frozen=True)
class Novelty:
    """One reform marker in the regime comparison."""

    name: str
    applied: bool
    note: str


@dataclass(frozen=True)
class CompareResult:
    """Side-by-side of the credit-only and full regimes on the same book."""

    credit_only: ComputeResult
    full: ComputeResult
    required_delta: Money
    novelties: tuple[Novelty, ...]

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
                f"minimum ratio {result.report.minimum_ratio}, add-on {result.report.addon}"
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
        credit = _credit_block(credit_only_config, portfolio, tables, config.currency)
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


@dataclass(frozen=True)
class DisclosureReport:
    """Semiannual disclosure content, shaped for deterministic rendering."""

    period: str
    result: ComputeResult


def run_disclose(result: ComputeResult) -> DisclosureReport:
    """Shape a computed result into the semiannual disclosure document.

    The period is the configured one, whose form the config checked at load.
    """
    period = result.config.disclosure_period
    if not period:
        raise MissingPeriod("disclosure needs a semiannual period such as 2006-H2")
    return DisclosureReport(period=period, result=result)
