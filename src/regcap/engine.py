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

from .aggregation import (
    CapitalReport,
    PillarOneInputs,
    compliance,
)
from .config import CreditApproach, EngineConfig, Regime
from .errors import ConfigError, MissingPeriod
from .fileio import load_betas, load_ccf, load_risk_weights
from .irb import (
    evaluate_weight,
    params_for_exposure,
    risk_weight_function,
    rwa_irb,  # noqa: F401  not called here; perfbench's tracer spans it by this name
)
from .model import CapitalBase, Portfolio
from .money import Money, format_percent, fraction_to_decimal_text, scaled_units
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
from .record import Record
from .standardized import (
    CcfTable,
    DEFAULT_CCF,
    DEFAULT_RISK_WEIGHTS,
    RiskWeightTable,
    StandardizedColumns,
    rwa_portfolio,
)


class TableSet(Record):
    """The three active lookup tables with their provenance labels."""

    __slots__ = ("risk_weights", "ccf", "betas")

    def __init__(self, risk_weights: RiskWeightTable, ccf: CcfTable, betas: BetaTable) -> None:
        super().__init__(risk_weights, ccf, betas)


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

    Line i is exposure ``ids[i]`` at ``weights[i]`` (exact) on an ead of
    ``ead_units[i]``, priced to ``units[i]`` minor units of the total's
    currency. The pd, lgd, maturity and weight columns hold the texts the
    reports print, formatted once when the line is priced.
    """

    __slots__ = (
        "ids", "units", "pd_texts", "lgd_texts", "maturity_texts", "weights",
        "weight_texts", "ead_units", "off_balance",
    )

    def __init__(
        self, ids: tuple[str, ...], units: tuple[int, ...], pd_texts: tuple[str, ...],
        lgd_texts: tuple[str, ...], maturity_texts: tuple[str, ...],
        weights: tuple[Fraction, ...], weight_texts: tuple[str, ...],
        ead_units: tuple[int, ...], off_balance: tuple[bool, ...],
    ) -> None:
        super().__init__(
            ids, units, pd_texts, lgd_texts, maturity_texts, weights, weight_texts,
            ead_units, off_balance,
        )


class CreditResult(Record):
    """Credit block outcome: the per-line columns plus the exact total."""

    __slots__ = ("total_rwa", "lines")

    def __init__(self, total_rwa: Money, lines: StandardizedColumns | IrbColumns) -> None:
        super().__init__(total_rwa, lines)


class OpRiskResult(Record):
    """Operational block outcome; note explains a zero-by-absence charge."""

    __slots__ = ("charge", "average_income", "tsa", "income_span", "note")

    def __init__(
        self, charge: Money, average_income: Money | None = None,
        tsa: TsaResult | None = None, income_span: str | None = None,
        note: str | None = None,
    ) -> None:
        super().__init__(charge, average_income, tsa, income_span, note)


class ComputeResult(Record):
    __slots__ = (
        "config", "portfolio", "capital", "tables", "credit", "oprisk",
        "market_charge", "report",
    )

    def __init__(
        self, config: EngineConfig, portfolio: Portfolio, capital: CapitalBase,
        tables: TableSet, credit: CreditResult, oprisk: OpRiskResult | None,
        market_charge: Money | None, report: CapitalReport,
    ) -> None:
        super().__init__(
            config, portfolio, capital, tables, credit, oprisk, market_charge, report
        )

    @property
    def exit_status(self) -> int:
        return 0 if self.report.compliant else 1


def _texts(values: list[Fraction], render) -> tuple[str, ...]:
    """``render(value)`` for each value, rendered once per distinct object.

    Keyed by identity, which ``values`` keeps unique while it holds them:
    hashing a Fraction costs more than rendering it, and a loaded book shares
    one object per distinct token.
    """
    rendered = {id(value): value for value in values}
    for key, value in rendered.items():
        rendered[key] = render(value)
    return tuple([rendered[id(value)] for value in values])


def _credit_block(config: EngineConfig, portfolio: Portfolio, tables: TableSet) -> CreditResult:
    if config.credit_approach is CreditApproach.STANDARDIZED:
        lines, total = rwa_portfolio(
            portfolio, tables.risk_weights, tables.ccf, config.bank_policy
        )
        return CreditResult(total_rwa=total, lines=lines)
    fn = risk_weight_function(config.irb_function)
    approach = config.credit_approach
    eads = (
        portfolio.nominal_units if approach is CreditApproach.IRB_FOUNDATION
        else portfolio.ead_units
    )
    units, pds, lgds, maturities, weights = ([] for _ in range(5))
    for index, ead in enumerate(eads):
        params = params_for_exposure(portfolio, index, approach)
        weight = evaluate_weight(fn, params)
        units.append(scaled_units(ead, weight))
        pds.append(params.pd)
        lgds.append(params.lgd)
        maturities.append(params.maturity_years)
        weights.append(weight)
    lines = IrbColumns(
        portfolio.ids, tuple(units), _texts(pds, format_percent),
        _texts(lgds, format_percent), _texts(maturities, fraction_to_decimal_text),
        tuple(weights), tuple(map(format_percent, weights)), eads,
        tuple([category is not None for category in portfolio.categories]),
    )
    return CreditResult(total_rwa=Money(sum(units), portfolio.currency), lines=lines)


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

    def __init__(self, name: str, applied: bool, note: str) -> None:
        super().__init__(name, applied, note)


class CompareResult(Record):
    """Side-by-side of the credit-only and full regimes on the same book."""

    __slots__ = ("credit_only", "full", "required_delta", "novelties")

    def __init__(
        self, credit_only: ComputeResult, full: ComputeResult, required_delta: Money,
        novelties: tuple[Novelty, ...],
    ) -> None:
        super().__init__(credit_only, full, required_delta, novelties)

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
    """Semiannual disclosure content, shaped for deterministic rendering."""

    __slots__ = ("period", "result")

    def __init__(self, period: str, result: ComputeResult) -> None:
        super().__init__(period, result)


def run_disclose(result: ComputeResult) -> DisclosureReport:
    """Shape a computed result into the semiannual disclosure document.

    The period is the configured one, whose form the config checked at load.
    """
    period = result.config.disclosure_period
    if not period:
        raise MissingPeriod("disclosure needs a semiannual period such as 2006-H2")
    return DisclosureReport(period=period, result=result)
