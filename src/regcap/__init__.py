"""Regulatory-capital engine.

Credit risk (standardized lookup tables or pluggable internal-ratings
functions), operational risk (basic-indicator and per-business-line
standardized approaches), the solvency denominator and ratios, supervisory
adjustments, and semiannual disclosure reporting, all in exact fixed-point
arithmetic.
"""

from .aggregation import (
    REFERENCE_ALLOCATION,
    RWA_MULTIPLIER,
    CapitalReport,
    PillarOneInputs,
    SupervisoryAdjustment,
    compliance,
    denominator,
    denominator_shares,
)
from .config import (
    CreditApproach,
    EngineConfig,
    Regime,
    build_config,
    load_config,
)
from .engine import (
    CompareResult,
    ComputeResult,
    CreditResult,
    DisclosureReport,
    Novelty,
    OpRiskResult,
    TableSet,
    resolve_tables,
    run_compare,
    run_compute,
    run_disclose,
)
from .errors import (
    ConfigError,
    CurrencyMismatch,
    DowngradeWithoutOverride,
    DuplicateAdvancedHook,
    DuplicateFunction,
    IncompleteHistory,
    InvalidOverride,
    MissingCell,
    MissingLine,
    MissingPeriod,
    NonFiniteWeight,
    NonMonotoneFunction,
    OutOfRange,
    ParseError,
    RegcapError,
    UnknownCategory,
    UnknownFunction,
    UnknownRating,
    UnregisteredAdvancedHook,
    ValidationFailure,
)
from .fileio import (
    dump_betas,
    dump_ccf,
    dump_risk_weights,
    load_betas,
    load_ccf,
    load_income,
    load_portfolio,
    load_risk_weights,
)
from .irb import (
    FOUNDATION_LGD,
    FOUNDATION_MATURITY_YEARS,
    FOUNDATION_RECOVERY_RATE,
    IrbParams,
    check_monotonicity,
    evaluate_weight,
    foundation_params,
    params_for_exposure,
    register_risk_weight_function,
    risk_weight_function,
    rwa_irb,
)
from .model import (
    MINIMUM_CAPITAL_RATIO,
    CapitalBase,
    CounterpartyClass,
    Exposure,
    Portfolio,
    RatingBucket,
    parse_rating,
    validate_portfolio,
)
from .money import (
    Money,
    format_percent,
    fraction_to_decimal_text,
    parse_fraction,
    round_half_even,
    sum_money,
)
from .oprisk import (
    ALPHA,
    ApproachKind,
    AnnualIncome,
    BetaTable,
    BusinessLine,
    DEFAULT_BETAS,
    GrossIncomeRecord,
    IncomeHistory,
    NegativeGiPolicy,
    OpRiskApproach,
    TsaResult,
    advanced_hook,
    average_gross_income,
    bia_capital,
    register_advanced_hook,
    tsa_capital,
)
from .reporting import render_compute_text
from .standardized import (
    BankOptionPolicy,
    CcfTable,
    DEFAULT_CCF,
    DEFAULT_RISK_WEIGHTS,
    RiskWeightTable,
    WeightCell,
    rwa_portfolio,
)

__version__ = "0.1.0"
