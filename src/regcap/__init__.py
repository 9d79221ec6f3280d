"""Regulatory-capital engine.

Credit risk (standardized lookup tables or pluggable internal-ratings
functions), operational risk (basic-indicator and per-business-line
standardized approaches), the solvency denominator and ratios, supervisory
adjustments, and semiannual disclosure reporting, all in exact fixed-point
arithmetic.
"""

from .aggregation import (
    PillarOneInputs,
    SupervisoryAdjustment,
    compliance,
    denominator,
)
from .config import (
    CreditApproach,
    EngineConfig,
    Regime,
    load_config,
)
from .engine import (
    run_compare,
    run_compute,
    run_disclose,
)
from .errors import (
    ConfigError,
    DuplicateAdvancedHook,
    DuplicateFunction,
    NonMonotoneFunction,
    ParseError,
    RegcapError,
    ValidationFailure,
)
from .fileio import (
    load_betas,
    load_ccf,
    load_income,
    load_portfolio,
    load_risk_weights,
)
from .irb import (
    IrbParams,
    register_risk_weight_function,
    rwa_irb,
)
from .model import (
    CapitalBase,
    CounterpartyClass,
    Exposure,
    RatingBucket,
    validate_portfolio,
)
from .money import Money
from .oprisk import (
    DEFAULT_BETAS,
    NegativeGiPolicy,
    OpRiskApproach,
    average_gross_income,
    bia_capital,
    register_advanced_hook,
    tsa_capital,
)
from .reporting import render_compute_text
from .standardized import (
    BankOptionPolicy,
    DEFAULT_CCF,
    DEFAULT_RISK_WEIGHTS,
    rwa_portfolio,
)

__version__ = "0.1.0"
