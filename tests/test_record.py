"""Record semantics: frozen, slotted value objects built without generated code.

Every ``Record`` subclass must behave as the frozen dataclass it replaces:
no assignment or deletion, no instance dict, equality and hashing over its
fields (table provenance excluded), the ``Name(field=value, ...)`` repr,
and a constructor that takes the fields by position or by name.
"""

from __future__ import annotations

import ast
import copy
import enum
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import regcap
from regcap import (
    CapitalBase,
    CounterpartyClass,
    CreditApproach,
    EngineConfig,
    Exposure,
    Money,
    OpRiskApproach,
    PillarOneInputs,
    RatingBucket,
    SupervisoryAdjustment,
    load_income,
    load_portfolio,
    run_compare,
    run_compute,
    run_disclose,
)
from regcap.config import SETTINGS, Regime, Setting
from regcap.engine import OpRiskResult, TableSet
from regcap.errors import (
    AggregationError,
    ConfigError,
    OperationalRiskError,
    OutOfRange,
    StandardizedCreditError,
    ValidationFailure,
)
from regcap.irb import FOUNDATION_LGD, FOUNDATION_MATURITY_YEARS, IrbParams
from regcap.model import MINIMUM_CAPITAL_RATIO, Portfolio, validate_portfolio
from regcap.oprisk import (
    DEFAULT_BETAS,
    AnnualIncome,
    ApproachKind,
    BetaTable,
    BusinessLine,
    IncomeHistory,
)
from regcap.record import KeyedEnum, Record
from regcap.standardized import CcfTable, RiskWeightTable, WeightCell

from conftest import DATA_DIR, eur, run_python

# Every record class in the package; a new one must join the walk below.
RECORD_CLASSES = 28


def _subclasses(cls: type) -> list[type]:
    found = []
    for child in cls.__subclasses__():
        found += [child, *_subclasses(child)]
    return found


def _walk(value, seen: dict[type, Record]) -> None:
    """Collect the first instance of each record class reachable from value."""
    if isinstance(value, Record):
        seen.setdefault(type(value), value)
        for name in value.__slots__:
            _walk(getattr(value, name), seen)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _walk(item, seen)
    elif isinstance(value, dict):
        for key, item in value.items():
            _walk(key, seen)
            _walk(item, seen)


def _constructor_fields(record: Record) -> list[str]:
    """The parameters of a record's own ``__init__``; else, bound by
    ``Record.__init__``, its ``__slots__``."""
    if "__init__" in type(record).__dict__:
        return list(inspect.signature(type(record)).parameters)
    return list(record.__slots__)


def _one_of_each_record() -> list[Record]:
    config = EngineConfig(
        oprisk_approach=OpRiskApproach.standardized(), disclosure_period="2006-H2"
    )
    portfolio = load_portfolio(DATA_DIR / "portfolio_golden.csv")
    income = load_income(DATA_DIR / "income_3yr.csv")
    capital = CapitalBase(eur("150000.00"))
    result = run_compute(config, portfolio, capital, income)
    irb_book = validate_portfolio(
        (Exposure("I1", CounterpartyClass.CORPORATE, RatingBucket.UNRATED, eur("100.00"),
                  pd=Fraction(1, 100)),),
        "EUR",
    )
    irb_result = run_compute(
        EngineConfig(credit_approach=CreditApproach.IRB_FOUNDATION), irb_book, capital
    )
    seen: dict[type, Record] = {}
    for root in (
        IrbParams(
            Fraction(1, 100), FOUNDATION_LGD, eur("100.00"), FOUNDATION_MATURITY_YEARS
        ),
        # a Portfolio holds columns; its Exposure records are built on reading
        irb_book.exposures,
        result,
        run_compare(config, portfolio, capital, income),
        run_disclose(result),
        irb_result,
        income,
        SETTINGS,
        PillarOneInputs(eur("1.00"), eur("2.00"), eur("3.00")),
        SupervisoryAdjustment(addon=eur("5.00")),
    ):
        _walk(root, seen)
    return list(seen.values())


RECORDS = _one_of_each_record()


def test_every_record_class_is_sampled():
    classes = _subclasses(Record)
    assert len(classes) == RECORD_CLASSES
    assert {type(record) for record in RECORDS} == set(classes)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
class TestRecordSemantics:
    def test_fields_follow_the_constructor(self, record):
        # __slots__ is the field list in __init__ order; copying relies on it
        assert "__slots__" in type(record).__dict__
        assert _constructor_fields(record) == list(record.__slots__)
        named = {name: getattr(record, name) for name in record.__slots__}
        assert type(record)(**named) == record

    def test_assignment_and_deletion_raise(self, record):
        name = record.__slots__[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown_field = 1
        assert getattr(record, name) is before

    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")

    def test_equal_fields_equal_records(self, record):
        rebuilt = type(record)(*(getattr(record, name) for name in record.__slots__))
        assert rebuilt == record and not rebuilt != record
        assert rebuilt is not record
        try:
            expected = hash(record)
        except TypeError:  # a mapping field, unhashable as with a dataclass
            return
        assert hash(rebuilt) == expected

    def test_copies_are_equal(self, record):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record

    def test_repr_is_the_dataclass_repr(self, record):
        fields = ", ".join(
            f"{name}={getattr(record, name)!r}" for name in _constructor_fields(record)
        )
        assert repr(record) == f"{type(record).__name__}({fields})"


def test_reprs_of_common_records():
    assert repr(Money(5)) == "Money(units=5, currency='EUR')"
    assert repr(WeightCell.fixed(Fraction(1, 2))) == (
        "WeightCell(low=Fraction(1, 2), high=Fraction(1, 2))"
    )
    assert repr(OpRiskApproach.advanced_hook("x")) == (
        "OpRiskApproach(kind=<ApproachKind.ADVANCED: 'advanced'>, hook='x')"
    )


def test_equality_needs_the_same_class_and_fields():
    assert Money(5) != Money(5, "USD")
    assert Money(5) != (5, "EUR")
    assert WeightCell(Fraction(1), Fraction(1)) != Money(1)
    assert len({Money(5), Money(5), Money(6)}) == 2


@pytest.mark.parametrize(
    "table", [r for r in RECORDS if "source" in r.__slots__], ids=lambda t: type(t).__name__
)
def test_tables_compare_without_their_source(table):
    relabelled = type(table)(getattr(table, table.__slots__[0]), source="elsewhere")
    assert relabelled == table
    assert relabelled.source == "elsewhere"


def test_every_enum_is_keyed_by_its_value_in_one_place():
    # A member's key is its value, and KeyedEnum alone says so. RatingBucket
    # is the exception: an IntEnum whose value is its rank.
    for module in pkgutil.iter_modules(regcap.__path__):
        importlib.import_module(f"regcap.{module.name}")
    enums = [cls for cls in _subclasses(enum.Enum) if cls.__module__.startswith("regcap.")]
    assert [cls.__name__ for cls in enums if not issubclass(cls, KeyedEnum)] == [
        "RatingBucket"
    ]
    assert sorted(cls.__name__ for cls in enums if "key" in vars(cls)) == [
        "KeyedEnum", "RatingBucket"
    ]


def test_importing_the_cli_loads_no_code_generator():
    loaded = run_python("import sys, regcap.cli; print(' '.join(sys.modules))").split()
    assert "regcap.cli" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


def test_a_clean_interpreter_importing_the_cli_loads_no_typing():
    # -S: a site hook may load typing before regcap is imported at all
    script = "import sys, regcap.cli; print(' '.join(sys.modules))"
    loaded = run_python(script, "-S").split()
    assert "regcap.cli" in loaded and "site" not in loaded
    assert [name for name in ("typing", "dataclasses", "inspect") if name in loaded] == []


def test_a_clean_interpreter_importing_the_cli_loads_no_json_package():
    # The JSON writer takes only json's C escaper, from _json.
    script = "import sys, regcap.cli; print(' '.join(sys.modules))"
    loaded = run_python(script, "-S").split()
    assert "regcap.reporting" in loaded and "site" not in loaded
    json_modules = ("json", "json.decoder", "json.scanner", "json.encoder")
    assert [name for name in json_modules if name in loaded] == []


class TestBinder:
    """``Record.__init__`` binds a record without an ``__init__`` of its own."""

    def test_by_position_by_name_or_both(self):
        built = TableSet("weights", "ccf", "betas")
        assert (built.risk_weights, built.ccf, built.betas) == ("weights", "ccf", "betas")
        assert TableSet(betas="betas", ccf="ccf", risk_weights="weights") == built
        assert TableSet("weights", betas="betas", ccf="ccf") == built

    def test_an_omitted_field_takes_its_declared_default(self):
        charge = OpRiskResult(eur("5.00"))
        assert [getattr(charge, name) for name in charge.__slots__[1:]] == [None] * 2
        assert OpRiskResult(eur("5.00"), tsa="none").tsa == "none"
        assert RiskWeightTable({}).source == "builtin"
        assert Setting("k", "--k", "field", str).help is None
        assert Exposure("E", CounterpartyClass.BANK, RatingBucket.UNRATED, eur("1.00")) == (
            Exposure("E", CounterpartyClass.BANK, RatingBucket.UNRATED, eur("1.00"),
                     None, False, None, None, None, None)
        )

    @pytest.mark.parametrize(
        "args, named, message",
        [
            (("w", "c"), {}, "TableSet: missing field 'betas'"),
            ((), {"risk_weights": "w", "betas": "b"}, "TableSet: missing field 'ccf'"),
            (("w", "c", "b", "y"), {},
             r"TableSet takes 3 fields \('risk_weights', 'ccf', 'betas'\), got 4"),
            (("w", "c", "b"), {"beta": "y"}, "TableSet: field 'beta' unknown"),
            (("w", "c"), {"risk_weights": "other", "betas": "b"},
             "TableSet: field 'risk_weights' given twice"),
        ],
        ids=["missing", "missing-by-name", "too-many", "unknown", "twice"],
    )
    def test_a_bad_binding_raises_type_error_naming_the_field(self, args, named, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            TableSet(*args, **named)

    def test_a_mutable_default_is_refused(self):
        script = (
            "from regcap.record import Record\n"
            "try:\n"
            "    class Book(Record, defaults=dict(lines={})):\n"
            "        __slots__ = ('lines',)\n"
            "except TypeError as exc:\n"
            "    print(exc)\n"
        )
        assert run_python(script) == "unhashable type: 'dict'\n"


def _calls_super_init(node: ast.AST) -> bool:
    """Whether ``node`` is a call of ``super().__init__``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__init__"
        and isinstance(node.func.value, ast.Call)
        and getattr(node.func.value.func, "id", None) == "super"
    )


def _passes_its_parameters_through(init: ast.FunctionDef) -> bool:
    """Whether the only statement of ``init`` is ``super().__init__`` over
    its own parameters, in any order, by position or by name."""
    if len(init.body) != 1 or not isinstance(init.body[0], ast.Expr):
        return False
    call = init.body[0].value
    if not _calls_super_init(call):
        return False
    values = [*call.args, *(keyword.value for keyword in call.keywords)]
    passed = [getattr(value, "id", None) for value in values]
    parameters = [arg.arg for arg in init.args.args[1:] + init.args.kwonlyargs]
    return sorted(passed, key=str) == sorted(parameters)


def test_no_record_writes_a_pass_through_constructor():
    # Record.__init__ binds fields by position or by name, and defaults are
    # declared with defaults=dict(...); an __init__ that only forwards its
    # parameters would write the field list a second and third time.
    package = Path(__file__).resolve().parents[1] / "src" / "regcap"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", None) == "Record" for base in node.bases
            ):
                found += [
                    f"{path.name}: {node.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                    and _passes_its_parameters_through(item)
                ]
    assert found == []


def test_only_money_writes_a_constructor():
    # Record.__init__ binds every other record, then calls its __post_init__;
    # Money, built once per priced line, sets its two fields itself. Only the
    # exceptions in errors.py hand their arguments on to super().__init__.
    assert [cls.__name__ for cls in _subclasses(Record) if "__init__" in vars(cls)] == [
        "Money"
    ]
    package = Path(__file__).resolve().parents[1] / "src" / "regcap"
    callers = {
        (path.name, node.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and any(map(_calls_super_init, ast.walk(node)))
    }
    assert callers and {module for module, _ in callers} == {"errors.py"}


# A record with rules, values that break one (its omitted trailing fields take
# their declared defaults), and the error it raises.
CHECKED_RECORDS = [
    (IrbParams, (Fraction(2), FOUNDATION_LGD, eur("-1.00"), FOUNDATION_MATURITY_YEARS),
     OutOfRange, "negative exposure-at-default -1.00 EUR; pd 2 outside [0, 1]"),
    (PillarOneInputs, (eur("1.00"), eur("-2.00"), eur("3.00")),
     AggregationError, "market capital charge must be non-negative, got -2.00 EUR"),
    (SupervisoryAdjustment, (Fraction(1, 20),),
     AggregationError, "supervisory minimum 1/20 is below the 8% floor"),
    (CapitalBase, (eur("10.00"), eur("4.00")),
     ValidationFailure, "tier1 and tier2 must be supplied together or not at all"),
    (WeightCell, (Fraction(3), Fraction(1)),
     StandardizedCreditError, "weight cell [3, 1] outside [0, 2]"),
    (CcfTable, ({"guarantee": Fraction(2)},),
     StandardizedCreditError, "conversion factor for 'guarantee' outside [0, 1]"),
    (BetaTable, ({**DEFAULT_BETAS.betas, BusinessLine.RETAIL_BANKING: Fraction(2)},),
     OperationalRiskError, "beta for retail_banking outside [0, 1]"),
    (IncomeHistory, ((),),
     OperationalRiskError, "need exactly three annual records, got 0"),
    (OpRiskApproach, (ApproachKind.ADVANCED,),
     OperationalRiskError, "hook name is required exactly for the advanced approach"),
    (EngineConfig, (Regime.BASEL1,),
     ConfigError, "the credit-only regime admits no operational-risk approach"),
    (Portfolio, (["X"], [CounterpartyClass.CORPORATE], [RatingBucket.UNRATED], [-1],
                 [None], [False], [None], [None], [None], [None], "EUR"),
     ValidationFailure, "exposure 'X': negative amount -0.01 EUR"),
]


@pytest.mark.parametrize(
    "record, values, error, message",
    CHECKED_RECORDS,
    ids=[record.__name__ for record, *_ in CHECKED_RECORDS],
)
def test_a_record_checks_its_rules_however_its_fields_are_given(
    record, values, error, message
):
    # by position, and by name in the reverse order
    named = dict(reversed(list(zip(record.__slots__, values))))
    for build in (lambda: record(*values), lambda: record(**named)):
        with pytest.raises(error) as excinfo:
            build()
        assert str(excinfo.value) == message


def test_an_omitted_field_of_a_checked_record_takes_its_default():
    assert (CapitalBase(eur("1.00")).tier1, CapitalBase(eur("1.00")).tier2) == (None, None)
    assert SupervisoryAdjustment() == SupervisoryAdjustment(MINIMUM_CAPITAL_RATIO, None)
    assert OpRiskApproach(kind=ApproachKind.STANDARDIZED).hook is None
    assert CcfTable({}).source == BetaTable(DEFAULT_BETAS.betas).source == "builtin"
    assert EngineConfig() == EngineConfig(*(setting.default for setting in SETTINGS))
    # AnnualIncome reads an omitted per_line as a fresh mapping of its own
    first, second = AnnualIncome(2004), AnnualIncome(year=2005)
    assert (first.total, first.per_line, second.per_line) == (None, {}, {})
    assert first.per_line is not second.per_line


def test_a_book_holds_its_columns_as_tuples():
    book = Portfolio(["X"], [CounterpartyClass.CORPORATE], [RatingBucket.UNRATED], [100],
                     [None], [False], [None], [None], [None], [None], "EUR")
    assert all(type(getattr(book, name)) is tuple for name in book.__slots__[:-1])
    assert book.nominal_units == (100,)
