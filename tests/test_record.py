"""Record semantics: frozen, slotted value objects built without generated code.

Every ``Record`` subclass must behave as the frozen dataclass it replaces:
no assignment or deletion, no instance dict, equality and hashing over its
fields (table provenance excluded), and the ``Name(field=value, ...)`` repr.
"""

from __future__ import annotations

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

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
from regcap.config import SETTINGS
from regcap.irb import FOUNDATION_LGD, FOUNDATION_MATURITY_YEARS, IrbParams
from regcap.model import validate_portfolio
from regcap.record import Record
from regcap.standardized import WeightCell

from conftest import DATA_DIR, eur, run_python

# Every record class in the package; a new one must join the walk below.
RECORD_CLASSES = 29


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
        assert list(inspect.signature(type(record)).parameters) == list(record.__slots__)

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
            f"{name}={getattr(record, name)!r}"
            for name in inspect.signature(type(record)).parameters
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


def test_importing_the_cli_loads_no_code_generator():
    loaded = run_python("import sys, regcap.cli; print(' '.join(sys.modules))").split()
    assert "regcap.cli" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
