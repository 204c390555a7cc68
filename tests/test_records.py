"""The frozen report and spec types behave as the frozen dataclasses they
replace: repr text, equality, hashing, immutability, validation, keyword
construction and pickling."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from linewiener import (
    BalancedQuipu,
    CheckResult,
    Complete,
    MinimizerReport,
    ParameterError,
    Path,
    Quipu,
    RatioReport,
    Spider,
    Star,
    SubdividedQuipu,
    SubdividedQuipuCheck,
    SubdividedQuipuDeviation,
    ThresholdReport,
    WienerReport,
    balanced_spider_case,
)

# one value of every record type, with the repr text of the frozen
# dataclass it used to be
RECORDS = [
    (
        WienerReport(22, 1428),
        "WienerReport(order=22, wiener=1428)",
    ),
    (
        RatioReport(
            3, True, 4, (4, 1, None), None,
            (Fraction(1), Fraction(1, 4), None), Fraction(0), None,
        ),
        "RatioReport(order=3, is_tree=True, wiener=4, wiener_k=(4, 1, None), "
        "d2=None, r_k=(Fraction(1, 1), Fraction(1, 4), None), "
        "path_r2=Fraction(0, 1), beats_path=None)",
    ),
    (
        MinimizerReport(
            10, "all trees", Fraction(28, 55), (b"((((()))))((((()))))",), 106
        ),
        "MinimizerReport(order=10, class_description='all trees', "
        "min_ratio=Fraction(28, 55), witnesses=(b'((((()))))((((()))))',), "
        "trees_scanned=106)",
    ),
    (
        ThresholdReport(
            "i", 7, ((6, Fraction(-51, 29260)), (7, Fraction(1, 1012)))
        ),
        "ThresholdReport(family_case='i', smallest_passing_a=7, "
        "per_a_gap=((6, Fraction(-51, 29260)), (7, Fraction(1, 1012))))",
    ),
    (
        SubdividedQuipuCheck(10, 130, Fraction(1, 3), Fraction(1, 2), True),
        "SubdividedQuipuCheck(a=10, n=130, r2_ua=Fraction(1, 3), "
        "r2_path=Fraction(1, 2), holds=True)",
    ),
    (
        SubdividedQuipuDeviation(2, 68, 22, Fraction(-1, 4), Fraction(1, 5)),
        "SubdividedQuipuDeviation(a=2, w_ua=68, d2_ua=22, "
        "w_dev=Fraction(-1, 4), d2_dev=Fraction(1, 5))",
    ),
    (
        CheckResult("rigged", False, "synthetic failure"),
        "CheckResult(name='rigged', ok=False, detail='synthetic failure')",
    ),
    (Path(22), "Path(n=22)"),
    (Star(9), "Star(n=9)"),
    (Complete(6), "Complete(n=6)"),
    (Spider(7, 7, 7), "Spider(a=7, b=7, c=7)"),
    (Quipu([3, 1, 4]), "Quipu(heights=(3, 1, 4))"),
    (BalancedQuipu(5), "BalancedQuipu(a=5)"),
    (SubdividedQuipu(6), "SubdividedQuipu(a=6)"),
    (
        balanced_spider_case(7, "i"),
        "SpiderCaseValues(case='i', a=7, n=22, w=1428, d2=357, "
        "one_minus_r2_tree=Fraction(1, 4), "
        "one_minus_r2_path=Fraction(63, 253))",
    ),
]

VALUES = [value for value, _ in RECORDS]


def ids(value):
    return type(value).__name__


def fields_of(value) -> dict:
    return {name: getattr(value, name) for name in value.__match_args__}


def test_every_record_type_is_sampled():
    assert len({type(value) for value in VALUES}) == len(VALUES) == 15


@pytest.mark.parametrize("value, text", RECORDS, ids=[ids(v) for v in VALUES])
def test_repr_is_the_dataclass_text(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", VALUES, ids=ids)
def test_keyword_construction_gives_an_equal_value(value):
    again = type(value)(**fields_of(value))
    assert again == value
    assert not again != value
    assert hash(again) == hash(value)
    assert again is not value


@pytest.mark.parametrize("value", VALUES, ids=ids)
def test_pickle_round_trip(value):
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is type(value)
    assert again == value
    assert hash(again) == hash(value)
    assert repr(again) == repr(value)


@pytest.mark.parametrize("value", VALUES, ids=ids)
def test_fields_cannot_be_assigned_or_deleted(value):
    name = value.__match_args__[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, name) == before


def test_equality_is_by_type_and_values():
    assert Path(3) == Path(3)
    assert Path(3) != Star(3)
    assert Path(3) != Path(4)
    assert Path(3) != (3,)
    assert Spider(1, 2, 3) != Spider(3, 2, 1)
    assert len({Path(3), Path(3), Star(3), Quipu((1, 2)), Quipu([1, 2])}) == 3


def test_construction_checks_its_arguments():
    assert Spider(a=1, b=2, c=3) == Spider(1, 2, c=3) == Spider(1, 2, 3)
    for bad in (
        lambda: Spider(1, 2),
        lambda: Spider(1, 2, 3, 4),
        lambda: Spider(1, 2, 3, d=4),
        lambda: Spider(1, 2, 3, a=1),
    ):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize(
    "make",
    [
        lambda: Path(0),
        lambda: Star(1),
        lambda: Complete(0),
        lambda: Spider(0, 1, 1),
        lambda: Spider(a=2, b=2, c=0),
        lambda: Quipu(()),
        lambda: Quipu(heights=(2, 0)),
        lambda: BalancedQuipu(1),
        lambda: SubdividedQuipu(a=1),
    ],
)
def test_bad_family_parameters_raise_on_construction(make):
    with pytest.raises(ParameterError):
        make()
