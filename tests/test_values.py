"""The value classes' contract: construction, repr, equality, hash and
immutability.

Reprs reach users through error messages (a Tangent message prints a
Line and a Point), so they are pinned exactly.
"""

import contextlib
import json
import re
import sys
from fractions import Fraction as F

import pytest

from polyceva.ceva import (
    CevaConfig,
    Factor,
    build_converse_counterexample,
    ceva_product,
)
from polyceva.circle import InscribedConfig, inscribed_identity_report
from polyceva.configio import CounterexampleInput
from polyceva.frozen import Frozen
from polyceva.fuzz import FuzzFailure, FuzzReport, GenParams
from polyceva.geometry import Line, Point

TRIANGLE = (Point(0, 0), Point(4, 0), Point(0, 4))


def triangle_config() -> CevaConfig:
    return CevaConfig(TRIANGLE, Point(1, 1), 1, 1)


def inscribed_config() -> InscribedConfig:
    return InscribedConfig(1, (-2, 0, "1/2"),
                           (3, Point(F(1, 10), F(1, 10)), -1), 1, 1)


def failing_report() -> FuzzReport:
    failure = FuzzFailure(1, 7, "squared_identity", "4", "9",
                          {"kind": "ceva", "vertices": [["0", "0"]], "s": 1})
    return FuzzReport("inscribed", 3, 2, 1, [failure], 0.25)


@pytest.mark.parametrize("value, text", [
    (Point(F(1, 2), 3), "Point(x=Fraction(1, 2), y=Fraction(3, 1))"),
    (Line(2, 4, 6), "Line(a=Fraction(1, 1), b=Fraction(2, 1), c=Fraction(3, 1))"),
    (Factor(1, 2, F(-1, 3)), "Factor(i=1, j=2, value=Fraction(-1, 3))"),
    (triangle_config(),
     "CevaConfig(vertices=(Point(x=Fraction(0, 1), y=Fraction(0, 1)), "
     "Point(x=Fraction(4, 1), y=Fraction(0, 1)), Point(x=Fraction(0, 1), "
     "y=Fraction(4, 1))), pivot=Point(x=Fraction(1, 1), y=Fraction(1, 1)), "
     "s=1, t=1)"),
    (inscribed_config(),
     "InscribedConfig(radius=Fraction(1, 1), params=(Fraction(-2, 1), "
     "Fraction(0, 1), Fraction(1, 2)), line_specs=(Fraction(3, 1), "
     "Point(x=Fraction(1, 10), y=Fraction(1, 10)), Fraction(-1, 1)), s=1, t=1)"),
    (GenParams(seed=3),
     "GenParams(seed=3, n_min=3, n_max=7, coordinate_bound=10)"),
    (failing_report(),
     "FuzzReport(kind='inscribed', trials_requested=3, trials_completed=2, "
     "rejections=1, failures=[FuzzFailure(trial=1, seed=7, check='squared_identity', "
     "expected='4', actual='9', config={'kind': 'ceva', 'vertices': [['0', '0']], "
     "'s': 1})], elapsed_seconds=0.25)"),
])
def test_repr(value, text):
    assert repr(value) == text


def test_equality_and_hash_follow_the_fields():
    assert Point(F(1, 2), 3) == Point("1/2", 3)
    assert hash(Point(F(1, 2), 3)) == hash((F(1, 2), F(3)))
    assert Factor(1, 2, F(1)) != Factor(2, 1, F(1))
    assert Point(0, 0) != (F(0), F(0))
    with pytest.raises(TypeError):
        hash(failing_report())  # failures is a list


@contextlib.contextmanager
def int_string_limit(digits: int):
    """Python's int-string limit set to ``digits`` (0: none), then restored."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def unlimited_repr(value) -> str:
    """The repr Python's own reprs of the fields give under no int-string
    limit: the text Frozen's repr must give at any limit."""
    with int_string_limit(0):
        if isinstance(value, Frozen):
            fields = ", ".join(f"{name}={unlimited_repr(getattr(value, name))}"
                               for name in value._fields)
            return f"{type(value).__qualname__}({fields})"
        if isinstance(value, tuple):
            items = [unlimited_repr(v) for v in value]
            return f"({', '.join(items)}{',' * (len(items) == 1)})"
        return repr(value)


def big(k: int) -> F:
    """A rational with 1000-digit parts."""
    return F(k * 10 ** 999 + 7 * k + 1, 10 ** 999 + 3 * k + 2)


def test_point_and_line_reprs_pass_the_int_string_limit():
    """Error messages print values whose parts may have more digits than
    str(int) allows.  Every value prints them in full: the factors,
    products and counterexample ratios of 1000-digit configs at the
    default limit, and the configs themselves at the lowest one."""
    digits = "1" + "0" * 4999 + "1"
    assert repr(Point(F(10 ** 5000 + 1, 3), 2)) == \
        f"Point(x=Fraction({digits}, 3), y=Fraction(2, 1))"
    assert repr(Line(0, 3, -(10 ** 5000 + 1))) == \
        f"Line(a=Fraction(0, 1), b=Fraction(1, 1), c=Fraction(-{digits}, 3))"
    triangle = CevaConfig((Point(big(1), big(2)), Point(-big(3), big(4)),
                           Point(big(5), -big(6))),
                          Point(big(7) / 100, big(8) / 100), 1, 1)
    report = ceva_product(triangle)
    pentagon = tuple(Point(big(a), big(b)) for a, b in
                     ((1, -9), (8, 2), (5, 11), (-6, 10), (-9, -3)))
    inscribed = InscribedConfig(
        big(2), (-big(2), F(1, 10 ** 999 + 1), big(1) / 2),
        (big(3), Point(big(1) / 10, big(1) / 10), -big(1) / 4), 1, 1)
    derived = (report.factors[0], report,
               build_converse_counterexample(pentagon, Point(big(1) / 3, big(2) / 5)),
               inscribed_identity_report(inscribed))
    for value in derived:
        text = unlimited_repr(value)
        assert max(map(len, re.findall(r"[0-9]+", text))) > 4300  # the default
        assert repr(value) == text
    with int_string_limit(640):
        for value in (inscribed, *derived):
            assert repr(value) == unlimited_repr(value)


@pytest.mark.parametrize("values", [
    (),
    ((), Point(0, 0)),
    ((), Point(0, 0), 7, None),
])
def test_inherited_constructor_takes_one_value_per_field(values):
    with pytest.raises(TypeError, match="CounterexampleInput takes 3 values"):
        CounterexampleInput(*values)


@pytest.mark.parametrize("build, stored", [
    (triangle_config, ("factors",)),
    (inscribed_config, ("param_pairs", "m_prime_pairs", "factors",
                        "common_point")),
])
def test_stored_results_are_left_out(build, stored):
    """Configs that differ only in what construction stored are equal,
    hash equal and print the same."""
    first, second = build(), build()
    for name in stored:
        object.__setattr__(second, name, ())
        assert getattr(first, name) != ()
    assert first == second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second)


@pytest.mark.parametrize("value, name", [
    (Point(1, 2), "x"),
    (Line(1, 2, 3), "c"),
    (Factor(1, 2, F(1)), "value"),
    (triangle_config(), "factors"),
    (inscribed_config(), "m_primes"),
    (GenParams(), "seed"),
    (GenParams(), "not_a_field"),
    (failing_report(), "rejections"),
    (failing_report(), "failures"),
])
def test_fields_cannot_be_assigned_or_deleted(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, 0)
    with pytest.raises(AttributeError):
        delattr(value, name)


def test_fuzz_report_to_dict():
    """Same JSON as dataclasses.asdict gave, with nothing shared."""
    report = failing_report()
    doc = report.to_dict()
    assert json.dumps(doc) == (
        '{"kind": "inscribed", "trials_requested": 3, "trials_completed": 2, '
        '"rejections": 1, "failures": [{"trial": 1, "seed": 7, '
        '"check": "squared_identity", "expected": "4", "actual": "9", '
        '"config": {"kind": "ceva", "vertices": [["0", "0"]], "s": 1}}], '
        '"elapsed_seconds": 0.25}')
    doc["failures"][0]["config"]["vertices"][0][0] = "5"
    assert report.failures[0].config["vertices"] == [["0", "0"]]
