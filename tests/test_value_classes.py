"""The validated value classes DivClass, Decomposition, HVector and
SurfaceModel, and a witness verdict: each copies, deep-copies and pickles to
an equal object; the value classes refuse assignment and never equal a plain
tuple of their fields."""

import copy
import pickle

import pytest

from acmcurves.classify import Status, check_witness, search_witness
from acmcurves.divisors import Decomposition, HVector

from witness_targets import TARGETS

KINDS = ("DivClass", "Decomposition", "HVector", "SurfaceModel")
ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


@pytest.fixture(scope="module")
def values(fermat5):
    """kind -> (value, the plain tuple of its fields)."""
    line = fermat5.gen_class("L[01|23](0,0)")
    d = 2 * fermat5.hyperplane_class - line
    m = fermat5
    return {
        "DivClass": (d, (m, d.coeffs)),
        "Decomposition": (Decomposition.of(d, (line, 2)), (((d, 1), (line, 2)),)),
        "HVector": (HVector((1, 2, 2)), ((1, 2, 2),)),
        "SurfaceModel": (m, (m.name, m.kind, m.degree, m.generators, m.gram, m.hyperplane,
                             m.canonical, m.chi0, m.gen_genus, m.lines)),
    }


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize("kind", KINDS)
def test_a_value_survives_copy_and_pickle(values, kind, trip):
    value, _ = values[kind]
    clone = ROUND_TRIPS[trip](value)
    assert type(clone) is type(value)
    assert clone == value and hash(clone) == hash(value)


@pytest.mark.parametrize("kind", KINDS)
def test_a_value_refuses_assignment(values, kind):
    value, fields = values[kind]
    name = {"DivClass": "coeffs", "Decomposition": "parts", "HVector": "entries",
            "SurfaceModel": "name"}[kind]
    with pytest.raises(AttributeError):
        setattr(value, name, fields[-1])
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("kind", KINDS)
def test_a_value_never_equals_a_tuple(values, kind):
    value, fields = values[kind]
    for plain in (fields, fields[-1]):
        assert value != plain and plain != value


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_a_witness_verdict_survives_copy_and_pickle(fermat5, trip):
    target = fermat5.parse(TARGETS["P4.7"][1])
    verdict = check_witness("P4.7", target, search_witness("P4.7", target, bound=10))
    assert verdict.status is Status.NOT_ACM and verdict.witness is not None
    assert ROUND_TRIPS[trip](verdict) == verdict
