"""Plane-quartic witness candidates against the loop they replaced.

A Dtilde lead pairs a plane quartic H - L_i with the line residual
twist - (H - L_i).  The search reads the qualifying i off r = twist - H in
one pass; the oracle below subtracts and inspects the residual for every
atlas line, as the search once did.  Both must yield the same candidates
in the same order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmcurves.classify import SHAPES, TWISTS, _candidates, _line_parts_from, _twist_class
from acmcurves.divisors import Decomposition, link
from acmcurves.surfaces import fermat_model

from witness_targets import TARGETS

_QUARTIC_LEAD = SHAPES["quartic_plus_conic"]


def _oracle_candidates(twist):
    model = twist.model
    H = model.hyperplane_class
    for name in model.generators[1:]:
        quartic = H - model.gen_class(name)
        rest = _line_parts_from(twist - quartic)
        if rest is not None:
            yield Decomposition(((quartic, 1),) + rest)


def _assert_same_candidates(twist):
    got, want = list(_candidates(_QUARTIC_LEAD, twist)), list(_oracle_candidates(twist))
    assert got == want
    # == is numerical equivalence; the candidates must also be written alike
    assert [str(c) for c in got] == [str(c) for c in want]


@pytest.mark.parametrize("prop", sorted(TARGETS))
def test_candidates_match_the_oracle_on_the_witness_targets(request, prop):
    model_name, text = TARGETS[prop]
    target = request.getfixturevalue(model_name).parse(text)
    for cls in (target, link(target, 3)):
        for tag in TWISTS:
            _assert_same_candidates(_twist_class(tag, cls))


@st.composite
def twists(draw):
    """A class m*H plus a few atlas lines with small coefficients, with m
    mostly 1, so that twist - H is often a line vector."""
    model = fermat_model(draw(st.sampled_from((4, 5))))
    H = model.hyperplane_class
    twist = draw(st.sampled_from((0, 1, 1, 1, 2))) * H
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(model.generators[1:]))
        twist = twist + draw(st.integers(-2, 2)) * model.gen_class(name)
    return twist


@settings(max_examples=200, deadline=None, derandomize=True)
@given(twists())
def test_candidates_match_the_oracle_on_small_twists(twist):
    _assert_same_candidates(twist)


def test_the_oracle_cases_are_all_reached(fermat5):
    H = fermat5.hyperplane_class
    lines = [fermat5.gen_class(name) for name in fermat5.generators[1:4]]
    # twist - H nonnegative: every line; one -1: that line only; otherwise none
    assert len(list(_candidates(_QUARTIC_LEAD, H + lines[0]))) == 75
    assert len(list(_candidates(_QUARTIC_LEAD, H))) == 75
    only = list(_candidates(_QUARTIC_LEAD, H - lines[1] + lines[2]))
    assert only == list(_oracle_candidates(H - lines[1] + lines[2])) and len(only) == 1
    for twist in (H - lines[1], H - 2 * lines[1] + lines[2], H - lines[0] - lines[1] + lines[2],
                  2 * H, lines[0]):
        assert list(_candidates(_QUARTIC_LEAD, twist)) == [] == list(_oracle_candidates(twist))
