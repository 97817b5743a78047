"""Plane-quartic witness candidates against the coefficient reader they replaced.

A Dtilde lead pairs a plane quartic H - L_i with the line residual
twist - (H - L_i).  The search reads each residual off its intersection
vector (_lines); the oracle below reads the residual's coefficients as a
nonnegative line vector, as the search once did.  No shape takes more than
s = d - 2 residual lines, so the oracle's candidates with at most s of them
must appear, in the same order, among the search's.  The search may find
more, where the coefficients hide the lines: 2H - L_a - L_b - L_c for three
lines of one plane is H plus the other two.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmcurves.classify import SHAPES, TWISTS, _candidates, _lines, _twist_class
from acmcurves.divisors import Decomposition, intersections, link
from acmcurves.surfaces import fermat_model

from witness_targets import TARGETS

_QUARTIC_LEAD = SHAPES["quartic_plus_conic"]


def _line_parts_from(residual):
    """Read a nonnegative atlas-line vector as (class, mult) parts, or None."""
    model = residual.model
    if residual.coeffs[0] != 0 or any(c < 0 for c in residual.coeffs[1:]):
        return None
    parts = []
    for i, c in enumerate(residual.coeffs[1:], start=1):
        if c:
            parts.append((model.gen_class(model.generators[i]), c))
    return tuple(parts) or None


def _oracle_candidates(twist):
    model = twist.model
    H = model.hyperplane_class
    for name in model.generators[1:]:
        quartic = H - model.gen_class(name)
        rest = _line_parts_from(twist - quartic)
        if rest is not None:
            yield Decomposition(((quartic, 1),) + rest)


def _written(parts):
    return [(str(cls), mult) for cls, mult in parts]


def _assert_same_candidates(twist):
    """The oracle's candidates with at most s residual lines, in order among
    the search's, each of which is a plane quartic H - L_i plus the lines
    that _lines reads off the residual.  Candidates are compared as written,
    since == is numerical equivalence."""
    model = twist.model
    got = [str(c) for c in _candidates(_QUARTIC_LEAD, twist)]
    want = [str(c) for c in _oracle_candidates(twist)
            if sum(mult for _, mult in c.parts[1:]) <= model.degree - 2]
    at = [got.index(w) for w in want if w in got]
    assert len(at) == len(want) and at == sorted(at), (got, want)
    for cand in _candidates(_QUARTIC_LEAD, twist):
        (quartic, one), rest = cand.parts[0], cand.parts[1:]
        assert one == 1 and str(model.hyperplane_class - quartic) in model.line_names()
        residual = twist - quartic
        assert Decomposition(rest).total == residual
        assert _written(rest) == _written(_lines(model, tuple(intersections(model, residual.coeffs))))


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


def test_the_search_reads_lines_the_coefficients_hide(fermat5):
    # three lines of one plane: 2H - L_a - L_b - L_c is H + L_d + L_e
    a, b, c = (fermat5.parse(f"L[01|23](0,{j})") for j in range(3))
    twist = 2 * fermat5.hyperplane_class - a - b - c
    assert list(_oracle_candidates(twist)) == []
    got = list(_candidates(_QUARTIC_LEAD, twist))
    assert len(got) == 75 and all(cand.total == twist for cand in got)
    assert str(got[0]) == "H - L[01|23](0,0) | L[01|23](0,0) | L[01|23](0,3) | L[01|23](0,4)"
