"""Plücker incidence against the cofactor determinant it replaced.

The Klein-quadric pairing of two lines' Plücker coordinates is the Laplace
expansion of the stacked 4x4 determinant along its first two rows, so the
two must agree value for value, not only in whether they vanish.
"""

import itertools

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from acmcurves.cyclo import rational, zeta
from acmcurves.geometry import GeometryError, Incidence, Line, _plucker_pairing, lines_meet

from det_oracle import stacked_determinant


@pytest.mark.parametrize("fixture, npairs", [("fermat4", 1128), ("fermat5", 2775)])
def test_pairing_equals_determinant_on_the_atlas(request, fixture, npairs):
    lines = request.getfixturevalue(fixture).lines
    pairs = list(itertools.combinations(lines, 2))
    assert len(pairs) == npairs
    for a, b in pairs:
        det = stacked_determinant(a, b)
        assert _plucker_pairing(a, b) == det
        assert lines_meet(a, b) is (Incidence.MEET if det.is_zero() else Incidence.SKEW)


def test_skew_pairs_skip_the_equality_test(fermat5, monkeypatch):
    compared = []
    original = Line.__eq__

    def counting_eq(self, other):
        compared.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Line, "__eq__", counting_eq)
    meets = sum(
        lines_meet(a, b) is Incidence.MEET
        for a, b in itertools.combinations(fermat5.lines, 2)
    )
    assert len(compared) == meets


# coefficient orders; each line draws its coefficients at the divisors of
# one of them, so every lcm stays within the cap of 40
ORDERS = (1, 5, 8, 40)


@st.composite
def coefficients(draw, line_order):
    n = draw(st.sampled_from([m for m in ORDERS if line_order % m == 0]))
    value = rational(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(0, 2))):
        value = value + draw(st.integers(-2, 2)) * zeta(n, draw(st.integers(0, n - 1)))
    return value


def forms(line_order):
    return st.tuples(*(coefficients(line_order) for _ in range(4)))


@st.composite
def line_pairs(draw):
    """(kind, a, b): b random, b coplanar with a, or b the same line as a."""
    na, nb = draw(st.sampled_from(ORDERS)), draw(st.sampled_from(ORDERS))
    f1, f2 = draw(forms(na)), draw(forms(na))
    kind = draw(st.sampled_from(("random", "coplanar", "same")))

    def in_span():  # a form vanishing on the line f1 = f2 = 0
        s, t = draw(coefficients(nb)), draw(coefficients(nb))
        return tuple(s * u + t * v for u, v in zip(f1, f2))

    g = draw(forms(nb)) if kind == "random" else in_span()
    h = in_span() if kind == "same" else draw(forms(nb))
    try:
        return kind, Line(f1, f2), Line(g, h)
    except GeometryError:  # a zero form or a rank-1 pair
        reject()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(line_pairs())
def test_pairing_equals_determinant_on_literal_lines(case):
    kind, a, b = case
    pairing = _plucker_pairing(a, b)
    assert pairing == stacked_determinant(a, b)
    assert pairing == _plucker_pairing(b, a)
    rel = lines_meet(a, b)
    assert rel is lines_meet(b, a)
    assert (rel is Incidence.SAME) == (a == b)
    assert (rel is Incidence.SKEW) == (not pairing.is_zero())
    if kind == "same":
        assert rel is Incidence.SAME
    elif kind == "coplanar":
        assert rel is not Incidence.SKEW
