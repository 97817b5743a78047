"""Plücker incidence against the cofactor determinant it replaced.

The Klein-quadric pairing of two lines' Plücker coordinates is the Laplace
expansion of the stacked 4x4 determinant along its first two rows, so the
two must agree value for value, not only in whether they vanish.  A nonzero
residue of the pairing certifies SKEW without it; those tests are here too.
"""

import itertools

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from acmcurves import geometry
from acmcurves.cyclo import RESIDUE_PRIME, rational, zeta
from acmcurves.geometry import GeometryError, Incidence, Line, _plucker_pairing, lines_meet

from det_oracle import stacked_determinant
from strategies import ORDERS, coefficients, forms


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


@pytest.mark.parametrize("fixture, nmeet", [("fermat4", 336), ("fermat5", 675)])
def test_only_meeting_pairs_take_the_exact_pairing(request, monkeypatch, fixture, nmeet):
    lines = request.getfixturevalue(fixture).lines
    exact = []
    original = geometry._pairing_numerators

    def counting(a, b):
        exact.append((a, b))
        return original(a, b)

    monkeypatch.setattr(geometry, "_pairing_numerators", counting)
    meeting = [
        (a, b)
        for a, b in itertools.combinations(lines, 2)
        if lines_meet(a, b) is not Incidence.SKEW
    ]
    assert len(meeting) == nmeet
    assert exact == meeting


def _residue_pairing(a, b):
    p, q = a.image, b.image
    return (
        p[0] * q[5] - p[1] * q[4] + p[2] * q[3] + p[3] * q[2] - p[4] * q[1] + p[5] * q[0]
    ) % RESIDUE_PRIME


_P = rational(RESIDUE_PRIME)
_ONE_OVER_P = rational(1, RESIDUE_PRIME)
_Z40 = zeta(40)
# lines whose coefficients carry the residue prime in a numerator or a
# denominator: (expected answer, a's forms, b's forms)
_PRIME_CASES = {
    # exact pairing P: a zero residue, decided by the exact pairing
    "pairing-P": (
        Incidence.SKEW, ((1, _P, 0, 0), (0, 0, 1, 1)), ((1, 0, 0, 0), (0, 1, 0, 1))
    ),
    "pairing-1/P": (
        Incidence.SKEW, ((1, _ONE_OVER_P, 0, 0), (0, 0, 1, 1)), ((1, 0, 0, 0), (0, 1, 0, 1))
    ),
    "order-40-skew": (
        Incidence.SKEW,
        ((1, _Z40 * _ONE_OVER_P, 0, 0), (0, 0, 1, zeta(8) * rational(1, 2 * RESIDUE_PRIME))),
        ((1, 0, 1, 0), (0, 1, 0, zeta(5))),
    ),
    "order-40-meet": (
        Incidence.MEET,
        ((1, _Z40 * _ONE_OVER_P, 0, 0), (0, 0, 1, 1)),
        ((1, _Z40 * _ONE_OVER_P, _P, _P), (0, 1, 0, -_ONE_OVER_P)),
    ),
    "order-40-same": (
        Incidence.SAME,
        ((1, _Z40 * _ONE_OVER_P, 0, 0), (0, 0, 1, 1)),
        ((_P, _Z40, 1, 1), (1, _Z40 * _ONE_OVER_P, -_Z40, -_Z40)),
    ),
}


@pytest.mark.parametrize("case", sorted(_PRIME_CASES))
def test_residue_prime_in_coefficients_keeps_the_exact_answer(case):
    expected, (f1, f2), (g1, g2) = _PRIME_CASES[case]
    a, b = Line(f1, f2), Line(g1, g2)
    det = stacked_determinant(a, b)
    rel = lines_meet(a, b)
    assert rel is lines_meet(b, a)
    if det.is_zero():
        assert rel is (Incidence.SAME if a == b else Incidence.MEET)
    else:
        assert rel is Incidence.SKEW
    assert rel is expected
    if case == "pairing-P":
        assert _residue_pairing(a, b) == 0 and not det.is_zero()


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
