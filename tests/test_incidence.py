"""Plücker incidence against the cofactor determinant it replaced.

The Klein-quadric pairing of two lines' Plücker coordinates is the Laplace
expansion of the stacked 4x4 determinant along its first two rows, so the
two must agree value for value, not only in whether they vanish.  A nonzero
residue of the pairing certifies SKEW without it, and a zero one MEET when
the norm bound allows; those tests are here too.
"""

import itertools

import pytest
from hypothesis import given, settings

from acmcurves import geometry
from acmcurves.cyclo import RESIDUE_PRIME, rational, zeta
from acmcurves.geometry import Incidence, Line, lines_meet
from acmcurves.surfaces import build_fermat_model

from det_oracle import plucker_pairing, stacked_determinant
from strategies import line_pairs


@pytest.mark.parametrize("fixture, npairs", [("fermat4", 1128), ("fermat5", 2775)])
def test_pairing_equals_determinant_on_the_atlas(request, fixture, npairs):
    lines = request.getfixturevalue(fixture).lines
    pairs = list(itertools.combinations(lines, 2))
    assert len(pairs) == npairs
    for a, b in pairs:
        det = stacked_determinant(a, b)
        assert plucker_pairing(a, b) == det
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
def test_no_atlas_pair_takes_the_exact_pairing(request, monkeypatch, fixture, nmeet):
    """Every atlas pair ends at its residue: a nonzero one proves SKEW, and a
    zero one is a proof of MEET under the norm bound.  With the bound
    switched off, exactly the meeting pairs take the exact pairing, and the
    Gram is the same."""
    model = request.getfixturevalue(fixture)
    exact, powered = [], []
    pairing, powers = geometry._pairing_numerators, geometry._powers

    def counting_pairing(a, b):
        exact.append((a, b))
        return pairing(a, b)

    def counting_powers(x, d, order):
        powered.append(x)
        return powers(x, d, order)

    monkeypatch.setattr(geometry, "_pairing_numerators", counting_pairing)
    monkeypatch.setattr(geometry, "_powers", counting_powers)
    certified = build_fermat_model(model.degree)
    assert exact == [] and powered == []
    monkeypatch.setattr(geometry, "_proves_zero", lambda bound, n: False)
    uncertified = build_fermat_model(model.degree)
    assert len(exact) == nmeet
    assert powered
    assert certified.gram == uncertified.gram == model.gram


def _residue_pairing(a, b):
    p, q = a.residues, b.residues
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(line_pairs())
def test_pairing_equals_determinant_on_literal_lines(case):
    kind, a, b = case
    pairing = plucker_pairing(a, b)
    assert pairing == stacked_determinant(a, b)
    assert pairing == plucker_pairing(b, a)
    rel = lines_meet(a, b)
    assert rel is lines_meet(b, a)
    assert (rel is Incidence.SAME) == (a == b)
    assert (rel is Incidence.SKEW) == (not pairing.is_zero())
    if kind == "same":
        assert rel is Incidence.SAME
    elif kind == "coplanar":
        assert rel is not Incidence.SKEW
