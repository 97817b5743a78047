"""Lines in P^3: canonical forms, incidence determinants, Fermat membership."""

import itertools
import random

import pytest

from acmcurves.cyclo import rational, zeta
from acmcurves.geometry import (
    GeometryError,
    Incidence,
    Line,
    line_on_fermat,
    lines_meet,
)

from det_oracle import stacked_determinant
from fermat_oracle import points

ONE = rational(1)
ZERO = rational(0)


def _line(c1, c2):
    return Line(tuple(c1), tuple(c2))


@pytest.fixture(scope="module")
def skew_pair():
    # the two skew lines on the Fermat quintic used throughout
    xi = zeta(5)
    l1 = _line((ONE, ONE, ZERO, ZERO), (ZERO, ZERO, ONE, ONE))
    l2 = _line((ONE, ZERO, ONE, ZERO), (ZERO, ONE, ZERO, xi))
    return l1, l2


def test_canonicalization_is_row_space_invariant():
    l1 = _line((ONE, ONE, ZERO, ZERO), (ZERO, ZERO, ONE, ONE))
    l2 = _line((ZERO, ZERO, ONE, ONE), (ONE, ONE, ZERO, ZERO))
    mixed = _line((ONE, ONE, ONE, ONE), (ZERO, ZERO, rational(2), rational(2)))
    assert l1 == l2 == mixed
    assert hash(l1) == hash(l2) == hash(mixed)


def test_rank_one_rejected():
    with pytest.raises(GeometryError):
        Line((ONE, ONE, ZERO, ZERO), (rational(2), rational(2), ZERO, ZERO))


def test_zero_form_rejected():
    with pytest.raises(GeometryError):
        Line((ZERO, ZERO, ZERO, ZERO), (ONE, ZERO, ZERO, ZERO))


_TYPE = "expected a cyclotomic or rational coefficient, got "
_COUNT = "a linear form needs exactly 4 coefficients"
_ZERO = "the zero form does not define a plane"


@pytest.mark.parametrize(
    "f1, f2, error, text",
    [
        # each coefficient is checked first, then the count, then zero,
        # and the first form before the second
        (("x", 0, 0, 0), (1, 0, 0, 0), TypeError, _TYPE + "'x'"),
        ((0, 0, 0, "y"), ("x", 0, 0, 0), TypeError, _TYPE + "'y'"),
        ((1.5, 0, 0, 0), (0, 0, 0, 0), TypeError, _TYPE + "1.5"),
        ((0, 0, "x"), (1, 0, 0, 0), TypeError, _TYPE + "'x'"),
        ((0, 0, 0), (1, 0, 0, 0), GeometryError, _COUNT),
        ((0, 0, 0, 0, 0), (1, 0, 0, 0), GeometryError, _COUNT),
        ((0, 0, 0, 0), (1, 0, 0), GeometryError, _ZERO),
        ((1, 0, 0, 0), (0, 0, 0), GeometryError, _COUNT),
        ((1, 0, 0, 0), (0, 0, 0, 0), GeometryError, _ZERO),
    ],
)
def test_form_errors_come_in_order(f1, f2, error, text):
    with pytest.raises(error) as err:
        Line(f1, f2)
    assert type(err.value) is error and str(err.value) == text


def test_skew_pair_determinant(skew_pair):
    l1, l2 = skew_pair
    det = stacked_determinant(l1, l2)
    assert det == zeta(5) - 1
    assert lines_meet(l1, l2) is Incidence.SKEW


def test_same_line(skew_pair):
    l1, _ = skew_pair
    assert lines_meet(l1, l1) is Incidence.SAME


def test_meeting_pair():
    # both lines lie on x0+x1+x2+x3 = 0 type configurations and share a point
    g = _line((ONE, ONE, ZERO, ZERO), (ZERO, ZERO, ONE, ONE))
    gt = _line((ONE, ZERO, ONE, ZERO), (ZERO, ONE, ZERO, ONE))
    assert lines_meet(g, gt) is Incidence.MEET
    assert stacked_determinant(g, gt).is_zero()


def test_meet_is_symmetric_and_det_criterion_matches(skew_pair):
    rng = random.Random(3)
    samples = []
    for _ in range(12):
        coeffs = [
            [zeta(5, rng.randrange(5)) if rng.random() < 0.6 else rational(rng.randint(0, 2)) for _ in range(4)]
            for _ in range(2)
        ]
        try:
            samples.append(_line(coeffs[0], coeffs[1]))
        except GeometryError:
            continue
    samples.extend(skew_pair)
    for a, b in itertools.combinations(samples, 2):
        rel = lines_meet(a, b)
        assert rel is lines_meet(b, a)
        if rel is not Incidence.SAME:
            det = stacked_determinant(a, b)
            assert det.is_zero() == (rel is Incidence.MEET)


def _on_fermat_by_point_evaluation(line, d):
    # independent membership oracle: a degree-d form vanishes on the line
    # iff it vanishes at d+1 distinct parameter points
    p, q = points(line)
    for t in range(d + 1):
        pt = [a + b * t for a, b in zip(p, q)]
        val = sum((c**d for c in pt), rational(0))
        if not val.is_zero():
            return False
    return True


def test_membership_quintic(skew_pair):
    l1, l2 = skew_pair
    assert line_on_fermat(l1, 5)
    assert line_on_fermat(l2, 5)
    assert _on_fermat_by_point_evaluation(l1, 5)
    assert _on_fermat_by_point_evaluation(l2, 5)


def test_membership_quartic_with_eighth_roots():
    om = zeta(8)
    g1 = _line((ONE, om, ZERO, ZERO), (ZERO, ZERO, ONE, om))
    assert line_on_fermat(g1, 4)
    assert _on_fermat_by_point_evaluation(g1, 4)
    bad = _line((ONE, ZERO, om, ZERO), (ZERO, ONE, ZERO, om**2))
    assert not line_on_fermat(bad, 4)
    assert not _on_fermat_by_point_evaluation(bad, 4)


def test_membership_rejects_wrong_coefficients():
    bad = _line((ONE, ONE, ZERO, ZERO), (ZERO, ZERO, ONE, rational(2)))
    assert not line_on_fermat(bad, 5)
    assert not _on_fermat_by_point_evaluation(bad, 5)


def test_membership_degree_bounds():
    l1 = _line((ONE, ONE, ZERO, ZERO), (ZERO, ZERO, ONE, ONE))
    with pytest.raises(GeometryError):
        line_on_fermat(l1, 1)
    with pytest.raises(GeometryError):
        line_on_fermat(l1, 13)
    assert not line_on_fermat(l1, 12)  # within the bound, just not a member
    assert line_on_fermat(l1, 3)


def test_points_lie_on_the_line(skew_pair):
    for line in skew_pair:
        for pt in points(line):
            for row in line.rows:
                val = sum((c * x for c, x in zip(row, pt)), rational(0))
                assert val.is_zero()


def test_cross_order_line_equality():
    # same line entered with rational and with lifted coefficients
    a = _line((ONE, ONE, ZERO, ZERO), (ZERO, ZERO, ONE, ONE))
    lifted_one = zeta(5, 5)  # equals 1, declared in Q(zeta_5)
    b = _line((lifted_one, ONE, ZERO, ZERO), (ZERO, ZERO, ONE, lifted_one))
    assert a == b
    assert hash(a) == hash(b)
