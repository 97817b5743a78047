"""A zero residue under a norm bound proves an exact zero.

For x in Z[zeta_n] with a zero residue mod P and x != 0, P divides N(x),
while |N(x)| <= B^phi(n) for B the l1 norm of x's numerators.  So
B^phi(n) < P and a zero residue prove x = 0 (cyclo._proves_zero).  These
tests check that the certificate changes no answer of lines_meet,
Line.__eq__ or line_on_fermat, that elements of the kernel of the residue
map are never certified zero, and where the bound stops.
"""

from collections import Counter
from math import isqrt

import pytest
from hypothesis import given, settings

from acmcurves import geometry
from acmcurves.cli import main
from acmcurves.cyclo import (
    MAX_ORDER,
    RESIDUE_PRIME,
    _proves_zero,
    _residue,
    get_order,
    rational,
    zeta,
)
from acmcurves.exprs import parse_line
from acmcurves.geometry import Incidence, Line, line_on_fermat, lines_meet

from fermat_oracle import on_fermat_by_expansion
from strategies import line_pairs, lines_and_degrees

_P = RESIDUE_PRIME
# the integer image of zeta_5: zeta_5 - _W5 lies in the kernel of the residue map
_W5 = _residue(zeta(5).nums, get_order(5))


def _uncertified(call):
    """call() with the norm bound switched off, so every zero residue falls
    through to exact arithmetic."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_proves_zero", lambda bound, n: False)
        return call()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(line_pairs())
def test_certificate_changes_no_incidence_or_equality(case):
    _, a, b = case

    def answers():
        return lines_meet(a, b), lines_meet(b, a), a == b, b == a

    assert answers() == _uncertified(answers)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(lines_and_degrees())
def test_certificate_changes_no_membership(case):
    _, line, d = case
    got = line_on_fermat(line, d)
    assert got == _uncertified(lambda: line_on_fermat(line, d))
    assert got == on_fermat_by_expansion(line, d)


def test_the_bound_stops_below_the_prime():
    # phi = 1 at orders 1 and 2: B^phi = P - 1 is certified, B^phi = P is not
    for n in (1, 2):
        assert _proves_zero(_P - 1, n)
        assert not _proves_zero(_P, n)
    # phi(5) = 4: the largest B with B^4 < P
    top = isqrt(isqrt(_P - 1))
    assert top**4 < _P < (top + 1) ** 4
    assert _proves_zero(top, 5) and not _proves_zero(top + 1, 5)
    assert _proves_zero(0, MAX_ORDER)
    # above the order cap nothing is certified, so the exact path decides
    assert not _proves_zero(0, 56)


# nonzero elements with residue 0: zeta_5 - w, and P itself
_KERNEL = {"zeta5-w": zeta(5) - _W5, "P": rational(_P)}


@pytest.mark.parametrize("kernel", sorted(_KERNEL))
def test_kernel_elements_are_never_certified_zero(kernel):
    x = _KERNEL[kernel]
    assert _residue(x.nums, get_order(x.order)) == 0
    assert not _proves_zero(sum(map(abs, x.nums)), x.order)
    base = Line((1, 0, 0, 0), (0, 1, 0, 0))
    # the pairing with base is the determinant of the stacked forms, x
    skew = Line((0, 0, 1, 0), (0, 0, 0, x))
    assert skew.residues[5] == 0
    assert lines_meet(base, skew) is Incidence.SKEW
    assert lines_meet(skew, base) is Incidence.SKEW
    # the only nonzero cross term with base is x
    other = Line((1, 0, 0, 0), (0, 1, 0, x))
    assert other.residues[2] == 0
    assert base != other and other != base
    assert lines_meet(base, other) is Incidence.MEET


@pytest.mark.parametrize(
    "forms",
    [((1, _W5, 0, 0), (0, 0, 1, 1)), ((1, 1, 0, 0), (0, 0, 1, _W5))],
    ids=["first-row", "second-row"],
)
def test_kernel_coefficient_keeps_a_line_off_the_surface(forms):
    # with w in either pivot row, the quintic restricts to (1 - w^5)*s^5 or
    # (1 - w^5)*t^5, whose residue is 0 since w^5 = 1 mod P, but 1 - w^5 != 0
    line = Line(*forms)
    assert (1 - _W5**5) % _P == 0
    assert not line_on_fermat(line, 5)
    assert not on_fermat_by_expansion(line, 5)
    # with w = 1 the line x0 + x1 = x2 + x3 = 0 is on it
    assert line_on_fermat(Line((1, 1, 0, 0), (0, 0, 1, 1)), 5)


# P is 1 mod 4, so it is a sum of two squares
_S, _A = 100_750_020, 208_035_449


def test_the_membership_bound_counts_the_constant_term():
    # on x0 + a*x1 = x2 + a*x3 = 0 with a = A/S the quadric restricts to
    # (1 + a^2)*(s^2 + t^2); S^2 * (1 + a^2) = P has residue 0, and only the
    # constant S^2 takes its bound, 2*S^2 + A^2, past P
    assert _S**2 + _A**2 == _P and _A**2 < _P
    a = rational(_A, _S)
    line = Line((1, a, 0, 0), (0, 0, 1, a))
    assert not line_on_fermat(line, 2)
    assert not on_fermat_by_expansion(line, 2)


@pytest.mark.parametrize("c, certified", [((_P - 1) // 2, True), ((_P + 1) // 2, False)])
def test_the_pairing_bound_at_the_prime(monkeypatch, c, certified):
    # pairing p01*q23 - p02*q13 = c - c = 0 with bound c + c, around P
    a, b = Line((1, 0, 0, 0), (0, 1, 1, 0)), Line((0, 1, 1, 0), (0, 0, 0, c))
    exact = []
    pairing = geometry._pairing_numerators

    def counting(a, b):
        exact.append((a, b))
        return pairing(a, b)

    monkeypatch.setattr(geometry, "_pairing_numerators", counting)
    assert lines_meet(a, b) is Incidence.MEET
    assert exact == ([] if certified else [(a, b)])


def test_the_seed1_literal_pairs_take_the_exact_pairing_at_most_66_times(monkeypatch,
                                                                           session_literals):
    # how far the norm bound reaches on the benchmark's own order-40 lines
    lines = [parse_line(t) for t in session_literals]
    exact = []
    pairing = geometry._pairing_numerators

    def counting(a, b):
        exact.append((a, b))
        return pairing(a, b)

    monkeypatch.setattr(geometry, "_pairing_numerators", counting)
    answers = Counter(lines_meet(a, b) for a, b in zip(lines[::2], lines[1::2]))
    assert answers == {Incidence.MEET: 72, Incidence.SKEW: 72}
    assert len(exact) <= 66


def test_meeting_lines_above_the_order_cap_still_fail(capsys):
    # orders 7 and 8 meet at (0:0:0:1); their pairing lives at order 56
    code = main(["intersect", "x0 + zeta(7)*x1 ; x2", "x0 + zeta(8)*x1 ; x2 + zeta(8)*x1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip() == "error: cyclotomic order 56 exceeds the supported cap 40"
