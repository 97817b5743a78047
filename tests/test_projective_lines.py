"""Lines as projective Plücker points, against the row reduction oracle.

A Line keeps only the minors of its input forms and decides equality and
incidence on them; its canonical RREF form is derived on each read, to print
or hash it.  Equality must agree with comparing the oracle's canonical rows,
incidence with the determinant of the stacked input forms, and neither may
read the canonical form or invert anything.  The residues of a line's minors
may all vanish (a minor divisible by the residue prime), and then only exact
arithmetic may decide.
"""

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from acmcurves.cyclo import RESIDUE_PRIME, CycNum, _common_order, _wrap, rational, zeta
from acmcurves.exprs import parse_line, parse_linear_form
from acmcurves.geometry import GeometryError, Incidence, Line, line_on_fermat, lines_meet

from det_oracle import _det
from rref_oracle import canonical_rows
from strategies import ORDERS, coefficients, forms


def _oracle_rows(f1, f2):
    """The oracle's canonical rows as values, and its pivot columns."""
    rows, pivots = canonical_rows([CycNum(c) for c in f1], [CycNum(c) for c in f2])
    return [[_wrap(*c) for c in row] for row in rows], pivots


def _oracle_equal(a, b):
    (ra, pa), (rb, pb) = a, b
    return pa == pb and all(x == y for row_a, row_b in zip(ra, rb) for x, y in zip(row_a, row_b))


@st.composite
def two_lines(draw):
    """(f1, f2, g1, g2): b = (g1, g2) random, or a re-spanning
    (lam*f1 + mu*f2, f2) of a = (f1, f2) with lam nonzero."""
    na, nb = draw(st.sampled_from(ORDERS)), draw(st.sampled_from(ORDERS))
    f1, f2 = draw(forms(na)), draw(forms(na))
    if draw(st.booleans()):
        g1, g2 = draw(forms(nb)), draw(forms(nb))
    else:
        lam = draw(coefficients(nb).filter(lambda v: not v.is_zero()))
        mu = draw(coefficients(nb))
        g1, g2 = tuple(lam * u + mu * v for u, v in zip(f1, f2)), f2
        if draw(st.booleans()):
            g1, g2 = g2, g1
    return f1, f2, g1, g2


@settings(max_examples=120, deadline=None, derandomize=True)
@given(two_lines())
def test_equality_matches_the_oracle_rows(case):
    f1, f2, g1, g2 = case
    try:
        a, b = Line(f1, f2), Line(g1, g2)
    except GeometryError:  # a zero form or a rank-1 pair
        reject()
    equal = _oracle_equal(_oracle_rows(f1, f2), _oracle_rows(g1, g2))
    assert (a == b) is equal
    assert (b == a) is equal
    assert (lines_meet(a, b) is Incidence.SAME) is equal
    if equal:
        assert hash(a) == hash(b)


def _expected_incidence(text_a, text_b):
    """SAME, MEET or SKEW from the stacked input forms and the oracle rows."""
    fa, fb = ([parse_linear_form(p) for p in t.split(";")] for t in (text_a, text_b))
    n, coeffs = _common_order(tuple(fa[0] + fa[1] + fb[0] + fb[1]))
    values = [c.lift(n) for c in coeffs]
    if not _det([values[4 * r:4 * r + 4] for r in range(4)]).is_zero():
        return Incidence.SKEW
    if _oracle_equal(_oracle_rows(*fa), _oracle_rows(*fb)):
        return Incidence.SAME
    return Incidence.MEET


def test_literal_pairs_meet_without_inverting_or_canonicalizing(canonical_work,
                                                                session_literals):
    pairs = list(zip(session_literals[::2], session_literals[1::2]))
    assert len(pairs) == 144
    lines = [(parse_line(a), parse_line(b)) for a, b in pairs]
    answers = [lines_meet(a, b) for a, b in lines]
    assert canonical_work == {"rows": [], "inverse": []}
    assert answers == [_expected_incidence(a, b) for a, b in pairs]
    # the canonical rows, derived when read, are those of the row reduction
    for (text_a, text_b), pair in zip(pairs, lines):
        for text, line in zip((text_a, text_b), pair):
            f1, f2 = (parse_linear_form(p) for p in text.split(";"))
            rows, pivots = canonical_rows(f1, f2)
            assert [[(c.order, c.nums, c.den) for c in row] for row in line.rows] == rows
            assert list(line.pivots) == pivots


_P = RESIDUE_PRIME
# lines whose minors all have residue 0: (expected answer, a's forms, b's forms)
_VANISHING_CASES = {
    "same": (
        Incidence.SAME, ((_P, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 1, 0, 0))
    ),
    "meet-other-pivots": (
        Incidence.MEET, ((_P, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 0, 1, 0))
    ),
    "meet-same-pivots": (
        Incidence.MEET, ((_P, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 1, 0, 1))
    ),
    "meet-later-pivots": (
        Incidence.MEET, ((0, _P, 0, 0), (0, 0, 1, 0)), ((0, 1, 0, 0), (0, 0, 1, 1))
    ),
    "same-later-pivots": (
        Incidence.SAME, ((0, _P, 0, 0), (0, 0, 1, 0)), ((0, 1, 0, 0), (0, 0, _P, 0))
    ),
    "both-vanish-meet": (
        Incidence.MEET, ((_P, 0, 0, 0), (0, 1, 0, 0)), ((_P, 0, 0, 0), (0, 1, 0, _P))
    ),
    "both-vanish-skew": (
        Incidence.SKEW, ((_P, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, _P, 0), (0, 0, 0, 1))
    ),
}


@pytest.mark.parametrize("case", sorted(_VANISHING_CASES))
def test_vanishing_residues_keep_the_exact_answer(case):
    expected, (f1, f2), (g1, g2) = _VANISHING_CASES[case]
    a, b = Line(f1, f2), Line(g1, g2)
    assert not any(a.residues)
    assert lines_meet(a, b) is expected
    assert lines_meet(b, a) is expected
    equal = _oracle_equal(_oracle_rows(f1, f2), _oracle_rows(g1, g2))
    assert equal is (expected is Incidence.SAME)
    assert (a == b) is equal and (b == a) is equal
    if equal:  # a hash that reads the residues must still agree on these
        assert hash(a) == hash(b)


# forms with denominators, each once as written and once times 2 and 3
_HALF, _THIRD = rational(1, 2), rational(1, 3)
_FRACTIONAL_FORMS = {
    "off-fermat": ((1, _HALF * zeta(5), 0, 0), (0, 0, 3, _THIRD)),
    "on-fermat5": ((_HALF, _HALF * zeta(5), 0, 0), (0, 0, _THIRD, _THIRD)),
}


@pytest.mark.parametrize("case", sorted(_FRACTIONAL_FORMS))
def test_minors_are_integral_and_clearing_denominators_keeps_every_answer(fermat5, case):
    f1, f2 = _FRACTIONAL_FORMS[case]
    line = Line(f1, f2)
    cleared = Line([2 * c for c in f1], [3 * c for c in f2])
    assert all(p.den == 1 for p in line.minors)
    assert line.minors == cleared.minors
    assert (line.residues, line.norms) == (cleared.residues, cleared.norms)
    assert line.rows == cleared.rows
    assert line == cleared and cleared == line
    others = (line, cleared) + fermat5.lines
    assert [lines_meet(line, m) for m in others] == [lines_meet(cleared, m) for m in others]
    assert [m == line for m in others] == [m == cleared for m in others]
    assert ([line_on_fermat(line, d) for d in range(2, 7)]
            == [line_on_fermat(cleared, d) for d in range(2, 7)])
    assert line_on_fermat(line, 5) is (case == "on-fermat5")


def test_building_a_line_never_lifts_a_zero(monkeypatch):
    f1, f2 = (parse_linear_form(p) for p in ("x0 + 3*zeta(40)^13*x1", "x2 + zeta(5)*x3"))
    lifted = []
    lift = CycNum.lift

    def counting_lift(self, n):
        if self.is_zero():
            lifted.append((self.order, n))
        return lift(self, n)

    monkeypatch.setattr(CycNum, "lift", counting_lift)
    line = Line(f1, f2)
    assert lifted == []
    assert line.minors[0].order == 40
