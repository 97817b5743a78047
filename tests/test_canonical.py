"""Canonical lines by Cramer's rule against the row reduction they replaced.

A Line reads its RREF rows off its Plücker coordinates, scaled by the
inverse of the first nonzero one.  The oracle in rref_oracle.py reduces the
stacked forms directly; the two must agree entry for entry, in the same
representation (order, numerators, denominator), and the canonical form
must not depend on which two forms of the pencil cut the line out.
"""

from math import lcm

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from acmcurves.cyclo import rational
from acmcurves.exprs import parse_line, parse_linear_form
from acmcurves.geometry import GeometryError, Line
from acmcurves.surfaces import PAIRINGS, _fermat_parameter

from rref_oracle import canonical_rows
from strategies import ORDERS, elements, forms


def _rep(values):
    return tuple((c.order, c.nums, c.den) for c in values)


def _state(line):
    return tuple(_rep(r) for r in line.rows), line.pivots


def _assert_matches_oracle(line, f1, f2):
    rows, pivots = canonical_rows(f1, f2)
    assert [list(_rep(r)) for r in line.rows] == rows
    assert list(line.pivots) == pivots


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(ORDERS).flatmap(lambda n: st.tuples(forms(n), forms(n))), st.data())
def test_cramer_rows_match_the_rref_oracle_and_the_pencil(pair, data):
    f1, f2 = pair
    try:
        line = Line(f1, f2)
    except GeometryError:  # a zero form or a rank-1 pair
        reject()
    _assert_matches_oracle(line, f1, f2)
    # other forms of the same pencil, drawn at the line's own order so that
    # the representation, not only the value, must agree
    n = lcm(*(c.order for c in f1 + f2))
    lam = data.draw(elements(n))
    mu = data.draw(elements(n).filter(lambda v: not v.is_zero()))
    state = _state(line)
    assert _state(Line(f2, f1)) == state
    assert _state(Line(tuple(a + lam * b for a, b in zip(f1, f2)),
                       tuple(mu * b for b in f2))) == state


def test_benchmark_literals_match_the_rref_oracle(session_literals):
    for text in session_literals:
        f1, f2 = (parse_linear_form(part) for part in text.split(";"))
        _assert_matches_oracle(parse_line(text), f1, f2)


@pytest.mark.parametrize("fixture, d", [("fermat4", 4), ("fermat5", 5)])
def test_atlas_lines_match_the_rref_oracle(request, fixture, d):
    lines = request.getfixturevalue(fixture).lines
    # the binomial forms of each atlas line, in atlas order
    forms = []
    for p, q, r, s in PAIRINGS:
        for a in range(d):
            for b in range(d):
                f1, f2 = [rational(0)] * 4, [rational(0)] * 4
                f1[p], f1[q] = rational(1), _fermat_parameter(d, a)
                f2[r], f2[s] = rational(1), _fermat_parameter(d, b)
                forms.append((f1, f2))
    assert len(lines) == len(forms) == 3 * d * d
    for line, (f1, f2) in zip(lines, forms):
        _assert_matches_oracle(line, f1, f2)
