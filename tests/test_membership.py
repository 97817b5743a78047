"""Fermat membership from pivot-row powers against the binomial expansion.

line_on_fermat tests, for every j, [j=d] + [j=0] + (-1)^d * sum_r a_r^j *
b_r^(d-j) over the pivot rows; the oracle expands sum_i (s*p_i + t*q_i)^d
over two spanning points.  The two must agree on every line and degree.
"""

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from acmcurves import repro
from acmcurves.cyclo import rational, zeta
from acmcurves.geometry import GeometryError, Line, line_on_fermat
from acmcurves.surfaces import PAIRINGS

from fermat_oracle import on_fermat_by_expansion
from strategies import ORDERS, coefficients, forms

DEGREES = range(2, 7)


@pytest.mark.parametrize("fixture, d, nlines", [("fermat4", 4, 48), ("fermat5", 5, 75)])
def test_membership_matches_the_oracle_on_the_atlas(request, fixture, d, nlines):
    lines = request.getfixturevalue(fixture).lines
    assert len(lines) == nlines
    for line in lines:
        assert line_on_fermat(line, d)
        for e in DEGREES:
            assert line_on_fermat(line, e) == on_fermat_by_expansion(line, e)


def test_membership_matches_the_oracle_on_the_repro_lines(monkeypatch):
    calls = []

    def recording(line, d):
        got = line_on_fermat(line, d)
        calls.append((line, d, got, on_fermat_by_expansion(line, d)))
        return got

    monkeypatch.setattr(repro, "line_on_fermat", recording)
    assert repro.verify_all().ok
    assert len(calls) >= 10
    assert all(got == want for _, _, got, want in calls)
    # ex2.1 prints x0 + w*x2 = x1 + w^2*x3, which is not on the quartic
    one, zero, w = rational(1), rational(0), zeta(8)
    printed = Line((one, zero, w, zero), (zero, one, zero, w**2))
    assert [(line, d) for line, d, got, _ in calls if not got] == [(printed, 4)]


@st.composite
def lines_and_degrees(draw):
    """(kind, line, d) for d in 2..6.

    kind "random": a literal line at orders 1, 5, 8 or 40.  kind "ruling":
    a ruling of the Fermat quadric, x0 + i*x1 = lam*(x2 + e*i*x3) and
    lam*(x0 - i*x1) = -(x2 - e*i*x3) with e = +-1, whose pivot rows are
    dense; it lies on the surface for d = 2.  kind "standard": the line
    x_p + alpha*x_q = x_r + beta*x_s = 0 with (-alpha)^d = (-beta)^d = -1,
    which lies on the surface of degree d.
    """
    d = draw(st.sampled_from(DEGREES))
    n = draw(st.sampled_from(ORDERS))
    kind = draw(st.sampled_from(("random", "ruling", "standard")))
    if kind == "random":
        f1, f2 = draw(forms(n)), draw(forms(n))
    elif kind == "ruling":
        i, lam, e = zeta(4), draw(coefficients(n)), draw(st.sampled_from((1, -1)))
        f1 = (1, i, -lam, -e * lam * i)
        f2 = (lam, -lam * i, 1, -e * i)
    else:
        p, q, r, s = draw(st.sampled_from(PAIRINGS))
        # (-zeta_2d^k)^d = -1 exactly for k = d + 1 mod 2
        alpha = zeta(2 * d, 2 * draw(st.integers(0, d - 1)) + 1 - d % 2)
        beta = zeta(2 * d, 2 * draw(st.integers(0, d - 1)) + 1 - d % 2)
        f1, f2 = [0] * 4, [0] * 4
        f1[p], f1[q], f2[r], f2[s] = 1, alpha, 1, beta
    try:
        return kind, Line(f1, f2), d
    except GeometryError:  # a zero form or a rank-1 pair
        reject()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lines_and_degrees())
def test_membership_matches_the_oracle_on_literal_lines(case):
    kind, line, d = case
    got = line_on_fermat(line, d)
    assert got == on_fermat_by_expansion(line, d)
    if kind == "standard" or (kind == "ruling" and d == 2):
        assert got
