"""Fermat membership on the Plücker minors against the binomial expansion.

line_on_fermat tests, for every j, [j=d] + [j=0] + (-1)^d * sum_r a_r^j *
b_r^(d-j) over the pivot rows, times p_k^d so that it is a form in the
minors; the oracle expands sum_i (s*p_i + t*q_i)^d over two spanning points.
The two must agree on every line and degree, and membership never reads the
canonical rows or inverts anything.
"""

import pytest
from hypothesis import given, settings

from acmcurves import repro
from acmcurves.cyclo import rational, zeta
from acmcurves.geometry import PLUCKER_INDICES, Line, line_on_fermat

from fermat_oracle import on_fermat_by_expansion
from strategies import DEGREES, lines_and_degrees


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


def test_membership_never_canonicalizes(request, monkeypatch, fermat4, fermat5):
    calls = []

    def recording(line, d):
        calls.append((line, d, line_on_fermat(line, d)))
        return calls[-1][2]

    monkeypatch.setattr(repro, "line_on_fermat", recording)
    assert repro.verify_all().ok
    # ex4.3's Gamma: its forms come in the opposite order to its pivots
    one, zero = rational(1), rational(0)
    gamma = Line((zero, one, one, zero), (one, zero, zero, zeta(5) ** 4))
    assert gamma.minors[PLUCKER_INDICES.index(gamma.pivots)] == -1
    assert (gamma, 5, True) in calls
    cases = [(line, d) for line, d, _ in calls] + [(gamma, 5)]
    cases += [(line, 4) for line in fermat4.lines] + [(line, 5) for line in fermat5.lines]
    work = request.getfixturevalue("canonical_work")
    got = [line_on_fermat(line, d) for line, d in cases]
    assert work == {"rows": [], "inverse": []}
    assert got == [want for _, _, want in calls] + [True] * (1 + 48 + 75)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lines_and_degrees())
def test_membership_matches_the_oracle_on_literal_lines(case):
    kind, line, d = case
    got = line_on_fermat(line, d)
    assert got == on_fermat_by_expansion(line, d)
    if kind == "standard" or (kind == "ruling" and d == 2):
        assert got
