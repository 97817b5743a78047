"""Divisor classes compare equal up to numerical equivalence.

On a Fermat surface the d atlas lines of one plane sum to the plane section
H, so H - sum_b L[pq|rs](a,b) and H - sum_a L[pq|rs](a,b) are numerically
zero although their coefficients are not.  Adding them to a class must not
change its equality, hash, invariants, witness verdict or searched witness;
it changes only how the class prints.
"""

import functools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmcurves.classify import Status, check_witness, search_witness
from acmcurves.cli import main
from acmcurves.divisors import Decomposition, chi, degree, genus, pair
from acmcurves.surfaces import PAIRINGS, _line_name, fermat_model

from witness_targets import TARGETS

README_P47 = "2*H - L[01|23](0,0) - L[02|13](0,1) - L[02|13](0,2)"
README_P47_WITNESS = ("L[01|23](0,0)", "L[02|13](0,1)", "L[02|13](0,2)")


def plane_relations(model):
    """The 6d numerically zero classes H - (the d lines of one plane)."""
    d = model.degree
    out = []
    for pairing in PAIRINGS:
        for fixed in range(d):
            for plane in ([(fixed, b) for b in range(d)], [(a, fixed) for a in range(d)]):
                lines = (model.gen_class(_line_name(pairing, a, b)) for a, b in plane)
                out.append(sum(lines, model.zero_class()))
    return [model.hyperplane_class - s for s in out]


@pytest.mark.parametrize("fixture, count", [("fermat4", 24), ("fermat5", 30)])
def test_plane_relations_are_numerically_zero(request, fixture, count):
    model = request.getfixturevalue(fixture)
    relations = plane_relations(model)
    assert len(set(r.coeffs for r in relations)) == count
    zero = model.zero_class()
    for z in relations:
        assert not z.is_zero()
        assert z == zero and hash(z) == hash(zero)
        assert all(pair(z, model.gen_class(g)) == 0 for g in model.generators)


def test_the_rewritten_readme_target_takes_its_witness(fermat5):
    target = fermat5.parse(README_P47)
    z = plane_relations(fermat5)[0]
    assert str(z) == ("H - L[01|23](0,0) - L[01|23](0,1) - L[01|23](0,2) "
                      "- L[01|23](0,3) - L[01|23](0,4)")
    witness = Decomposition.of(*(fermat5.parse(name) for name in README_P47_WITNESS))
    verdict = check_witness("P4.7", target + z, witness)
    assert (verdict.status, verdict.rule) == (Status.NOT_ACM, "Prop4.7(b)")


def test_unequal_classes_stay_unequal(fermat5):
    a, b = fermat5.parse("L[01|23](0,0)"), fermat5.parse("L[01|23](0,1)")
    assert a != b and a + b != 2 * a
    assert fermat5.hyperplane_class != fermat5.zero_class()


def test_a_class_never_equals_a_tuple(fermat5):
    H = fermat5.hyperplane_class
    assert H != H.coeffs and H.coeffs != H
    assert fermat5.zero_class() != (0,) * fermat5.ngens
    assert H not in {H.coeffs}


@functools.cache
def _baseline(prop):
    model_name, text = TARGETS[prop]
    target = fermat_model(int(model_name[-1])).parse(text)
    witness = search_witness(prop, target, bound=10)
    assert witness is not None, prop
    verdict = check_witness(prop, target, witness)
    return target, witness, (verdict.status, verdict.rule)


def _rewritten(data, target):
    """target plus an integer combination, drawn from data, of the plane relations."""
    shift = target.model.zero_class()
    for z in plane_relations(target.model):
        shift = shift + data.draw(st.integers(-2, 2)) * z
    return target + shift


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(TARGETS)), st.data())
def test_adding_plane_relations_changes_no_verdict(prop, data):
    target, witness, verdict = _baseline(prop)
    rewritten = _rewritten(data, target)
    assert rewritten == target and hash(rewritten) == hash(target)
    assert (degree(rewritten), genus(rewritten), chi(rewritten)) == (
        degree(target), genus(target), chi(target))
    got = check_witness(prop, rewritten, witness)
    assert (got.status, got.rule) == verdict


@pytest.mark.parametrize("prop", [p for p in sorted(TARGETS) if p != "P4.5"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_adding_plane_relations_changes_no_search_result(prop, data):
    """The search reads lines off intersection vectors, so a rewritten target
    yields the same witness, written alike.  P4.5 is left out: both its
    clauses are effective_sum, whose one candidate is certify_effective's
    certificate, and that reads the twist coefficient by coefficient.  The
    b1 clauses of P4.6 and C4.2 are effective_sum too and come first; the
    rewritings drawn here leave them without a certificate."""
    target, witness, _ = _baseline(prop)
    assert str(search_witness(prop, _rewritten(data, target), bound=10)) == str(witness)


def test_the_rewritten_readme_target_is_found_from_the_cli(capsys):
    z = plane_relations(fermat_model(5))[0]
    argv = ["witness", "search", "--prop", "P4.7", "--target", f"{README_P47} + {z}"]
    assert main(argv) == 0
    golden = Path(__file__).parent / "golden" / "witness_P4.7_rewritten.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
