"""Verdict engine: numeric tables, witness checking, bounded search."""

import json

import pytest

from acmcurves.classify import (
    QUARTIC_ACM,
    QUINTIC_ACM,
    QUINTIC_CONDITIONAL,
    WITNESS_SPECS,
    Status,
    check_witness,
    classify_numeric,
    nonacm_exists,
    render_verdict,
    search_witness,
    verdict_json,
)
from acmcurves.divisors import Decomposition, degree, genus, link, pair
from witness_targets import TARGETS


def test_classify_numeric_acm_examples():
    v = classify_numeric("quintic", 4, 1)
    assert v.status is Status.ACM and v.rule == "Thm1.2(iii)"
    assert any("Prop4.2" in (t.name or "") for t in v.trace)
    v = classify_numeric("quintic", 5, 3)
    assert v.status is Status.ACM and v.rule == "Thm1.2(ii)"
    v = classify_numeric("quartic", 5, 2)
    assert v.status is Status.ACM and v.rule == "Prop2.1(c)"


def test_classify_numeric_conditional_examples():
    v = classify_numeric("quintic", 7, 5)
    assert v.status is Status.CONDITIONAL and v.rule == "P4.7"
    v = classify_numeric("quartic", 6, 3)
    assert v.status is Status.CONDITIONAL and v.rule == "P2.2"


def test_classify_numeric_invalid_degree():
    assert classify_numeric("quintic", 0, 0).status is Status.INVALID
    assert classify_numeric("quintic", -2, 0).status is Status.INVALID


def test_classify_numeric_rejects_unknown_kind():
    with pytest.raises(ValueError):
        classify_numeric("sextic", 3, 0)


def test_out_of_table_trace_carries_obligations():
    # k = 3, degree 4 is excluded by the degree window
    v = classify_numeric("quintic", 4, 2)
    assert v.status is Status.OUT_OF_TABLE and v.rule == "Thm1.1"
    assert any(t.name == "degree window" and t.ok is False for t in v.trace)
    # k in the table range with an unchecked section-count obligation
    v = classify_numeric("quintic", 11, 12)  # k = 0, deg != 10
    assert v.status is Status.OUT_OF_TABLE
    assert any("unchecked" in (t.name or "") for t in v.trace)


def test_quartic_table():
    for (g, d), rule in QUARTIC_ACM.items():
        v = classify_numeric("quartic", d, g)
        assert v.status is Status.ACM and v.rule == rule
        assert any("assumption" in (t.name or "") for t in v.trace)
    assert classify_numeric("quartic", 4, 0).status is Status.OUT_OF_TABLE


def test_nonacm_exists_table():
    assert nonacm_exists(10, 0)
    assert nonacm_exists(9, 1)
    assert nonacm_exists(7, 2) and nonacm_exists(8, 2)
    assert nonacm_exists(7, 3)
    assert nonacm_exists(5, 4) and nonacm_exists(6, 4)
    assert not nonacm_exists(4, 4)
    assert not nonacm_exists(10, 2)


def test_tables_partition_the_theorem_region():
    acm = set(QUINTIC_ACM)
    cond = set(QUINTIC_CONDITIONAL)
    assert not (acm & cond)
    assert len(acm) == 8 and len(cond) == 7
    windows = {0: {10}, 1: {9}, 2: {1, 4, 7, 8}, 3: {2, 3, 5, 6, 7}, 4: {3, 4, 5, 6}}
    union = acm | cond
    assert union == {(k, d) for k, ds in windows.items() for d in ds}
    for k, d in acm:
        assert not nonacm_exists(d, k)
    for k, d in cond:
        assert classify_numeric("quintic", d, d + 1 - k).status is Status.CONDITIONAL


def test_witness_headers_recompute_k():
    # each quintic rule settles its own pair of Thm 1.1's windows (those of
    # test_tables_partition_the_theorem_region) that Thm 1.2 leaves open
    windows = {0: {10}, 1: {9}, 2: {1, 4, 7, 8}, 3: {2, 3, 5, 6, 7}, 4: {3, 4, 5, 6}}
    pairs = [(s.deg + 1 - s.genus, s.deg) for s in WITNESS_SPECS.values() if s.surface_degree == 5]
    for k, deg in pairs:
        assert deg in windows.get(k, ()) and (k, deg) not in QUINTIC_ACM
    open_pairs = {(k, d) for k, ds in windows.items() for d in ds} - set(QUINTIC_ACM)
    assert sorted(pairs) == sorted(open_pairs)
    assert set(WITNESS_SPECS) == set(QUINTIC_CONDITIONAL.values()) | {"P2.2"}


@pytest.fixture(scope="module")
def ex43(fermat5):
    H = fermat5.hyperplane_class
    dt = H - fermat5.gen_class("L[03|12](4,0)")
    l1 = fermat5.gen_class("L[01|23](0,0)")
    l2 = fermat5.gen_class("L[02|13](0,1)")
    l3 = fermat5.gen_class("L[01|23](0,4)")
    return dt, l1, l2, l3


def test_check_witness_skew_line_configuration(fermat5, ex43):
    dt, l1, l2, _ = ex43
    target = dt + l1 + l2
    v = check_witness("P4.6", target, Decomposition.of(dt, l1, l2))
    assert v.status is Status.NOT_ACM and v.rule == "Prop4.6(b2)"
    assert v.witness is not None


def test_check_witness_conic_configuration(fermat5, ex43):
    dt, l1, _, l3 = ex43
    target = dt + l1 + l3
    v = check_witness("P4.6", target, Decomposition.of(dt, l1, l3))
    assert v.status is Status.NOT_ACM and v.rule == "Prop4.6(b3)"


def test_check_witness_line_plus_conic(fermat5):
    H = fermat5.hyperplane_class
    g1 = fermat5.gen_class("L[01|23](0,0)")
    m1 = fermat5.gen_class("L[02|13](0,1)")
    m2 = fermat5.gen_class("L[02|13](0,2)")
    target = 2 * H - g1 - m1 - m2
    w = Decomposition.of(g1, m1, m2)
    v = check_witness("P4.7", target, w)
    assert v.status is Status.NOT_ACM and v.rule == "Prop4.7(b)"
    # linkage duality: the identical witness settles link(target, 3)
    linked = link(target, 3)
    assert (degree(linked), genus(linked)) == (8, 7)
    v = check_witness("C4.3", linked, w)
    assert v.status is Status.NOT_ACM and v.rule == "Cor4.3(b)"
    # the witness sums to the class both clauses name
    assert w.parts[0][0] + w.parts[1][0] + w.parts[2][0] == 2 * H - target
    assert w.parts[0][0] + w.parts[1][0] + w.parts[2][0] == linked - H


def test_check_witness_quartic_plus_line(fermat5):
    H = fermat5.hyperplane_class
    gt = fermat5.gen_class("L[02|13](0,0)")
    g = fermat5.gen_class("L[01|23](0,0)")
    target = H - gt + g
    v = check_witness("P4.8", target, Decomposition.of(H - gt, g))
    assert v.status is Status.NOT_ACM and v.rule == "Prop4.8(b)"


def test_check_witness_effective_sum(fermat5):
    # five atlas lines with five pairwise incidences: degree 5, genus 1
    names = [
        "L[01|23](0,0)",
        "L[01|23](0,1)",
        "L[01|23](0,2)",
        "L[01|23](1,0)",
        "L[01|23](2,1)",
    ]
    parts = [fermat5.gen_class(n) for n in names]
    E = fermat5.zero_class()
    for p in parts:
        E = E + p
    assert (degree(E), genus(E), pair(E, E)) == (5, 1, -5)
    target = fermat5.hyperplane_class + E
    assert (degree(target), genus(target)) == (10, 11)
    v = check_witness("P4.5", target, Decomposition.of(*parts))
    assert v.status is Status.NOT_ACM and v.rule == "Prop4.5(b)"
    assert search_witness("P4.5", target) is not None


def test_check_witness_cor42_by_liaison(fermat5, ex43):
    dt, l1, l2, _ = ex43
    target = link(dt + l1 + l2, 3)
    assert (degree(target), genus(target)) == (9, 9)
    v = check_witness("C4.2", target, Decomposition.of(dt, l1, l2))
    assert v.status is Status.NOT_ACM and v.rule == "Cor4.2(b2)"


def test_check_witness_quartic_model(fermat4):
    H = fermat4.hyperplane_class
    g1 = fermat4.gen_class("L[01|23](0,0)")
    g2 = fermat4.gen_class("L[02|13](0,1)")
    assert pair(g1, g2) == 0
    for target in (H + g1 + g2, 2 * H - g1 - g2):
        assert (degree(target), genus(target)) == (6, 3)
        v = check_witness("P2.2", target, Decomposition.of(g1, g2))
        assert v.status is Status.NOT_ACM and v.rule == "Prop2.2(b)"


def test_check_witness_rejection_names_the_clause(fermat5):
    H = fermat5.hyperplane_class
    l1 = fermat5.gen_class("L[01|23](0,0)")
    l2 = fermat5.gen_class("L[02|13](0,1)")  # skew to l1
    meet = fermat5.gen_class("L[02|13](0,0)")  # meets l1
    target = H + l1 + l2
    assert (degree(target), genus(target)) == (7, 6)
    v = check_witness("P4.4", target, Decomposition.of(l1, meet))
    assert v.status is Status.CONDITIONAL
    bad = [t for t in v.trace if t.name == "Gamma1.Gamma2"]
    assert bad and bad[0].value == 1 and bad[0].ok is False


def test_check_witness_header_mismatch(fermat5):
    H = fermat5.hyperplane_class
    l1 = fermat5.gen_class("L[01|23](0,0)")
    v = check_witness("P4.4", H + l1, Decomposition.of(l1, l1))
    assert v.status is Status.INVALID


def test_check_witness_wrong_surface(fermat4):
    H = fermat4.hyperplane_class
    l1 = fermat4.gen_class("L[01|23](0,0)")
    v = check_witness("P4.7", 2 * H - l1, Decomposition.of(l1, l1))
    assert v.status is Status.INVALID


def test_check_witness_uncertified_part_rejected(fermat5):
    H = fermat5.hyperplane_class
    l1 = fermat5.gen_class("L[01|23](0,0)")
    l2 = fermat5.gen_class("L[02|13](0,1)")
    target = H + l1 + l2
    weird = 3 * H - 10 * l1  # no effectivity certificate
    v = check_witness("P4.4", target, Decomposition.of(weird, l1))
    assert v.status is Status.CONDITIONAL
    assert any("effectivity" in (t.name or "") and t.ok is False for t in v.trace)


def test_unknown_prop_id(fermat5):
    H = fermat5.hyperplane_class
    with pytest.raises(ValueError):
        check_witness("P9.9", H, Decomposition.of(H))


def test_search_witness_finds_documented_configurations(fermat5, ex43):
    dt, l1, l2, l3 = ex43
    for prop, target in (
        ("P4.6", dt + l1 + l2),
        ("P4.6", dt + l1 + l3),
        ("P4.8", fermat5.hyperplane_class - fermat5.gen_class("L[02|13](0,0)")
         + fermat5.gen_class("L[01|23](0,0)")),
    ):
        found = search_witness(prop, target, bound=10)
        assert found is not None
        assert check_witness(prop, target, found).status is Status.NOT_ACM


def test_search_witness_deterministic(fermat5, ex43):
    dt, l1, l2, _ = ex43
    target = dt + l1 + l2
    a = search_witness("P4.6", target, bound=10)
    b = search_witness("P4.6", target, bound=10)
    assert a == b and str(a) == str(b)


def test_search_witness_none_for_acm_class(fermat5):
    H = fermat5.hyperplane_class
    d = H - fermat5.gen_class("L[01|23](0,0)") + fermat5.gen_class("L[02|13](0,1)")
    assert (degree(d), genus(d)) == (5, 3)  # unconditionally aCM
    for prop in WITNESS_SPECS:
        if WITNESS_SPECS[prop].surface_degree == 5:
            assert search_witness(prop, d, bound=12) is None


def test_search_witness_respects_bound(fermat5, ex43):
    dt, l1, l2, _ = ex43
    target = dt + l1 + l2
    assert search_witness("P4.6", target, bound=3) is None


def test_search_witness_needs_an_atlas():
    from acmcurves.surfaces import builtin_model

    m = builtin_model("generic_quintic")
    with pytest.raises(ValueError):
        search_witness("P4.6", m.hyperplane_class, bound=5)


def test_verdict_rendering_and_json():
    v = classify_numeric("quintic", 4, 1)
    text = render_verdict(v)
    assert text.splitlines()[0] == "ACM rule=Thm1.2(iii)"
    blob = json.dumps(verdict_json(v))
    parsed = json.loads(blob)
    assert parsed["status"] == "ACM" and parsed["rule"] == "Thm1.2(iii)"
    assert parsed["witness"] is None


# -- full verdict texts, one per witness shape and per failure branch ----

_POLICY = (
    "  note effectivity policy: parts must be nonnegative combinations of "
    "registered effective classes or certified degree-1 classes"
)


def _witness_case(m, prop, target, parts):
    return check_witness(prop, m.parse(target), Decomposition.of(*(m.parse(p) for p in parts)))


ACCEPTED = {
    "two_skew_lines": (
        "P4.4",
        "H + L[01|23](0,0) + L[02|13](0,1)",
        ["L[01|23](0,0)", "L[02|13](0,1)"],
        """NOT_ACM rule=Prop4.4(b)
{policy}
  check target (deg, genus): (7, 6) (expected (7, 6))
  note clause Prop4.4(b) satisfied
  check Gamma1 is a line: deg 1, genus 0 (expected deg 1, genus 0)
  check Gamma2 is a line: deg 1, genus 0 (expected deg 1, genus 0)
  check Gamma1.Gamma2: 0 (expected 0)
  check witness sum lies in |D-C|: L[01|23](0,0) + L[02|13](0,1) (expected L[01|23](0,0) + L[02|13](0,1))
  witness: L[01|23](0,0) | L[02|13](0,1)""",
    ),
    "quartic_plus_two_skew_lines": (
        "P4.6",
        "H - L[03|12](4,0) + L[01|23](0,0) + L[02|13](0,1)",
        ["H - L[03|12](4,0)", "L[01|23](0,0)", "L[02|13](0,1)"],
        """NOT_ACM rule=Prop4.6(b2)
{policy}
  check target (deg, genus): (6, 3) (expected (6, 3))
  note clause Prop4.6(b1) not satisfied
  check witness sum lies in |2C-D|: H + L[01|23](0,0) + L[02|13](0,1) - L[03|12](4,0) (expected H - L[01|23](0,0) - L[02|13](0,1) + L[03|12](4,0))
  note clause Prop4.6(b2) satisfied
  check some part is a plane quartic: found (expected deg 4, genus 3)
  check Gamma1 is a line: deg 1, genus 0 (expected deg 1, genus 0)
  check Gamma2 is a line: deg 1, genus 0 (expected deg 1, genus 0)
  check Gamma1.Gamma2: 0 (expected 0)
  check witness sum lies in |D|: H + L[01|23](0,0) + L[02|13](0,1) - L[03|12](4,0) (expected H + L[01|23](0,0) + L[02|13](0,1) - L[03|12](4,0))
  witness: H - L[03|12](4,0) | L[01|23](0,0) | L[02|13](0,1)""",
    ),
    "quartic_plus_conic": (
        "P4.6",
        "H - L[03|12](4,0) + L[01|23](0,0) + L[01|23](0,4)",
        ["H - L[03|12](4,0)", "L[01|23](0,0)", "L[01|23](0,4)"],
        """NOT_ACM rule=Prop4.6(b3)
{policy}
  check target (deg, genus): (6, 3) (expected (6, 3))
  note clause Prop4.6(b1) not satisfied
  check witness sum lies in |2C-D|: H + L[01|23](0,0) + L[01|23](0,4) - L[03|12](4,0) (expected H - L[01|23](0,0) - L[01|23](0,4) + L[03|12](4,0))
  note clause Prop4.6(b2) not satisfied
  check some part is a plane quartic: found (expected deg 4, genus 3)
  check Gamma1 is a line: deg 1, genus 0 (expected deg 1, genus 0)
  check Gamma2 is a line: deg 1, genus 0 (expected deg 1, genus 0)
  check Gamma1.Gamma2: 1 (expected 0)
  check witness sum lies in |D|: H + L[01|23](0,0) + L[01|23](0,4) - L[03|12](4,0) (expected H + L[01|23](0,0) + L[01|23](0,4) - L[03|12](4,0))
  note clause Prop4.6(b3) satisfied
  check some part is a plane quartic: found (expected deg 4, genus 3)
  check Delta^2: -4 (expected -4)
  check deg Delta: 2 (expected 2)
  check witness sum lies in |D|: H + L[01|23](0,0) + L[01|23](0,4) - L[03|12](4,0) (expected H + L[01|23](0,0) + L[01|23](0,4) - L[03|12](4,0))
  witness: H - L[03|12](4,0) | L[01|23](0,0) | L[01|23](0,4)""",
    ),
    # the first degree-1 part fails as Gamma1; the second is accepted
    "line_plus_conic": (
        "P4.7",
        "2*H - L[01|23](0,0) - L[02|13](0,1) - L[02|13](0,2)",
        ["L[02|13](0,1)", "L[01|23](0,0)", "L[02|13](0,2)"],
        """NOT_ACM rule=Prop4.7(b)
{policy}
  check target (deg, genus): (7, 5) (expected (7, 5))
  note clause Prop4.7(b) satisfied
  check Gamma1^2: -3 (expected -3)
  check deg Gamma2: 2 (expected 2)
  check Gamma2^2: -4 (expected -4)
  check Gamma1.Gamma2: 0 (expected 0)
  check witness sum lies in |2C-D|: L[01|23](0,0) + L[02|13](0,1) + L[02|13](0,2) (expected L[01|23](0,0) + L[02|13](0,1) + L[02|13](0,2))
  witness: L[02|13](0,1) | L[01|23](0,0) | L[02|13](0,2)""",
    ),
    "quartic_plus_line": (
        "P4.8",
        "H - L[02|13](0,0) + L[01|23](0,0)",
        ["H - L[02|13](0,0)", "L[01|23](0,0)"],
        """NOT_ACM rule=Prop4.8(b)
{policy}
  check target (deg, genus): (5, 2) (expected (5, 2))
  note clause Prop4.8(b) satisfied
  check some part is a plane quartic: found (expected deg 4, genus 3)
  check Gamma is a line: deg 1, genus 0 (expected deg 1, genus 0)
  check Dtilde.Gamma: 0 (expected 0)
  check witness sum lies in |D|: H + L[01|23](0,0) - L[02|13](0,0) (expected H + L[01|23](0,0) - L[02|13](0,0))
  witness: H - L[02|13](0,0) | L[01|23](0,0)""",
    ),
    "effective_sum": (
        "P4.5",
        "H + L[01|23](0,0) + L[01|23](0,1) + L[01|23](0,2) + L[01|23](1,0) + L[01|23](2,1)",
        ["L[01|23](0,0)", "L[01|23](0,1)", "L[01|23](0,2)", "L[01|23](1,0)", "L[01|23](2,1)"],
        """NOT_ACM rule=Prop4.5(b)
{policy}
  check target (deg, genus): (10, 11) (expected (10, 11))
  note clause Prop4.5(b) satisfied
  check witness sum lies in |D-C|: L[01|23](0,0) + L[01|23](0,1) + L[01|23](0,2) + L[01|23](1,0) + L[01|23](2,1) (expected L[01|23](0,0) + L[01|23](0,1) + L[01|23](0,2) + L[01|23](1,0) + L[01|23](2,1))
  witness: L[01|23](0,0) | L[01|23](0,1) | L[01|23](0,2) | L[01|23](1,0) | L[01|23](2,1)""",
    ),
}


@pytest.mark.parametrize("shape", sorted(ACCEPTED))
def test_accepted_witness_text_per_shape(fermat5, shape):
    prop, target, parts, text = ACCEPTED[shape]
    assert {c.shape for s in WITNESS_SPECS.values() for c in s.clauses} == set(ACCEPTED)
    v = _witness_case(fermat5, prop, target, parts)
    assert render_verdict(v) == text.format(policy=_POLICY)


REJECTED = {
    "wrong part count": (
        "P4.4",
        "H + L[01|23](0,0) + L[02|13](0,1)",
        ["L[01|23](0,0)", "L[02|13](0,1)", "L[01|23](0,4)"],
        """CONDITIONAL rule=P4.4
{policy}
  check target (deg, genus): (7, 6) (expected (7, 6))
  note clause Prop4.4(b) not satisfied
  check witness shape: 3 parts (expected 2 lines)
  note witness rejected; the verdict stays conditional""",
    ),
    "no plane quartic": (
        "P4.8",
        "H - L[02|13](0,0) + L[01|23](0,0)",
        ["L[01|23](0,0)", "L[02|13](0,0)"],
        """CONDITIONAL rule=P4.8
{policy}
  check target (deg, genus): (5, 2) (expected (5, 2))
  note clause Prop4.8(b) not satisfied
  check some part is a plane quartic: none with deg 4, genus 3 (expected deg 4, genus 3)
  note clause Prop4.8(b) not satisfied
  check some part is a plane quartic: none with deg 4, genus 3 (expected deg 4, genus 3)
  note witness rejected; the verdict stays conditional""",
    ),
    "a failing product": (
        "P4.4",
        "H + L[01|23](0,0) + L[02|13](0,1)",
        ["L[01|23](0,0)", "L[02|13](0,0)"],
        """CONDITIONAL rule=P4.4
{policy}
  check target (deg, genus): (7, 6) (expected (7, 6))
  note clause Prop4.4(b) not satisfied
  check Gamma1 is a line: deg 1, genus 0 (expected deg 1, genus 0)
  check Gamma2 is a line: deg 1, genus 0 (expected deg 1, genus 0)
  check Gamma1.Gamma2: 1 (expected 0)
  check witness sum lies in |D-C|: L[01|23](0,0) + L[02|13](0,0) (expected L[01|23](0,0) + L[02|13](0,1))
  note witness rejected; the verdict stays conditional""",
    ),
    "a wrong sum": (
        "P4.4",
        "H + L[01|23](0,0) + L[02|13](0,1)",
        ["L[01|23](0,0)", "L[02|13](0,2)"],
        """CONDITIONAL rule=P4.4
{policy}
  check target (deg, genus): (7, 6) (expected (7, 6))
  note clause Prop4.4(b) not satisfied
  check Gamma1 is a line: deg 1, genus 0 (expected deg 1, genus 0)
  check Gamma2 is a line: deg 1, genus 0 (expected deg 1, genus 0)
  check Gamma1.Gamma2: 0 (expected 0)
  check witness sum lies in |D-C|: L[01|23](0,0) + L[02|13](0,2) (expected L[01|23](0,0) + L[02|13](0,1))
  note witness rejected; the verdict stays conditional""",
    ),
    # every degree-1 part fails as Gamma1; the last one tried is reported
    "no degree-1 part passes": (
        "P4.7",
        "2*H - L[01|23](0,0) - L[02|13](0,1) - L[02|13](0,2)",
        ["L[01|23](0,0)", "L[02|13](0,1)", "L[01|23](0,1)"],
        """CONDITIONAL rule=P4.7
{policy}
  check target (deg, genus): (7, 5) (expected (7, 5))
  note clause Prop4.7(b) not satisfied
  check Gamma1^2: -3 (expected -3)
  check deg Gamma2: 2 (expected 2)
  check Gamma2^2: -6 (expected -4)
  check Gamma1.Gamma2: 2 (expected 0)
  note witness rejected; the verdict stays conditional""",
    ),
    "no degree-1 part": (
        "P4.7",
        "2*H - L[01|23](0,0) - L[02|13](0,1) - L[02|13](0,2)",
        ["H - L[01|23](0,0)", "H - L[02|13](0,1)"],
        """CONDITIONAL rule=P4.7
{policy}
  check target (deg, genus): (7, 5) (expected (7, 5))
  note clause Prop4.7(b) not satisfied
  check witness shape: no degree-1 part (expected line + degree-2 divisor)
  note witness rejected; the verdict stays conditional""",
    ),
}


@pytest.mark.parametrize("branch", sorted(REJECTED))
def test_rejected_witness_text_per_failure(fermat5, branch):
    prop, target, parts, text = REJECTED[branch]
    v = _witness_case(fermat5, prop, target, parts)
    assert render_verdict(v) == text.format(policy=_POLICY)


# the witness search_witness finds on each documented target, and its clause
SEARCH_FINDS = {
    "P2.2": ("L[01|23](0,0) | L[02|13](0,1)", "Prop2.2(b)"),
    "P4.4": ("L[01|23](0,0) | L[02|13](0,1)", "Prop4.4(b)"),
    "P4.5": ("L[01|23](0,0) | L[01|23](0,1) | L[01|23](0,2) | L[01|23](1,0) | L[01|23](2,1)",
             "Prop4.5(b)"),
    "P4.6": ("H - L[03|12](4,0) | L[01|23](0,0) | L[02|13](0,1)", "Prop4.6(b2)"),
    "C4.2": ("H - L[03|12](4,0) | L[01|23](0,0) | L[02|13](0,1)", "Cor4.2(b2)"),
    "P4.7": ("L[01|23](0,0) | L[02|13](0,1) | L[02|13](0,2)", "Prop4.7(b)"),
    "C4.3": ("L[01|23](0,0) | L[02|13](0,1) | L[02|13](0,2)", "Cor4.3(b)"),
    "P4.8": ("H - L[02|13](0,0) | L[01|23](0,0)", "Prop4.8(b)"),
}


@pytest.mark.parametrize("prop", sorted(WITNESS_SPECS))
def test_search_witness_every_rule(fermat4, fermat5, prop):
    model, text = TARGETS[prop]
    witness, label = SEARCH_FINDS[prop]
    target = (fermat4 if model == "fermat4" else fermat5).parse(text)
    found = search_witness(prop, target)
    assert str(found) == witness
    v = check_witness(prop, target, found)
    assert v.status is Status.NOT_ACM and v.rule == label
