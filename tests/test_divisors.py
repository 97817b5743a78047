"""Divisor calculus: pairing, invariants, liaison, connectedness, h-vectors."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from acmcurves.divisors import (
    MAX_CONNECTEDNESS_SPLITS,
    Decomposition,
    DivClass,
    HVector,
    ModelMismatchError,
    NonIntegralError,
    certify_effective,
    chi,
    deg1_effectivity_test,
    degree,
    genus,
    genus_of_sum,
    hvector_invariants,
    is_m_connected,
    k_invariant,
    link,
    pair,
)
from acmcurves.surfaces import SurfaceModel, build_fermat_model


def test_pair_examples(fermat5, quadric):
    H = fermat5.hyperplane_class
    assert pair(H, H) == 5
    d44 = fermat5.parse(
        "2*H - L[01|23](0,0) - L[02|13](0,1) - L[02|13](0,2)"
    )
    assert pair(d44, d44) == 1
    assert pair(quadric.gen_class("L1"), quadric.gen_class("L2")) == 1


def test_degree_examples(fermat5):
    H = fermat5.hyperplane_class
    assert degree(H) == 5
    d43 = fermat5.parse("H - L[03|12](4,0) + L[01|23](0,0) + L[02|13](0,1)")
    assert degree(d43) == 6
    d44 = fermat5.parse("2*H - L[01|23](0,0) - L[02|13](0,1) - L[02|13](0,2)")
    assert degree(d44) == 7


def test_genus_examples(fermat5):
    H = fermat5.hyperplane_class
    assert genus(H) == 6
    d44 = fermat5.parse("2*H - L[01|23](0,0) - L[02|13](0,1) - L[02|13](0,2)")
    assert genus(d44) == 5
    d45 = fermat5.parse("H - L[02|13](0,0) + L[01|23](0,0)")
    assert genus(d45) == 2


def test_chi_examples(fermat5):
    H = fermat5.hyperplane_class
    assert chi(fermat5.zero_class()) == 5
    assert chi(H) == 5
    # a quadrilateral of atlas lines has degree 4 and genus 1
    quad = fermat5.parse(
        "L[01|23](0,0) + L[01|23](0,1) + L[01|23](1,1) + L[01|23](1,0)"
    )
    assert (degree(quad), genus(quad)) == (4, 1)
    assert chi(quad) == 1


def test_k_invariant_examples(fermat5):
    line = fermat5.gen_class("L[01|23](0,0)")
    assert k_invariant(line) == 2
    d43 = fermat5.parse("H - L[03|12](4,0) + L[01|23](0,0) + L[02|13](0,1)")
    assert k_invariant(d43) == 6 + 1 - 3 == 4
    d44 = fermat5.parse("2*H - L[01|23](0,0) - L[02|13](0,1) - L[02|13](0,2)")
    assert k_invariant(d44) == 7 + 1 - 5 == 3


def _span_quintic(deg, g):
    return SurfaceModel(
        name="span",
        kind="custom",
        degree=5,
        generators=("H", "Dt"),
        gram=((5, deg), (deg, 2 * g - 2 - deg)),
        hyperplane=(1, 0),
        canonical=(1, 0),
        chi0=5,
        gen_genus=(6, g),
    )


def test_link_liaison_numbers():
    # degree 5, genus 1 linked by a cubic -> degree 10, genus 11
    span = _span_quintic(5, 1)
    dt = span.gen_class("Dt")
    assert pair(dt, dt) == -5
    linked = link(dt, 3)
    assert (degree(linked), genus(linked)) == (10, 11)
    # degree 4, genus 0 linked by a quadric -> degree 6, genus 3
    span = _span_quintic(4, 0)
    dt = span.gen_class("Dt")
    assert pair(dt, dt) == -6
    linked = link(dt, 2)
    assert (degree(linked), genus(linked)) == (6, 3)


def test_link_is_an_involution(fermat5):
    rng = random.Random(11)
    for _ in range(200):
        coeffs = [0] * fermat5.ngens
        for i in rng.sample(range(fermat5.ngens), 4):
            coeffs[i] = rng.randint(-5, 5)
        d = fermat5.class_of(coeffs)
        m = rng.randint(1, 4)
        assert link(link(d, m), m) == d


def test_link_requires_positive_m(fermat5):
    with pytest.raises(ValueError):
        link(fermat5.hyperplane_class, 0)


def test_genus_of_sum_examples(fermat5, fermat4):
    H = fermat5.hyperplane_class
    dt = H - fermat5.gen_class("L[03|12](4,0)")
    l1 = fermat5.gen_class("L[01|23](0,0)")
    l2 = fermat5.gen_class("L[02|13](0,1)")
    assert genus_of_sum(Decomposition.of(dt, l1, l2)) == 3
    # the quartic configuration: plane section + two skew lines
    H4 = fermat4.hyperplane_class
    g1 = fermat4.gen_class("L[01|23](0,0)")
    g2 = fermat4.gen_class("L[02|13](0,1)")
    assert pair(g1, g2) == 0
    assert genus_of_sum(Decomposition.of(H4, g1, g2)) == 3
    # single part reduces to genus()
    assert genus_of_sum(Decomposition.of(H)) == genus(H) == 6


def test_genus_of_sum_matches_genus_on_random_decompositions(fermat5):
    rng = random.Random(424242)
    for _ in range(1000):
        nparts = rng.randint(1, 4)
        parts = []
        for _ in range(nparts):
            coeffs = [0] * fermat5.ngens
            for i in rng.sample(range(fermat5.ngens), 3):
                coeffs[i] = rng.randint(-4, 4)
            parts.append((fermat5.class_of(coeffs), rng.randint(1, 3)))
        dec = Decomposition(tuple(parts))
        assert genus_of_sum(dec) == genus(dec.total)


def _connectedness_oracle(parts_list, gram_pair):
    """Independent split enumeration: bitmask over unit copies."""
    n = len(parts_list)
    best = None
    for mask in range(1, 2**n - 1):
        val = 0
        for i in range(n):
            if mask >> i & 1:
                for j in range(n):
                    if not (mask >> j & 1):
                        val += gram_pair(parts_list[i], parts_list[j])
        if best is None or val < best:
            best = val
    return best


def test_m_connected_examples(fermat5):
    l1 = fermat5.gen_class("L[01|23](0,0)")
    l2 = fermat5.gen_class("L[02|13](0,1)")
    res = is_m_connected(Decomposition.of(l1, l2), 1)
    assert not res.connected and res.minimum == 0
    d1, d2 = res.split
    assert {d1.total, d2.total} == {l1, l2}
    # a single part is m-connected for every m
    H = fermat5.hyperplane_class
    assert is_m_connected(Decomposition.of(H), 10**6).connected
    # a double line splits as (L | L) with pairing -3
    res = is_m_connected(Decomposition(((l1, 2),)), 1)
    assert not res.connected and res.minimum == -3


def test_m_connected_positive_case(fermat5):
    H = fermat5.hyperplane_class
    l1 = fermat5.gen_class("L[01|23](0,0)")
    res = is_m_connected(Decomposition.of(H, l1), 1)
    assert res.connected and res.minimum == 1


def test_m_connected_caps_only_the_splits(fermat5):
    # 22 splits; the least is H | 20H, with pairing 5 * 20
    H = fermat5.hyperplane_class
    res = is_m_connected(Decomposition(((H, 21),)), 1)
    assert (res.connected, res.minimum) == (True, 100)


def test_m_connected_split_bound(fermat5):
    lines = [fermat5.gen_class(name) for name in fermat5.line_names()]
    # total multiplicity 8 is always enumerated: 2^8 splits at most
    res = is_m_connected(Decomposition(tuple((l, 1) for l in lines[:8])), 1)
    assert res.minimum is not None
    # 16 distinct lines have 2^16 splits, far beyond the bound: refused at once
    start = time.perf_counter()
    with pytest.raises(ValueError, match="65536 splits"):
        is_m_connected(Decomposition(tuple((l, 1) for l in lines[:16])), 1)
    assert time.perf_counter() - start < 0.25  # enumerating takes about 1 s
    assert 2**16 > MAX_CONNECTEDNESS_SPLITS >= 2**8


def test_m_connected_agrees_with_oracle(fermat5):
    # all decompositions with <= 4 unit parts drawn from a 10-generator
    # sublattice (the full <= 6 sweep runs in the acceptance suite)
    gens = [fermat5.gen_class(fermat5.generators[i]) for i in range(10)]
    cache = {}

    def gp(a, b):
        key = (id(a), id(b))
        if key not in cache:
            cache[key] = pair(a, b)
        return cache[key]

    for k in range(2, 5):
        for combo in itertools.combinations_with_replacement(range(10), k):
            parts_list = [gens[i] for i in combo]
            grouped = [(gens[i], combo.count(i)) for i in sorted(set(combo))]
            res = is_m_connected(Decomposition(tuple(grouped)), 1)
            oracle_min = _connectedness_oracle(parts_list, gp)
            assert res.minimum == oracle_min, combo
            assert res.connected == (oracle_min >= 1)


def test_hvector_invariants():
    assert hvector_invariants(HVector((1, 2, 3))) == (6, 3)
    assert hvector_invariants(HVector((1,))) == (1, 0)
    assert hvector_invariants(HVector((1, 2, 2))) == (5, 2)
    assert hvector_invariants((1, 3, 3, 2)) == (9, 7)


@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(2), "2"])
def test_divclass_refuses_non_integral_coefficients(fermat5, bad):
    with pytest.raises(TypeError):
        DivClass(fermat5, (bad,) + (0,) * 75)
    assert DivClass(fermat5, (True,) + (0,) * 75) == fermat5.hyperplane_class


@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(2), "2"])
def test_decomposition_refuses_non_integral_multiplicities(fermat5, bad):
    H = fermat5.hyperplane_class
    with pytest.raises(TypeError):
        Decomposition(((H, bad),))
    assert Decomposition(((H, True),)).parts == ((H, 1),)


def test_divclass_refuses_the_wrong_number_of_coefficients(fermat5):
    with pytest.raises(ValueError, match="expected 76 coefficients, got 75"):
        DivClass(fermat5, (0,) * 75)


def test_decomposition_refuses_no_parts_a_zero_multiplicity_and_two_models(fermat5, quadric):
    H = fermat5.hyperplane_class
    with pytest.raises(ValueError, match="at least one part"):
        Decomposition(())
    with pytest.raises(ValueError, match="multiplicities must be >= 1"):
        Decomposition(((H, 0),))
    with pytest.raises(ModelMismatchError):
        Decomposition.of(H, quadric.hyperplane_class)


@pytest.mark.parametrize("bad", [2.7, 2.0, Fraction(2), "2"])
def test_hvector_refuses_non_integral_entries(bad):
    with pytest.raises(TypeError):
        hvector_invariants([1, bad, 0])
    with pytest.raises(TypeError):
        HVector((1, bad))
    assert hvector_invariants([True, 2, 1]) == (4, 1)


def test_hvector_validation():
    with pytest.raises(ValueError):
        HVector((0, 2))
    with pytest.raises(ValueError):
        HVector((1, -1))


def test_deg1_effectivity(fermat5, fermat4):
    line = fermat5.gen_class("L[01|23](0,0)")
    assert deg1_effectivity_test(line)
    # a degree-1 combination with the wrong self-intersection
    H = fermat5.hyperplane_class
    l1 = fermat5.gen_class("L[01|23](0,0)")
    l2 = fermat5.gen_class("L[01|23](0,1)")
    l3 = fermat5.gen_class("L[01|23](1,1)")
    l4 = fermat5.gen_class("L[01|23](1,0)")
    d = H - l1 - l2 - l3 - l4
    assert degree(d) == 1
    assert deg1_effectivity_test(d) == (pair(d, d) == -3)
    with pytest.raises(ValueError):
        deg1_effectivity_test(H)  # degree 5
    with pytest.raises(ValueError):
        deg1_effectivity_test(fermat4.gen_class("L[01|23](0,0)"))  # not quintic


def test_serre_symmetry(fermat5, quadric, cubic):
    rng = random.Random(5150)
    for model in (fermat5, quadric, cubic):
        K = model.canonical_class
        for _ in range(400):
            coeffs = [0] * model.ngens
            for i in rng.sample(range(model.ngens), min(5, model.ngens)):
                coeffs[i] = rng.randint(-9, 9)
            d = model.class_of(coeffs)
            assert chi(d) == chi(K - d)
        if model.degree == 5:
            H = model.hyperplane_class
            d = model.class_of(coeffs)
            assert chi(d) == chi(H - d)  # K = H on a quintic


def test_adjunction_parity(fermat5, fermat4, quadric, cubic):
    rng = random.Random(616)
    for model in (fermat5, fermat4, quadric, cubic):
        K = model.canonical_class
        for _ in range(300):
            coeffs = [0] * model.ngens
            for i in rng.sample(range(model.ngens), min(5, model.ngens)):
                coeffs[i] = rng.randint(-9, 9)
            d = model.class_of(coeffs)
            assert pair(d, d + K) % 2 == 0


def test_hodge_index_on_positive_pairs(fermat5):
    rng = random.Random(31415)
    positives = []
    while len(positives) < 60:
        coeffs = [0] * fermat5.ngens
        coeffs[0] = rng.randint(1, 3)
        for i in rng.sample(range(1, fermat5.ngens), 3):
            coeffs[i] = rng.randint(-2, 2)
        d = fermat5.class_of(coeffs)
        if pair(d, d) > 0:
            positives.append(d)
    checked = 0
    for a, b in itertools.combinations(positives, 2):
        assert pair(a, a) * pair(b, b) <= pair(a, b) ** 2
        checked += 1
    assert checked >= 1000


def test_non_integral_genus_reported():
    # an odd lattice with K = 0 makes d.(d+K) odd
    model = SurfaceModel(
        name="odd",
        kind="custom",
        degree=None,
        generators=("A",),
        gram=((1,),),
        hyperplane=(1,),
        canonical=(0,),
        chi0=1,
        gen_genus=(None,),
    )
    a = model.gen_class("A")
    with pytest.raises(NonIntegralError):
        genus(a)
    with pytest.raises(NonIntegralError):
        chi(a)


def test_model_mismatch_rejected(fermat5):
    other = build_fermat_model(5)
    with pytest.raises(ModelMismatchError):
        pair(fermat5.hyperplane_class, other.hyperplane_class)


def test_effectivity_certificates(fermat5):
    H = fermat5.hyperplane_class
    l1 = fermat5.gen_class("L[01|23](0,0)")
    assert certify_effective(H + 2 * l1).ok
    assert certify_effective(H - l1).ok  # residual plane curve
    cert = certify_effective(2 * H - 3 * l1)
    assert not cert.ok  # needs three residuals but only two H available
    # certified parts really sum back to the class
    cert = certify_effective(2 * H - l1 + fermat5.gen_class("L[02|13](0,1)"))
    assert cert.ok
    total = fermat5.zero_class()
    for cls, mult in cert.parts:
        total = total + mult * cls
    assert total == 2 * H - l1 + fermat5.gen_class("L[02|13](0,1)")


def test_effectivity_certificate_of_zero_and_of_a_degree_one_class(fermat5):
    zero = certify_effective(fermat5.zero_class())
    assert (zero.ok, zero.reason, zero.parts) == (True, "zero class", ())
    # a line plus the numerically zero H - (the five lines of one plane)
    d = fermat5.parse("L[02|13](0,1) + H - L[01|23](0,0) - L[01|23](0,1) "
                      "- L[01|23](0,2) - L[01|23](0,3) - L[01|23](0,4)")
    cert = certify_effective(d)
    assert (cert.ok, cert.reason) == (True, "degree-1 class with self-intersection -3")
    assert cert.parts == ((d, 1),)


def test_effectivity_certificate_builds_only_nonzero_generators(fermat5, monkeypatch):
    H = fermat5.hyperplane_class
    a, b, c = (fermat5.gen_class(name) for name in fermat5.line_names()[:3])
    d = 3 * H - a + 2 * b - c
    built = []
    gen_class = SurfaceModel.gen_class

    def counting_gen_class(self, name):
        built.append(name)
        return gen_class(self, name)

    monkeypatch.setattr(SurfaceModel, "gen_class", counting_gen_class)
    cert = certify_effective(d)
    assert len(built) <= 3  # one per nonzero atlas coefficient
    assert cert.ok
    assert cert.parts == ((H, 1), (H - a, 1), (b, 2), (H - c, 1))


def test_divclass_arithmetic_and_parse_roundtrip(fermat5):
    d = fermat5.parse("2*H - L[01|23](0,0) - L[02|13](0,1)")
    again = fermat5.parse(str(d))
    assert again == d
    assert (d - d).is_zero()
    assert -1 * d == -d
