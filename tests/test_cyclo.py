"""Exact cyclotomic arithmetic: canonical forms, field axioms, zero tests."""

import cmath
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acmcurves.cyclo import (
    MAX_ORDER,
    RESIDUE_PRIME,
    RESIDUE_ROOT,
    CycNum,
    OrderError,
    _add,
    _at_conductor,
    _common_order,
    _dot,
    _lifted,
    _normalize,
    _residue,
    _wrap,
    cyclotomic_polynomial,
    get_order,
    rational,
    zeta,
)
from acmcurves.exprs import parse_scalar

from strategies import elements


def totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_roots_of_unity_basics():
    assert zeta(2, 1) == -1
    assert zeta(8, 4) == -1
    assert zeta(5, 5) == 1
    assert zeta(5, 7) == zeta(5, 2)  # exponent reduced mod n


def test_sum_of_nontrivial_fifth_roots():
    total = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert total == -1


def test_inverse_pair_and_self_division():
    assert zeta(8) * zeta(8, 7) == 1
    a = zeta(5) - 1
    assert a / a == 1


def test_zero_tests():
    assert (1 + zeta(8, 4)).is_zero()
    assert not (zeta(5) - 1).is_zero()
    assert (1 + zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)).is_zero()


def test_division_by_zero_reported():
    with pytest.raises(ZeroDivisionError):
        zeta(5) / rational(0)
    with pytest.raises(ZeroDivisionError):
        rational(0).inverse()


def test_order_limits():
    with pytest.raises(OrderError):
        zeta(0)
    with pytest.raises(OrderError):
        zeta(41)
    with pytest.raises(OrderError):
        zeta(-3)
    zeta(MAX_ORDER)  # the cap itself is allowed


@pytest.mark.parametrize(
    "order, shown",
    [
        (41, "41"),
        (99_999_999, "99999999"),
        (123_456_789, "12345678..."),
        (10**8, "10000000..."),
        # more digits than the interpreter converts to a string
        (10**5000, "10000000..."),
        (7 * 10**6000 - 1, "69999999..."),
        (2**10000, str(2**10000)[:8] + "..."),
    ],
    ids=["41", "8-digits", "9-digits", "10^8", "10^5000", "7*10^6000-1", "2^10000"],
)
def test_order_over_the_cap_shows_its_leading_digits(order, shown):
    with pytest.raises(OrderError) as err:
        zeta(order)
    assert str(err.value) == f"cyclotomic order {shown} exceeds the supported cap {MAX_ORDER}"


def minimal_polynomial_value(a):
    """Phi_n evaluated at a, for a of declared order n (zero iff primitive)."""
    poly = cyclotomic_polynomial(a.order)
    acc = rational(0).lift(a.order)
    power = rational(1).lift(a.order)
    for c in poly:
        if c:
            acc = acc + power * c
        power = power * a
    return acc


def test_minimal_polynomial_and_order_for_all_supported_n():
    for n in range(1, MAX_ORDER + 1):
        z = zeta(n)
        assert minimal_polynomial_value(z).is_zero(), n
        assert z**n == 1, n
        assert len(z.nums) == totient(n), n


def test_cyclotomic_polynomial_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_float_root_oracle():
    # independent check: Phi_n vanishes numerically exactly at the
    # primitive n-th roots of unity and nowhere else on the n-th roots
    for n in (5, 8, 12, 20, 40):
        poly = cyclotomic_polynomial(n)
        for k in range(n):
            w = cmath.exp(2j * cmath.pi * k / n)
            val = sum(c * w**i for i, c in enumerate(poly))
            if gcd(k, n) == 1:
                assert abs(val) < 1e-8, (n, k)
            else:
                assert abs(val) > 1e-3, (n, k)


def _random_element(rng, n):
    phi = get_order(n).phi
    coeffs = [rng.randint(-6, 6) for _ in range(phi)]
    den = rng.randint(1, 9)
    out = rational(0).lift(n)
    for i, c in enumerate(coeffs):
        if c:
            out = out + zeta(n, i) * Fraction(c, den)
    return out


def test_field_axioms_on_random_triples():
    rng = random.Random(20240810)
    orders = (1, 2, 5, 8, 10, 20, 40)
    for _ in range(150):
        na, nb, nc = (rng.choice(orders) for _ in range(3))
        a, b, c = _random_element(rng, na), _random_element(rng, nb), _random_element(rng, nc)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == 1


_AXIOM_ORDERS = (1, 5, 7, 8, 40)


@st.composite
def _mixed_triples(draw):
    """Three elements at orders from _AXIOM_ORDERS whose lcm is within the
    cap, with a rational at order 1 put in at a drawn place."""
    orders = [draw(st.sampled_from(_AXIOM_ORDERS)) for _ in range(3)]
    assume(lcm(*orders) <= MAX_ORDER)
    values = [draw(elements(n)) for n in orders]
    place = draw(st.integers(0, 3))
    if place < 3:
        values[place] = rational(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
    return tuple(values)


def _rep(x):
    return x.order, x.nums, x.den


def _by_lifting(op, a, b):
    """op on a and b lifted to their common order, written out with lift,
    _dot and _add: the operators' one path, restated with an explicit lift
    of every operand, zeros and order-1 values included."""
    n, (a, b) = _common_order((a, b))
    a, b = a.lift(n), b.lift(n)
    if op == "*":
        return (n, *_normalize(_dot(((1, a.nums, b.nums),), get_order(n)), a.den * b.den))
    bnums = b.nums if op == "+" else tuple(-v for v in b.nums)
    return (n, *_add(a.nums, a.den, bnums, b.den))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_mixed_triples())
def test_field_axioms_across_mixed_orders(triple):
    a, b, c = triple
    zero, one, za = rational(0), rational(1), a - a  # za: a zero at a's order
    for x, y in (
        (a, b), (b, a), (a, c), (c, b), (a, zero), (zero, a), (one, b), (b, one),
        (b, za), (za, b), (za, c), (c, za),
    ):
        assert _rep(x + y) == _by_lifting("+", x, y)
        assert _rep(x - y) == _by_lifting("-", x, y)
        assert _rep(x * y) == _by_lifting("*", x, y)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    # identities, with ints and Fractions on either side
    for z in (zero, 0, Fraction(0)):
        assert _rep(a + z) == _rep(z + a) == _rep(a - z) == _rep(a)
        assert _rep(z - a) == _rep(-a)
    for u in (one, 1, Fraction(1)):
        assert _rep(a * u) == _rep(u * a) == _rep(a)
    assert (a - a).is_zero() and (a - a).order == a.order
    q = Fraction(-3, 7)
    assert _rep(q * a) == _rep(a * q) == _by_lifting("*", a, rational(-3, 7))
    assert _rep(a + q) == _by_lifting("+", a, rational(-3, 7))
    assert _rep(q - a) == _by_lifting("-", rational(-3, 7), a)


def test_canonical_uniqueness():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.choice((5, 8, 12))
        a = _random_element(rng, n)
        b = _random_element(rng, n)
        assert (a == b) == (a - b).is_zero()


def test_mixed_order_lifting():
    # zeta_8 * zeta_5 lives in Q(zeta_40)
    prod = zeta(8) * zeta(5)
    assert prod.order == 40
    assert prod == zeta(40, 13)
    # lifting beyond the cap is reported
    with pytest.raises(OrderError):
        zeta(16) * zeta(7)  # lcm 112


def test_rationals_descend_when_the_lcm_exceeds_the_cap():
    one7, one8 = zeta(7) ** 7, zeta(8) ** 8  # both equal 1; lcm 56 > 40
    assert one7 == one8
    total = one7 + one8
    assert total == 2 and total.order == 1
    assert zeta(7) * one8 == zeta(7)  # only the rational operand descends
    assert (one7 - zeta(8)).order == 8
    with pytest.raises(OrderError):
        zeta(7) + zeta(8)  # neither operand is rational
    # below the cap nothing descends, so results keep their order
    assert (zeta(5) ** 5 + zeta(8)).order == 40


def test_equality_and_hash_across_orders():
    one_as_order5 = zeta(5, 5)
    assert one_as_order5 == 1
    assert hash(one_as_order5) == hash(rational(1))
    half_lifted = rational(1, 2).lift(8)
    assert half_lifted == rational(1, 2)
    assert hash(half_lifted) == hash(rational(1, 2))
    assert len({rational(3), 3, Fraction(3)}) == 1
    assert {zeta(5): "found"}[zeta(5).lift(40)] == "found"


def test_equality_across_orders_with_no_common_order():
    # lcm 56 and 120 exceed the cap, but the ring maps of all orders agree,
    # so a different residue proves two values different
    for a, b in ((zeta(7), zeta(8)), (zeta(40), zeta(3))):
        assert not a == b and not b == a
        assert a != b and b != a
    assert zeta(7) not in [zeta(8)]
    # equal residues still need a common order: rationals descend to 1, and
    # other values to their conductors
    assert zeta(7) ** 7 == zeta(8) ** 8
    assert zeta(8) ** 2 == zeta(36) ** 9  # i on both sides, at order 4, not 72


def test_values_of_one_order_keep_their_numerators():
    rng = random.Random(40)
    pairs = [(_random_element(rng, 40), _random_element(rng, 40)) for _ in range(20)]
    pairs.append((zeta(40, 13), zeta(40, 13) - 0))
    for a, b in pairs:
        assert _rep(a + b) == _by_lifting("+", a, b) and _rep(a * b) == _by_lifting("*", a, b)
        assert (a == b) == (_rep(a) == _rep(b))
        assert _lifted((a, b, a)) == (40, [a.nums, b.nums, a.nums])


def _conductor_of_root(n, k):
    """The conductor of zeta_n^k: its order d, or d/2 when d = 2 mod 4."""
    d = n // gcd(n, k)
    return d // 2 if d % 4 == 2 else d


def test_roots_descend_to_their_conductors():
    for n in range(1, MAX_ORDER + 1):
        for k in range(n):
            x = zeta(n, k)
            c = _at_conductor(x)
            assert c.order == _conductor_of_root(n, k), (n, k)
            assert c.lift(n).nums == x.nums and c.den == x.den


def _source_and_lift_orders():
    """(m, n): an order n within the cap and a divisor m of it."""
    return st.integers(1, MAX_ORDER).flatmap(
        lambda n: st.tuples(st.sampled_from([m for m in range(1, n + 1) if n % m == 0]), st.just(n))
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_source_and_lift_orders().flatmap(lambda mn: st.tuples(elements(mn[0]), st.just(mn[1]))))
def test_a_lift_descends_to_the_conductor_of_its_source(xn):
    x, n = xn
    c = _at_conductor(x)
    assert x.order % c.order == 0 and _rep(c.lift(x.order)) == _rep(x)
    assert _rep(_at_conductor(x.lift(n))) == _rep(c)


def test_values_descend_to_their_conductors_above_the_cap():
    # i * zeta_7 lies in Q(zeta_28), although zeta(8)^2 is written at order 8
    prod = zeta(8) ** 2 * zeta(7)
    assert prod.order == 28 and _rep(prod) == _rep(zeta(4) * zeta(7))
    assert (zeta(8) ** 2 + zeta(36) ** 9).order == 4  # both i: order 4, not 72
    # below the cap nothing descends
    assert (zeta(8) ** 2 * zeta(5)).order == 40
    # a value whose conductor is over the cap keeps the error of its order
    for a, b in ((zeta(8), zeta(7)), (zeta(8, 3) * 2, zeta(14))):
        with pytest.raises(OrderError) as err:
            a * b
        assert str(err.value) == "cyclotomic order 56 exceeds the supported cap 40"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(3, MAX_ORDER).flatmap(lambda m: elements(m)))
def test_hash_and_denominator_survive_lifting(x):
    assume(not x.is_rational())
    for n in range(x.order, MAX_ORDER + 1, x.order):
        lifted = x.lift(n)
        assert lifted == x
        assert hash(lifted) == hash(x)
        assert lifted.den == x.den


def test_a_lift_keeps_the_content_of_the_numerators():
    # Z[zeta_n] is free over the image of Z[zeta_m], with 1 in a basis, so a
    # lift keeps the content of the numerators: lift does not normalize, and
    # __hash__ reads the numerators' residue over the same denominator
    rng = random.Random(21)
    for n in range(1, MAX_ORDER + 1):
        for m in (m for m in range(1, n + 1) if n % m == 0):
            for _ in range(8):
                nums = [rng.randint(-9, 9) for _ in range(get_order(m).phi)]
                content = gcd(*nums)
                if not content:
                    continue
                x = _wrap(m, tuple(v // content for v in nums), rng.randint(1, 6))
                lifted = x.lift(n)
                assert gcd(*lifted.nums) == 1
                assert lifted == x
                assert hash(lifted) == hash(x)


def test_rational_extraction_and_powers():
    assert rational(3, 6).as_fraction() == Fraction(1, 2)
    assert (zeta(5) ** -2) == zeta(5, 3)
    assert (zeta(8) ** 0) == 1
    with pytest.raises(ValueError):
        zeta(5).as_fraction()


def test_lift_to_a_non_multiple_and_a_zero_denominator_raise():
    with pytest.raises(OrderError):
        zeta(5).lift(8)
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


def test_rendering():
    assert str(rational(-3, 4)) == "-3/4"
    text = str(zeta(8) - rational(1, 2))
    assert "z" in text and "zeta(8)" in text
    assert str(CycNum(7)) == "7"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
def test_rationals_print_hash_and_coerce_as_fractions(p, q):
    x, frac = rational(p, q), Fraction(p, q)
    assert str(x) == str(frac)
    assert hash(x) == hash(frac)
    assert CycNum(frac) == x and x.as_fraction() == frac
    # a coefficient of an irrational value prints as its Fraction too
    if p:
        body = "z" if abs(frac) == 1 else f"{abs(frac)}*z"
        sign = "+" if p > 0 else "-"
        assert str(x * zeta(8) + 2) == f"2 {sign} {body} (z = zeta(8))"


def test_complex_embedding_is_consistent():
    val = complex(zeta(8))
    assert abs(val - cmath.exp(2j * cmath.pi / 8)) < 1e-12


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _miller_rabin(n):
    """Deterministic for n < 3.3 * 10^24 with the first 12 prime bases."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_residue_prime_and_root():
    L = lcm(*range(1, MAX_ORDER + 1))
    P, W = RESIDUE_PRIME, RESIDUE_ROOT
    assert P < 3.3e24 and _miller_rabin(P)
    assert not _miller_rabin(P + 2)  # the test can say no
    assert P % L == 1
    assert W == pow(47, 10, P)
    assert pow(W, L, P) == 1
    # order exactly L: W^(L/q) != 1 for every prime q dividing L
    for q in _SMALL_PRIMES:
        assert pow(W, L // q, P) != 1


def _image(x):
    """The residue of x in F_P, dividing by its denominator (never P here)."""
    return _residue(x.nums, get_order(x.order)) * pow(x.den, -1, RESIDUE_PRIME) % RESIDUE_PRIME


_RESIDUE_ORDERS = (1, 5, 7, 8, 40)


@st.composite
def _element_pairs(draw):
    n, m = draw(st.sampled_from(_RESIDUE_ORDERS)), draw(st.sampled_from(_RESIDUE_ORDERS))
    assume(lcm(n, m) <= MAX_ORDER)
    return draw(elements(n)), draw(elements(m))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_element_pairs())
def test_residue_is_a_ring_map_compatible_with_lift(pair):
    x, y = pair
    P = RESIDUE_PRIME
    assert _image(x + y) == (_image(x) + _image(y)) % P
    assert _image(x - y) == (_image(x) - _image(y)) % P
    assert _image(x * y) == _image(x) * _image(y) % P
    for n in range(x.order, MAX_ORDER + 1, x.order):
        assert _image(x.lift(n)) == _image(x)


@pytest.mark.parametrize("n", _RESIDUE_ORDERS)
def test_residue_of_zeta_is_a_primitive_root(n):
    w = _image(zeta(n))
    assert pow(w, n, RESIDUE_PRIME) == 1
    assert all(pow(w, k, RESIDUE_PRIME) != 1 for k in range(1, n))
    poly = cyclotomic_polynomial(n)
    assert sum(c * pow(w, k, RESIDUE_PRIME) for k, c in enumerate(poly)) % RESIDUE_PRIME == 0


# -- the inverse by the norm --------------------------------------------


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_inverse_at_every_order(n, data):
    a, b = data.draw(elements(n)), data.draw(elements(n))
    for x in (a, a * b + b):  # the second one is denser
        if not x.is_zero():
            inv = x.inverse()
            assert inv.order == x.order
            assert x * inv == 1


def test_reflected_division_runs_the_inverse():
    assert (1 / zeta(5)) * zeta(5) == 1
    assert 1 / zeta(5) == zeta(5, 4)


def test_a_rational_at_a_higher_order_inverts_to_its_reciprocal():
    x = rational(-3, 7).lift(5)
    inv = x.inverse()
    assert inv.order == 5
    assert (inv.nums, inv.den) == ((-7, 0, 0, 0), 3)


def _wide_element_text():
    """An order-37 element with 36 random 64-bit coefficients, as text."""
    rng = random.Random(37)
    coeffs = [rng.getrandbits(64) * rng.choice((1, -1)) for _ in range(36)]
    return " + ".join(f"({c})*zeta(37)^{i}" for i, c in enumerate(coeffs))


def test_wide_order_37_inverse_is_fast():
    text = _wide_element_text()
    a = parse_scalar(text)
    start = time.perf_counter()
    inv = a.inverse()
    assert time.perf_counter() - start < 1.0
    assert a * inv == 1
    start = time.perf_counter()
    via_parser = parse_scalar(f"1/({text})")
    assert time.perf_counter() - start < 1.0
    assert via_parser == inv


def test_monomial_powers_equal_repeated_products():
    for n, c, k, den, e in ((40, 3, 7, 2, 13), (37, -2, 35, 5, 40), (8, 1, 3, 1, 0)):
        x = rational(c, den) * zeta(n, k)
        expected = rational(1).lift(n)
        for _ in range(e):
            expected = expected * x
        assert x**e == expected
        assert (x**e).order == n
