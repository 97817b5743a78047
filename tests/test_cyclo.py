"""Exact cyclotomic arithmetic: canonical forms, field axioms, zero tests."""

import cmath
import random
from fractions import Fraction
from math import gcd

import pytest

from acmcurves.cyclo import (
    MAX_ORDER,
    CycNum,
    OrderError,
    cyclotomic_polynomial,
    get_order,
    minimal_polynomial_value,
    rational,
    totient,
    zeta,
)


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


def test_rational_extraction_and_powers():
    assert rational(3, 6).as_fraction() == Fraction(1, 2)
    assert (zeta(5) ** -2) == zeta(5, 3)
    assert (zeta(8) ** 0) == 1
    with pytest.raises(ValueError):
        zeta(5).as_fraction()


def test_rendering():
    assert str(rational(-3, 4)) == "-3/4"
    text = str(zeta(8) - rational(1, 2))
    assert "z" in text and "zeta(8)" in text
    assert str(CycNum(7)) == "7"


def test_complex_embedding_is_consistent():
    val = complex(zeta(8))
    assert abs(val - cmath.exp(2j * cmath.pi / 8)) < 1e-12
