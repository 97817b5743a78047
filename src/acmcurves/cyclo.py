"""Exact arithmetic in the cyclotomic fields Q(zeta_n), n <= 40.

Elements are residues modulo the n-th cyclotomic polynomial, stored on the
power basis 1, z, ..., z^(phi(n)-1) with rational coefficients held as
integer numerators over a common positive denominator.  Reduction is always
applied, so every value has one canonical form and the zero test is a
coefficient inspection.  No floating point enters any decision; a complex
embedding exists for debugging only.

Values are immutable and operations are pure, so everything here is safe
to share across threads.  One function, _dot, computes every product: the
signed sum of products of integer numerator tuples at one order, each
convolved into one buffer of length 2*phi - 1, which is folded modulo Phi_n
once and not normalized.  A CycNum product is one _dot with one term, an
inverse a chain of them, and the exact zero tests of geometry are _dot
over many terms; _normalize finishes CycNum's results.  A sum has one
formula, _add's cross-multiplied a*d' + b*d over d*d', which _normalize
brings to the same canonical form when the denominators are equal.  One
function, _lifted, brings values of different orders to their common
order, for CycNum's operators and for geometry's lines alike.  Values of
one order pass through it untouched.  Where the lcm of the orders exceeds
the cap, each value is first rewritten at its conductor, the least order
whose field holds it, so zeta(8)^2 * zeta(7) is computed at order 28.  The
descent takes one prime at a time, and the trace it divides by the degree
is formed by _substitute, the same exponent rewrite as a lift and a
Galois conjugation.

Operands.  Every binary operator, == included, takes a CycNum, an int
(a bool too) or a Rational such as a Fraction on either side, and one
decorator, _operand, coerces the other operand with _coerce.  Any other
operand gives NotImplemented, so Python raises its usual TypeError for
arithmetic, and == falls back to identity: 1.5, "1" and None are never
equal to a CycNum.

Residues.  RESIDUE_PRIME = P = 10*L + 1 with L = lcm(1, ..., 40) is a prime,
and RESIDUE_ROOT = W = 47^10 mod P has multiplicative order exactly L.  So
for every supported order n, W^(L/n) is a primitive n-th root of unity in
F_P, hence a root of Phi_n there, and z -> W^(L/n) is a ring homomorphism
Z[zeta_n] -> F_P.  Lifting z_m to z_n^(n/m) maps to W^(L/n * n/m) = W^(L/m),
so the maps of all orders agree and residues of different orders need no
lifting.  _residue applies the map to an integer numerator tuple; it never
divides mod P.  A ring map sends 0 to 0, so a nonzero residue proves that
the element is nonzero.  The residue of the numerators, with the
denominator, is also the hash of an irrational value: lifting changes
neither, Z[zeta_n] being the integers of Q(zeta_n) for every n.

A zero residue proves zero under a norm bound.  The map is onto F_P, so
its kernel is a prime of Z[zeta_n] of norm P, and an element x != 0 with a
zero residue has P | N(x).  Every complex embedding of x has absolute
value at most the l1 norm of its numerators, so |N(x)| <= B^phi(n) for
any B at least that norm.  Hence B^phi(n) < P and a zero residue prove
x = 0 (_proves_zero).  Where the bound fails, as for large numerators or
a numerator that is a multiple of P, a zero residue proves nothing and the
element must be tested exactly; above the order cap the bound is not
applied, so such values take the exact path, which descends to conductors
or fails with OrderError.

Inverse by the norm.  For an element nums/den, the product cof of the
other Galois conjugates sigma_j(nums), j a unit mod n other than 1, times
nums is the norm N(nums), a rational integer, so the inverse is
den * cof / N(nums).  The conjugation sigma_j sends z^i to z^(i*j), a row
of the power table.
"""

from functools import lru_cache, wraps
from math import gcd, lcm, log10
import cmath
import numbers

MAX_ORDER = 40

# P = 10*lcm(1..40) + 1, a prime, and W = 47^10 mod P, of multiplicative
# order exactly lcm(1..40) (checked in tests/test_cyclo.py)
RESIDUE_PRIME = 53_429_314_570_632_001
RESIDUE_ROOT = 52_599_132_235_830_049


class OrderError(ValueError):
    """Requested cyclotomic order is outside the supported range."""


def _leading_digits(n, count=8):
    """The decimal digits of n > 0 if it has at most count of them, else
    its first count digits and "...", without writing all of n in decimal."""
    # 10^(drop + count + 1) <= 2^(bit_length - 1) <= n, so the quotient
    # keeps more than count digits and its leading ones are n's
    drop = max(0, int((n.bit_length() - 1) * log10(2)) - count - 1)
    digits = str(n // 10**drop)
    return digits if len(digits) <= count else digits[:count] + "..."


def _check_order(n):
    if not isinstance(n, int) or n < 1:
        raise OrderError(f"cyclotomic order must be a positive integer, got {n!r}")
    if n > MAX_ORDER:
        raise OrderError(
            f"cyclotomic order {_leading_digits(n)} exceeds the supported cap {MAX_ORDER}"
        )


def _poly_div_exact(num, den):
    """Exact division of integer polynomials (den monic, ascending coeffs)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Integer coefficients of Phi_n, ascending, leading coefficient 1."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class CycOrder:
    """Precomputed reduction data for one cyclotomic order."""

    __slots__ = ("n", "phi", "red_rows", "power_rows", "residue_powers")

    def __init__(self, n):
        _check_order(n)
        self.n = n
        minpoly = cyclotomic_polynomial(n)
        phi = len(minpoly) - 1
        self.phi = phi
        # rows[k] = coefficients of x^k reduced modulo Phi_n, for every
        # exponent the multiplication and lifting paths can produce
        top = max(n, 2 * phi - 1)
        rows = []
        fold = tuple(-c for c in minpoly[:phi])  # x^phi
        for k in range(top):
            if k < phi:
                row = tuple(1 if i == k else 0 for i in range(phi))
            else:
                prev = rows[k - 1]
                t = prev[phi - 1]
                row = [0] + list(prev[: phi - 1])
                if t:
                    for i in range(phi):
                        row[i] += t * fold[i]
                row = tuple(row)
            rows.append(row)
        self.power_rows = tuple(rows[:n])
        self.red_rows = tuple(rows[phi : 2 * phi - 1])
        # images of z^u, u < phi, under z -> W^(L/n) in F_P
        step = pow(RESIDUE_ROOT, lcm(*range(1, MAX_ORDER + 1)) // n, RESIDUE_PRIME)
        self.residue_powers = tuple(pow(step, u, RESIDUE_PRIME) for u in range(phi))


@lru_cache(maxsize=None)
def get_order(n):
    return CycOrder(n)


def _normalize(nums, den):
    """Divide out the content and force a positive denominator."""
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = den
    for v in nums:
        g = gcd(g, v)
        if g == 1:
            return tuple(nums), den
    return tuple(v // g for v in nums), den // g


def _add(anums, aden, bnums, bden):
    return _normalize([x * bden + y * aden for x, y in zip(anums, bnums)], aden * bden)


def _dot(terms, order):
    """The sum of sign*x*y over (sign, x, y), for integer numerators x and y
    at this order and an integer sign, as a list of numerators.

    Every product is convolved into one buffer of length 2*phi - 1, and the
    buffer is folded modulo Phi_n once, with red_rows[j] = x^(phi+j).  The
    result is not normalized.
    """
    phi = order.phi
    conv = [0] * (2 * phi - 1)
    for sign, x, y in terms:
        for i, a in enumerate(x):
            if a:
                a *= sign
                for j, b in enumerate(y):
                    if b:
                        conv[i + j] += a * b
    out = conv[:phi]
    for j, row in enumerate(order.red_rows):
        t = conv[phi + j]
        if t:
            for i, c in enumerate(row):
                if c:
                    out[i] += t * c
    return out


def _substitute(nums, j, order):
    """Numerators of the element with z^i replaced by z^(i*j), at the given
    order: a Galois conjugation when j is a unit mod n, a lift when the
    numerators come from a divisor of n and j is the index."""
    out = [0] * order.phi
    for i, c in enumerate(nums):
        if c:
            row = order.power_rows[i * j % order.n]
            for k, r in enumerate(row):
                if r:
                    out[k] += c * r
    return out


def _residue(nums, order):
    """Image in F_P of the integer element with these numerators at this order."""
    return sum(c * w for c, w in zip(nums, order.residue_powers)) % RESIDUE_PRIME


def _proves_zero(bound, n):
    """Whether a zero residue proves zero for an element of Z[zeta_n] whose
    numerators have l1 norm at most bound: bound^phi(n) < P, for n within
    the order cap."""
    return n <= MAX_ORDER and bound ** get_order(n).phi < RESIDUE_PRIME


def _wrap(n, nums, den):
    self = object.__new__(CycNum)
    self.order = n
    self.nums = nums
    self.den = den
    return self


def _below(nums, n, p):
    """The numerators at order m = n/p, for a prime p | n, of the element with
    these numerators at order n, or None when it does not lie in Q(zeta_m).

    The candidate is the trace down to Q(zeta_m), divided by the degree.  If
    p | m, the trace of z^i is p*zeta_m^(i/p) when p | i and 0 otherwise.  If
    not, zeta_n = zeta_m^s * zeta_p^t with s*p = 1 mod m and t a unit mod p,
    so the trace of z^i is zeta_m^(i*s) times p - 1 when p | i and -1
    otherwise: the numerators so weighted, rewritten by _substitute with
    j = s at order m.  The candidate is the element exactly when it lifts
    back to these numerators.
    """
    m = n // p
    if m % p == 0:
        below = list(nums[::p])
    else:
        weighted = [c * (p - 1) if i % p == 0 else -c for i, c in enumerate(nums)]
        trace = _substitute(weighted, pow(p, -1, m), get_order(m))
        if any(v % (p - 1) for v in trace):
            return None
        below = [v // (p - 1) for v in trace]
    return below if _substitute(below, p, get_order(n)) == list(nums) else None


def _at_conductor(v):
    """v at its conductor, the least order m | v.order with v in Q(zeta_m).

    The orders whose fields hold v are closed under gcd, so dropping one
    prime at a time while v stays inside reaches the least of them.  The
    numerators keep their content, as under a lift, so v.den still
    normalizes them.
    """
    n, nums = v.order, v.nums
    for p in range(2, n + 1):
        if all(p % q for q in range(2, p)):  # p is prime
            while n % p == 0 and (below := _below(nums, n, p)) is not None:
                n, nums = n // p, tuple(below)
    return _wrap(n, nums, v.den)


def _common_order(values):
    """(n, values): the lcm n of the values' orders, checked against the cap.

    Only when that lcm exceeds the cap is each value rewritten at its
    conductor first, a rational at order 1, so that mixed orders fail only
    when the values need them; below the cap every value keeps its order.
    """
    n = lcm(*(v.order for v in values))
    if n > MAX_ORDER:
        values = tuple(map(_at_conductor, values))
        n = lcm(*(v.order for v in values))
    _check_order(n)
    return n, values


def _lifted(values):
    """(n, numerators): the common order n of the values (_common_order) and
    each value's integer numerators at order n, over its own denominator.

    A value at order n keeps its numerators and a zero becomes phi(n)
    zeros; only the others are lifted.
    """
    n, values = _common_order(values)
    zeros = (0,) * get_order(n).phi
    return n, [
        v.nums if v.order == n else v.lift(n).nums if any(v.nums) else zeros for v in values
    ]


def _coerce(value):
    if isinstance(value, CycNum):
        return value
    if isinstance(value, int):
        return _wrap(1, (value,), 1)
    if isinstance(value, numbers.Rational):  # a Fraction, say
        return rational(value.numerator, value.denominator)
    return None


def _operand(op):
    """op(self, other) with other coerced by _coerce, or NotImplemented when
    other is not a CycNum, an int or a Rational."""

    @wraps(op)
    def coerced(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else op(self, other)

    return coerced


def _ratio(p, q):
    """p/q for q > 0 in lowest terms, written as str(Fraction(p, q)) writes it."""
    g = gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


class CycNum:
    """An element of Q(zeta_n) in canonical reduced form.

    Supports the usual operators against other elements, ints, and
    Fractions.  Operands of different orders are lifted to Q(zeta_lcm)
    first; the lcm must stay within the order cap, after the operands
    descend to their conductors when it would not.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, value=0):
        got = _coerce(value)
        if got is None:
            raise TypeError(f"cannot build a cyclotomic number from {value!r}")
        self.order = got.order
        self.nums = got.nums
        self.den = got.den

    # -- construction -------------------------------------------------

    def lift(self, n):
        """Rewrite in Q(zeta_n); the current order must divide n."""
        if n == self.order:
            return self
        _check_order(n)
        if n % self.order:
            raise OrderError(f"order {self.order} does not divide {n}")
        # Z[zeta_n] is free over the image of Z[zeta_m], with 1 in a basis, so
        # the lift keeps the content of the numerators: it stays normalized
        return _wrap(n, tuple(_substitute(self.nums, n // self.order, get_order(n))), self.den)

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        from fractions import Fraction

        return Fraction(self.nums[0], self.den)

    # -- arithmetic ---------------------------------------------------

    @_operand
    def __add__(self, other):
        n, (x, y) = _lifted((self, other))
        nums, den = _add(x, self.den, y, other.den)
        return _wrap(n, nums, den)

    __radd__ = __add__

    @_operand
    def __sub__(self, other):
        return self + -other

    @_operand
    def __rsub__(self, other):
        return other - self

    @_operand
    def __mul__(self, other):
        n, (x, y) = _lifted((self, other))
        nums, den = _normalize(_dot(((1, x, y),), get_order(n)), self.den * other.den)
        return _wrap(n, nums, den)

    __rmul__ = __mul__

    def __neg__(self):
        return _wrap(self.order, tuple(-v for v in self.nums), self.den)

    def __pos__(self):
        return self

    def inverse(self):
        """Multiplicative inverse by the norm: den * cof / N(nums), with cof
        the product of the other Galois conjugates of nums."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero cyclotomic number")
        order = get_order(self.order)
        n, cof = order.n, order.power_rows[0]
        for j in range(2, n):
            if gcd(j, n) == 1:
                cof = _dot(((1, cof, _substitute(self.nums, j, order)),), order)
        norm = _dot(((1, self.nums, cof),), order)[0]
        nums, den = _normalize([self.den * c for c in cof], norm)
        return _wrap(self.order, nums, den)

    @_operand
    def __truediv__(self, other):
        return self * other.inverse()

    @_operand
    def __rtruediv__(self, other):
        return other * self.inverse()

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        # square and multiply from the exponent's leading bit, which is self
        result = self if exponent else _wrap(self.order, get_order(self.order).power_rows[0], 1)
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- comparison ---------------------------------------------------

    @_operand
    def __eq__(self, other):
        if lcm(self.order, other.order) > MAX_ORDER and self._key() != other._key():
            # no order to lift both to, but the ring maps of all orders
            # agree: a different residue or denominator proves self != other
            return False
        _, (x, y) = _lifted((self, other))
        return x == y and self.den == other.den

    def _key(self):
        """The residue and the denominator, which lifting changes neither of."""
        return _residue(self.nums, get_order(self.order)), self.den

    def __hash__(self):
        # the residue and the normalized denominator do not change under
        # lifting, so equal values of different orders hash alike; a
        # rational hashes as the Fraction it equals
        if self.is_rational():
            return hash(self.nums[0]) if self.den == 1 else hash(self.as_fraction())
        return hash(self._key())

    def __bool__(self):
        return not self.is_zero()

    # -- rendering ----------------------------------------------------

    def __str__(self):
        if self.is_rational():
            return _ratio(self.nums[0], self.den)
        terms = []
        for i, c in enumerate(self.nums):
            if not c:
                continue
            mag = _ratio(abs(c), self.den)
            if i == 0:
                body = mag
            elif mag == "1":
                body = "z" if i == 1 else f"z^{i}"
            else:
                body = f"{mag}*z" if i == 1 else f"{mag}*z^{i}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return f"{' '.join(terms)} (z = zeta({self.order}))"

    def __repr__(self):
        return f"CycNum({self})"

    def __complex__(self):
        # debug embedding only; never used in any decision
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(
            (c / self.den) * z**i for i, c in enumerate(self.nums)
        ) + 0j


def zeta(n, k=1):
    """The root of unity zeta_n^k in canonical form; k is reduced mod n."""
    _check_order(n)
    row = get_order(n).power_rows[k % n]
    return _wrap(n, row, 1)


def rational(p, q=1):
    """The rational number p/q as a cyclotomic element of order 1."""
    if q == 0:
        raise ZeroDivisionError("rational with zero denominator")
    nums, den = _normalize([p], q)
    return _wrap(1, nums, den)


ZERO = rational(0)
ONE = rational(1)

