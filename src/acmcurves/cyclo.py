"""Exact arithmetic in the cyclotomic fields Q(zeta_n), n <= 40.

Elements are residues modulo the n-th cyclotomic polynomial, stored on the
power basis 1, z, ..., z^(phi(n)-1) with rational coefficients held as
integer numerators over a common positive denominator.  Reduction is always
applied, so every value has one canonical form and the zero test is a
coefficient inspection.  No floating point enters any decision; a complex
embedding exists for debugging only.

Values are immutable and operations are pure, so everything here is safe
to share across threads.  The coefficient functions _normalize, _add, _sub
and _mul work on raw numerator tuples; CycNum calls them directly.  _mul is
one _convolve into a buffer of length 2*phi - 1 and one _fold of that buffer
modulo Phi_n; the exact zero tests in geometry convolve many products into
one buffer and fold it once.

Residues.  RESIDUE_PRIME = P = 10*L + 1 with L = lcm(1, ..., 40) is a prime,
and RESIDUE_ROOT = W = 47^10 mod P has multiplicative order exactly L.  So
for every supported order n, W^(L/n) is a primitive n-th root of unity in
F_P, hence a root of Phi_n there, and z -> W^(L/n) is a ring homomorphism
Z[zeta_n] -> F_P.  Lifting z_m to z_n^(n/m) maps to W^(L/n * n/m) = W^(L/m),
so the maps of all orders agree and residues of different orders need no
lifting.  _residue applies the map to an integer numerator tuple; it never
divides mod P.  A ring map sends 0 to 0, so a nonzero residue proves that
the element is nonzero; a zero residue proves nothing.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
import cmath

MAX_ORDER = 40

# P = 10*lcm(1..40) + 1, a prime, and W = 47^10 mod P, of multiplicative
# order exactly lcm(1..40) (checked in tests/test_cyclo.py)
RESIDUE_PRIME = 53_429_314_570_632_001
RESIDUE_ROOT = 52_599_132_235_830_049


class OrderError(ValueError):
    """Requested cyclotomic order is outside the supported range."""


def _check_order(n):
    if not isinstance(n, int) or n < 1:
        raise OrderError(f"cyclotomic order must be a positive integer, got {n!r}")
    if n > MAX_ORDER:
        raise OrderError(f"cyclotomic order {n} exceeds the supported cap {MAX_ORDER}")


def totient(n):
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def mobius(n):
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        else:
            p += 1
    if n > 1:
        result = -result
    return result


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

    __slots__ = (
        "n", "phi", "minpoly", "red_rows", "power_rows", "trace_vec", "residue_powers"
    )

    def __init__(self, n):
        _check_order(n)
        self.n = n
        minpoly = cyclotomic_polynomial(n)
        phi = len(minpoly) - 1
        self.phi = phi
        self.minpoly = minpoly
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
        # normalized traces Tr(z^i)/phi(n), invariant under lifting
        traces = []
        for i in range(phi):
            m = n // gcd(n, i) if i else 1
            traces.append(Fraction(mobius(m), totient(m)))
        self.trace_vec = tuple(traces)
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
    if aden == bden:
        return _normalize([x + y for x, y in zip(anums, bnums)], aden)
    return _normalize(
        [x * bden + y * aden for x, y in zip(anums, bnums)], aden * bden
    )


def _sub(anums, aden, bnums, bden):
    if aden == bden:
        return _normalize([x - y for x, y in zip(anums, bnums)], aden)
    return _normalize(
        [x * bden - y * aden for x, y in zip(anums, bnums)], aden * bden
    )


def _convolve(conv, anums, bnums, scale):
    """Add scale times the polynomial product of two numerator tuples into
    the buffer conv, of length at least len(anums) + len(bnums) - 1."""
    for i, x in enumerate(anums):
        if x:
            x *= scale
            for j, y in enumerate(bnums):
                if y:
                    conv[i + j] += x * y


def _fold(conv, red_rows):
    """Reduce a convolution buffer of length 2*phi - 1 modulo the minimal
    polynomial; red_rows[j] is x^(phi+j).  The numerators are not normalized."""
    phi = len(red_rows) + 1
    out = conv[:phi]
    for j, row in enumerate(red_rows):
        t = conv[phi + j]
        if t:
            for i in range(phi):
                c = row[i]
                if c:
                    out[i] += t * c
    return out


def _mul(anums, aden, bnums, bden, red_rows):
    """Product modulo the minimal polynomial: one convolution, one fold."""
    conv = [0] * (2 * len(anums) - 1)
    _convolve(conv, anums, bnums, 1)
    return _normalize(_fold(conv, red_rows), aden * bden)


def _residue(nums, order):
    """Image in F_P of the integer element with these numerators at this order."""
    return sum(c * w for c, w in zip(nums, order.residue_powers)) % RESIDUE_PRIME


def _wrap(n, nums, den):
    self = object.__new__(CycNum)
    self.order = n
    self.nums = nums
    self.den = den
    return self


def _common_order(values):
    """(n, values): the lcm n of the values' orders, checked against the cap.

    Only when that lcm exceeds the cap are rational values of a higher
    order rewritten at order 1 first, so that mixed orders fail only when
    an irrational value needs them; below the cap every value keeps its
    order, and results keep the order they have always had.
    """
    n = lcm(*(v.order for v in values))
    if n > MAX_ORDER:
        values = tuple(
            _wrap(1, v.nums[:1], v.den) if v.order > 1 and v.is_rational() else v
            for v in values
        )
        n = lcm(*(v.order for v in values))
    _check_order(n)
    return n, values


def _coerce(value):
    if isinstance(value, CycNum):
        return value
    if isinstance(value, int):
        return _wrap(1, (value,), 1)
    if isinstance(value, Fraction):
        return _wrap(1, (value.numerator,), value.denominator)
    return None


class CycNum:
    """An element of Q(zeta_n) in canonical reduced form.

    Supports the usual operators against other elements, ints, and
    Fractions.  Operands of different orders are lifted to Q(zeta_lcm)
    first; the lcm must stay within the order cap, after rational operands
    descend to order 1 when it would not.
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
        ordn = get_order(n)
        step = n // self.order
        out = [0] * ordn.phi
        for i, c in enumerate(self.nums):
            if c:
                row = ordn.power_rows[i * step]
                for j in range(ordn.phi):
                    if row[j]:
                        out[j] += c * row[j]
        nums, den = _normalize(out, self.den)
        return _wrap(n, nums, den)

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic ---------------------------------------------------

    def _align(self, other):
        other = _coerce(other)
        if other is None:
            return None, None
        if self.order == other.order:
            return self, other
        n, (a, b) = _common_order((self, other))
        return a.lift(n), b.lift(n)

    def __add__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        nums, den = _add(a.nums, a.den, b.nums, b.den)
        return _wrap(a.order, nums, den)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        nums, den = _sub(a.nums, a.den, b.nums, b.den)
        return _wrap(a.order, nums, den)

    def __rsub__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        nums, den = _sub(b.nums, b.den, a.nums, a.den)
        return _wrap(a.order, nums, den)

    def __mul__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        nums, den = _mul(
            a.nums, a.den, b.nums, b.den, get_order(a.order).red_rows
        )
        return _wrap(a.order, nums, den)

    __rmul__ = __mul__

    def __neg__(self):
        return _wrap(self.order, tuple(-v for v in self.nums), self.den)

    def __pos__(self):
        return self

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero cyclotomic number")
        if self.is_rational():
            nums, den = _normalize(
                [self.den] + [0] * (len(self.nums) - 1), self.nums[0]
            )
            return _wrap(self.order, nums, den)
        # xgcd(a, Phi_n) over Q[x]: Phi_n is irreducible, so s*a = 1 mod Phi_n
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        a = [Fraction(v, self.den) for v in self.nums]
        r0, r1 = phi_poly, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            r1 = _poly_trim(r1)
            if len(r1) == 1:
                break
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        inv = [c / r1[0] for c in s1]
        phi = get_order(self.order).phi
        inv += [Fraction(0)] * (phi - len(inv))
        common = 1
        for c in inv:
            common = common * c.denominator // gcd(common, c.denominator)
        nums = [int(c * common) for c in inv[:phi]]
        nums, den = _normalize(nums, common)
        return _wrap(self.order, nums, den)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = _wrap(self.order, _unit_nums(self.order), 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        return a.nums == b.nums and a.den == b.den

    def __hash__(self):
        # normalized trace is invariant under lifting, so equal values in
        # different orders hash alike
        tv = get_order(self.order).trace_vec
        t = sum((Fraction(c) * tv[i] for i, c in enumerate(self.nums)),
                Fraction(0)) / self.den
        return hash(t)

    def __bool__(self):
        return not self.is_zero()

    # -- rendering ----------------------------------------------------

    def __str__(self):
        if self.is_rational():
            return str(Fraction(self.nums[0], self.den))
        terms = []
        for i, c in enumerate(self.nums):
            if not c:
                continue
            q = Fraction(c, self.den)
            mag = abs(q)
            if i == 0:
                body = str(mag)
            elif mag == 1:
                body = "z" if i == 1 else f"z^{i}"
            else:
                body = f"{mag}*z" if i == 1 else f"{mag}*z^{i}"
            if not terms:
                terms.append(body if q > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if q > 0 else f"- {body}")
        return f"{' '.join(terms)} (z = zeta({self.order}))"

    def __repr__(self):
        return f"CycNum({self})"

    def __complex__(self):
        # debug embedding only; never used in any decision
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(
            (c / self.den) * z**i for i, c in enumerate(self.nums)
        ) + 0j


def _unit_nums(n):
    return tuple(1 if i == 0 else 0 for i in range(get_order(n).phi))


def _poly_trim(p):
    k = len(p)
    while k > 1 and p[k - 1] == 0:
        k -= 1
    return p[:k]


def _poly_divmod(num, den):
    num = list(num)
    den = _poly_trim(den)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / lead
        q[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return q, _poly_trim(num[: len(den) - 1] or [Fraction(0)])


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


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
