"""Exact projective geometry in P^3.

A line is the common zero locus of two independent linear forms.  The
canonical representative is the reduced row echelon form of the 2x4
coefficient matrix over the cyclotomic field, so two lines are equal
exactly when their canonical matrices agree.

Each line also carries its six Plücker coordinates p_ij = r0[i]*r1[j] -
r0[j]*r1[i] (i < j) of the canonical rows r0, r1, computed once.  Two lines
share a point exactly when the Klein-quadric pairing

    p01*q23 - p02*q13 + p03*q12 + p12*q03 - p13*q02 + p23*q01

vanishes.  The pairing is the Laplace expansion of the 4x4 determinant of
the stacked canonical forms along its first two rows, so it equals that
determinant exactly.  It is evaluated on raw numerators at the lcm of the
two lines' orders with the coefficient functions of CycNum.  A zero pairing
means SAME or MEET, told apart by comparing the canonical matrices; a
nonzero pairing means SKEW.
"""

from dataclasses import dataclass
from enum import Enum
from math import comb, lcm

from .cyclo import _add, _check_order, _coerce, _mul, _sub, _wrap, get_order, rational


class GeometryError(ValueError):
    pass


def _as_cyc(value):
    got = _coerce(value)
    if got is None:
        raise TypeError(f"expected a cyclotomic or rational coefficient, got {value!r}")
    return got


@dataclass(frozen=True)
class LinearForm:
    """A linear form a0*x0 + a1*x1 + a2*x2 + a3*x3 with exact coefficients."""

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = tuple(_as_cyc(c) for c in coeffs)
        if len(coeffs) != 4:
            raise GeometryError("a linear form needs exactly 4 coefficients")
        if all(c.is_zero() for c in coeffs):
            raise GeometryError("the zero form does not define a plane")
        object.__setattr__(self, "coeffs", coeffs)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                parts.append(f"({c})*x{i}")
        return " + ".join(parts)


def _rref(rows):
    """Reduced row echelon form with unit pivots; returns (rows, pivot cols)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(4):
        src = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


# index pairs (i, j) of the Plücker coordinates p_ij, in storage order
PLUCKER_INDICES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class Line:
    """A line in P^3, canonicalized as a rank-2 RREF 2x4 matrix, with its
    Plücker coordinates in the order of PLUCKER_INDICES."""

    __slots__ = ("rows", "pivots", "plucker")

    def __init__(self, f1, f2):
        if not isinstance(f1, LinearForm):
            f1 = LinearForm(f1)
        if not isinstance(f2, LinearForm):
            f2 = LinearForm(f2)
        n = lcm(*(c.order for c in f1.coeffs + f2.coeffs))
        _check_order(n)
        rows, pivots = _rref(
            [
                [c.lift(n) for c in f1.coeffs],
                [c.lift(n) for c in f2.coeffs],
            ]
        )
        if len(pivots) < 2:
            raise GeometryError("the two forms are linearly dependent (rank 1)")
        r0, r1 = self.rows = (tuple(rows[0]), tuple(rows[1]))
        self.pivots = tuple(pivots)
        self.plucker = tuple(
            _sum_of_products(((1, r0[i], r1[j]), (-1, r0[j], r1[i])), n)
            for i, j in PLUCKER_INDICES
        )

    def points(self):
        """Two independent points spanning the line (null space basis)."""
        free = [c for c in range(4) if c not in self.pivots]
        basis = []
        for f in free:
            v = [rational(0)] * 4
            v[f] = rational(1)
            for r, p in enumerate(self.pivots):
                v[p] = -self.rows[r][f]
            basis.append(tuple(v))
        return tuple(basis)

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash(tuple(hash(c) for row in self.rows for c in row))

    def __str__(self):
        def form(row):
            parts = []
            for i, c in enumerate(row):
                if not c.is_zero():
                    expr = f"x{i}" if c == 1 else f"({c})*x{i}"
                    parts.append(expr)
            return " + ".join(parts)

        return f"{form(self.rows[0])} ; {form(self.rows[1])}"

    def __repr__(self):
        return f"Line({self})"


def line_from_forms(f1, f2):
    """Canonicalized line cut out by two independent forms."""
    return Line(f1, f2)


class Incidence(Enum):
    SKEW = 0
    MEET = 1
    SAME = "SAME"


def _sum_of_products(terms, n):
    """The sum of sign*x*y over (sign, x, y) for x, y of order n.

    Evaluated on raw numerators with the coefficient functions of CycNum;
    terms with a zero factor are skipped.
    """
    order = get_order(n)
    nums, den = (0,) * order.phi, 1
    for sign, x, y in terms:
        if any(x.nums) and any(y.nums):
            tnums, tden = _mul(x.nums, x.den, y.nums, y.den, order.red_rows)
            nums, den = (_add if sign > 0 else _sub)(nums, den, tnums, tden)
    return _wrap(n, nums, den)


# signs of p01*q23 - p02*q13 + p03*q12 + p12*q03 - p13*q02 + p23*q01: the
# k-th coordinate of one line is multiplied by the (5-k)-th of the other
_PAIRING_SIGNS = (1, -1, 1, 1, -1, 1)


def _plucker_pairing(a, b):
    """Klein-quadric pairing of two lines, as a cyclotomic number.

    Equal to the determinant of the 4x4 matrix stacking both lines'
    canonical forms.
    """
    p, q = a.plucker, b.plucker
    n = p[0].order
    if n != q[0].order:
        n = lcm(n, q[0].order)
        p = tuple(c.lift(n) for c in p)
        q = tuple(c.lift(n) for c in q)
    return _sum_of_products(zip(_PAIRING_SIGNS, p, reversed(q)), n)


def lines_meet(a, b):
    """SAME, MEET (one common point) or SKEW for two lines in P^3."""
    if any(_plucker_pairing(a, b).nums):
        return Incidence.SKEW
    return Incidence.SAME if a == b else Incidence.MEET


MAX_FERMAT_EXPANSION_DEGREE = 12


def line_on_fermat(line, d):
    """Whether the line lies on x0^d + x1^d + x2^d + x3^d = 0.

    The line is parametrized by two spanning points and the substituted
    binomial expansion must vanish coefficient by coefficient.
    """
    if not isinstance(d, int) or d < 2:
        raise GeometryError(f"hypersurface degree must be an integer >= 2, got {d!r}")
    if d > MAX_FERMAT_EXPANSION_DEGREE:
        raise GeometryError(
            f"degree {d} exceeds the expansion bound {MAX_FERMAT_EXPANSION_DEGREE}"
        )
    p, q = line.points()
    pw_p = [[rational(1)] for _ in range(4)]
    pw_q = [[rational(1)] for _ in range(4)]
    for i in range(4):
        for _ in range(d):
            pw_p[i].append(pw_p[i][-1] * p[i])
            pw_q[i].append(pw_q[i][-1] * q[i])
    for j in range(d + 1):
        coeff = sum(
            (pw_p[i][j] * pw_q[i][d - j] for i in range(4)),
            rational(0),
        ) * comb(d, j)
        if not coeff.is_zero():
            return False
    return True
