"""Exact projective geometry in P^3.

A line is the common zero locus of two independent linear forms a, b, and
it is stored as its projective Plücker point: the six minors
p_ij = a_i*b_j - a_j*b_i (i < j) of the input forms, with p_ji = -p_ij and
p_ii = 0.  Another pair of forms cutting out the same line changes the
minors by the nonzero determinant of the row operation between the pairs,
so two lines are equal exactly when their minors are proportional, and
incidence, a zero test of a bilinear form, needs no normalization.

Every exact zero test here is a signed sum of products, evaluated by _dot
with one reduction: the products are convolved on raw numerators, over one
common denominator, into a single buffer, which is then folded modulo the
cyclotomic polynomial once, with the coefficient functions of CycNum.

The canonical representative, read only when printed, hashed or used for
membership, is the reduced row echelon form of the 2x4 coefficient matrix
over the cyclotomic field, read off the minors by Cramer's rule.  The RREF
pivot columns (c0, c1) are the first pair in PLUCKER_INDICES order with
p_(c0 c1) != 0 (all six zero means rank 1).  With p' = p / p_(c0 c1), the
canonical rows are r0[j] = p'_(j c1) and r1[j] = p'_(c0 j), and p' are the
Plücker coordinates of those rows, since the row operation to RREF has
determinant 1/p_(c0 c1).  So a line costs six _dot, and its canonical form
at most one inverse more, none when p_(c0 c1) is already 1, as for every
atlas line.

Two lines share a point exactly when the Klein-quadric pairing

    p01*q23 - p02*q13 + p03*q12 + p12*q03 - p13*q02 + p23*q01

vanishes.  On the canonical coordinates the pairing is the Laplace
expansion of the 4x4 determinant of the stacked canonical forms along its
first two rows, so it equals that determinant exactly.  On the minors it
is the determinant of the stacked input forms, the canonical one times the
nonzero determinants of the two row operations, so it vanishes exactly
when the canonical pairing does.  A zero pairing means SAME or MEET, told
apart by the equality test; a nonzero pairing means SKEW.

Two lines are equal exactly when the cross terms p_k*q_j - p_j*q_k vanish
for the first nonzero minor p_k, which equal lines share, and every j: q is
then q_k/p_k times p.

Residues decide almost every test without exact arithmetic.  Each line
carries the image of its minors in F_P under the ring map of cyclo (see
RESIDUE_PRIME), after scaling all six by the lcm of their denominators,
and the l1 norms h_k of the scaled minors' numerators.  That lcm is a
positive integer, so the scaled minors are the same point of P^5 and have
integer numerators, which the map takes without any division mod P.  The
pairing of two images is the image of the pairing of the scaled minors, a
nonzero integer multiple of the exact pairing, and likewise for each cross
term; a ring map sends 0 to 0, so a nonzero image proves SKEW, or that two
lines differ.  A zero image proves the value zero when its norm bound
allows (cyclo._proves_zero): at the lcm m of the two lines' orders, every
embedding of the scaled pairing has absolute value at most
sum_k h_k(a) * h_(5-k)(b), and of a cross term at most
h_k(a)*h_j(b) + h_j(a)*h_k(b), and a bound B with B^phi(m) < P turns a zero
residue into MEET (or SAME), or into a vanishing cross term.  Only where
that bound fails, as for large or P-divisible numerators and many order-40
literal lines, or where m exceeds the order cap, does a zero image fall
through to exact arithmetic.

Membership in the Fermat surface of degree d is decided from the pivot
rows: with a_r, b_r the entries of pivot row r in the two free columns,
the coefficient of s^j t^(d-j) of the restricted form is C(d,j) times
c_j = [j=d] + [j=0] + (-1)^d * sum_r a_r^j * b_r^(d-j).  With the four
entries scaled to integers by the lcm S of their denominators, S^d * c_j
lies in Z[zeta_n]; its residue is a sum of modular powers, and its
embeddings are bounded by 2*S^d + sum_r h(S*a_r)^j * h(S*b_r)^(d-j).  A
nonzero residue proves c_j != 0, and a zero one under the bound proves
c_j = 0; any other c_j is one _dot over powers taken at the line's own
order.
"""

from enum import Enum
from math import gcd, lcm

from .cyclo import (
    RESIDUE_PRIME,
    _coerce,
    _common_order,
    _convolve,
    _fold,
    _mul,
    _normalize,
    _proves_zero,
    _residue,
    _wrap,
    get_order,
    rational,
)


class GeometryError(ValueError):
    pass


def _form(coeffs):
    """The four coefficients of a linear form a0*x0 + ... + a3*x3 as values,
    checked to be cyclotomic or rational, four, and not all zero."""
    form = []
    for value in coeffs:
        got = _coerce(value)
        if got is None:
            raise TypeError(f"expected a cyclotomic or rational coefficient, got {value!r}")
        form.append(got)
    if len(form) != 4:
        raise GeometryError("a linear form needs exactly 4 coefficients")
    if all(c.is_zero() for c in form):
        raise GeometryError("the zero form does not define a plane")
    return tuple(form)


# index pairs (i, j) of the Plücker coordinates p_ij, in storage order
PLUCKER_INDICES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _scaled(coords, order):
    """(residues, norms): the images in F_P of the coordinates and the l1
    norms of their numerators, all scaled to integers by the lcm of their
    denominators."""
    scale = lcm(*(p.den for p in coords))
    residues, norms = [], []
    for p in coords:
        k = scale // p.den
        residues.append(_residue(p.nums, order) * k % RESIDUE_PRIME)
        norms.append(sum(map(abs, p.nums)) * k)
    return tuple(residues), tuple(norms)


class Line:
    """A line in P^3 cut out by two linear forms, each four coefficients.

    It is kept as its Plücker minors, in the order of PLUCKER_INDICES, with
    their residues mod RESIDUE_PRIME and the l1 norms of their numerators,
    both scaled to integers by one common factor, and the RREF pivot
    columns.  The canonical rank-2 RREF 2x4 matrix `rows` is computed on
    first read."""

    __slots__ = ("minors", "residues", "norms", "pivots", "rows")

    def __init__(self, f1, f2):
        n, coeffs = _common_order(_form(f1) + _form(f2))
        order = get_order(n)
        zero = _wrap(n, (0,) * order.phi, 1)
        coeffs = [c.lift(n) if any(c.nums) else zero for c in coeffs]
        a, b = coeffs[:4], coeffs[4:]
        minors = tuple(
            _wrap(n, *_normalize(*_dot(((1, a[i], b[j]), (-1, a[j], b[i])), order)))
            for i, j in PLUCKER_INDICES
        )
        # the first nonzero minor p_(c0 c1) names the RREF pivot columns
        k = next((k for k, p in enumerate(minors) if any(p.nums)), None)
        if k is None:
            raise GeometryError("the two forms are linearly dependent (rank 1)")
        self.pivots = PLUCKER_INDICES[k]
        self.minors = minors
        self.residues, self.norms = _scaled(minors, order)

    def __getattr__(self, name):
        # reached only for an unset slot: the canonical rows on first read
        if name != "rows":
            raise AttributeError(name)
        self._canonicalize()
        return self.rows

    def _canonicalize(self):
        minors = self.minors
        n = minors[0].order
        order = get_order(n)
        c0, c1 = self.pivots
        pivot = minors[PLUCKER_INDICES.index(self.pivots)]
        # a pivot that is already 1 (every atlas line) needs no scaling;
        # read off the coefficients, since == 1 would lift the 1
        if pivot.den != 1 or pivot.nums != order.power_rows[0]:
            inv = pivot.inverse()
            minors = tuple(
                _wrap(n, *_mul(p.nums, p.den, inv.nums, inv.den, order.red_rows))
                for p in minors
            )
        coord = dict(zip(PLUCKER_INDICES, minors))
        zero = _wrap(n, (0,) * order.phi, 1)

        def entry(i, j):  # p'_ij, with p'_ii = 0 and p'_ji = -p'_ij
            return zero if i == j else coord[i, j] if i < j else -coord[j, i]

        # Cramer's rule: r0[j] = p'_(j c1), r1[j] = p'_(c0 j)
        self.rows = (
            tuple(entry(j, c1) for j in range(4)),
            tuple(entry(c0, j) for j in range(4)),
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
        # proportional minors share their first nonzero one, the pivot
        if self.pivots != other.pivots:
            return False
        k = PLUCKER_INDICES.index(self.pivots)
        r, s = self.residues, other.residues
        if any((r[k] * s[j] - r[j] * s[k]) % RESIDUE_PRIME for j in range(6)):
            return False
        # every cross term has a zero residue; prove what the bound allows
        g, h = self.norms, other.norms
        m = lcm(self.minors[0].order, other.minors[0].order)
        rest = [
            j for j in range(6)
            if j != k and not _proves_zero(g[k] * h[j] + g[j] * h[k], m)
        ]
        if not rest:
            return True
        order, p, q = _aligned(self.minors, other.minors)
        return not any(
            any(_dot(((1, p[k], q[j]), (-1, p[j], q[k])), order)[0]) for j in rest
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


class Incidence(Enum):
    SKEW = 0
    MEET = 1
    SAME = "SAME"


def _dot(terms, order):
    """The sum of sign*x*y over (sign, x, y), for x, y at the given order, as
    unnormalized (numerators, denominator).

    Every product is convolved into one buffer over the lcm of the products'
    denominators, and the buffer is reduced once.
    """
    conv = [0] * (2 * order.phi - 1)
    den = 1
    for sign, x, y in terms:
        tden = x.den * y.den
        if den % tden:
            grow = tden // gcd(den, tden)
            conv = [c * grow for c in conv]
            den *= grow
        _convolve(conv, x.nums, y.nums, sign * (den // tden))
    return _fold(conv, order.red_rows), den


# signs of p01*q23 - p02*q13 + p03*q12 + p12*q03 - p13*q02 + p23*q01: the
# k-th coordinate of one line is multiplied by the (5-k)-th of the other
_PAIRING_SIGNS = (1, -1, 1, 1, -1, 1)


def _aligned(p, q):
    """(order, p, q): two Plücker tuples lifted to one order."""
    n = p[0].order
    if n != q[0].order:
        n, coords = _common_order(p + q)
        coords = [c.lift(n) for c in coords]
        p, q = coords[:6], coords[6:]
    return get_order(n), p, q


def _pairing_numerators(a, b):
    """Klein-quadric pairing of two lines' minors as unnormalized (order,
    nums, den): zero exactly when the canonical pairing is."""
    order, p, q = _aligned(a.minors, b.minors)
    return (order.n, *_dot(zip(_PAIRING_SIGNS, p, reversed(q)), order))


def lines_meet(a, b):
    """SAME, MEET (one common point) or SKEW for two lines in P^3."""
    p, q = a.residues, b.residues
    if (p[0] * q[5] - p[1] * q[4] + p[2] * q[3] + p[3] * q[2] - p[4] * q[1]
            + p[5] * q[0]) % RESIDUE_PRIME:
        return Incidence.SKEW
    g, h = a.norms, b.norms
    bound = g[0] * h[5] + g[1] * h[4] + g[2] * h[3] + g[3] * h[2] + g[4] * h[1] + g[5] * h[0]
    m = lcm(a.minors[0].order, b.minors[0].order)
    if not _proves_zero(bound, m) and any(_pairing_numerators(a, b)[1]):
        return Incidence.SKEW
    return Incidence.SAME if a == b else Incidence.MEET


MAX_FERMAT_EXPANSION_DEGREE = 12


def _powers(x, d, order):
    """x^0, ..., x^d at the order of x, multiplied with _mul."""
    out = [_wrap(order.n, order.power_rows[0], 1)]
    for _ in range(d):
        last = out[-1]
        out.append(_wrap(order.n, *_mul(last.nums, last.den, x.nums, x.den, order.red_rows)))
    return out


def line_on_fermat(line, d):
    """Whether the line lies on x0^d + x1^d + x2^d + x3^d = 0.

    The line is parametrized by its two free columns f, g: x_f = s, x_g = t
    and, with a_r, b_r the entries of pivot row r in columns f, g,
    x_(pivot r) = -(a_r*s + b_r*t).  The restricted form vanishes exactly
    when, for every j, [j=d] + [j=0] + (-1)^d * sum_r a_r^j * b_r^(d-j)
    does; the coefficient of s^j t^(d-j) is that times the nonzero C(d,j).
    Each is decided by its residue and norm bound where they suffice, and
    exactly otherwise.
    """
    if not isinstance(d, int) or d < 2:
        raise GeometryError(f"hypersurface degree must be an integer >= 2, got {d!r}")
    if d > MAX_FERMAT_EXPANSION_DEGREE:
        raise GeometryError(
            f"degree {d} exceeds the expansion bound {MAX_FERMAT_EXPANSION_DEGREE}"
        )
    order = get_order(line.rows[0][0].order)
    f, g = (c for c in range(4) if c not in line.pivots)
    # a_0, b_0, a_1, b_1; residues and norms are of the entries scaled to
    # integers by the lcm S of their denominators
    entries = [x for row in line.rows for x in (row[f], row[g])]
    top = lcm(*(x.den for x in entries)) ** d
    residues, norms = _scaled(entries, order)
    rp = [[pow(r, e, RESIDUE_PRIME) for e in range(d + 1)] for r in residues]
    hp = [[h**e for e in range(d + 1)] for h in norms]
    sign = -1 if d % 2 else 1
    rest = []
    for j in range(d + 1):
        # S^d * c_j: a nonzero residue proves the line off the surface
        residue = ((j == d) + (j == 0)) * top + sign * (
            rp[0][j] * rp[1][d - j] + rp[2][j] * rp[3][d - j]
        )
        if residue % RESIDUE_PRIME:
            return False
        bound = 2 * top + hp[0][j] * hp[1][d - j] + hp[2][j] * hp[3][d - j]
        if not _proves_zero(bound, order.n):
            rest.append(j)
    if not rest:
        return True
    powers = [_powers(x, d, order) for x in entries]
    for j in rest:
        nums, den = _dot(((sign, powers[r][j], powers[r + 1][d - j]) for r in (0, 2)), order)
        nums[0] += ((j == d) + (j == 0)) * den
        if any(nums):
            return False
    return True
