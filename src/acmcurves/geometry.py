"""Exact projective geometry in P^3.

A line is the common zero locus of two independent linear forms a, b, and
it is stored as its projective Plücker point: the six minors
p_ij = a_i*b_j - a_j*b_i (i < j) of the input forms, with p_ji = -p_ij and
p_ii = 0.  Another pair of forms cutting out the same line changes the
minors by the nonzero determinant of the row operation between the pairs,
so two lines are equal exactly when their minors are proportional, and
incidence, a zero test of a bilinear form, needs no normalization.

The minors are integral: each form is first multiplied by the lcm of its
denominators, which cuts out the same plane.  Every exact zero test here is
a signed sum of products of their integer numerators, evaluated by
cyclo._dot with one reduction modulo the cyclotomic polynomial, at the
common order to which cyclo._lifted brings the forms or the two lines.

The canonical representative, computed only to print or hash a line, is
the reduced row echelon form of the 2x4 coefficient matrix over the
cyclotomic field, read off the minors by Cramer's rule on each read.  The
RREF pivot columns (c0, c1) are the first pair in PLUCKER_INDICES order
with p_(c0 c1) != 0 (all six zero means rank 1).  With p' = p / p_(c0 c1),
the canonical rows are r0[j] = p'_(j c1) and r1[j] = p'_(c0 j), and p' are
the Plücker coordinates of those rows, since the row operation to RREF has
determinant 1/p_(c0 c1).  So a line costs six _dot, and its canonical form
one inverse more.

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
carries the images of its minors in F_P under the ring map of cyclo (see
RESIDUE_PRIME) and the l1 norms h_k of their numerators; the minors are
integral, so the map takes them without any division mod P.  The pairing
of two images is the image of the pairing of the minors, and likewise for
each cross term; a ring map sends 0 to 0, so a nonzero image proves SKEW,
or that two lines differ.  A zero image proves the value zero when its
norm bound allows (cyclo._proves_zero): at the lcm m of the two lines'
orders, every embedding of the pairing has absolute value at most
sum_k h_k(a) * h_(5-k)(b), and of a cross term at most
h_k(a)*h_j(b) + h_j(a)*h_k(b), and a bound B with B^phi(m) < P turns a zero
residue into MEET (or SAME), or into a vanishing cross term.  Only where
that bound fails, as for large or P-divisible numerators and many order-40
literal lines, or where m exceeds the order cap, does a zero image fall
through to exact arithmetic.  Over the cap that arithmetic first descends
the minors to their conductors (cyclo._common_order) and raises OrderError
when their lcm still exceeds the cap, even for two lines that meet: the
lines x0 + zeta(7)*x1 = x2 = 0 and x0 + zeta(8)*x1 = x2 = 0 lie in one
plane, and their pairing needs order 56.

Membership in the Fermat surface of degree d is decided on the minors too.
With a_r, b_r the entries of canonical row r in the free columns f < g, the
coefficient of s^j t^(d-j) of the restricted form is C(d,j) times
c_j = [j=d] + [j=0] + (-1)^d * sum_r a_r^j * b_r^(d-j).  With k the pivot
index, p_k * (a_0, b_0, a_1, b_1) are the minors A_0, B_0, A_1, B_1 =
p_(f c1), p_(g c1), p_(c0 f), p_(c0 g), so

    p_k^d * c_j = ([j=d] + [j=0]) * p_k^d + (-1)^d * sum_r A_r^j * B_r^(d-j),

homogeneous of degree d.  On the integral minors it lies in Z[zeta_n]; its
residue is a sum of modular powers of the stored residues, and its
embeddings are bounded by the same form in the stored norms h, with
([j=d] + [j=0]) * h_k^d + sum_r h(A_r)^j * h(B_r)^(d-j).  A nonzero residue
proves c_j != 0, and a zero one under the bound proves c_j = 0; any other
c_j is one _dot over powers of the signed minors, at the line's own order.
"""

from enum import Enum
from math import lcm

from .cyclo import (
    RESIDUE_PRIME,
    _coerce,
    _dot,
    _lifted,
    _proves_zero,
    _residue,
    _wrap,
    get_order,
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


def _signed(i, j):
    """(k, sign) with p_ij = sign * p_k, the k-th minor in storage order."""
    return (PLUCKER_INDICES.index((i, j)), 1) if i < j else (PLUCKER_INDICES.index((j, i)), -1)


def _integral(form, nums):
    """The numerators nums of a form's coefficients, all at one order, times
    the lcm of their denominators: the same plane, with integer coefficients."""
    scale = lcm(*(c.den for c in form))
    return [x if c.den == scale else [v * (scale // c.den) for v in x] for c, x in zip(form, nums)]


class Line:
    """A line in P^3 cut out by two linear forms, each four coefficients.

    It is kept as its Plücker minors, in the order of PLUCKER_INDICES, which
    are integral because each form is first cleared of denominators, with
    their residues mod RESIDUE_PRIME, the l1 norms of their numerators and
    the RREF pivot columns.  The canonical rank-2 RREF 2x4 matrix `rows` is
    derived from the minors on each read, to print or hash the line."""

    __slots__ = ("minors", "residues", "norms", "pivots")

    def __init__(self, f1, f2):
        coeffs = _form(f1) + _form(f2)
        n, nums = _lifted(coeffs)
        order = get_order(n)
        a, b = _integral(coeffs[:4], nums[:4]), _integral(coeffs[4:], nums[4:])
        minors = tuple(
            _wrap(n, tuple(_dot(((1, a[i], b[j]), (-1, a[j], b[i])), order)), 1)
            for i, j in PLUCKER_INDICES
        )
        # the first nonzero minor p_(c0 c1) names the RREF pivot columns
        k = next((k for k, p in enumerate(minors) if any(p.nums)), None)
        if k is None:
            raise GeometryError("the two forms are linearly dependent (rank 1)")
        self.pivots = PLUCKER_INDICES[k]
        self.minors = minors
        self.residues = tuple(_residue(p.nums, order) for p in minors)
        self.norms = tuple(sum(map(abs, p.nums)) for p in minors)

    @property
    def rows(self):
        """The canonical rows, p' = p / p_(c0 c1) read off by Cramer's rule."""
        n = self.minors[0].order
        c0, c1 = self.pivots
        inv = self.minors[PLUCKER_INDICES.index(self.pivots)].inverse()
        coord = dict(zip(PLUCKER_INDICES, (p * inv for p in self.minors)))
        zero = _wrap(n, (0,) * get_order(n).phi, 1)

        def entry(i, j):  # p'_ij, with p'_ii = 0 and p'_ji = -p'_ij
            return zero if i == j else coord[i, j] if i < j else -coord[j, i]

        # Cramer's rule: r0[j] = p'_(j c1), r1[j] = p'_(c0 j)
        return (
            tuple(entry(j, c1) for j in range(4)),
            tuple(entry(c0, j) for j in range(4)),
        )

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
        n, nums = _lifted(self.minors + other.minors)
        order, p, q = get_order(n), nums[:6], nums[6:]
        return not any(
            any(_dot(((1, p[k], q[j]), (-1, p[j], q[k])), order)) for j in rest
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

        r0, r1 = self.rows
        return f"{form(r0)} ; {form(r1)}"

    def __repr__(self):
        return f"Line({self})"


class Incidence(Enum):
    SKEW = 0
    MEET = 1
    SAME = "SAME"


# signs of p01*q23 - p02*q13 + p03*q12 + p12*q03 - p13*q02 + p23*q01: the
# k-th coordinate of one line is multiplied by the (5-k)-th of the other
_PAIRING_SIGNS = (1, -1, 1, 1, -1, 1)


def _pairing_numerators(a, b):
    """Klein-quadric pairing of two lines' minors as unnormalized numerators:
    zero exactly when the canonical pairing is."""
    n, nums = _lifted(a.minors + b.minors)
    return _dot(zip(_PAIRING_SIGNS, nums[:6], reversed(nums[6:])), get_order(n))


def lines_meet(a, b):
    """SAME, MEET (one common point) or SKEW for two lines in P^3."""
    p, q = a.residues, b.residues
    if (p[0] * q[5] - p[1] * q[4] + p[2] * q[3] + p[3] * q[2] - p[4] * q[1]
            + p[5] * q[0]) % RESIDUE_PRIME:
        return Incidence.SKEW
    g, h = a.norms, b.norms
    bound = g[0] * h[5] + g[1] * h[4] + g[2] * h[3] + g[3] * h[2] + g[4] * h[1] + g[5] * h[0]
    m = lcm(a.minors[0].order, b.minors[0].order)
    if not _proves_zero(bound, m) and any(_pairing_numerators(a, b)):
        return Incidence.SKEW
    return Incidence.SAME if a == b else Incidence.MEET


MAX_FERMAT_EXPANSION_DEGREE = 12


def _powers(x, d, order):
    """The numerators of x^0, ..., x^d, for the integer numerators x of an
    element at this order."""
    out = [order.power_rows[0]]
    for _ in range(d):
        out.append(_dot(((1, out[-1], x),), order))
    return out


def line_on_fermat(line, d):
    """Whether the line lies on x0^d + x1^d + x2^d + x3^d = 0.

    The line is parametrized by its two free columns f, g: x_f = s, x_g = t
    and, with a_r, b_r the entries of pivot row r in columns f, g,
    x_(pivot r) = -(a_r*s + b_r*t).  The restricted form vanishes exactly
    when, for every j, c_j = [j=d] + [j=0] + (-1)^d * sum_r a_r^j * b_r^(d-j)
    does; the coefficient of s^j t^(d-j) is that times the nonzero C(d,j).
    With p_k the pivot minor, p_k * (a_0, b_0, a_1, b_1) are the minors
    A_0, B_0, A_1, B_1 = p_(f c1), p_(g c1), p_(c0 f), p_(c0 g), so p_k^d * c_j
    is a form of degree d in the minors.  Each is decided by its residue and
    norm bound, read off the line's minors, where they suffice, and
    exactly otherwise.
    """
    if not isinstance(d, int) or d < 2:
        raise GeometryError(f"hypersurface degree must be an integer >= 2, got {d!r}")
    if d > MAX_FERMAT_EXPANSION_DEGREE:
        raise GeometryError(
            f"degree {d} exceeds the expansion bound {MAX_FERMAT_EXPANSION_DEGREE}"
        )
    order = get_order(line.minors[0].order)
    c0, c1 = line.pivots
    f, g = (c for c in range(4) if c not in line.pivots)
    # A_0, B_0, A_1, B_1 and then p_k, each as (index, sign)
    signed = [_signed(f, c1), _signed(g, c1), _signed(c0, f), _signed(c0, g), _signed(c0, c1)]
    rp = [[pow(s * line.residues[k], e, RESIDUE_PRIME) for e in range(d + 1)] for k, s in signed]
    hp = [[line.norms[k] ** e for e in range(d + 1)] for k, _ in signed]
    sign = -1 if d % 2 else 1
    rest = []
    for j in range(d + 1):
        # p_k^d * c_j: a nonzero residue proves the line off the surface
        lead = (j == d) + (j == 0)
        residue = lead * rp[4][d] + sign * (rp[0][j] * rp[1][d - j] + rp[2][j] * rp[3][d - j])
        if residue % RESIDUE_PRIME:
            return False
        bound = lead * hp[4][d] + hp[0][j] * hp[1][d - j] + hp[2][j] * hp[3][d - j]
        if not _proves_zero(bound, order.n):
            rest.append(j)
    if not rest:
        return True
    powers = [_powers([s * v for v in line.minors[k].nums], d, order) for k, s in signed]
    for j in rest:
        terms = [(sign, powers[r][j], powers[r + 1][d - j]) for r in (0, 2)]
        lead = (j == d) + (j == 0)
        if lead:
            terms.append((lead, powers[4][j], powers[4][d - j]))
        if any(_dot(terms, order)):
            return False
    return True
