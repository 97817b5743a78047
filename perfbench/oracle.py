"""Answers computed apart from acmcurves, with the standard library only.

Nothing here imports the package under test.  Line incidence comes from
complex floating-point 4x4 determinants of the lines' printed equations,
with a wide margin between the values that count as zero and nonzero; the
lattice rank is exact rational elimination; divisor invariants use the
oracle Gram; the aCM tables are the paper's printed ones.
"""

import cmath

PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))
CHI0 = {4: 2, 5: 5}
# ranks of the line lattices: Schuett-Shioda-van Luijk, "Lines on Fermat
# surfaces", J. Number Theory 130 (2010); on the quartic it is the full
# Picard number 20
LATTICE_RANK = {4: 20, 5: 37}

# relative |det| (over the Hadamard bound) below ZERO_TOL counts as zero,
# above NONZERO_TOL as nonzero; anything between is refused
ZERO_TOL = 1e-9
NONZERO_TOL = 1e-3


class OracleError(RuntimeError):
    """The oracle met a value it cannot decide with its margin."""


def root(n, k):
    return cmath.exp(2j * cmath.pi * k / n)


def det4(rows):
    """Complex determinant by Gaussian elimination with partial pivoting."""
    m = [list(r) for r in rows]
    det = 1 + 0j
    for c in range(4):
        p = max(range(c, 4), key=lambda r: abs(m[r][c]))
        if abs(m[p][c]) == 0:
            return 0j
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, 4):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, 4):
                    m[r][k] -= f * m[c][k]
    return det


def relative_det(rows):
    """|det| over the product of the row norms (Hadamard), in [0, 1]."""
    scale = 1.0
    for r in rows:
        scale *= sum(abs(v) ** 2 for v in r) ** 0.5
    return abs(det4(rows)) / scale


def rows_meet(a, b):
    """True when two lines, each given by two float forms, share a point."""
    rel = relative_det(list(a) + list(b))
    if rel < ZERO_TOL:
        return True
    if rel > NONZERO_TOL:
        return False
    raise OracleError(f"relative determinant {rel:.3g} is in the grey zone")


def fermat_parameter(d, a):
    """The printed parameter: zeta_5^a on the quintic, zeta_8^(2a+1) on the quartic."""
    return root(5, a) if d == 5 else root(8, 2 * a + 1)


def standard_lines(d):
    """(name, (form1, form2)) for the 3*d^2 lines x_p + al*x_q = x_r + be*x_s = 0."""
    out = []
    for p, q, r, s in PAIRINGS:
        for a in range(d):
            for b in range(d):
                f1, f2 = [0j] * 4, [0j] * 4
                f1[p], f1[q] = 1, fermat_parameter(d, a)
                f2[r], f2[s] = 1, fermat_parameter(d, b)
                out.append((f"L[{p}{q}|{r}{s}]({a},{b})", (f1, f2)))
    return out


class Lattice:
    """Oracle Gram of a Fermat surface on H and its standard lines."""

    def __init__(self, d):
        self.d = d
        lines = standard_lines(d)
        self.names = ("H",) + tuple(name for name, _ in lines)
        m = len(self.names)
        gram = [[0] * m for _ in range(m)]
        gram[0][0] = d
        for i in range(1, m):
            gram[0][i] = gram[i][0] = 1
            gram[i][i] = 2 - d  # a line has genus 0: L.(L + (d-4)H) = -2
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                v = 1 if rows_meet(lines[i][1], lines[j][1]) else 0
                gram[1 + i][1 + j] = gram[1 + j][1 + i] = v
        self.gram = tuple(tuple(row) for row in gram)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.lines = tuple(self.names[1:])

    def vec(self, terms):
        """Coefficient vector of {name: coeff}."""
        v = [0] * len(self.names)
        for name, c in terms.items():
            v[self.index[name]] += c
        return v

    def pair(self, u, v):
        g = self.gram
        return sum(
            x * sum(g[i][j] * y for j, y in enumerate(v) if y)
            for i, x in enumerate(u)
            if x
        )

    def meets(self, a, b):
        return self.gram[self.index[a]][self.index[b]] == 1

    def invariants(self, v):
        """(degree, genus, chi, k) of a class; K = (d-4)H."""
        d = self.d
        deg = d * v[0] + sum(v[1:])
        dd = self.pair(v, v)
        dk = (d - 4) * deg
        g = 1 + (dd + dk) // 2
        chi = CHI0[d] + (dd - dk) // 2
        return deg, g, chi, deg + 1 - g


def rational_rank(matrix):
    """Exact rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in matrix]
    rows, cols = len(m), len(m[0])
    rank, prev = 0, 1
    for c in range(cols):
        p = next((r for r in range(rank, rows) if m[r][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        piv = m[rank][c]
        for r in range(rank + 1, rows):
            mrc = m[r][c]
            row_r, row_p = m[r], m[rank]
            for k in range(c + 1, cols):
                row_r[k] = (piv * row_r[k] - mrc * row_p[k]) // prev
            row_r[c] = 0
        prev = piv
        rank += 1
    return rank


def least_split(lattice, parts):
    """Least D1.D2 over proper nonempty sub-multisets, by brute force.

    parts: [(line name, mult)].  Every subset of the expanded list is
    tried, so equal multisets are visited more than once; the minimum is
    the same.
    """
    expanded = [lattice.vec({name: 1}) for name, mult in parts for _ in range(mult)]
    n = len(expanded)
    total = [sum(col) for col in zip(*expanded)]
    best = None
    for mask in range(1, (1 << n) - 1):
        d1 = [0] * len(total)
        for i in range(n):
            if mask >> i & 1:
                d1 = [x + y for x, y in zip(d1, expanded[i])]
        d2 = [t - x for t, x in zip(total, d1)]
        val = lattice.pair(d1, d2)
        if best is None or val < best:
            best = val
    return best


# the paper's tables: Theorem 1.2 (aCM), Theorem 1.3 (non-aCM exists,
# with the statement whose witness settles an instance), Proposition 2.1
QUINTIC_ACM = {(2, 1), (2, 4), (3, 2), (3, 3), (3, 5), (3, 6), (4, 3), (4, 4)}
QUINTIC_NONACM = {
    (0, 10): "P4.5", (1, 9): "C4.2", (2, 7): "P4.4", (2, 8): "C4.3",
    (3, 7): "P4.7", (4, 5): "P4.8", (4, 6): "P4.6",
}
QUARTIC_ACM = {(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 5)}
QUARTIC_NONACM = {(3, 6): "P2.2"}


def expected_status(kind, deg, g):
    """(status, witness rule or None) for classify_numeric, degree >= 1."""
    if kind == "quintic":
        key = (deg + 1 - g, deg)
        if key in QUINTIC_ACM:
            return "ACM", None
        if key in QUINTIC_NONACM:
            return "CONDITIONAL", QUINTIC_NONACM[key]
        return "OUT_OF_TABLE", None
    key = (g, deg)
    if key in QUARTIC_ACM:
        return "ACM", None
    if key in QUARTIC_NONACM:
        return "CONDITIONAL", QUARTIC_NONACM[key]
    return "OUT_OF_TABLE", None


def numerically_zero(lattice, v):
    return all(lattice.pair(v, lattice.vec({g: 1})) == 0 for g in lattice.names)

