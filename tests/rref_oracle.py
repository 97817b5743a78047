"""Row reduction of two stacked forms: the oracle for the canonical line.

The package reads a line's canonical rows off its Plücker coordinates by
Cramer's rule.  This module keeps the direct definition it replaced: the
reduced row echelon form of the 2x4 coefficient matrix, with unit pivots,
by Gaussian elimination with CycNum operators.
"""

from acmcurves.cyclo import _common_order


def rref(rows):
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


def canonical_rows(f1, f2):
    """(rows, pivots) of two forms, both lifted to the lcm of their orders,
    with each entry given as (order, numerators, denominator)."""
    n, coeffs = _common_order(tuple(f1) + tuple(f2))
    rows, pivots = rref([[c.lift(n) for c in coeffs[:4]], [c.lift(n) for c in coeffs[4:]]])
    return [[(c.order, c.nums, c.den) for c in row] for row in rows], pivots
