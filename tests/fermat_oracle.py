"""Binomial expansion of the Fermat form on a line: the membership oracle.

The package decides membership from powers of the pivot-row entries at the
line's own order.  This module keeps the direct definition it replaced: the
line is parametrized by two spanning points p, q, and every coefficient of
sum_i (s*p_i + t*q_i)^d, expanded with CycNum operators, must vanish.
"""

from math import comb

from acmcurves.cyclo import rational


def on_fermat_by_expansion(line, d):
    """Whether the line lies on x0^d + x1^d + x2^d + x3^d = 0."""
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
