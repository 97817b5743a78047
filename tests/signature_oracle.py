"""Signature of a symmetric integer matrix: the oracle for the Hodge check.

The package decides the Hodge index by a fraction-free elimination of the
Gram.  This module counts the signs of the eigenvalues instead: the
characteristic polynomial of a symmetric matrix has only real roots, so by
Descartes' rule of signs its positive roots are exactly the sign changes of
its coefficients, and its negative roots those of p(-x).
"""

from fractions import Fraction


def characteristic_polynomial(a):
    """Coefficients of det(x I - a), leading first, by Faddeev-LeVerrier."""
    n = len(a)
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        c = coeffs[-1]
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) + (c if i == j else 0)
              for j in range(n)] for i in range(n)]
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)
    return coeffs


def _sign_changes(values):
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def signature(a):
    """(positive, negative) eigenvalue counts of a symmetric integer matrix."""
    p = characteristic_polynomial(a)
    n = len(p) - 1
    return _sign_changes(p), _sign_changes([c * (-1) ** (n - k) for k, c in enumerate(p)])
