"""Cofactor determinant of stacked line forms: the oracle for Plücker incidence.

The package decides incidence with the Klein-quadric pairing of Plücker
coordinates.  This module keeps the direct definition it replaced: the
determinant of the 4x4 matrix stacking both lines' canonical forms, by
recursive cofactor expansion with CycNum operators, and the pairing of the
canonical Plücker coordinates as a CycNum to compare it with.
"""

from acmcurves.cyclo import _normalize, _wrap, rational
from acmcurves.geometry import _pairing


def _det(mat):
    """Exact determinant by cofactor expansion, skipping zero entries."""
    size = len(mat)
    if size == 1:
        return mat[0][0]
    total = None
    for j in range(size):
        entry = mat[0][j]
        if entry.is_zero():
            continue
        minor = [
            [row[c] for c in range(size) if c != j] for row in mat[1:]
        ]
        term = entry * _det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return rational(0)
    return total


def stacked_determinant(a, b):
    """Determinant of the 4x4 matrix stacking both lines' canonical forms."""
    return _det([list(a.rows[0]), list(a.rows[1]), list(b.rows[0]), list(b.rows[1])])


def plucker_pairing(a, b):
    """Klein-quadric pairing of two lines' canonical Plücker coordinates,
    as a cyclotomic number."""
    n, nums, den = _pairing(a.plucker, b.plucker)
    return _wrap(n, *_normalize(nums, den))
