"""Cofactor determinant of stacked line forms: the oracle for Plücker incidence.

The package decides incidence with the Klein-quadric pairing of Plücker
coordinates.  This module keeps the direct definition it replaced: the
determinant of the 4x4 matrix stacking both lines' canonical forms, by
recursive cofactor expansion with CycNum operators, and the pairing of the
canonical Plücker coordinates, read off the canonical rows with the same
operators, to compare it with.
"""

from acmcurves.cyclo import rational


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


def _canonical_plucker(line):
    """Plücker coordinates p_ij = r0[i]*r1[j] - r0[j]*r1[i] of the canonical
    rows, i < j, in the package's storage order."""
    r0, r1 = line.rows
    return [r0[i] * r1[j] - r0[j] * r1[i] for i in range(4) for j in range(i + 1, 4)]


def plucker_pairing(a, b):
    """Klein-quadric pairing of two lines' canonical Plücker coordinates,
    p01*q23 - p02*q13 + p03*q12 + p12*q03 - p13*q02 + p23*q01, as a
    cyclotomic number."""
    p, q = _canonical_plucker(a), _canonical_plucker(b)
    total = rational(0)
    for k, sign in enumerate((1, -1, 1, 1, -1, 1)):
        total = total + sign * p[k] * q[5 - k]
    return total
