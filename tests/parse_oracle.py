"""Dense evaluation of the scalar grammar: the oracle for sparse forms.

The package parses a linear form into a map of the coordinates that occur
in it.  This module keeps the evaluation that map replaced: every value
carries all four coefficients, and each term scales and adds all four with
CycNum operators, so a zero coefficient is lifted to the order of every term
it meets.  The grammar, the caps and the error texts are the package's own;
only the values differ.
"""

from acmcurves.cyclo import rational
from acmcurves.exprs import ParseError, _inverse, _parse, _Parser
from acmcurves.geometry import Line


class DenseValue:
    """Scalar plus the four coefficients of x0..x3."""

    __slots__ = ("const", "vec")

    def __init__(self, const, vec=None):
        self.const = const
        self.vec = vec or (rational(0),) * 4

    @staticmethod
    def coordinate(i):
        vec = [rational(0)] * 4
        vec[i] = rational(1)
        return DenseValue(rational(0), tuple(vec))

    def is_scalar(self):
        return all(c.is_zero() for c in self.vec)

    def __add__(self, other):
        return DenseValue(
            self.const + other.const,
            tuple(a + b for a, b in zip(self.vec, other.vec)),
        )

    def __sub__(self, other):
        return DenseValue(
            self.const - other.const,
            tuple(a - b for a, b in zip(self.vec, other.vec)),
        )

    def __neg__(self):
        return DenseValue(-self.const, tuple(-c for c in self.vec))

    def __mul__(self, other):
        if other.is_scalar():
            s = other.const
            return DenseValue(self.const * s, tuple(c * s for c in self.vec))
        if self.is_scalar():
            return other * self
        raise ParseError("nonlinear product of coordinates")

    def __truediv__(self, other):
        if not other.is_scalar():
            raise ParseError("division by a coordinate expression")
        if other.const.is_zero():
            raise ParseError("division by zero")
        inv = _inverse(other.const, "a quotient")
        return DenseValue(self.const * inv, tuple(c * inv for c in self.vec))


class DenseParser(_Parser):
    value_type = DenseValue


def scalar(text):
    value = _parse(text, DenseParser)
    if not value.is_scalar():
        raise ParseError("expected a scalar, found coordinates")
    return value.const


def linear_form(text):
    value = _parse(text, DenseParser)
    if not value.const.is_zero():
        raise ParseError("a projective linear form cannot have a constant term")
    if value.is_scalar():
        raise ParseError("the form has no coordinate part")
    return value.vec


def line(text):
    """A line literal of two forms separated by ";" (no "line:" prefix)."""
    f1, f2 = text.split(";")
    return Line(linear_form(f1), linear_form(f2))
