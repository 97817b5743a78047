"""Divisor-class calculus over a surface lattice model.

A class is stored as its nonzero terms {generator index: coefficient}, and
its dense tuple coeffs is derived on each read.  Arithmetic, the pairing
(the Gram matrix extended bilinearly), printing and the effectivity
certificate walk only those terms.  A class is known up to numerical
equivalence by its intersection vector Gram.coeffs (intersections), which
equality, hashing and search_witness all read; a class prints and tests
is_zero as written.
Genus and chi follow the adjunction and Riemann-Roch shapes
and are defined for arbitrary integer classes, not just effective ones; a
non-integral value is an error that proves the class cannot occur as stated.
"""

import itertools
import math
import operator
from collections import namedtuple

from .exprs import format_divisor


class NonIntegralError(ValueError):
    """A genus or chi computation produced a half-integer."""


class ModelMismatchError(ValueError):
    """Classes from different model instances were combined."""


def _same_model(a, b):
    if a.model is not b.model:
        raise ModelMismatchError(
            "classes belong to different model instances; build both from one model"
        )


class _Frozen:
    """An immutable __slots__ value, rebuilt by copy and pickle from the
    constructor arguments __reduce__ returns, and equal and hashed by them."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is type(self) and self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())


class DivClass(_Frozen):
    """Integer combination of a model's generator classes, stored as its
    nonzero terms; coeffs is the dense tuple, derived on each read."""

    __slots__ = ("model", "_terms")  # _terms: {generator index: nonzero coefficient}

    def __init__(self, model, coeffs):
        coeffs = tuple(map(operator.index, coeffs))
        if len(coeffs) != model.ngens:
            raise ValueError(
                f"expected {model.ngens} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "_terms", _nonzero(coeffs))

    @property
    def coeffs(self):
        terms = self._terms
        return tuple(terms.get(i, 0) for i in range(self.model.ngens))

    def __reduce__(self):
        return DivClass, (self.model, self.coeffs)

    def __add__(self, other):
        if not isinstance(other, DivClass):
            return NotImplemented
        _same_model(self, other)
        return _from_terms(self.model, _merged(self._terms, other._terms, 1))

    def __sub__(self, other):
        if not isinstance(other, DivClass):
            return NotImplemented
        _same_model(self, other)
        return _from_terms(self.model, _merged(self._terms, other._terms, -1))

    def __neg__(self):
        return _from_terms(self.model, {i: -c for i, c in self._terms.items()})

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return _from_terms(self.model, {i: k * c for i, c in self._terms.items()} if k else {})

    __rmul__ = __mul__

    def __eq__(self, other):
        """Numerical equivalence: (self - other).v = 0 for every generator v."""
        if not isinstance(other, DivClass):
            return NotImplemented
        if self.model is not other.model and self.model != other.model:
            return False
        diff = _merged(self._terms, other._terms, -1)
        return not (diff and any(_products(self.model, diff)))

    def __hash__(self):
        """Hash of the intersection vector Gram.coeffs, equal on equal classes."""
        return hash(tuple(_products(self.model, self._terms)))

    def is_zero(self):
        return not self._terms

    def __str__(self):
        return format_divisor(self)

    def __repr__(self):
        return f"DivClass({self})"


def _merged(a, b, sign):
    """The terms a + sign*b of two term dicts, zeros dropped."""
    terms = dict(a)
    for i, c in b.items():
        v = terms.get(i, 0) + sign * c
        if v:
            terms[i] = v
        else:
            del terms[i]
    return terms


def _from_terms(model, terms):
    """A DivClass with the given {index: nonzero int} terms, unchecked, as
    class arithmetic and the model's classes produce; the class owns the
    dict from here on, and nothing mutates it."""
    d = object.__new__(DivClass)
    object.__setattr__(d, "model", model)
    object.__setattr__(d, "_terms", terms)
    return d


def _nonzero(coeffs):
    """The {index: coefficient} terms of a dense vector, zeros dropped."""
    return {i: c for i, c in enumerate(coeffs) if c}


def _products(model, terms):
    """Gram.coeffs of a class given by its nonzero terms, as an iterator."""
    cols = [[row[j] * c for row in model.gram] for j, c in terms.items()]
    return map(sum, zip(*cols or [[0] * len(model.gram)]))


def intersections(model, coeffs):
    """Gram.coeffs as an iterator: a class's products with the generators, all 0
    exactly when the class is numerically zero."""
    return _products(model, _nonzero(coeffs))


def pair(a, b):
    """Exact intersection number a^T Gram b."""
    _same_model(a, b)
    gram = a.model.gram
    bterms = b._terms.items()
    total = 0
    for i, x in a._terms.items():
        row = gram[i]
        s = 0
        for j, y in bterms:
            s += row[j] * y
        total += x * s
    return total


def degree(d):
    """Degree of a class: pairing against the hyperplane class."""
    return pair(d.model.hyperplane_class, d)


def genus(d):
    """Arithmetic genus 1 + d.(d+K)/2; raises on a half-integer."""
    val = pair(d, d + d.model.canonical_class)
    if val % 2:
        raise NonIntegralError(f"d.(d+K) = {val} is odd; genus is not an integer")
    return 1 + val // 2


def chi(d):
    """Euler characteristic chi(O_X) + d.(d-K)/2; raises on a half-integer."""
    val = pair(d, d - d.model.canonical_class)
    if val % 2:
        raise NonIntegralError(f"d.(d-K) = {val} is odd; chi is not an integer")
    return d.model.chi0 + val // 2


def k_invariant(d):
    """The classification parameter k = deg(d) + 1 - genus(d)."""
    return degree(d) + 1 - genus(d)


def link(d, m):
    """Liaison by a degree-m complete intersection: the class m*H - d."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"liaison degree must be a positive integer, got {m!r}")
    return m * d.model.hyperplane_class - d


def deg1_effectivity_test(d):
    """On a quintic model, a degree-1 class is effective iff d.d = -3."""
    if d.model.degree != 5:
        raise ValueError("the degree-1 effectivity criterion applies to quintic models")
    if degree(d) != 1:
        raise ValueError(f"class has degree {degree(d)}, need degree 1")
    return pair(d, d) == -3


class Decomposition(_Frozen):
    """A multiset of classes with positive multiplicities."""

    __slots__ = ("parts",)  # ((DivClass, mult), ...)

    def __init__(self, parts):
        parts = tuple((cls, operator.index(mult)) for cls, mult in parts)
        if not parts:
            raise ValueError("a decomposition needs at least one part")
        model = parts[0][0].model
        for cls, mult in parts:
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            if cls.model is not model:
                raise ModelMismatchError("decomposition parts must share one model")
        object.__setattr__(self, "parts", parts)

    def __reduce__(self):
        return Decomposition, (self.parts,)

    @classmethod
    def of(cls, *items):
        parts = []
        for item in items:
            if isinstance(item, DivClass):
                parts.append((item, 1))
            else:
                parts.append(tuple(item))
        return cls(tuple(parts))

    @property
    def model(self):
        return self.parts[0][0].model

    @property
    def total(self):
        acc = self.parts[0][0].model.zero_class()
        for cls, mult in self.parts:
            acc = acc + mult * cls
        return acc

    @property
    def size(self):
        return sum(mult for _, mult in self.parts)

    def expanded(self):
        out = []
        for cls, mult in self.parts:
            out.extend([cls] * mult)
        return out

    def __str__(self):
        bits = []
        for cls, mult in self.parts:
            text = str(cls)
            bits.append(text if mult == 1 else f"{mult} x ({text})")
        return " | ".join(bits)


def genus_of_sum(decomp):
    """Genus of a sum of parts via P_a(A+B) = P_a(A) + P_a(B) + A.B - 1."""
    acc = None
    g = 0
    for cls, mult in decomp.parts:
        part_genus = genus(cls)
        for _ in range(mult):
            if acc is None:
                acc, g = cls, part_genus
            else:
                g = g + part_genus + pair(acc, cls) - 1
                acc = acc + cls
    return g


MAX_CONNECTEDNESS_SIZE = 20
# splits enumerated: the product of (mult + 1) over the parts; 2^12 admits
# every decomposition of total multiplicity 12 or less
MAX_CONNECTEDNESS_SPLITS = 4096


# minimum: least D1.D2 over proper splits, None if no split exists;
# split: (Decomposition, Decomposition) achieving it when below m, else None
ConnectednessResult = namedtuple("ConnectednessResult", "connected minimum split")


def is_m_connected(decomp, m):
    """Whether every proper effective split D1 + D2 has D1.D2 >= m.

    All proper nonempty sub-multisets are enumerated; on failure the first
    minimizing split is returned as the witness.
    """
    if decomp.size > MAX_CONNECTEDNESS_SIZE:
        raise ValueError(
            f"decomposition has total multiplicity {decomp.size}, "
            f"exceeding the enumeration bound {MAX_CONNECTEDNESS_SIZE}"
        )
    parts = decomp.parts
    splits = math.prod(mult + 1 for _, mult in parts)
    if splits > MAX_CONNECTEDNESS_SPLITS:
        raise ValueError(
            f"decomposition has {splits} splits, "
            f"exceeding the enumeration bound {MAX_CONNECTEDNESS_SPLITS}"
        )
    npairs = [[pair(a, b) for b, _ in parts] for a, _ in parts]
    mults = [mult for _, mult in parts]
    best = None
    best_take = None
    for take in itertools.product(*(range(mu + 1) for mu in mults)):
        if not any(take) or all(t == mu for t, mu in zip(take, mults)):
            continue
        val = 0
        for i, ti in enumerate(take):
            if ti:
                row = npairs[i]
                for j, mu in enumerate(mults):
                    rest = mu - take[j]
                    if rest:
                        val += ti * rest * row[j]
        if best is None or val < best:
            best = val
            best_take = take
    if best is None:
        return ConnectednessResult(True, None, None)
    if best >= m:
        return ConnectednessResult(True, best, None)
    d1 = Decomposition(
        tuple((parts[i][0], t) for i, t in enumerate(best_take) if t)
    )
    d2 = Decomposition(
        tuple(
            (parts[i][0], mults[i] - t)
            for i, t in enumerate(best_take)
            if mults[i] - t
        )
    )
    return ConnectednessResult(False, best, (d1, d2))


class HVector(_Frozen):
    """Second difference of a Hilbert function, finitely supported."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(map(operator.index, entries))
        if any(v < 0 for v in entries):
            raise ValueError("h-vector entries must be nonnegative")
        if entries and entries[0] < 1:
            raise ValueError("h(0) must be >= 1 for a nonempty curve")
        object.__setattr__(self, "entries", entries)

    def __reduce__(self):
        return HVector, (self.entries,)


def hvector_invariants(h):
    """(degree, genus) = (sum h(l), sum (l-1) h(l) over l >= 1)."""
    if isinstance(h, (list, tuple)):
        h = HVector(tuple(h))
    deg = sum(h.entries)
    gen = sum((l - 1) * v for l, v in enumerate(h.entries) if l >= 1)
    return deg, gen


# parts: ((DivClass, mult), ...) when certified, else None
EffectivityCertificate = namedtuple(
    "EffectivityCertificate", "ok reason parts", defaults=(None,)
)


def certify_effective(d):
    """Sufficient effectivity certificate.

    A class passes when it is a nonnegative combination of the registered
    effective classes (generators, and on a model with a line atlas also the
    residual plane curves H - L cut on a plane through an atlas line), or when
    the quintic degree-1 self-intersection criterion applies.  Failure does
    not prove the class ineffective.
    """
    model = d.model
    if d.is_zero():
        return EffectivityCertificate(True, "zero class", ())
    atlas = model.lines is not None
    rest = sorted((i, c) for i, c in d._terms.items() if i)
    lead = d._terms.get(0, 0)
    if atlas:  # generator 0 is H; it pays for each negative line coefficient as H - L
        lead += sum(c for _, c in rest if c < 0)
    if lead >= 0 and (atlas or all(c > 0 for _, c in rest)):
        H = model.hyperplane_class
        parts = [(H if atlas else _from_terms(model, {0: 1}), lead)] if lead else []
        for i, c in rest:
            gen = _from_terms(model, {i: 1})
            parts.append((gen, c) if c > 0 else (H - gen, -c))
        return EffectivityCertificate(True, (
            "nonnegative combination of H, atlas lines, and residual plane curves" if atlas
            else "nonnegative combination of registered generators"), tuple(parts))
    if model.degree == 5 and degree(d) == 1 and deg1_effectivity_test(d):
        return EffectivityCertificate(
            True, "degree-1 class with self-intersection -3", ((d, 1),)
        )
    return EffectivityCertificate(
        False, "not certified; the registered-effective policy is sufficient, not necessary"
    )
