"""Surface lattice models.

A SurfaceModel is the numeric shadow of a surface: named generator classes,
their symmetric intersection Gram matrix, the hyperplane and canonical
classes, and chi(O_X).  Every model the package builds, the Fermat and
built-in surfaces and the reproduction's quintic sublattices, comes from one
constructor, which derives K = (d - 4)H and chi(O_X) = 1 + C(d - 1, 3) from
the degree d by adjunction; only a custom document (load_model) states them
itself.  Fermat models of degree 4 and 5 also carry the atlas of 3*d^2
standard lines cut out by binomial plane pairs, with every atlas line
verified to lie on the surface before it is admitted.

Self-intersections of atlas lines are assigned by adjunction (L^2 = 2 - d,
genus 0), not measured geometrically; pairwise products of distinct lines
come from the exact incidence test and are 0 or 1.  Construction is
deterministic, and constructed models are immutable.
"""

from collections import namedtuple
from functools import lru_cache

from .cyclo import rational, zeta
from .divisors import DivClass, _Frozen, _from_terms, _nonzero, pair
from .exprs import ParseError, parse_divisor
from .geometry import Incidence, Line, line_on_fermat, lines_meet

FERMAT_DEGREES = (4, 5)
# caps on a custom document, so that model_validate eliminates its Gram in
# about a second
MAX_CUSTOM_GENERATORS = 128
MAX_CUSTOM_ENTRY = 2**16

# coordinate pairings {pq|rs}: forms x_p + alpha*x_q and x_r + beta*x_s
PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


class SurfaceError(ValueError):
    pass


class SurfaceModel(_Frozen):
    """A lattice model.  kind is fermat, quadric, cubic_delpezzo, generic or
    custom; degree is the hypersurface degree when meaningful, else None;
    gen_genus holds the arithmetic genus of each generator when known, else
    None; lines, when present, are the atlas Lines aligned with
    generators[1:]."""

    __slots__ = ("name", "kind", "degree", "generators", "gram", "hyperplane",
                 "canonical", "chi0", "gen_genus", "lines",
                 "_positions", "_hyperplane_terms", "_canonical_terms", "__weakref__")

    def __init__(self, name, kind, degree, generators, gram, hyperplane, canonical,
                 chi0, gen_genus, lines=None):
        m = len(generators)
        if len(gram) != m or any(len(row) != m for row in gram):
            raise SurfaceError("Gram matrix shape does not match the generators")
        if len(hyperplane) != m or len(canonical) != m:
            raise SurfaceError("class vectors must match the generator count")
        # name -> position; the first position wins, as with tuple.index
        positions = {}
        for i, gen in enumerate(generators):
            positions.setdefault(gen, i)
        # hyperplane and canonical are checked and made sparse once here, so
        # that hyperplane_class and canonical_class (read by every degree,
        # genus and chi) skip DivClass validation.  The model stores terms,
        # not DivClass objects: a class refers to its model, and that cycle
        # would keep each discarded model alive until the cyclic collector
        # runs, raising peak memory over repeated fresh builds.
        values = (name, kind, degree, generators, gram, tuple(int(v) for v in hyperplane),
                  tuple(int(v) for v in canonical), chi0, gen_genus, lines, positions)
        values += (_nonzero(values[5]), _nonzero(values[6]))
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)

    def __reduce__(self):  # the fields: the slots before _positions
        return SurfaceModel, tuple(getattr(self, slot) for slot in self.__slots__[:-4])

    @property
    def ngens(self):
        return len(self.generators)

    def index(self, name):
        try:
            return self._positions[name]
        except KeyError:
            raise SurfaceError(
                f"unknown generator {name!r}; valid names: {', '.join(self.generators)}"
            ) from None

    def gen_class(self, name):
        return _from_terms(self, {self.index(name): 1})

    def class_of(self, coeffs):
        return DivClass(self, tuple(coeffs))

    _class_of_terms = _from_terms  # for parse_divisor, which cannot import divisors

    def zero_class(self):
        return _from_terms(self, {})

    @property
    def hyperplane_class(self):
        return _from_terms(self, self._hyperplane_terms)

    @property
    def canonical_class(self):
        return _from_terms(self, self._canonical_terms)

    def parse(self, text):
        return parse_divisor(text, self)

    def _atlas(self):
        """The atlas lines, or SurfaceError for a model without an atlas."""
        if self.lines is None:
            raise SurfaceError(f"model {self.name} has no line atlas")
        return self.lines

    def line_named(self, name):
        return self._atlas()[self.index(name) - 1]

    def line_names(self):
        self._atlas()
        return self.generators[1:]

    def atlas_class(self, line):
        """Generator class of a geometric line found in the atlas."""
        for i, known in enumerate(self._atlas()):
            if known == line:
                return self.gen_class(self.generators[1 + i])
        raise SurfaceError(f"line {line} is not in the atlas of {self.name}")


def _fermat_parameter(d, exponent):
    """Root-of-unity parameter: zeta_d^a for odd d, zeta_(2d)^(2a+1) for even d."""
    if d % 2:
        return zeta(d, exponent)
    return zeta(2 * d, 2 * exponent + 1)


def _standard_line(d, pairing, a, b):
    p, q, r, s = pairing
    alpha = _fermat_parameter(d, a)
    beta = _fermat_parameter(d, b)
    one, zero = rational(1), rational(0)
    f1 = [zero] * 4
    f2 = [zero] * 4
    f1[p], f1[q] = one, alpha
    f2[r], f2[s] = one, beta
    return Line(tuple(f1), tuple(f2))


def _line_name(pairing, a, b):
    p, q, r, s = pairing
    return f"L[{p}{q}|{r}{s}]({a},{b})"


def build_fermat_model(d):
    """Fermat model of degree d with its standard line atlas, unconditionally
    re-verified: every enumerated line must pass the membership test and the
    atlas must be duplicate free, otherwise construction aborts.  Duplicates
    are caught by the incidence Gram loop, which sees every pair once."""
    if d not in FERMAT_DEGREES:
        raise SurfaceError(f"fermat models support degrees {FERMAT_DEGREES}, got {d}")
    names = []
    lines = []
    for pairing in PAIRINGS:
        for a in range(d):
            for b in range(d):
                line = _standard_line(d, pairing, a, b)
                name = _line_name(pairing, a, b)
                if not line_on_fermat(line, d):
                    raise SurfaceError(
                        f"enumerated line {name} = {line} fails membership in the "
                        f"degree-{d} Fermat surface; the atlas is corrupt"
                    )
                names.append(name)
                lines.append(line)
    m = 1 + len(lines)
    gram = [[0] * m for _ in range(m)]
    gram[0][0] = d
    line_self = 2 - d  # adjunction with genus 0
    for i in range(1, m):
        gram[0][i] = gram[i][0] = 1
        gram[i][i] = line_self
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            rel = lines_meet(lines[i], lines[j])
            if rel is Incidence.SAME:
                raise SurfaceError(
                    f"atlas lines {names[i]} and {names[j]} coincide"
                )
            v = 1 if rel is Incidence.MEET else 0
            gram[1 + i][1 + j] = gram[1 + j][1 + i] = v
    return _hypersurface(d, f"fermat{d}", "fermat", ("H", *names), gram, lines=tuple(lines))


def _hypersurface(d, name, kind, generators, gram, hyperplane=None, gen_genus=None, lines=None):
    """Model of a smooth degree-d surface in P^3, by adjunction: K = (d - 4)H
    and chi(O_X) = 1 + h0(O(d - 4)).  Without a hyperplane, H is the first
    generator and the rest are lines, so the genera default to the plane
    section's (d - 1)(d - 2)/2 and then 0; with one, every generator
    defaults to a rational curve.  gen_genus is geometric data, never read
    off the Gram, so that model_validate's generator-adjunction check tests
    it."""
    rest = (0,) * (len(generators) - 1)
    if hyperplane is None:
        hyperplane = (1,) + rest
        gen_genus = gen_genus or ((d - 1) * (d - 2) // 2,) + rest
    return SurfaceModel(
        name=name, kind=kind, degree=d, generators=generators,
        gram=tuple(tuple(row) for row in gram),
        hyperplane=hyperplane, canonical=tuple((d - 4) * v for v in hyperplane),
        chi0=1 + (d - 1) * (d - 2) * (d - 3) // 6,
        gen_genus=gen_genus or (0,) + rest, lines=lines,
    )


@lru_cache(maxsize=None)
def fermat_model(d):
    """Cached Fermat model; classes built from it share one instance."""
    return build_fermat_model(d)


BUILTIN_NAMES = ("quadric", "cubic_delpezzo", "generic_quartic", "generic_quintic")


@lru_cache(maxsize=None)
def builtin_model(name):
    """Built-in lattice models for the auxiliary surfaces."""
    if name == "quadric":
        # P^1 x P^1 with the two rulings; H = L1 + L2
        return _hypersurface(2, name, "quadric", ("L1", "L2"), ((0, 1), (1, 0)), hyperplane=(1, 1))
    if name == "cubic_delpezzo":
        # blow-up of P^2 at six general points, H = 3l - sum(E); l is the
        # pullback of a line and the E_i the exceptional curves
        gram = tuple(
            tuple((1 if i == 0 else -1) if i == j else 0 for j in range(7))
            for i in range(7)
        )
        return _hypersurface(3, name, "cubic_delpezzo", ("l", "E1", "E2", "E3", "E4", "E5", "E6"),
                             gram, hyperplane=(3, -1, -1, -1, -1, -1, -1))
    if name in ("generic_quartic", "generic_quintic"):
        d = 4 if name == "generic_quartic" else 5
        return _hypersurface(d, name, "generic", ("H",), ((d,),))
    raise SurfaceError(f"unknown builtin model {name!r}; choose from {BUILTIN_NAMES}")


MODEL_NAMES = ("fermat4", "fermat5") + BUILTIN_NAMES


def named_model(name):
    """The cached model one of MODEL_NAMES denotes."""
    if name in ("fermat4", "fermat5"):
        return fermat_model(int(name[-1]))
    if name in BUILTIN_NAMES:
        return builtin_model(name)
    raise SurfaceError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def load_model(source):
    """Custom model from a JSON document (path, JSON text, or dict).

    Expected fields: name:string, kind:"custom", chi0:int, generators:[string],
    gram:[[int]], hyperplane:[int], canonical:[int].  Any other type (a
    bool or 1.5 among the ints included), more than MAX_CUSTOM_GENERATORS
    generators, an integer of absolute value MAX_CUSTOM_ENTRY or more, or a
    generator name that repeats or that parse_divisor does not read back as
    that generator raises SurfaceError, so format_divisor's text for every
    class reads back as the class.  The values are trusted as given; run
    model_validate to inspect their consistency.
    """
    if isinstance(source, dict):
        doc = source
    else:
        import json  # here, its only user, to keep it off every other import of the package

        text = str(source)
        try:
            if text.lstrip().startswith("{"):
                doc = json.loads(text)
            else:
                with open(text, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
        except (OSError, RecursionError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SurfaceError(f"cannot read custom model document: {exc}") from exc
        except ValueError as exc:  # an integer over Python's digit limit
            raise SurfaceError("custom model document has an integer with |value| >= 2^16") from exc
    if not isinstance(doc, dict):
        raise SurfaceError("a custom model document must be a JSON object")
    required = {"name", "kind", "chi0", "generators", "gram", "hyperplane", "canonical"}
    missing = required - set(doc)
    if missing:
        raise SurfaceError(f"custom model document lacks fields: {sorted(missing)}")
    if doc["kind"] != "custom":
        raise SurfaceError('custom model documents must declare kind:"custom"')
    if not isinstance(doc["name"], str):
        raise SurfaceError(f"custom model field name must be a string, got {doc['name']!r}")
    if type(doc["chi0"]) is not int:
        raise SurfaceError(f"custom model field chi0 must be an int, got {doc['chi0']!r}")
    generators = _entries(doc["generators"], "generators", str)
    if len(generators) > MAX_CUSTOM_GENERATORS:
        raise SurfaceError(f"custom model field generators has {len(generators)} entries, "
                           f"more than {MAX_CUSTOM_GENERATORS}")
    model = SurfaceModel(
        name=doc["name"],
        kind="custom",
        degree=None,
        generators=generators,
        gram=tuple(_entries(row, "gram", int) for row in _entries(doc["gram"], "gram", list)),
        hyperplane=_entries(doc["hyperplane"], "hyperplane", int),
        canonical=_entries(doc["canonical"], "canonical", int),
        chi0=_entries([doc["chi0"]], "chi0", int)[0],
        gen_genus=(None,) * len(generators),
    )
    for i, gen in enumerate(generators):
        if model.index(gen) != i:
            raise SurfaceError(f"custom model generator name {gen!r} repeats")
        try:
            read = parse_divisor(gen, model).coeffs
        except ParseError:
            read = None
        if read != model.gen_class(gen).coeffs:
            raise SurfaceError(
                f"custom model generator name {gen!r} does not read back as a generator"
            )
    return model


def _entries(value, field, kind):
    """A JSON list whose entries all have type kind, as a tuple; so a bool or
    1.5 where an int is due is refused, not read as an int."""
    if not isinstance(value, list) or any(type(v) is not kind for v in value):
        raise SurfaceError(f"custom model field {field} must be a list of {kind.__name__} values")
    if kind is int and any(abs(v) >= MAX_CUSTOM_ENTRY for v in value):
        raise SurfaceError(f"custom model field {field} has an integer with |value| >= 2^16")
    return tuple(value)


Check = namedtuple("Check", "name ok detail")


class ValidationReport(namedtuple("ValidationReport", "checks")):
    __slots__ = ()

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    @property
    def violations(self):
        return tuple(c for c in self.checks if not c.ok)

    def __str__(self):
        lines = [f"{'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}" for c in self.checks]
        return "\n".join(lines)


_EXPECTED_CHI0 = {(  # (kind, degree) -> chi(O_X)
    "fermat", 5): 5, ("generic", 5): 5,
    ("fermat", 4): 2, ("generic", 4): 2,
    ("quadric", 2): 1, ("cubic_delpezzo", 3): 1,
}


def _hodge_rank(gram, h):
    """Rank rho of a symmetric Gram of signature (1, rho - 1), else None.

    With a = H^2 > 0 and g = Gram.h, that signature means S = a*Gram - gg^T
    is negative semidefinite, i.e. (H.v)^2 >= H^2 v^2 for every class v, and
    rho = 1 + rank S.  S is the first Bareiss step of the Gram bordered by h,
    so its upper triangle is eliminated fraction-free from the divisor a:
    each pivot must differ in sign from the last, and a zero diagonal entry
    must head a zero row."""
    m = len(gram)
    hidx = [(j, x) for j, x in enumerate(h) if x]
    g = [sum(row[j] * x for j, x in hidx) for row in gram]
    a = sum(x * g[j] for j, x in hidx)
    if a <= 0:
        return None
    rows = [[a * x - gi * y for x, y in zip(gram[i][i:], g[i:])] for i, gi in enumerate(g)]
    prev, rank = a, 0
    for i, row in enumerate(rows):  # row[k] is entry (i, i + k)
        d = row[0]
        if not d:
            if any(row):
                return None
            continue
        if (d > 0) == (prev > 0):
            return None
        for k in range(1, m - i):
            c = row[k]
            rows[i + k] = [(d * x - c * y) // prev for x, y in zip(rows[i + k], row[k:])]
        prev, rank = d, rank + 1
    return 1 + rank


def model_validate(model):
    """Consistency checks on a model; reports violations, never raises.

    Every check is exact: adjunction parity is decided on the generators,
    and the Hodge index by the signature of the Gram.
    """
    checks = []
    gram_ok = tuple(map(tuple, model.gram)) == tuple(zip(*model.gram))
    checks.append(Check("gram-symmetric", gram_ok, "pairing must be symmetric"))

    H = model.hyperplane_class
    K = model.canonical_class
    hh = pair(H, H)
    if model.degree is not None:
        checks.append(
            Check(
                "hyperplane-self-intersection",
                hh == model.degree,
                f"H.H = {hh}, surface degree {model.degree}",
            )
        )
        if model.kind in ("fermat", "generic"):
            expect = tuple((model.degree - 4) * v for v in model.hyperplane)
            checks.append(
                Check(
                    "canonical-is-(d-4)H",
                    model.canonical == expect,
                    f"K = {model.canonical}, (d-4)H = {expect}",
                )
            )
    want_chi = _EXPECTED_CHI0.get((model.kind, model.degree))
    if want_chi is not None:
        checks.append(
            Check("chi0", model.chi0 == want_chi, f"chi0 = {model.chi0}, expected {want_chi}")
        )

    # v.(v+K) mod 2 is additive for a symmetric pairing (the cross term is
    # 2a.b), so its value on the generators decides it for every class
    adj_bad = []
    parity_bad = 0
    gens = [model.gen_class(name) for name in model.generators]
    for name, g, v in zip(model.generators, model.gen_genus, gens):
        rhs = pair(v, v + K)
        parity_bad += rhs % 2
        if g is not None and 2 * g - 2 != rhs:
            adj_bad.append(f"{name}: 2g-2 = {2 * g - 2} but g.(g+K) = {rhs}")
    checks.append(
        Check(
            "generator-adjunction",
            not adj_bad,
            "; ".join(adj_bad) if adj_bad else "2g - 2 = g.(g+K) on all known-genus generators",
        )
    )
    checks.append(
        Check(
            "adjunction-parity",
            parity_bad == 0,
            f"{parity_bad} of {len(gens)} generators have odd v.(v+K)"
            if parity_bad
            else f"v.(v+K) even on all {len(gens)} generators, hence on every class",
        )
    )

    rho = _hodge_rank(model.gram, model.hyperplane) if gram_ok else None
    checks.append(Check("hodge-index", rho is not None, (
        f"signature (1, {rho - 1}), rho = {rho}: (H.v)^2 >= H^2 v^2 for every class v" if rho
        else "not decided: the pairing is not symmetric" if not gram_ok
        else f"H^2 = {hh} is not positive" if hh <= 0
        else "(H.v)^2 < H^2 v^2 for some class v: the signature is not (1, rho - 1)")))
    return ValidationReport(tuple(checks))
