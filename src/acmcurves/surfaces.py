"""Surface lattice models.

A SurfaceModel is the numeric shadow of a surface: named generator classes,
their symmetric intersection Gram matrix, the hyperplane and canonical
classes, and chi(O_X).  Fermat models of degree 4 and 5 also carry the
atlas of 3*d^2 standard lines cut out by binomial plane pairs, with every
atlas line verified to lie on the surface before it is admitted.

Self-intersections of atlas lines are assigned by adjunction (L^2 = 2 - d,
genus 0), not measured geometrically; pairwise products of distinct lines
come from the exact incidence test and are 0 or 1.  Construction is
deterministic, and constructed models are immutable.
"""

import json
import random
from dataclasses import dataclass
from functools import lru_cache

from .cyclo import rational, zeta
from .divisors import DivClass, _class, pair
from .geometry import Incidence, Line, line_on_fermat, lines_meet

FERMAT_DEGREES = (4, 5)

# coordinate pairings {pq|rs}: forms x_p + alpha*x_q and x_r + beta*x_s
PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


class SurfaceError(ValueError):
    pass


@dataclass(frozen=True)
class SurfaceModel:
    name: str
    kind: str  # fermat | quadric | cubic_delpezzo | generic | custom
    degree: int | None  # hypersurface degree when meaningful
    generators: tuple
    gram: tuple
    hyperplane: tuple
    canonical: tuple
    chi0: int
    gen_genus: tuple  # arithmetic genus per generator when known, else None
    lines: tuple | None = None  # atlas Lines aligned with generators[1:]

    def __post_init__(self):
        m = len(self.generators)
        if len(self.gram) != m or any(len(row) != m for row in self.gram):
            raise SurfaceError("Gram matrix shape does not match the generators")
        if len(self.hyperplane) != m or len(self.canonical) != m:
            raise SurfaceError("class vectors must match the generator count")
        # name -> position; the first position wins, as with tuple.index
        positions = {}
        for i, name in enumerate(self.generators):
            positions.setdefault(name, i)
        object.__setattr__(self, "_positions", positions)

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
        i = self.index(name)
        return _class(self, (0,) * i + (1,) + (0,) * (self.ngens - i - 1))

    def class_of(self, coeffs):
        return DivClass(self, tuple(coeffs))

    def zero_class(self):
        return self.class_of((0,) * self.ngens)

    @property
    def hyperplane_class(self):
        return self.class_of(self.hyperplane)

    @property
    def canonical_class(self):
        return self.class_of(self.canonical)

    def parse(self, text):
        from .exprs import parse_divisor

        return parse_divisor(text, self)

    def line_named(self, name):
        if self.lines is None:
            raise SurfaceError(f"model {self.name} has no line atlas")
        return self.lines[self.index(name) - 1]

    def line_names(self):
        if self.lines is None:
            raise SurfaceError(f"model {self.name} has no line atlas")
        return self.generators[1:]

    def atlas_class(self, line):
        """Generator class of a geometric line found in the atlas."""
        if self.lines is None:
            raise SurfaceError(f"model {self.name} has no line atlas")
        for i, known in enumerate(self.lines):
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
    plane_genus = (d - 1) * (d - 2) // 2
    return SurfaceModel(
        name=f"fermat{d}",
        kind="fermat",
        degree=d,
        generators=("H", *names),
        gram=tuple(tuple(row) for row in gram),
        hyperplane=(1,) + (0,) * (m - 1),
        canonical=(d - 4,) + (0,) * (m - 1),
        chi0=5 if d == 5 else 2,
        gen_genus=(plane_genus,) + (0,) * (m - 1),
        lines=tuple(lines),
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
        # P^1 x P^1 with the two rulings; H = L1 + L2, K = -2H
        return SurfaceModel(
            name="quadric",
            kind="quadric",
            degree=2,
            generators=("L1", "L2"),
            gram=((0, 1), (1, 0)),
            hyperplane=(1, 1),
            canonical=(-2, -2),
            chi0=1,
            gen_genus=(0, 0),
        )
    if name == "cubic_delpezzo":
        # blow-up of P^2 at six general points; H = 3l - sum(E), K = -H
        gram = tuple(
            tuple((1 if i == 0 else -1) if i == j else 0 for j in range(7))
            for i in range(7)
        )
        return SurfaceModel(
            name="cubic_delpezzo",
            kind="cubic_delpezzo",
            degree=3,
            generators=("l", "E1", "E2", "E3", "E4", "E5", "E6"),
            gram=gram,
            hyperplane=(3, -1, -1, -1, -1, -1, -1),
            canonical=(-3, 1, 1, 1, 1, 1, 1),
            chi0=1,
            gen_genus=(0,) * 7,
        )
    if name in ("generic_quartic", "generic_quintic"):
        d = 4 if name == "generic_quartic" else 5
        return SurfaceModel(
            name=name,
            kind="generic",
            degree=d,
            generators=("H",),
            gram=((d,),),
            hyperplane=(1,),
            canonical=(d - 4,),
            chi0=2 if d == 4 else 5,
            gen_genus=((d - 1) * (d - 2) // 2,),
        )
    raise SurfaceError(f"unknown builtin model {name!r}; choose from {BUILTIN_NAMES}")


def load_model(source):
    """Custom model from a JSON document (path, JSON text, or dict).

    Expected fields: name, kind:"custom", chi0, generators:[string],
    gram:[[int]], hyperplane:[int], canonical:[int].  The model is trusted
    as given; run model_validate to inspect its consistency.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        try:
            if text.lstrip().startswith("{"):
                doc = json.loads(text)
            else:
                with open(text, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SurfaceError(f"cannot read custom model document: {exc}") from exc
    required = {"name", "kind", "chi0", "generators", "gram", "hyperplane", "canonical"}
    missing = required - set(doc)
    if missing:
        raise SurfaceError(f"custom model document lacks fields: {sorted(missing)}")
    if doc["kind"] != "custom":
        raise SurfaceError('custom model documents must declare kind:"custom"')
    return SurfaceModel(
        name=str(doc["name"]),
        kind="custom",
        degree=None,
        generators=tuple(str(g) for g in doc["generators"]),
        gram=tuple(tuple(int(v) for v in row) for row in doc["gram"]),
        hyperplane=tuple(int(v) for v in doc["hyperplane"]),
        canonical=tuple(int(v) for v in doc["canonical"]),
        chi0=int(doc["chi0"]),
        gen_genus=(None,) * len(doc["generators"]),
    )


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

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


def _sample_classes(model, rng, count, max_support=5, max_coeff=9):
    out = []
    for _ in range(count):
        support = rng.sample(range(model.ngens), min(max_support, model.ngens))
        coeffs = [0] * model.ngens
        for i in support:
            coeffs[i] = rng.randint(-max_coeff, max_coeff)
        out.append(model.class_of(coeffs))
    return out


def model_validate(model, samples=250, seed=20240801):
    """Consistency checks on a model; reports violations, never raises."""
    checks = []
    gram_ok = all(
        model.gram[i][j] == model.gram[j][i]
        for i in range(model.ngens)
        for j in range(i, model.ngens)
    )
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

    adj_bad = []
    for i, g in enumerate(model.gen_genus):
        if g is None:
            continue
        v = model.gen_class(model.generators[i])
        lhs = 2 * g - 2
        rhs = pair(v, v + K)
        if lhs != rhs:
            adj_bad.append(f"{model.generators[i]}: 2g-2 = {lhs} but g.(g+K) = {rhs}")
    checks.append(
        Check(
            "generator-adjunction",
            not adj_bad,
            "; ".join(adj_bad) if adj_bad else "2g - 2 = g.(g+K) on all known-genus generators",
        )
    )

    rng = random.Random(seed)
    parity_bad = 0
    sampled = [model.gen_class(g) for g in model.generators]
    sampled += _sample_classes(model, rng, samples)
    for v in sampled:
        if pair(v, v + K) % 2:
            parity_bad += 1
    checks.append(
        Check(
            "adjunction-parity",
            parity_bad == 0,
            f"{parity_bad} of {len(sampled)} classes have odd v.(v+K)"
            if parity_bad
            else f"v.(v+K) even on {len(sampled)} classes",
        )
    )

    positives = [v for v in sampled if pair(v, v) > 0]
    hodge_bad = 0
    pairs_checked = 0
    for i in range(len(positives)):
        for j in range(i + 1, len(positives)):
            a, b = positives[i], positives[j]
            pairs_checked += 1
            if pair(a, a) * pair(b, b) > pair(a, b) ** 2:
                hodge_bad += 1
            if pairs_checked >= 4 * samples:
                break
        if pairs_checked >= 4 * samples:
            break
    checks.append(
        Check(
            "hodge-index",
            hodge_bad == 0,
            f"{hodge_bad} of {pairs_checked} positive pairs violate a^2 b^2 <= (a.b)^2"
            if hodge_bad
            else f"a^2 b^2 <= (a.b)^2 on {pairs_checked} positive pairs",
        )
    )
    return ValidationReport(tuple(checks))
