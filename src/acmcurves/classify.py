"""The aCM verdict engine.

classify_numeric decides from (degree, genus) alone: the unconditional ACM
pairs, the pairs where a non-aCM curve exists and a witness would settle
the instance, and everything else as OUT_OF_TABLE with the necessary
conditions and unchecked cohomological obligations recorded in the trace.
A witness is decided in two halves: _header checks the target against the
rule's header and builds each clause's twist, once per target, and _judge
certifies one decomposition's parts and matches them against the clauses.
check_witness runs both once; _search takes one header and returns the first
NOT_ACM verdict _judge gives a candidate built over the registered classes.

Each clause of a rule names a twist of the target (TWISTS: a multiple of
H plus or minus D) and a shape (SHAPES).  A Shape is data: the allowed
part counts, an optional lead role (a plane quartic Dtilde, or a line
Gamma1 tried part by part), the remaining parts as named lines or as one
summed role, and the required products.  One interpreter, _match, reads
every shape into the verdict trace, and the same record tells the search
which candidates to build: a Dtilde lead scans the plane quartics H - L
with a line residual, other line roles read the twist's lines off its
intersection vector, and a shape with no roles takes the effectivity
certificate.

Soundness policy: absence of a witness never upgrades CONDITIONAL to ACM,
because emptiness of the relevant linear systems is not decidable from
lattice data; only the tabulated pairs receive an unconditional ACM.
"""

import sys
from collections import namedtuple
from enum import Enum

from .divisors import (
    Decomposition,
    _from_terms,
    _products,
    certify_effective,
    degree,
    genus,
    pair,
)


class Status(Enum):
    ACM = "ACM"
    NOT_ACM = "NOT_ACM"
    CONDITIONAL = "CONDITIONAL"
    OUT_OF_TABLE = "OUT_OF_TABLE"
    INVALID = "INVALID"


TraceLine = namedtuple("TraceLine", "name value expected ok", defaults=(None, None, None))
# witness: the accepted Decomposition of a NOT_ACM verdict, else None
Verdict = namedtuple("Verdict", "status rule trace witness", defaults=((), None))


def render_verdict(v):
    """Line-oriented report: status line, then indented trace lines."""
    head = f"{v.status.value}"
    if v.rule:
        head += f" rule={v.rule}"
    lines = [head]
    for t in v.trace:
        if t.expected is not None:
            lines.append(f"  check {t.name}: {t.value} (expected {t.expected})")
        elif t.value is not None:
            lines.append(f"  check {t.name}: {t.value}")
        else:
            lines.append(f"  note {t.name}")
    if v.witness is not None:
        lines.append(f"  witness: {v.witness}")
    return "\n".join(lines)


def verdict_json(v):
    return {
        "status": v.status.value,
        "rule": v.rule,
        "trace": [
            {"name": t.name, "value": _plain(t.value), "expected": _plain(t.expected), "ok": t.ok}
            for t in v.trace
        ],
        "witness": None
        if v.witness is None
        else [{"class": str(cls), "mult": mult} for cls, mult in v.witness.parts],
    }


def _plain(value):
    """A JSON value: None, bool, int and str as they are, a tuple as a list,
    anything else as its text."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, tuple):
        return list(value)
    return str(value)


# (k, deg) -> rule, for the unconditional ACM pairs on a quintic
QUINTIC_ACM = {
    (2, 1): "Thm1.2(i)",
    (2, 4): "Thm1.2(i)",
    (3, 2): "Thm1.2(ii)",
    (3, 3): "Thm1.2(ii)",
    (3, 5): "Thm1.2(ii)",
    (3, 6): "Thm1.2(ii)",
    (4, 3): "Thm1.2(iii)",
    (4, 4): "Thm1.2(iii)",
}

# pairs also settled by a dedicated statement; recorded in the trace
QUINTIC_ACM_ALIASES = {
    (4, 4): "Prop4.2",
    (3, 5): "Prop4.3",
    (3, 6): "Cor4.1",
}

# (genus, deg) -> rule, for the quartic table
QUARTIC_ACM = {
    (0, 1): "Prop2.1(a)",
    (0, 2): "Prop2.1(a)",
    (0, 3): "Prop2.1(a)",
    (1, 3): "Prop2.1(b)",
    (1, 4): "Prop2.1(b)",
    (2, 5): "Prop2.1(c)",
}


def nonacm_exists(d, k):
    """Whether a non-aCM curve of degree d and k-invariant k exists on a
    smooth quintic (table lookup)."""
    return (k, d) in QUINTIC_CONDITIONAL


def classify_numeric(kind, deg, genus_value):
    """Verdict from (degree, genus) alone on a quartic or quintic."""
    if kind not in ("quartic", "quintic"):
        raise ValueError(f"kind must be 'quartic' or 'quintic', got {kind!r}")
    if not isinstance(deg, int) or not isinstance(genus_value, int):
        raise ValueError("degree and genus must be integers")
    if deg <= 0:
        return Verdict(
            Status.INVALID,
            None,
            (TraceLine("degree must be positive", deg, ">= 1", False),),
        )
    if kind == "quartic":
        return _classify_quartic(deg, genus_value)
    return _classify_quintic(deg, genus_value)


def _classify_quintic(deg, g):
    k = deg + 1 - g
    trace = [TraceLine("k = deg + 1 - genus", k, None, None)]
    key = (k, deg)
    if key in QUINTIC_ACM:
        rule = QUINTIC_ACM[key]
        alias = QUINTIC_ACM_ALIASES.get(key)
        if alias:
            trace.append(TraceLine(f"also established by {alias}"))
        return Verdict(Status.ACM, rule, tuple(trace))
    if key in QUINTIC_CONDITIONAL:
        prop = QUINTIC_CONDITIONAL[key]
        trace.append(
            TraceLine(
                f"a non-aCM curve of this degree and genus exists; "
                f"a {prop} witness would certify this instance"
            )
        )
        return Verdict(Status.CONDITIONAL, prop, tuple(trace))
    trace.append(TraceLine("0 <= k <= 4", k, "in [0, 4]", 0 <= k <= 4))
    if 0 <= k <= 4:
        if k in (0, 1):
            trace.append(TraceLine("deg = 10 - k", deg, 10 - k, deg == 10 - k))
            trace.append(TraceLine(f"unchecked: h0(O_C(D-C)) = 0 required when k = {k}"))
        elif k == 2:
            trace.append(
                TraceLine("deg in {1,4,7,8}", deg, "{1, 4, 7, 8}", deg in (1, 4, 7, 8))
            )
        else:
            window = k - 1 <= deg <= 10 - k and not (k == 3 and deg == 4)
            expected = f"in [{k - 1}, {10 - k}]" + (", deg != 4" if k == 3 else "")
            trace.append(TraceLine("degree window", deg, expected, window))
    trace.append(
        TraceLine(
            "outside both tables: no initialized aCM line bundle has these "
            "invariants, but a non-initialized aCM twist is not excluded"
        )
    )
    return Verdict(Status.OUT_OF_TABLE, "Thm1.1", tuple(trace))


def _classify_quartic(deg, g):
    key = (g, deg)
    trace = []
    if key in QUARTIC_ACM:
        trace.append(
            TraceLine("assumption: |D-C| is empty (initialization hypothesis)")
        )
        return Verdict(Status.ACM, QUARTIC_ACM[key], tuple(trace))
    if key in QUARTIC_CONDITIONAL:
        prop = QUARTIC_CONDITIONAL[key]
        trace.append(
            TraceLine(
                f"degree 6, genus 3 is settled by a {prop} witness: a skew line "
                f"pair in |D-C| or |2C-D| certifies non-aCM"
            )
        )
        return Verdict(Status.CONDITIONAL, prop, tuple(trace))
    trace.append(TraceLine("(genus, degree) outside the quartic table", key))
    return Verdict(Status.OUT_OF_TABLE, "Prop2.1", tuple(trace))


# -- witness machinery -------------------------------------------------


# shape and twist are keys of SHAPES and TWISTS
ClauseSpec = namedtuple("ClauseSpec", "clause_id shape twist")
WitnessSpec = namedtuple("WitnessSpec", "prop_id display surface_degree deg genus clauses")


WITNESS_SPECS = {
    "P2.2": WitnessSpec(
        "P2.2", "Prop2.2", 4, 6, 3,
        (
            ClauseSpec("b", "two_skew_lines", "D-C"),
            ClauseSpec("b", "two_skew_lines", "2C-D"),
        ),
    ),
    "P4.4": WitnessSpec(
        "P4.4", "Prop4.4", 5, 7, 6,
        (ClauseSpec("b", "two_skew_lines", "D-C"),),
    ),
    "P4.5": WitnessSpec(
        "P4.5", "Prop4.5", 5, 10, 11,
        (
            ClauseSpec("b", "effective_sum", "D-C"),
            ClauseSpec("b", "effective_sum", "3C-D"),
        ),
    ),
    "P4.6": WitnessSpec(
        "P4.6", "Prop4.6", 5, 6, 3,
        (
            ClauseSpec("b1", "effective_sum", "2C-D"),
            ClauseSpec("b2", "quartic_plus_two_skew_lines", "D"),
            ClauseSpec("b3", "quartic_plus_conic", "D"),
        ),
    ),
    "C4.2": WitnessSpec(
        "C4.2", "Cor4.2", 5, 9, 9,
        (
            ClauseSpec("b1", "effective_sum", "D-C"),
            ClauseSpec("b2", "quartic_plus_two_skew_lines", "3C-D"),
            ClauseSpec("b3", "quartic_plus_conic", "3C-D"),
        ),
    ),
    "P4.7": WitnessSpec(
        "P4.7", "Prop4.7", 5, 7, 5,
        (ClauseSpec("b", "line_plus_conic", "2C-D"),),
    ),
    "C4.3": WitnessSpec(
        "C4.3", "Cor4.3", 5, 8, 7,
        (ClauseSpec("b", "line_plus_conic", "D-C"),),
    ),
    "P4.8": WitnessSpec(
        "P4.8", "Prop4.8", 5, 5, 2,
        (
            ClauseSpec("b", "quartic_plus_line", "D"),
            ClauseSpec("b", "quartic_plus_line", "2C-D"),
        ),
    ),
}

# the witness rule that would certify a non-aCM curve: (k, deg) -> rule on a
# quintic, (genus, deg) -> rule on a quartic
QUINTIC_CONDITIONAL = {(w.deg + 1 - w.genus, w.deg): w.prop_id
                       for w in WITNESS_SPECS.values() if w.surface_degree == 5}
QUARTIC_CONDITIONAL = {(w.genus, w.deg): w.prop_id
                       for w in WITNESS_SPECS.values() if w.surface_degree == 4}


# twist tag -> (multiple of H, sign of D): the twist is m*H + s*D
TWISTS = {"D": (0, 1), "D-C": (-1, 1), "2C-D": (2, -1), "3C-D": (3, -1)}


def _twist_class(tag, target):
    m, s = TWISTS[tag]
    return m * target.model.hyperplane_class + s * target


class Shape(namedtuple("Shape", "counts text lead lines rest products",
                       defaults=(None, (), None, ()))):
    """Numerical shape of a witness decomposition, read by _match.

    The lead role is picked first: "Dtilde" is the first part that is a
    plane quartic (deg 4, genus 3), "Gamma1" each degree-1 part in turn
    until one passes.  The other parts are then either named one by one
    in `lines`, each of which must be a line, or summed into the single
    role `rest`.  A product (a, b, expected) is a.b, or a^2 when a == b,
    or deg a when b is None.  The sum of all parts must lie in the
    clause's twist.  counts is the range of allowed part numbers, and text
    the expected shape as the trace prints it.
    """

    __slots__ = ()


_MANY = sys.maxsize

SHAPES = {
    "two_skew_lines": Shape(
        range(2, 3), "2 lines",
        lines=("Gamma1", "Gamma2"),
        products=(("Gamma1", "Gamma2", 0),),
    ),
    "quartic_plus_two_skew_lines": Shape(
        range(3, 4), "plane quartic + 2 lines", "Dtilde",
        lines=("Gamma1", "Gamma2"),
        products=(("Gamma1", "Gamma2", 0),),
    ),
    "quartic_plus_conic": Shape(
        range(2, _MANY), "plane quartic + conic", "Dtilde",
        rest="Delta",
        products=(("Delta", "Delta", -4), ("Delta", None, 2)),
    ),
    "line_plus_conic": Shape(
        range(2, _MANY), "line + degree-2 divisor", "Gamma1",
        rest="Gamma2",
        products=(
            ("Gamma1", "Gamma1", -3),
            ("Gamma2", None, 2),
            ("Gamma2", "Gamma2", -4),
            ("Gamma1", "Gamma2", 0),
        ),
    ),
    "quartic_plus_line": Shape(
        range(2, 3), "plane quartic + line", "Dtilde",
        lines=("Gamma",),
        products=(("Dtilde", "Gamma", 0),),
    ),
    # parts were already certified effective; only the sum matters here
    "effective_sum": Shape(range(1, _MANY), "effective classes"),
}


def _role_checks(shape, parts, lead):
    """Trace lines of the line roles and the products, lead at parts[lead]."""
    roles = {} if lead is None else {shape.lead: parts[lead]}
    others = [p for i, p in enumerate(parts) if i != lead]
    checks = []
    for name, p in zip(shape.lines, others):
        d, g = degree(p), genus(p)
        good = (d, g) == (1, 0)
        checks.append(
            TraceLine(f"{name} is a line", f"deg {d}, genus {g}", "deg 1, genus 0", good)
        )
        roles[name] = p
    if shape.rest is not None:
        roles[shape.rest] = sum(others[1:], others[0])
    for a, b, want in shape.products:
        if b is None:
            name, value = f"deg {a}", degree(roles[a])
        else:
            name, value = (f"{a}^2" if a == b else f"{a}.{b}"), pair(roles[a], roles[b])
        checks.append(TraceLine(name, value, want, value == want))
    return checks


def _match(shape, parts, total, twist, tag, trace):
    """Whether the parts fit the shape and their sum total is twist; checks go to trace."""
    if len(parts) not in shape.counts:
        trace.append(TraceLine("witness shape", f"{len(parts)} parts", shape.text, False))
        return False
    leads = [None]
    if shape.lead == "Dtilde":
        qi = next((i for i, p in enumerate(parts) if degree(p) == 4 and genus(p) == 3), None)
        trace.append(
            TraceLine(
                "some part is a plane quartic",
                "found" if qi is not None else "none with deg 4, genus 3",
                "deg 4, genus 3",
                qi is not None,
            )
        )
        if qi is None:
            return False
        leads = [qi]
    elif shape.lead == "Gamma1":
        leads = [i for i, p in enumerate(parts) if degree(p) == 1]
        if not leads:
            trace.append(TraceLine("witness shape", "no degree-1 part", shape.text, False))
            return False
    for lead in leads:
        checks = _role_checks(shape, parts, lead)
        ok = all(t.ok for t in checks)
        if ok:
            break
    trace.extend(checks)  # those of the passing lead, else of the last one tried
    if not ok and shape.lead == "Gamma1":
        # a Gamma1 lead only counts together with its products
        return False
    in_twist = total == twist
    trace.append(TraceLine(f"witness sum lies in |{tag}|", str(total), str(twist), in_twist))
    return in_twist and ok


def _header(prop_id, target):
    """(spec, trace, twists): the rule, the header checks, and each clause's
    twist of the target, or None for twists when the header fails."""
    spec = WITNESS_SPECS.get(prop_id)
    if spec is None:
        raise ValueError(
            f"unknown witness rule {prop_id!r}; choose from {sorted(WITNESS_SPECS)}"
        )
    trace = [
        TraceLine(
            "effectivity policy: parts must be nonnegative combinations of "
            "registered effective classes or certified degree-1 classes"
        )
    ]
    if target.model.degree != spec.surface_degree:
        trace.append(TraceLine("surface degree", target.model.degree, spec.surface_degree, False))
        return spec, tuple(trace), None
    got, want = (degree(target), genus(target)), (spec.deg, spec.genus)
    trace.append(TraceLine("target (deg, genus)", got, want, got == want))
    if got != want:
        return spec, tuple(trace), None
    return spec, tuple(trace), tuple(_twist_class(c.twist, target) for c in spec.clauses)


def _judge(spec, trace, twists, witness):
    """Verdict on one witness, after the header trace, against every clause."""
    trace = list(trace)
    parts = witness.expanded()
    for p in parts:
        if not any(_products(p.model, p._terms)):  # numerically zero
            trace.append(TraceLine("witness part", "0", "nonzero effective class", False))
            return Verdict(Status.CONDITIONAL, spec.prop_id, tuple(trace))
        cert = certify_effective(p)
        if not cert.ok:
            trace.append(TraceLine(f"effectivity of {p}", cert.reason, "certified", False))
            return Verdict(Status.CONDITIONAL, spec.prop_id, tuple(trace))
    total = sum(parts[1:], parts[0])
    for clause, twist in zip(spec.clauses, twists):
        sub = []
        matched = _match(SHAPES[clause.shape], parts, total, twist, clause.twist, sub)
        label = f"{spec.display}({clause.clause_id})"
        if matched:
            trace.append(TraceLine(f"clause {label} satisfied"))
            trace.extend(sub)
            return Verdict(Status.NOT_ACM, label, tuple(trace), witness)
        trace.append(TraceLine(f"clause {label} not satisfied"))
        trace.extend(sub)
    trace.append(TraceLine("witness rejected; the verdict stays conditional"))
    return Verdict(Status.CONDITIONAL, spec.prop_id, tuple(trace))


def check_witness(prop_id, target, witness):
    """Verify a proposed non-aCM witness decomposition against a rule.

    Returns NOT_ACM when some clause is fully satisfied, CONDITIONAL with
    the failing checks in the trace when the witness is rejected, and
    INVALID when the target does not fit the rule's header.
    """
    spec, trace, twists = _header(prop_id, target)
    if twists is None:
        return Verdict(Status.INVALID, spec.prop_id, trace)
    if witness.model is not target.model:
        raise ValueError("witness parts and target must share one model instance")
    return _judge(spec, trace, twists, witness)


def search_witness(prop_id, target, bound=None):
    """Bounded deterministic search for a witness over the model's atlas.

    Candidates are assembled from H, the atlas lines, and the residual
    plane curves H - L, in lexicographic generator order; the first one
    that _judge accepts wins.  The header is checked once; a clause whose
    twist has degree above bound is skipped.  Returning None means the
    search was exhausted without a certificate; it does NOT prove the
    curve aCM.
    """
    verdict = _search(target, _header(prop_id, target), bound)
    return None if verdict is None else verdict.witness


def _search(target, header, bound):
    """The NOT_ACM verdict of the first candidate _judge accepts, else None."""
    spec, trace, twists = header
    if target.model.lines is None:
        raise ValueError(f"model {target.model.name} has no line atlas to search")
    for clause, twist in zip(spec.clauses, twists or ()):
        if bound is not None and degree(twist) > bound:
            continue  # every candidate of the clause sums to its twist
        for cand in _candidates(SHAPES[clause.shape], twist):
            verdict = _judge(spec, trace, twists, cand)
            if verdict.status is Status.NOT_ACM:
                return verdict
    return None


def _lines(model, vec):
    """The sum of at most s = d - 2 atlas lines with intersection vector vec,
    as (class, mult) parts in generator order (() for 0), or None.  A line has
    square -s and meets another at most once, so such a sum S pairs negatively
    with each of its lines L, S.L = -s*mult + (at most s - mult), nonnegatively
    with every other line, and with H in the number of its lines."""
    s = model.degree - 2
    mults = {j: -(v // s) for j, v in enumerate(vec) if v < 0}
    if vec[0] > s or sum(mults.values()) != vec[0] or tuple(_products(model, mults)) != vec:
        return None
    return tuple((_from_terms(model, {j: 1}), m) for j, m in mults.items())


def _candidates(shape, twist):
    """Witnesses for one clause, read off its shape and the twist's intersection vector."""
    model = twist.model
    if shape.lead == "Dtilde":
        # a plane quartic H - L_i and lines r + L_i, r = twist - H; unless r is
        # lines, L_i is not among them, so (r + L_i).L_i >= 0, i.e. r.L_i >= s
        r = tuple(_products(model, (twist - model.hyperplane_class)._terms))
        every = _lines(model, r) is not None
        for i in range(1, len(r)):
            if every or r[i] >= model.degree - 2:
                rest = _lines(model, tuple(x + y for x, y in zip(r, model.gram[i])))
                if rest:
                    quartic = model.hyperplane_class - _from_terms(model, {i: 1})
                    yield Decomposition(((quartic, 1),) + rest)
    elif shape.lead or shape.lines:
        parts = _lines(model, tuple(_products(model, twist._terms)))
        if parts:
            yield Decomposition(parts)
    else:
        cert = certify_effective(twist)
        if cert.ok and cert.parts:
            yield Decomposition(cert.parts)
