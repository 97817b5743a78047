"""Reproduction suite for the worked configurations behind the tables.

Each case rebuilds one documented construction from its printed equations,
re-derives every printed number with the exact machinery, and reports the
computed value next to the expected one.  Membership and incidence failures
are findings, never suppressed: the quartic case ex2.1 deliberately runs a
printed line whose parameter is an even power of the eighth root of unity,
reports that it fails the surface membership test, and then runs the
odd-power correction that reproduces all the printed invariants.

A case is one _CASES entry, (title, model name, builder), and run_example
runs them all the same way: it resolves the model, lets the builder append
its claims to a fresh list and wraps them in a CaseReport.  To add a case,
add the entry and a builder(model, claims) that names its lines with
_on_surface, which claims their membership and returns their atlas classes,
writes each number with _claim, and each witness with _witness, which claims
the witness's rule and that the search finds one too.  A builder returns
notes only when the case has a finding to explain, as ex2.1 does.

Reports are deterministic and byte-identical across runs.
"""

from collections import namedtuple

from .classify import _plain, check_witness, classify_numeric, search_witness
from .cyclo import zeta
from .divisors import (
    Decomposition,
    certify_effective,
    degree,
    genus,
    is_m_connected,
    link,
    pair,
)
from .geometry import Line, line_on_fermat, lines_meet
from .surfaces import SurfaceModel, named_model


ClaimResult = namedtuple("ClaimResult", "description expected computed ok note", defaults=("",))


class CaseReport(namedtuple("CaseReport", "case_id title claims notes", defaults=((),))):
    __slots__ = ()

    @property
    def ok(self):
        return all(c.ok for c in self.claims)


class SummaryReport(namedtuple("SummaryReport", "cases")):
    __slots__ = ()

    @property
    def total_claims(self):
        return sum(len(c.claims) for c in self.cases)

    @property
    def failed_claims(self):
        return sum(1 for c in self.cases for cl in c.claims if not cl.ok)

    @property
    def ok(self):
        return self.failed_claims == 0


def _claim(claims, description, computed, expected, note=""):
    claims.append(ClaimResult(description, expected, computed, computed == expected, note))


def _model(models, key):
    if models and key in models:
        return models[key]
    return named_model(key)


def _quintic_span_model(deg, g):
    """Rank-2 sublattice spanned by the hyperplane class and one curve class
    of the given degree and genus on a quintic; the self-intersection is
    forced by adjunction."""
    self_int = 2 * g - 2 - deg
    return SurfaceModel(
        name=f"quintic-span(deg{deg},genus{g})",
        kind="custom",
        degree=5,
        generators=("H", "Dt"),
        gram=((5, deg), (deg, self_int)),
        hyperplane=(1, 0),
        canonical=(1, 0),
        chi0=5,
        gen_genus=(6, g),
    )


def _on_surface(m, claims, *named_lines):
    """Claim that each (text, line) lies on the Fermat surface of m; return
    the lines' atlas classes."""
    surface = {4: "quartic", 5: "quintic"}[m.degree]
    for text, line in named_lines:
        _claim(claims, f"{text} lies on the {surface}", line_on_fermat(line, m.degree), True)
    return [m.atlas_class(line) for _, line in named_lines]


def _witness(claims, text, prop, target, witness, rule):
    """Claim that the witness settles target under rule, and that the search
    finds a witness of its own."""
    _claim(claims, text, check_witness(prop, target, witness).rule, rule)
    _claim(claims, "witness search rediscovers it",
           search_witness(prop, target, bound=10) is not None, True)


def _ex21(m, claims):
    H, om = m.hyperplane_class, zeta(8)
    g1 = Line((1, om, 0, 0), (0, 0, 1, om))
    G1, = _on_surface(m, claims, ("first line x0+w*x1 = x2+w*x3", g1))
    g2_printed = Line((1, 0, om, 0), (0, 1, 0, om**2))
    _claim(
        claims,
        "second line as printed, x0+w*x2 = x1+w^2*x3, lies on the quartic",
        line_on_fermat(g2_printed, 4),
        False,
        note="membership FAILS as printed: w^2 is an even power, and (w^2)^4 = 1 "
        "leaves the coefficient 1 + (w^2)^4 = 2 in the expansion",
    )
    g2 = Line((1, 0, om, 0), (0, 1, 0, om**3))
    G2, = _on_surface(m, claims, ("corrected second line x0+w*x2 = x1+w^3*x3", g2))
    _claim(claims, "Gamma1.Gamma2", pair(G1, G2), 0)
    D1 = H + G1 + G2
    D2 = 2 * H - G1 - G2
    _claim(claims, "D1 = C1 + Gamma1 + Gamma2 has (deg, genus)",
           (degree(D1), genus(D1)), (6, 3))
    _claim(claims, "D2 = C1 + C2 - Gamma1 - Gamma2 has (deg, genus)",
           (degree(D2), genus(D2)), (6, 3))
    _claim(claims, "D1 - C1 equals Gamma1 + Gamma2 and is effective",
           D1 - H == G1 + G2 and certify_effective(D1 - H).ok, True)
    _claim(claims, "2C1 - D2 equals Gamma1 + Gamma2 and is effective",
           2 * H - D2 == G1 + G2 and certify_effective(2 * H - D2).ok, True)
    w = Decomposition.of(G1, G2)
    _claim(claims, "skew-pair witness certifies D1 non-aCM",
           check_witness("P2.2", D1, w).status.value, "NOT_ACM")
    _claim(claims, "skew-pair witness certifies D2 non-aCM",
           check_witness("P2.2", D2, w).status.value, "NOT_ACM")
    return (
        "anomaly: the printed parameter w^2 of the second line is an even power "
        "of the primitive eighth root, so the printed equations do not cut a line "
        "on the quartic; the failed membership above records this finding",
        "any odd exponent restores membership; exponent 3 is used here because it "
        "also keeps the two lines disjoint (exponent 1 would make them meet)",
    )


def _ex31(m, claims):
    l1 = Line((1, 1, 0, 0), (0, 0, 1, 1))
    l2 = Line((1, 0, 1, 0), (0, 1, 0, zeta(5)))
    L1, L2 = _on_surface(m, claims, ("x0+x1 = x2+x3", l1), ("x0+x2 = x1+xi*x3", l2))
    _claim(claims, "the two lines are skew (intersection count)", lines_meet(l1, l2).value, 0)
    res = is_m_connected(Decomposition.of(L1, L2), 1)
    _claim(claims, "L1 + L2 is 1-connected", res.connected, False,
           note="the split (L1 | L2) has pairing 0, below the bound 1")
    _claim(claims, "minimal split pairing", res.minimum, 0)


def _ex41(cubic, claims):
    HY = cubic.hyperplane_class
    dt = HY + cubic.gen_class("E1") + cubic.gen_class("E2")
    _claim(claims, "H_Y.Dtilde on the cubic", pair(HY, dt), 5)
    _claim(claims, "P_a(Dtilde) on the cubic", genus(dt), 1)
    span = _quintic_span_model(5, 1)
    dq = span.gen_class("Dt")
    _claim(claims, "transported class has (deg, genus)",
           (degree(dq), genus(dq)), (5, 1))
    linked = link(dq, 3)
    _claim(claims, "class linked by a cubic has (deg, genus)",
           (degree(linked), genus(linked)), (10, 11))
    d2 = dq + span.hyperplane_class
    _claim(claims, "the twist Dtilde + H has the same (deg, genus)",
           (degree(d2), genus(d2)), (10, 11))
    _claim(claims, "(10, 11) sits in the conditional table",
           classify_numeric("quintic", 10, 11).rule, "P4.5")


def _ex42(quad, claims):
    HZ = quad.hyperplane_class
    dt = HZ + 2 * quad.gen_class("L2")
    _claim(claims, "H_Z.Dtilde on the quadric", pair(HZ, dt), 4)
    _claim(claims, "P_a(Dtilde) on the quadric", genus(dt), 0)
    span = _quintic_span_model(4, 0)
    dq = span.gen_class("Dt")
    linked = link(dq, 2)
    _claim(claims, "class linked by a quadric has (deg, genus)",
           (degree(linked), genus(linked)), (6, 3))
    _claim(claims, "(6, 3) sits in the conditional table",
           classify_numeric("quintic", 6, 3).rule, "P4.6")


def _ex43(m, claims):
    H, xi = m.hyperplane_class, zeta(5)
    L1, L2, Gam, L3 = _on_surface(
        m, claims,
        ("L1", Line((1, 1, 0, 0), (0, 0, 1, 1))),
        ("L2", Line((1, 0, 1, 0), (0, 1, 0, xi))),
        ("Gamma", Line((0, 1, 1, 0), (1, 0, 0, xi**4))),
        ("L3", Line((1, 1, 0, 0), (0, 0, 1, xi**4))),
    )
    _claim(claims, "L1.Gamma", pair(L1, Gam), 0)
    _claim(claims, "L2.Gamma", pair(L2, Gam), 0)
    dt = H - Gam
    _claim(claims, "Dtilde = Ctilde - Gamma is a plane quartic: (deg, genus)",
           (degree(dt), genus(dt)), (4, 3))
    _claim(claims, "Dtilde.L1", pair(dt, L1), 1)
    _claim(claims, "Dtilde.L2", pair(dt, L2), 1)
    d_b2 = dt + L1 + L2
    _claim(claims, "D = Dtilde + L1 + L2 has (deg, genus)",
           (degree(d_b2), genus(d_b2)), (6, 3))
    _witness(claims, "witness settles the skew-line configuration",
             "P4.6", d_b2, Decomposition.of(dt, L1, L2), "Prop4.6(b2)")
    _claim(claims, "L3.Gamma", pair(L3, Gam), 1)
    _claim(claims, "L3.Dtilde", pair(L3, dt), 0)
    conic = L1 + L3
    _claim(claims, "(L1 + L3).Dtilde", pair(conic, dt), 1)
    _claim(claims, "(L1 + L3)^2", pair(conic, conic), -4)
    d_b3 = dt + L1 + L3
    _claim(claims, "D = Dtilde + L1 + L3 has (deg, genus)",
           (degree(d_b3), genus(d_b3)), (6, 3))
    _witness(claims, "witness settles the reducible-conic configuration",
             "P4.6", d_b3, Decomposition.of(dt, L1, L3), "Prop4.6(b3)")


def _ex44(m, claims):
    H, xi = m.hyperplane_class, zeta(5)
    G1, M1, M2 = _on_surface(
        m, claims,
        ("Gamma1", Line((1, 1, 0, 0), (0, 0, 1, 1))),
        ("conic component 1", Line((1, 0, 1, 0), (0, 1, 0, xi))),
        ("conic component 2", Line((1, 0, 1, 0), (0, 1, 0, xi**2))),
    )
    _claim(claims, "Gamma1 meets neither conic component",
           (pair(G1, M1), pair(G1, M2)), (0, 0))
    G2 = M1 + M2
    _claim(claims, "the conic components meet once", pair(M1, M2), 1)
    _claim(claims, "Gamma2^2", pair(G2, G2), -4)
    _claim(claims, "Gamma1.Gamma2", pair(G1, G2), 0)
    d = 2 * H - G1 - G2
    _claim(claims, "D = C1 + C2 - Gamma1 - Gamma2 has (deg, genus)",
           (degree(d), genus(d)), (7, 5))
    _claim(claims, "(7, 5) sits in the conditional table",
           classify_numeric("quintic", 7, 5).rule, "P4.7")
    w = Decomposition.of(G1, M1, M2)
    _witness(claims, "line + conic witness certifies D non-aCM", "P4.7", d, w, "Prop4.7(b)")
    linked = link(d, 3)
    _claim(claims, "class linked by a cubic has (deg, genus)",
           (degree(linked), genus(linked)), (8, 7))
    _claim(claims, "the same witness settles the linked class",
           check_witness("C4.3", linked, w).rule, "Cor4.3(b)")


def _ex45(m, claims):
    H = m.hyperplane_class
    g = Line((1, 1, 0, 0), (0, 0, 1, 1))
    gt = Line((1, 0, 1, 0), (0, 1, 0, 1))
    G, Gt = _on_surface(m, claims, ("Gamma", g), ("Gammatilde", gt))
    _claim(claims, "Gamma and Gammatilde intersect at one point", lines_meet(g, gt).value, 1)
    dt = H - Gt
    _claim(claims, "Dtilde = Ctilde - Gammatilde has (deg, genus)",
           (degree(dt), genus(dt)), (4, 3))
    _claim(claims, "Dtilde.Gamma", pair(dt, G), 0)
    d = dt + G
    _claim(claims, "D = Dtilde + Gamma has (deg, genus)",
           (degree(d), genus(d)), (5, 2))
    _witness(claims, "quartic + line witness certifies D non-aCM",
             "P4.8", d, Decomposition.of(dt, G), "Prop4.8(b)")
    d0 = 2 * H - d
    _claim(claims, "D0 = C + Ctilde - D has the same (deg, genus) as D",
           (degree(d0), genus(d0)), (degree(d), genus(d)))


# case id: (title, model name, builder); a builder appends its claims to the
# list it is given and may return the case's notes
_CASES = {
    "ex2.1": ("skew line pairs on the Fermat quartic", "fermat4", _ex21),
    "ex3.1": ("skew lines on the Fermat quintic", "fermat5", _ex31),
    "ex4.1": ("degree-10 genus-11 curves via liaison from a cubic surface",
              "cubic_delpezzo", _ex41),
    "ex4.2": ("degree-6 genus-3 curves via liaison from a quadric surface", "quadric", _ex42),
    "ex4.3": ("degree-6 genus-3 non-aCM curves on the Fermat quintic", "fermat5", _ex43),
    "ex4.4": ("degree-7 genus-5 non-aCM curve on the Fermat quintic", "fermat5", _ex44),
    "ex4.5": ("degree-5 genus-2 non-aCM curve on the Fermat quintic", "fermat5", _ex45),
}

EXAMPLE_IDS = tuple(sorted(_CASES))


def run_example(case_id, models=None):
    """Rebuild one worked configuration and evaluate its claims."""
    try:
        title, key, builder = _CASES[case_id]
    except KeyError:
        raise ValueError(
            f"unknown example id {case_id!r}; choose from {', '.join(EXAMPLE_IDS)}"
        ) from None
    claims = []
    notes = builder(_model(models, key), claims)
    return CaseReport(case_id, title, tuple(claims), notes or ())


def verify_all(models=None):
    """Run every case in id order."""
    return SummaryReport(tuple(run_example(i, models) for i in EXAMPLE_IDS))


def render_case(report):
    lines = [f"== {report.case_id}: {report.title} =="]
    for c in report.claims:
        mark = "ok  " if c.ok else "FAIL"
        lines.append(f"  [{mark}] {c.description}: {c.computed} (expected {c.expected})")
        if c.note:
            lines.append(f"         {c.note}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def render_summary(summary):
    lines = []
    for case in summary.cases:
        lines.append(render_case(case))
        lines.append("")
    lines.append(
        f"{len(summary.cases)} cases, {summary.total_claims} claims, "
        f"{summary.failed_claims} failed"
    )
    return "\n".join(lines)


def case_json(report):
    return {
        "id": report.case_id,
        "title": report.title,
        "ok": report.ok,
        "claims": [
            {
                "description": c.description,
                "expected": _plain(c.expected),
                "computed": _plain(c.computed),
                "ok": c.ok,
                "note": c.note,
            }
            for c in report.claims
        ],
        "notes": list(report.notes),
    }


def summary_json(summary):
    return {
        "ok": summary.ok,
        "total_claims": summary.total_claims,
        "failed_claims": summary.failed_claims,
        "cases": [case_json(c) for c in summary.cases],
    }
