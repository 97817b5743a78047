"""Reproduction suite for the worked configurations behind the tables.

Each case rebuilds one documented construction from its printed equations,
re-derives every printed number with the exact machinery, and reports the
computed value next to the expected one.  Membership and incidence failures
are findings, never suppressed: the quartic case ex2.1 deliberately runs a
printed line whose parameter is an even power of the eighth root of unity,
reports that it fails the surface membership test, and then runs the
odd-power correction that reproduces all the printed invariants.

Reports are deterministic and byte-identical across runs.
"""

from dataclasses import dataclass

from .classify import _plain, check_witness, classify_numeric, search_witness
from .cyclo import rational, zeta
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


@dataclass(frozen=True)
class ClaimResult:
    description: str
    expected: object
    computed: object
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class CaseReport:
    case_id: str
    title: str
    claims: tuple
    notes: tuple = ()

    @property
    def ok(self):
        return all(c.ok for c in self.claims)


@dataclass(frozen=True)
class SummaryReport:
    cases: tuple

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


def _meet_value(a, b):
    return lines_meet(a, b).value


def _case_ex21(models):
    m = _model(models, "fermat4")
    H = m.hyperplane_class
    one, zero, om = rational(1), rational(0), zeta(8)
    claims = []
    g1 = Line((one, om, zero, zero), (zero, zero, one, om))
    _claim(claims, "first line x0+w*x1 = x2+w*x3 lies on the quartic",
           line_on_fermat(g1, 4), True)
    g2_printed = Line((one, zero, om, zero), (zero, one, zero, om**2))
    _claim(
        claims,
        "second line as printed, x0+w*x2 = x1+w^2*x3, lies on the quartic",
        line_on_fermat(g2_printed, 4),
        False,
        note="membership FAILS as printed: w^2 is an even power, and (w^2)^4 = 1 "
        "leaves the coefficient 1 + (w^2)^4 = 2 in the expansion",
    )
    g2 = Line((one, zero, om, zero), (zero, one, zero, om**3))
    _claim(claims, "corrected second line x0+w*x2 = x1+w^3*x3 lies on the quartic",
           line_on_fermat(g2, 4), True)
    G1 = m.atlas_class(g1)
    G2 = m.atlas_class(g2)
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
    notes = (
        "anomaly: the printed parameter w^2 of the second line is an even power "
        "of the primitive eighth root, so the printed equations do not cut a line "
        "on the quartic; the failed membership above records this finding",
        "any odd exponent restores membership; exponent 3 is used here because it "
        "also keeps the two lines disjoint (exponent 1 would make them meet)",
    )
    return CaseReport("ex2.1", "skew line pairs on the Fermat quartic", tuple(claims), notes)


def _case_ex31(models):
    m = _model(models, "fermat5")
    one, zero, xi = rational(1), rational(0), zeta(5)
    claims = []
    l1 = Line((one, one, zero, zero), (zero, zero, one, one))
    l2 = Line((one, zero, one, zero), (zero, one, zero, xi))
    _claim(claims, "x0+x1 = x2+x3 lies on the quintic", line_on_fermat(l1, 5), True)
    _claim(claims, "x0+x2 = x1+xi*x3 lies on the quintic", line_on_fermat(l2, 5), True)
    _claim(claims, "the two lines are skew (intersection count)", _meet_value(l1, l2), 0)
    L1, L2 = m.atlas_class(l1), m.atlas_class(l2)
    res = is_m_connected(Decomposition.of(L1, L2), 1)
    _claim(claims, "L1 + L2 is 1-connected", res.connected, False,
           note="the split (L1 | L2) has pairing 0, below the bound 1")
    _claim(claims, "minimal split pairing", res.minimum, 0)
    return CaseReport("ex3.1", "skew lines on the Fermat quintic", tuple(claims))


def _case_ex41(models):
    cubic = _model(models, "cubic_delpezzo")
    HY = cubic.hyperplane_class
    dt = HY + cubic.gen_class("E1") + cubic.gen_class("E2")
    claims = []
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
    return CaseReport(
        "ex4.1",
        "degree-10 genus-11 curves via liaison from a cubic surface",
        tuple(claims),
    )


def _case_ex42(models):
    quad = _model(models, "quadric")
    HZ = quad.hyperplane_class
    dt = HZ + 2 * quad.gen_class("L2")
    claims = []
    _claim(claims, "H_Z.Dtilde on the quadric", pair(HZ, dt), 4)
    _claim(claims, "P_a(Dtilde) on the quadric", genus(dt), 0)
    span = _quintic_span_model(4, 0)
    dq = span.gen_class("Dt")
    linked = link(dq, 2)
    _claim(claims, "class linked by a quadric has (deg, genus)",
           (degree(linked), genus(linked)), (6, 3))
    _claim(claims, "(6, 3) sits in the conditional table",
           classify_numeric("quintic", 6, 3).rule, "P4.6")
    return CaseReport(
        "ex4.2",
        "degree-6 genus-3 curves via liaison from a quadric surface",
        tuple(claims),
    )


def _case_ex43(models):
    m = _model(models, "fermat5")
    H = m.hyperplane_class
    one, zero, xi = rational(1), rational(0), zeta(5)
    claims = []
    l1 = Line((one, one, zero, zero), (zero, zero, one, one))
    l2 = Line((one, zero, one, zero), (zero, one, zero, xi))
    gam = Line((zero, one, one, zero), (one, zero, zero, xi**4))
    l3 = Line((one, one, zero, zero), (zero, zero, one, xi**4))
    for name, line in (("L1", l1), ("L2", l2), ("Gamma", gam), ("L3", l3)):
        _claim(claims, f"{name} lies on the quintic", line_on_fermat(line, 5), True)
    L1, L2 = m.atlas_class(l1), m.atlas_class(l2)
    Gam, L3 = m.atlas_class(gam), m.atlas_class(l3)
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
    v = check_witness("P4.6", d_b2, Decomposition.of(dt, L1, L2))
    _claim(claims, "witness settles the skew-line configuration", v.rule, "Prop4.6(b2)")
    _claim(claims, "witness search rediscovers it",
           search_witness("P4.6", d_b2, bound=10) is not None, True)
    _claim(claims, "L3.Gamma", pair(L3, Gam), 1)
    _claim(claims, "L3.Dtilde", pair(L3, dt), 0)
    conic = L1 + L3
    _claim(claims, "(L1 + L3).Dtilde", pair(conic, dt), 1)
    _claim(claims, "(L1 + L3)^2", pair(conic, conic), -4)
    d_b3 = dt + L1 + L3
    _claim(claims, "D = Dtilde + L1 + L3 has (deg, genus)",
           (degree(d_b3), genus(d_b3)), (6, 3))
    v = check_witness("P4.6", d_b3, Decomposition.of(dt, L1, L3))
    _claim(claims, "witness settles the reducible-conic configuration", v.rule, "Prop4.6(b3)")
    _claim(claims, "witness search rediscovers it",
           search_witness("P4.6", d_b3, bound=10) is not None, True)
    return CaseReport(
        "ex4.3",
        "degree-6 genus-3 non-aCM curves on the Fermat quintic",
        tuple(claims),
    )


def _case_ex44(models):
    m = _model(models, "fermat5")
    H = m.hyperplane_class
    one, zero, xi = rational(1), rational(0), zeta(5)
    claims = []
    g1 = Line((one, one, zero, zero), (zero, zero, one, one))
    m1 = Line((one, zero, one, zero), (zero, one, zero, xi))
    m2 = Line((one, zero, one, zero), (zero, one, zero, xi**2))
    for name, line in (("Gamma1", g1), ("conic component 1", m1), ("conic component 2", m2)):
        _claim(claims, f"{name} lies on the quintic", line_on_fermat(line, 5), True)
    G1, M1, M2 = m.atlas_class(g1), m.atlas_class(m1), m.atlas_class(m2)
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
    _claim(claims, "line + conic witness certifies D non-aCM",
           check_witness("P4.7", d, w).rule, "Prop4.7(b)")
    _claim(claims, "witness search rediscovers it",
           search_witness("P4.7", d, bound=10) is not None, True)
    linked = link(d, 3)
    _claim(claims, "class linked by a cubic has (deg, genus)",
           (degree(linked), genus(linked)), (8, 7))
    _claim(claims, "the same witness settles the linked class",
           check_witness("C4.3", linked, w).rule, "Cor4.3(b)")
    return CaseReport(
        "ex4.4",
        "degree-7 genus-5 non-aCM curve on the Fermat quintic",
        tuple(claims),
    )


def _case_ex45(models):
    m = _model(models, "fermat5")
    H = m.hyperplane_class
    one, zero = rational(1), rational(0)
    claims = []
    g = Line((one, one, zero, zero), (zero, zero, one, one))
    gt = Line((one, zero, one, zero), (zero, one, zero, one))
    _claim(claims, "Gamma lies on the quintic", line_on_fermat(g, 5), True)
    _claim(claims, "Gammatilde lies on the quintic", line_on_fermat(gt, 5), True)
    _claim(claims, "Gamma and Gammatilde intersect at one point",
           _meet_value(g, gt), 1)
    G, Gt = m.atlas_class(g), m.atlas_class(gt)
    dt = H - Gt
    _claim(claims, "Dtilde = Ctilde - Gammatilde has (deg, genus)",
           (degree(dt), genus(dt)), (4, 3))
    _claim(claims, "Dtilde.Gamma", pair(dt, G), 0)
    d = dt + G
    _claim(claims, "D = Dtilde + Gamma has (deg, genus)",
           (degree(d), genus(d)), (5, 2))
    w = Decomposition.of(dt, G)
    _claim(claims, "quartic + line witness certifies D non-aCM",
           check_witness("P4.8", d, w).rule, "Prop4.8(b)")
    _claim(claims, "witness search rediscovers it",
           search_witness("P4.8", d, bound=10) is not None, True)
    d0 = 2 * H - d
    _claim(claims, "D0 = C + Ctilde - D has the same (deg, genus) as D",
           (degree(d0), genus(d0)), (degree(d), genus(d)))
    return CaseReport(
        "ex4.5",
        "degree-5 genus-2 non-aCM curve on the Fermat quintic",
        tuple(claims),
    )


_CASES = {
    "ex2.1": _case_ex21,
    "ex3.1": _case_ex31,
    "ex4.1": _case_ex41,
    "ex4.2": _case_ex42,
    "ex4.3": _case_ex43,
    "ex4.4": _case_ex44,
    "ex4.5": _case_ex45,
}

EXAMPLE_IDS = tuple(sorted(_CASES))


def run_example(case_id, models=None):
    """Rebuild one worked configuration and evaluate its claims."""
    try:
        builder = _CASES[case_id]
    except KeyError:
        raise ValueError(
            f"unknown example id {case_id!r}; choose from {', '.join(EXAMPLE_IDS)}"
        ) from None
    return builder(models)


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
