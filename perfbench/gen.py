"""Seeded inputs for the workloads, each with its expected answer.

The expected answers come from oracle.py, never from acmcurves.  Witness
targets are assembled from line configurations picked with the oracle
Gram, so each has a witness by construction.  The same seed always gives
the same inputs.
"""

import itertools

import oracle
from oracle import NONZERO_TOL, relative_det, root

# --- divisor classes ---------------------------------------------------------


def class_text(terms):
    """Divisor expression for {name: coeff}, H first, then the given order."""
    bits = []
    for name, c in terms.items():
        if not c:
            continue
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        if not bits:
            bits.append(body if c > 0 else f"-{body}")
        else:
            bits.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(bits)


def add_terms(*parts):
    out = {}
    for part in parts:
        for name, c in part.items():
            out[name] = out.get(name, 0) + c
    return out


def divisor_op(rng, lat):
    lines = rng.sample(lat.lines, rng.randint(1, 5))
    terms = {"H": rng.randint(-1, 3)}
    for name in lines:
        terms[name] = rng.choice((-2, -1, 1, 2, 3))
    deg, g, chi, k = lat.invariants(lat.vec(terms))
    return {
        "kind": "divisor",
        "model": lat.d,
        "expr": class_text(terms),
        "expect": [deg, g, chi, k],
    }


# --- numeric classification --------------------------------------------------


def classify_args(rng):
    kind = rng.choice(("quintic", "quintic", "quartic"))
    pick = rng.random()
    if kind == "quintic":
        if pick < 0.35:
            k, deg = rng.choice(sorted(oracle.QUINTIC_ACM))
        elif pick < 0.7:
            k, deg = rng.choice(sorted(oracle.QUINTIC_NONACM))
        else:
            k, deg = rng.randint(-3, 6), rng.randint(1, 12)
        g = deg + 1 - k
    else:
        if pick < 0.35:
            g, deg = rng.choice(sorted(oracle.QUARTIC_ACM))
        elif pick < 0.7:
            g, deg = 3, 6
        else:
            g, deg = rng.randint(0, 9), rng.randint(1, 10)
    status, rule = oracle.expected_status(kind, deg, g)
    return kind, deg, g, status, rule


def classify_op(rng):
    kind, deg, g, status, rule = classify_args(rng)
    return {"kind": "classify", "args": [kind, deg, g], "expect": [status, rule]}


# --- witness targets ---------------------------------------------------------


def _pick(rng, lat, count, ok, first=None):
    """count distinct lines, drawn until ok(lines) holds; first from a slice."""
    while True:
        chosen = rng.sample(lat.lines, count)
        if first is not None:
            lead = rng.choice(lat.lines[first])
            if lead in chosen:
                continue
            chosen[0] = lead
        if ok(*chosen):
            return chosen


def witness_target(rng, lat, which, slot=(0, 1)):
    """(prop, target terms, expected clause label, witness parts) for a rule.

    The witness parts are the construction's own decomposition, as a list
    of {name: coeff}; search_witness may find another one.  The search for
    a plane quartic H - G scans the lines in order and stops at G, so its
    cost follows G's position: slot (i, n) draws G from the i-th of n
    equal slices of the atlas, and a pool of n targets covers it evenly.
    """
    i, n = slot
    span = len(lat.lines)
    first = slice(i * span // n, (i + 1) * span // n)
    H = {"H": 1}
    skew, meet = (lambda a, b: not lat.meets(a, b)), lat.meets
    if which == "P4.4":
        a, b = _pick(rng, lat, 2, skew)
        return "P4.4", add_terms(H, {a: 1}, {b: 1}), "Prop4.4(b)", [{a: 1}, {b: 1}]
    if which == "P4.6(b2)":
        g, a, b = _pick(
            rng, lat, 3, lambda g, a, b: skew(g, a) and skew(g, b) and skew(a, b), first
        )
        quartic = {"H": 1, g: -1}
        return ("P4.6", add_terms(quartic, {a: 1}, {b: 1}), "Prop4.6(b2)",
                [quartic, {a: 1}, {b: 1}])
    if which == "P4.6(b3)":
        g, a, b = _pick(
            rng, lat, 3, lambda g, a, b: meet(a, b) and meet(g, a) + meet(g, b) == 1, first
        )
        quartic = {"H": 1, g: -1}
        return ("P4.6", add_terms(quartic, {a: 1}, {b: 1}), "Prop4.6(b3)",
                [quartic, {a: 1}, {b: 1}])
    if which in ("P4.7", "C4.3"):
        g, a, b = _pick(
            rng, lat, 3, lambda g, a, b: meet(a, b) and skew(g, a) and skew(g, b)
        )
        parts = [{g: 1}, {a: 1}, {b: 1}]
        if which == "P4.7":
            return "P4.7", {"H": 2, g: -1, a: -1, b: -1}, "Prop4.7(b)", parts
        return "C4.3", {"H": 1, g: 1, a: 1, b: 1}, "Cor4.3(b)", parts
    if which == "P4.8":
        gt, g = _pick(rng, lat, 2, meet, first)
        quartic = {"H": 1, gt: -1}
        return "P4.8", add_terms(quartic, {g: 1}), "Prop4.8(b)", [quartic, {g: 1}]
    if which == "P2.2":
        a, b = _pick(rng, lat, 2, skew)
        if rng.random() < 0.5:
            target = {"H": 1, a: 1, b: 1}
        else:
            target = {"H": 2, a: -1, b: -1}
        return "P2.2", target, "Prop2.2(b)", [{a: 1}, {b: 1}]
    raise ValueError(which)


WITNESS_HEADERS = {  # (deg, genus) printed in each statement
    "P4.4": (7, 6), "P4.6": (6, 3), "P4.7": (7, 5), "C4.3": (8, 7),
    "P4.8": (5, 2), "P2.2": (6, 3),
}


def witness_op(rng, lat, which, slot=(0, 1)):
    prop, terms, label, parts = witness_target(rng, lat, which, slot)
    deg, g, _, _ = lat.invariants(lat.vec(terms))
    if (deg, g) != WITNESS_HEADERS[prop]:
        raise oracle.OracleError(f"constructed {which} target has (deg, genus) {(deg, g)}")
    return {
        "kind": "witness",
        "model": lat.d,
        "prop": prop,
        "target": class_text(terms),
        "witness": [class_text(p) for p in parts],
        "expect": label,
        "rewritten": False,
    }


def rewritten_op(lat5):
    """The README's P4.7 target plus the numerically zero H - sum_b L[01|23](0,b).

    Fixed, not seeded: it fails every time until classes are compared up
    to numerical equivalence, so the failed share stays the same in
    every run.
    """
    base = {"H": 2, "L[01|23](0,0)": -1, "L[02|13](0,1)": -1, "L[02|13](0,2)": -1}
    zero = add_terms({"H": 1}, {f"L[01|23](0,{b})": -1 for b in range(5)})
    if not oracle.numerically_zero(lat5, lat5.vec(zero)):
        raise oracle.OracleError("the rewriting class is not numerically zero")
    deg, g, _, _ = lat5.invariants(lat5.vec(add_terms(base, zero)))
    if (deg, g) != WITNESS_HEADERS["P4.7"]:
        raise oracle.OracleError("the rewritten target changed (deg, genus)")
    return {
        "kind": "witness",
        "model": 5,
        "prop": "P4.7",
        "target": class_text(add_terms(base, zero)),
        "witness": [class_text({n: 1}) for n in list(base)[1:]],
        "expect": "Prop4.7(b)",
        "rewritten": True,
    }


# --- m-connectedness ---------------------------------------------------------


def connected_op(rng, lat):
    count = rng.randint(2, 6)
    if rng.random() < 0.5:
        names = rng.sample(lat.lines, count)
    else:  # a chain of meeting lines, more often connected
        names = [rng.choice(lat.lines)]
        while len(names) < count:
            nxt = rng.choice([n for n in lat.lines if lat.meets(names[-1], n)])
            if nxt not in names:
                names.append(nxt)
    mults = [1] * count
    for _ in range(rng.randint(0, 8 - count)):
        mults[rng.randrange(count)] += 1
    parts = list(zip(names, mults))
    m = rng.choice((1, 2))
    least = oracle.least_split(lat, parts)
    return {
        "kind": "connected",
        "model": lat.d,
        "parts": [[n, k] for n, k in parts],
        "m": m,
        "expect": [least >= m, least],
    }


# --- literal lines at orders 5, 8 and 40 ---------------------------------------

ORDERS = (5, 8, 40)


def _scalar(rng, order):
    """(text, value) of c*zeta(order)^e, c a small positive integer."""
    c = rng.choice((1, 1, 2, 3))
    e = rng.randrange(1, order)
    text = f"zeta({order})^{e}" if c == 1 else f"{c}*zeta({order})^{e}"
    return text, c * root(order, e)


def _form(rng, orders):
    """A form x_i + s1*x_j + s2*x_k with scalars at the given orders."""
    var = rng.sample(range(4), 1 + len(orders))
    vec = [0j] * 4
    vec[var[0]] = 1
    bits = [f"x{var[0]}"]
    for v, order in zip(var[1:], orders):
        text, val = _scalar(rng, order)
        vec[v] += val
        bits.append(f"{text}*x{v}")
    rng.shuffle(bits)
    return " + ".join(bits), vec


def _max_minor(rows, size):
    """Largest relative size-by-size minor of the rows (size 2 or 3)."""
    best = 0.0
    for cs in itertools.combinations(range(4), size):
        sub = [[r[c] for c in cs] for r in rows]
        if size == 2:
            det = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
        else:
            det = sum(
                sub[0][p[0]] * sub[1][p[1]] * sub[2][p[2]] * sgn
                for p, sgn in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                               ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))
            )
        scale = 1.0
        for r in sub:
            scale *= sum(abs(v) ** 2 for v in r) ** 0.5
        best = max(best, abs(det) / scale)
    return best


def _line(rng):
    """Two forms that mix all three orders and span a line."""
    while True:
        o = list(ORDERS)
        rng.shuffle(o)
        f1, v1 = _form(rng, o[:2])
        f2, v2 = _form(rng, o[2:] + [rng.choice(ORDERS)])
        if _max_minor([v1, v2], 2) > NONZERO_TOL:
            return (f1, v1), (f2, v2)


def intersect_pair(rng, meeting):
    """(text a, text b) of two lines that meet (by construction) or are skew.

    A meeting pair puts the second line in a plane through the first, so
    they share a point.  A skew pair is kept only when the float
    determinant clears NONZERO_TOL; grey-zone draws are discarded.
    """
    (fa, va), (ga, wa) = _line(rng)
    while True:
        if meeting:
            # any plane through the first line contains its point with h = 0
            lam, mu = _scalar(rng, 8)[0], _scalar(rng, 5)[0]
            plane = f"{lam}*({fa}) + {mu}*({ga})"
            h, hv = _form(rng, [40, rng.choice(ORDERS)])
            # the second line must differ from the first: h off its span
            if _max_minor([va, wa, hv], 3) > NONZERO_TOL:
                return f"{fa} ; {ga}", f"{plane} ; {h}"
        else:
            (fb, vb), (gb, wb) = _line(rng)
            if relative_det([va, wa, vb, wb]) > NONZERO_TOL:
                return f"{fa} ; {ga}", f"{fb} ; {gb}"


def intersect_op(rng, meeting):
    a, b = intersect_pair(rng, meeting)
    return {"kind": "intersect", "a": a, "b": b, "expect": "MEET" if meeting else "SKEW"}
