"""Shared hypothesis strategies for literal lines over cyclotomic fields."""

from hypothesis import reject
from hypothesis import strategies as st

from acmcurves.cyclo import rational, zeta
from acmcurves.geometry import GeometryError, Line
from acmcurves.surfaces import PAIRINGS

# coefficient orders; each line draws its coefficients at the divisors of
# one of them, so every lcm stays within the cap of 40
ORDERS = (1, 5, 8, 40)
# Fermat degrees of the membership tests
DEGREES = range(2, 7)


@st.composite
def elements(draw, n):
    """A small rational plus up to two integer multiples of powers of zeta_n."""
    value = rational(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(0, 2))):
        value = value + draw(st.integers(-2, 2)) * zeta(n, draw(st.integers(0, n - 1)))
    return value


@st.composite
def coefficients(draw, line_order):
    n = draw(st.sampled_from([m for m in ORDERS if line_order % m == 0]))
    return draw(elements(n))


def forms(line_order):
    return st.tuples(*(coefficients(line_order) for _ in range(4)))


@st.composite
def line_pairs(draw):
    """(kind, a, b): b random, b coplanar with a, or b the same line as a."""
    na, nb = draw(st.sampled_from(ORDERS)), draw(st.sampled_from(ORDERS))
    f1, f2 = draw(forms(na)), draw(forms(na))
    kind = draw(st.sampled_from(("random", "coplanar", "same")))

    def in_span():  # a form vanishing on the line f1 = f2 = 0
        s, t = draw(coefficients(nb)), draw(coefficients(nb))
        return tuple(s * u + t * v for u, v in zip(f1, f2))

    g = draw(forms(nb)) if kind == "random" else in_span()
    h = in_span() if kind == "same" else draw(forms(nb))
    try:
        return kind, Line(f1, f2), Line(g, h)
    except GeometryError:  # a zero form or a rank-1 pair
        reject()


@st.composite
def lines_and_degrees(draw):
    """(kind, line, d) for d in 2..6.

    kind "random": a literal line at orders 1, 5, 8 or 40.  kind "ruling":
    a ruling of the Fermat quadric, x0 + i*x1 = lam*(x2 + e*i*x3) and
    lam*(x0 - i*x1) = -(x2 - e*i*x3) with e = +-1, whose pivot rows are
    dense; it lies on the surface for d = 2.  kind "standard": the line
    x_p + alpha*x_q = x_r + beta*x_s = 0 with (-alpha)^d = (-beta)^d = -1,
    which lies on the surface of degree d.
    """
    d = draw(st.sampled_from(DEGREES))
    n = draw(st.sampled_from(ORDERS))
    kind = draw(st.sampled_from(("random", "ruling", "standard")))
    if kind == "random":
        f1, f2 = draw(forms(n)), draw(forms(n))
    elif kind == "ruling":
        i, lam, e = zeta(4), draw(coefficients(n)), draw(st.sampled_from((1, -1)))
        f1 = (1, i, -lam, -e * lam * i)
        f2 = (lam, -lam * i, 1, -e * i)
    else:
        p, q, r, s = draw(st.sampled_from(PAIRINGS))
        # (-zeta_2d^k)^d = -1 exactly for k = d + 1 mod 2
        alpha = zeta(2 * d, 2 * draw(st.integers(0, d - 1)) + 1 - d % 2)
        beta = zeta(2 * d, 2 * draw(st.integers(0, d - 1)) + 1 - d % 2)
        f1, f2 = [0] * 4, [0] * 4
        f1[p], f1[q], f2[r], f2[s] = 1, alpha, 1, beta
    try:
        return kind, Line(f1, f2), d
    except GeometryError:  # a zero form or a rank-1 pair
        reject()
