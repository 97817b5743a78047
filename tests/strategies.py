"""Shared hypothesis strategies for literal lines over cyclotomic fields."""

from hypothesis import strategies as st

from acmcurves.cyclo import rational, zeta

# coefficient orders; each line draws its coefficients at the divisors of
# one of them, so every lcm stays within the cap of 40
ORDERS = (1, 5, 8, 40)


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
