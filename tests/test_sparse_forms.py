"""Sparse linear forms against the dense evaluation they replaced.

The package parses a form into a map of the coordinates that occur in it;
parse_oracle.py evaluates the same grammar with all four coefficients.  The
two must give the same scalars in the same representation, the same
canonical lines, and the same errors.  The one difference is documented:
scalar-only terms that cancel no longer lift the coefficients of a form.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_oracle
from acmcurves import cyclo
from acmcurves.cyclo import ZERO, rational, zeta
from acmcurves.exprs import ParseError, parse_line, parse_linear_form, parse_scalar
from acmcurves.geometry import GeometryError

# line orders; every scalar of a line is drawn at a divisor of its order
ORDERS = (1, 5, 7, 8, 40)


def _rep(c):
    return c.order, c.nums, c.den


def _state(line):
    return tuple(tuple(_rep(c) for c in row) for row in line.rows), line.pivots


def _outcome(parse, text):
    """("ok", value), or the type and text of the error the parse raised."""
    try:
        return "ok", parse(text)
    except (ParseError, GeometryError) as exc:
        return type(exc), str(exc)


def scalar_texts(n):
    """Scalar expressions at the divisors of n in ORDERS, using + - * / ^,
    unary minus and parentheses."""
    orders = [m for m in ORDERS if n % m == 0]
    atoms = st.one_of(
        st.integers(0, 5).map(str),
        st.builds(
            lambda m, k: f"zeta({m})^{k}", st.sampled_from(orders), st.integers(-3, 45)
        ),
    )

    def extend(inner):
        return st.one_of(
            st.builds(lambda a, op, b: f"{a} {op} {b}", inner, st.sampled_from("+-*/"), inner),
            inner.map(lambda a: f"-{a}"),
            inner.map(lambda a: f"({a})"),
            st.builds(lambda a, e: f"({a})^{e}", inner, st.integers(-2, 3)),
        )

    return st.recursive(atoms, extend, max_leaves=4)


_TERM_SHAPES = ("({s})*x{i}", "x{i}*({s})", "-({s})*x{i}", "x{i}/({s})", "(x{i})*({s})")


@st.composite
def form_texts(draw, n):
    """A sum of one to four scalar*x_i terms with scalars at divisors of n."""
    text = ""
    for k in range(draw(st.integers(1, 4))):
        term = draw(st.sampled_from(_TERM_SHAPES)).format(
            s=draw(scalar_texts(n)), i=draw(st.integers(0, 3))
        )
        text += term if k == 0 else draw(st.sampled_from((" + ", " - "))) + term
    return text


def _line_texts():
    return st.sampled_from(ORDERS).flatmap(
        lambda n: st.tuples(form_texts(n), form_texts(n)).map(" ; ".join)
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(ORDERS).flatmap(scalar_texts))
def test_scalars_match_the_dense_oracle(text):
    got, want = _outcome(parse_scalar, text), _outcome(parse_oracle.scalar, text)
    if got[0] == "ok" and want[0] == "ok":
        assert _rep(got[1]) == _rep(want[1])
        assert str(got[1]) == str(want[1])
    else:
        assert got == want


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_line_texts())
def test_lines_match_the_dense_oracle(text):
    got, want = _outcome(parse_line, text), _outcome(parse_oracle.line, text)
    if got[0] == "ok" and want[0] == "ok":
        assert _state(got[1]) == _state(want[1])
    else:
        assert got == want


def test_benchmark_literals_match_the_dense_oracle(session_literals):
    for text in session_literals:
        assert _state(parse_line(text)) == _state(parse_oracle.line(text)), text


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_line_texts(), st.sampled_from(ORDERS).flatmap(scalar_texts))
def test_cancelling_scalar_terms_give_equal_lines(text, s):
    f1, f2 = text.split(" ; ")
    text = f"{f1} + {s} - ({s}) ; {f2}"
    got, want = _outcome(parse_line, text), _outcome(parse_oracle.line, text)
    if got[0] == "ok" and want[0] == "ok":
        assert got[1] == want[1]
    else:
        assert got == want


def test_cancelling_scalar_terms_no_longer_lift_the_form():
    text = "x0 + zeta(8)*x1 + 2*zeta(40) - 2*zeta(40) ; x2 + x3"
    sparse, dense = parse_line(text), parse_oracle.line(text)
    assert sparse == dense
    assert sparse.rows[0][0].order == 8 and dense.rows[0][0].order == 40
    # the dense evaluation already gave order 8 with the scalar written this way
    assert parse_oracle.line("x0 + zeta(8)*x1 + zeta(40)*2 - zeta(40)*2 ; x2 + x3").rows[0][0].order == 8


def test_forms_fill_absent_coordinates_with_zero():
    vec = parse_linear_form("x3 - zeta(8)*x1")
    assert vec == (ZERO, -zeta(8), ZERO, rational(1))
    # a coordinate that cancels stays present, at its order
    vec = parse_linear_form("x0 + zeta(40)*x1 - zeta(40)*x1")
    assert vec[1].is_zero() and vec[1].order == 40


@pytest.mark.parametrize("parse, text, message", [
    (parse_linear_form, "x0*x1", "nonlinear product of coordinates"),
    (parse_linear_form, "(x0 + x1)*(x2 - x3)", "nonlinear product of coordinates"),
    (parse_linear_form, "x0 + 1", "a projective linear form cannot have a constant term"),
    (parse_linear_form, "3 - 2", "a projective linear form cannot have a constant term"),
    (parse_linear_form, "x0 - x0", "the form has no coordinate part"),
    (parse_linear_form, "x0/x1", "division by a coordinate expression"),
    (parse_linear_form, "1/x0", "division by a coordinate expression"),
    (parse_linear_form, "x0/0", "division by zero"),
    (parse_linear_form, "x0/(zeta(8) - zeta(8))", "division by zero"),
    (parse_linear_form, "x0^2", "coordinates cannot be raised to powers here"),
    (parse_linear_form, "x0 +", "unexpected end of expression"),
    (parse_linear_form, "(x0 + x1", "unexpected end of expression"),
    (parse_linear_form, "", "unexpected end of expression"),
    (parse_linear_form, "x0 + x1)", "trailing input starting at ')'"),
    (parse_linear_form, "x0 & x1", "unexpected input at '& x1'"),
    (parse_linear_form, "x4", "unexpected input at 'x4'"),
    (parse_linear_form, "zeta(x0)*x1", "zeta order must be an integer, found 'x0'"),
    (parse_linear_form, "2^x0*x1", "exponent must be an integer, found 'x0'"),
    (parse_linear_form, "x0 + zeta(8)^3^x1", "exponent must be an integer, found 'x1'"),
    (parse_linear_form, "zeta(8*x1", "expected ')', found '*'"),
    (parse_scalar, "x0", "expected a scalar, found coordinates"),
    (parse_scalar, "1/0", "division by zero"),
    (parse_scalar, "2^", "unexpected end of expression"),
    (parse_scalar, "-", "unexpected end of expression"),
    (parse_scalar, "zeta()", "zeta order must be an integer, found ')'"),
    (parse_scalar, "zeta(8)^(2)", "exponent must be an integer, found '('"),
])
def test_error_texts_are_kept(parse, text, message):
    oracle = parse_oracle.linear_form if parse is parse_linear_form else parse_oracle.scalar
    for p in (parse, oracle):
        with pytest.raises(ParseError) as err:
            p(text)
        assert str(err.value) == message


def test_a_coordinate_sum_that_cancels_is_a_scalar():
    assert parse_scalar("zeta(5) + x1 - x1") == zeta(5)
    assert _rep(parse_scalar("zeta(5) + x1 - x1")) == _rep(parse_oracle.scalar("zeta(5) + x1 - x1"))


def test_parsing_a_form_never_lifts_a_zero(monkeypatch):
    # CycNum's +, * and == bring their operands to one order with
    # cyclo._lifted, so count the zeros they pass to it
    zeros = []
    lifted = cyclo._lifted

    def counting_lifted(values):
        zeros.extend(v.order for v in values if v.is_zero())
        return lifted(values)

    monkeypatch.setattr(cyclo, "_lifted", counting_lifted)
    vec = parse_linear_form("3*zeta(40)^13*x1 + x0 + 3*zeta(5)^3*x3")
    assert zeros == []
    assert vec == (rational(1), 3 * zeta(40, 13), ZERO, 3 * zeta(5, 3))
    # the dense evaluation brings the zeros of every term to the term's order
    zeros.clear()  # the comparison above passed ZERO == ZERO
    parse_oracle.linear_form("3*zeta(40)^13*x1 + x0 + 3*zeta(5)^3*x3")
    assert zeros
