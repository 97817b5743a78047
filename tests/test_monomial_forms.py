"""The one-pass reader of monomial forms against the scalar grammar.

parse_linear_form reads a sum of terms [c*][zeta(n)[^e]*]x_i, and of terms
[c*][zeta(n)[^e]*](f) with f such a sum, with one regex
(exprs._monomial_form) and hands every other text to the grammar.  Each form
the reader takes must get the grammar's coefficients in the grammar's
representation, and each form it leaves must get the grammar's value or
error, so the two paths are compared on generated texts.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmcurves import exprs
from acmcurves.cyclo import MAX_ORDER, OrderError, get_order, zeta
from acmcurves.exprs import parse_linear_form


def _outcome(text):
    """The coefficients as (order, nums, den), or the error's type and text:
    a ParseError, or an OrderError for zeta(0) and zeta(41)."""
    try:
        return "ok", tuple((c.order, c.nums, c.den) for c in parse_linear_form(text))
    except ValueError as exc:
        return type(exc), str(exc)


def _by_grammar(text):
    with patch.object(exprs, "_monomial_form", lambda text: None):
        return _outcome(text)


_SPACE = st.sampled_from(("", "", " ", "\t", " \t "))


_EIGHTHS = st.integers(1, 8)


def _mostly(draw, mix):
    """A draw from mix = (common, rare): from common about seven times in
    eight, otherwise from rare.  Two plain draws of strategies built once
    cost far less than a flatmap over strategies built at each draw."""
    common, rare = mix
    return draw(rare if draw(_EIGHTHS) == 5 else common)


# (common, rare) pairs for _mostly, on both sides of what the reader takes
_SIGNS = {signs: (st.sampled_from(signs), st.sampled_from(("+", "- -", "")))
          for signs in (("", "-"), ("+", "-"))}
_COEFFICIENTS = (
    st.one_of(st.none(), st.integers(0, 3), st.integers(0, 10**9 - 1)),
    st.one_of(st.integers(0, 10**10), st.just("7" * 1300)),
)
_ORDERS = {orders: (st.one_of(st.none(), st.sampled_from(orders)), st.integers(0, 60))
           for orders in ((5, 8, 40), (5, 7, 8, 40))}
_EXPONENTS = (
    st.one_of(st.none(), st.integers(0, 999)),
    st.one_of(st.integers(0, 1200), st.sampled_from((999, 1000, 1001))),
)
_COORDINATES = (st.integers(0, 3), st.integers(0, 4))
_PARENTHESES = (st.just(("(", ")")), st.sampled_from((
    ("((", "))"), ("(", ""), ("", ")"), ("(", ")^2"), ("(", ")/3"), ("(", ") ^ -1"),
)))


def _prefix(draw, signs, orders=(5, 8, 40)):
    """The tokens of a term's [sign][c*][zeta(n)[^e]*], with signs, sizes,
    orders and exponents on both sides of what the reader takes."""
    tokens = [_mostly(draw, _SIGNS[signs])]
    coefficient = _mostly(draw, _COEFFICIENTS)
    if coefficient is not None:
        tokens += [str(coefficient), "*"]
    n = _mostly(draw, _ORDERS[orders])
    if n is not None:
        tokens += ["zeta", "(", str(n), ")"]
        e = _mostly(draw, _EXPONENTS)
        if e is not None:
            tokens += ["^", str(e)]
        tokens.append("*")
    return tokens


def _spaced(draw, tokens):
    return draw(_SPACE) + "".join(t + draw(_SPACE) for t in tokens if t)


@st.composite
def monomial_texts(draw):
    """Sums of one to four [c*][zeta(n)[^e]*]x_i terms."""
    tokens = []
    for k in range(draw(st.integers(1, 4))):
        tokens += _prefix(draw, ("", "-") if k == 0 else ("+", "-"))
        tokens.append(f"x{_mostly(draw, _COORDINATES)}")
    return _spaced(draw, tokens)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(monomial_texts())
def test_the_reader_agrees_with_the_grammar(text):
    assert _outcome(text) == _by_grammar(text)


@st.composite
def plane_texts(draw):
    """Sums of one to three [sign][c*][zeta(n)[^e]*](f) terms, f from
    monomial_texts(), mixed with up to two bare terms.  The prefixes' orders
    include 7, whose lcm with 8 or 40 is over the cap, and now and then the
    parentheses are doubled, unbalanced, or followed by ^ or /."""
    items = ["(f)"] * draw(st.integers(1, 3)) + ["x"] * draw(st.integers(0, 2))
    tokens = []
    for k, item in enumerate(draw(st.permutations(items))):
        tokens += _prefix(draw, ("", "-") if k == 0 else ("+", "-"), orders=(5, 7, 8, 40))
        if item == "x":
            tokens.append(f"x{draw(st.integers(0, 3))}")
            continue
        opening, closing = _mostly(draw, _PARENTHESES)
        tokens += [opening, draw(monomial_texts()), closing]
    return _spaced(draw, tokens)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(plane_texts())
def test_the_reader_agrees_with_the_grammar_on_plane_combinations(text):
    assert _outcome(text) == _by_grammar(text)


ORDER_56 = "cyclotomic order 56 exceeds the supported cap 40"


@pytest.mark.parametrize("text, read, outcome", [
    # shared coordinates, an exact cancellation and an all-zero result
    ("zeta(8)^6*(x1 + 2*zeta(5)^4*x0) + 3*zeta(5)^4*(x0 + 2*zeta(40)^20*x1)", True, "ok"),
    ("zeta(8)*(x0) - zeta(8)*(x0) + x1", True, "ok"),
    ("x0 + (x0) - 2*x0", False, (exprs.ParseError, "the form has no coordinate part")),
    ("x0 + zeta(5)*(x0 - x1) + x1", True, "ok"),
    ("(x0 + x1) - (x0 + x1)", False, (exprs.ParseError, "the form has no coordinate part")),
    ("zeta(8)*(0*x0) + x1", False, "ok"),  # the grammar reads 0*x0 as a scalar
    ("zeta(8)*(0*x0 + x1) + x2", True, "ok"),
    ("0*(x0 + x1) + x2", True, "ok"),
    # no prefix, a rational-only prefix and a leading minus
    ("(x0 - 2*x1)", True, "ok"),
    ("-(x0 - x1) + 3*(x2 - zeta(8)^3*x3)", True, "ok"),
    ("-3*zeta(8)*(-x0 + x1)", True, "ok"),
    # orders: an lcm over the cap, with and without a lower conductor, and
    # orders outside 1..40
    ("zeta(7)*(zeta(8)*x0 + x1)", False, (OrderError, ORDER_56)),
    ("zeta(7)*(zeta(8)^4*x0 + x1)", False, "ok"),
    ("zeta(8)*(x0) + zeta(7)*(x0)", False, (OrderError, ORDER_56)),
    ("zeta(0)*(x0)", False, (OrderError, "cyclotomic order must be a positive integer, got 0")),
    ("zeta(41)*(x0)", False, (OrderError, "cyclotomic order 41 exceeds the supported cap 40")),
    ("zeta(2)*(zeta(40)^39*x0) + zeta(5)^999*(x0)", True, "ok"),
    # exponents at the cap
    ("zeta(8)^999*(x1 - x2)", True, "ok"),
    ("zeta(8)^1000*(x1 - x2)", False, "ok"),
    ("zeta(8)^1001*(x1 - x2)", False, (exprs.ParseError, "exponent 1001 exceeds the cap 1000")),
    ("zeta(8)*(zeta(40)^1001*x1)", False, (exprs.ParseError, "exponent 1001 exceeds the cap 1000")),
    # shapes the reader leaves to the grammar
    ("zeta(8)*((x0 + x1))", False, "ok"),
    ("zeta(8)*(x0 + (x1))", False, "ok"),
    ("zeta(8)*(x0 + (x1)", False, (exprs.ParseError, "unexpected end of expression")),
    ("zeta(8)*(x0)^2", False, (exprs.ParseError, "coordinates cannot be raised to powers here")),
    ("zeta(8)*(x0)/2 + x1", False, "ok"),
    ("(x0)*zeta(8)", False, "ok"),
    ("zeta(8)*(x0 + x1", False, (exprs.ParseError, "unexpected end of expression")),
    ("zeta(8)*x0 + x1)", False, (exprs.ParseError, "trailing input starting at ')'")),
    ("zeta(8)*()", False, (exprs.ParseError, "unexpected token ')'")),
    ("+(x0)", False, (exprs.ParseError, "unexpected token '+'")),
    ("(+x0)", False, (exprs.ParseError, "unexpected token '+'")),
    ("(x0) x1", False, (exprs.ParseError, "trailing input starting at 'x1'")),
    ("(x0 x1)", False, (exprs.ParseError, "expected ')', found 'x1'")),
    ("zeta(8)*(x0 + x0)", False, "ok"),
])
def test_pinned_plane_combinations(text, read, outcome):
    assert (exprs._monomial_form(text) is not None) == read
    got = _outcome(text)
    assert got == _by_grammar(text)
    assert (got[0] if outcome == "ok" else got) == outcome


@pytest.mark.parametrize("text, read, outcome", [
    ("0*x0", False, (exprs.ParseError, "the form has no coordinate part")),
    ("+x0", False, (exprs.ParseError, "unexpected token '+'")),
    ("x0 - x0", False, (exprs.ParseError, "the form has no coordinate part")),
    ("zeta(8)^999*x1", True, "ok"),
    ("zeta(8)^1000*x1", False, "ok"),
    ("zeta(8)^1001*x1", False, (exprs.ParseError, "exponent 1001 exceeds the cap 1000")),
    ("x 0", False, (exprs.ParseError, "unexpected input at 'x 0'")),
    ("x0 x1", False, (exprs.ParseError, "trailing input starting at 'x1'")),
    # the tokenizer reads the whole text before zeta(41) is evaluated
    ("zeta(41)*x1 + x4", False, (exprs.ParseError, "unexpected input at 'x4'")),
    ("3 * zeta ( 8 ) ^ 4 * x0\t- x1 ", True, "ok"),
    ("0*zeta(8)*x0 + x1", True, "ok"),
    ("x0 + x1 + x0", False, "ok"),
    ("1234567890*x0", False, "ok"),
])
def test_pinned_forms(text, read, outcome):
    assert (exprs._monomial_form(text) is not None) == read
    got = _outcome(text)
    assert got == _by_grammar(text)
    assert (got[0] if outcome == "ok" else got) == outcome


def test_the_reader_stays_inside_the_grammar_caps():
    """The reader's digit bounds come from the grammar's caps: its largest
    exponent is below MAX_EXPONENT, and its largest coefficient times any
    power-row entry fits the bit-size cap.  One more is the grammar's."""
    top = 10**exprs._EXPONENT_DIGITS - 1
    assert top < exprs.MAX_EXPONENT
    for e in (top, top + 1, exprs.MAX_EXPONENT, exprs.MAX_EXPONENT + 1):
        text = f"zeta(8)^{e}*x1"
        assert (exprs._monomial_form(text) is not None) == (e <= top)
        assert _outcome(text) == _by_grammar(text)
    top = 10**exprs._COEFF_DIGITS - 1
    row_max = max(abs(r) for n in range(1, MAX_ORDER + 1)
                  for row in get_order(n).power_rows for r in row)
    assert (top * row_max).bit_length() <= exprs.MAX_POWER_BITS
    for c in (top, top + 1):
        text = f"x0 - {c}*zeta(40)^13*x1"
        assert (exprs._monomial_form(text) is not None) == (c <= top)
        assert _outcome(text) == _by_grammar(text)


SPACES = " " * 5000


@pytest.mark.parametrize("text, outcome", [
    ("x0 +" + SPACES + "(x1)", "ok"),
    ("x0 ;" + SPACES + "!x1", (exprs.ParseError, "unexpected input at ';                   '")),
    (SPACES + "!x1", (exprs.ParseError, "unexpected input at '!x1'")),
    ("x0" + SPACES + "!", (exprs.ParseError, "unexpected input at '!'")),
    ("-" + SPACES + "3" + SPACES + "*" + SPACES + "x1" + SPACES, "ok"),
    ("zeta(8)" + SPACES + "^" + SPACES + "-3*x2", "ok"),
    # a million characters: linear on both paths, hours for a pattern whose
    # whitespace runs have many readings
    ("x0 -" + " \t" * 500_000 + "!x1", (exprs.ParseError, "unexpected input at '!x1'")),
], ids=["paren", "semicolon", "leading", "trailing", "every-gap", "negative-power", "1M"])
def test_long_whitespace_runs_get_the_grammar_outcome(text, outcome):
    """Each run of whitespace has one reading in the reader's pattern, so a
    text that is not a monomial form is refused in time linear in its
    length, and the grammar gives its outcome."""
    got = _outcome(text)
    assert got == _by_grammar(text)
    assert (got[0] if outcome == "ok" else got) == outcome


@pytest.mark.parametrize("text, read, outcome", [
    ("zeta(8)" + SPACES + "*" + SPACES + "(" + SPACES + "x0" + SPACES + "+" + SPACES + "x1"
     + SPACES + ")" + SPACES + "-" + SPACES + "(" + SPACES + "x2" + SPACES + ")" + SPACES,
     True, "ok"),
    (SPACES + "(x0)", True, "ok"),
    ("zeta(8)*(" + SPACES + "!x0)", False, (exprs.ParseError, "unexpected input at '!x0)'")),
    ("zeta(8)*(x0" + SPACES, False, (exprs.ParseError, "unexpected end of expression")),
    ("zeta(8)*(x0 +" + SPACES + ")", False, (exprs.ParseError, "unexpected token ')'")),
    ("(" + SPACES + "(" + SPACES + "x0" + SPACES + ")" + SPACES + ")", False, "ok"),
    ("(x0)" + SPACES + "^" + SPACES + "2", False,
     (exprs.ParseError, "coordinates cannot be raised to powers here")),
    ("zeta(8)*(x0 -" + " \t" * 500_000 + "!x1)", False,
     (exprs.ParseError, "unexpected input at '!x1)'")),
], ids=["every-gap", "leading", "after-open", "unclosed", "before-close", "nested", "power",
        "1M"])
def test_long_whitespace_runs_around_parentheses(text, read, outcome):
    """Parenthesised forms keep the reader linear: a run of whitespace inside
    or around the parentheses has one reading, whether or not the text is
    read, and the grammar gives the outcome."""
    assert (exprs._monomial_form(text) is not None) == read
    got = _outcome(text)
    assert got == _by_grammar(text)
    assert (got[0] if outcome == "ok" else got) == outcome


def test_pinned_values():
    assert parse_linear_form("zeta(8)^999*x1")[1] == zeta(8, 7)
    assert parse_linear_form("zeta(8)^1000*x1")[1] == 1
    # the grammar's orders: -1 stays at order 8, and 3*zeta(40)^13 at order 40
    assert _outcome("zeta(8)^4*x0 + 3*zeta(40)^13*x1")[1][:2] == (
        (8, (-1, 0, 0, 0), 1), (40, tuple(3 * r for r in zeta(40, 13).nums), 1)
    )


def test_benchmark_forms_skip_the_grammar(monkeypatch, session_literals):
    """None of the 576 benchmark forms reaches the grammar: the 504 monomial
    forms and the 72 plane combinations c*zeta(n)^e*(...) + ... are all
    read in one pass, with the grammar's outcome."""
    forms = [form for line in session_literals for form in line.split(";")]
    want = [_by_grammar(form) for form in forms]
    tokenized = []
    tokenize = exprs._tokenize
    monkeypatch.setattr(exprs, "_tokenize", lambda text: tokenized.append(text) or tokenize(text))
    assert [_outcome(form) for form in forms] == want
    assert len(forms) == 576 and tokenized == []
    assert sum(form.count("(") > 4 for form in forms) == 72
