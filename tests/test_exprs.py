"""Textual interfaces: scalar grammar, line literals, divisor expressions."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmcurves.cyclo import rational, zeta
from acmcurves.exprs import (
    MAX_EXPONENT,
    MAX_POWER_BITS,
    ParseError,
    _monomial_form,
    format_divisor,
    parse_divisor,
    parse_line,
    parse_linear_form,
    parse_scalar,
)
from acmcurves.geometry import Line
from acmcurves.surfaces import fermat_model


def test_scalar_tokens():
    assert parse_scalar("zeta(8)^3") == zeta(8, 3)
    assert parse_scalar("2/3") == rational(2, 3)
    assert parse_scalar("-1/2 + zeta(5)") == zeta(5) - rational(1, 2)
    assert parse_scalar("2*zeta(5)^2") == 2 * zeta(5, 2)
    assert parse_scalar("(1+zeta(8))*(1-zeta(8))") == 1 - zeta(8, 2)
    assert parse_scalar("zeta(5)^-1") == zeta(5, 4)


def test_power_caps():
    assert parse_scalar("zeta(40)^39") == zeta(40, 39)
    assert parse_scalar("zeta(40)^-39") == zeta(40)
    assert parse_scalar(f"2^{MAX_EXPONENT}") == rational(2**MAX_EXPONENT)
    assert parse_scalar("1/3^1000") == rational(1, 3**1000)
    assert parse_scalar("(2^1000)^4") == rational(2**4000)  # 4001 bits
    for text, message in (
        ("3^400000", "exponent 400000 exceeds the cap"),
        (f"3^{MAX_EXPONENT + 1}", "exceeds the cap"),
        ("3^" + "9" * 5000, "exponent 99999999... exceeds the cap"),
        ("2^1000^1000", "bit-size cap"),  # chained: (2^1000)^1000
        ("(3^600)^6", "bit-size cap"),
        ("(2^1000)^5", "bit-size cap"),
        ("(1 + 2*zeta(40))^-1000", "bit-size cap"),
    ):
        with pytest.raises(ParseError, match=message):
            parse_scalar(text)
    with pytest.raises(ParseError, match="exceeds the cap"):
        parse_linear_form("x0 + 3^400000*x1")


def wide_order_37_text(bits, seed=37):
    """An order-37 element with 36 random coefficients of the given bit size."""
    rng = random.Random(seed)
    coeffs = [rng.getrandbits(bits) * rng.choice((1, -1)) for _ in range(36)]
    return " + ".join(f"({c})*zeta(37)^{i}" for i, c in enumerate(coeffs))


def test_quotients_are_capped_before_inverting():
    # phi(37) * 64 = 2,304 bits fit the cap: the quotient is computed
    text = wide_order_37_text(64)
    assert parse_scalar(f"1/({text})") * parse_scalar(text) == 1
    for bits in (256, 4096):  # 88 ms and 6.8 s to invert without the cap
        text = wide_order_37_text(bits)
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"a quotient exceeds the bit-size cap {MAX_POWER_BITS}"):
            parse_scalar(f"1/({text})")
        assert time.perf_counter() - start < 0.1
    # 36 * 113 = 4,068 bits pass the first check, but the inverse has 4,116
    with pytest.raises(ParseError, match="a quotient exceeds the bit-size cap"):
        parse_scalar(f"1/({wide_order_37_text(113)})")
    # a negative power inverts too
    with pytest.raises(ParseError, match="a power exceeds the bit-size cap"):
        parse_scalar(f"({wide_order_37_text(256)})^-1")
    assert parse_scalar("zeta(40)^-39") == zeta(40)
    assert parse_scalar("1/(3^1000)") == rational(1, 3**1000)


@pytest.mark.parametrize("parse, text", [
    (parse_scalar, "1/0"),
    (parse_scalar, "0^-1"),
    (parse_scalar, "(zeta(8) - zeta(8))^-3"),
    (parse_linear_form, "x0/0"),
    (parse_linear_form, "x0 + (0*x0)^-1"),
])
def test_a_quotient_and_a_negative_power_of_zero_raise_one_error(parse, text):
    with pytest.raises(ParseError, match="^division by zero$"):
        parse(text)


def test_integer_literals_are_capped():
    largest = str(2**MAX_POWER_BITS - 1)  # 1,234 digits
    assert parse_scalar(largest) == rational(2**MAX_POWER_BITS - 1)
    for text in (str(2**MAX_POWER_BITS), "7" * 1300, "9" * 5000, f"zeta({'4' * 5000})"):
        with pytest.raises(ParseError, match=f"exceeds the bit-size cap {MAX_POWER_BITS}"):
            parse_scalar(text)
    with pytest.raises(ParseError, match=r"integer literal 77777777\.\.\. exceeds"):
        parse_linear_form("x0 + " + "7" * 1300 + "*x1")


def test_scalar_rejects_coordinates():
    with pytest.raises(ParseError):
        parse_scalar("x0 + 1")


def test_linear_form():
    vec = parse_linear_form("x0 + zeta(8)*x1")
    assert vec[0] == 1 and vec[1] == zeta(8)
    assert vec[2].is_zero() and vec[3].is_zero()
    with pytest.raises(ParseError):
        parse_linear_form("x0*x1")  # nonlinear
    with pytest.raises(ParseError):
        parse_linear_form("x0 + 1")  # affine constant
    with pytest.raises(ParseError):
        parse_linear_form("3 - 2")  # no coordinates at all


PHI = {1: 1, 3: 2, 5: 4, 8: 4, 28: 12, 37: 36, 40: 16}


def _pin(order, terms=None, den=1):
    """(order, nums, den) of a value given by its nonzero numerators {i: c}."""
    terms = terms or {}
    return order, tuple(terms.get(i, 0) for i in range(PHI[order])), den


NIL = _pin(1)

# Forms outside the monomial reader's shapes, each with the exact
# (order, nums, den) of every coefficient: rationals times roots, zeros of
# dividing and non-dividing orders added to values, quotients, powers of
# sums and conductor descent
PINNED_FORMS = {
    "3*zeta(40)^13*x1 + zeta(8)/2*x0": (_pin(8, {1: 1}, 2), _pin(40, {13: 3}), NIL, NIL),
    "zeta(8)/2*x0": (_pin(8, {1: 1}, 2), NIL, NIL, NIL),
    "0*zeta(8)*x1 + zeta(40)*x1": (NIL, _pin(40, {1: 1}), NIL, NIL),
    "(zeta(5) - zeta(5))*x0 + zeta(8)*x0": (_pin(40, {5: 1}), NIL, NIL, NIL),
    "x0 + zeta(8)*x1 + 2*zeta(40) - 2*zeta(40)": (_pin(1, {0: 1}), _pin(8, {1: 1}), NIL, NIL),
    "(1 + zeta(8))^2*x2 - x3/zeta(5)": (
        NIL, NIL, _pin(8, {0: 1, 1: 2, 2: 1}), _pin(5, {0: 1, 1: 1, 2: 1, 3: 1})),
    "zeta(8)^2*zeta(7)*x0 + x1": (_pin(28, {11: 1}), _pin(1, {0: 1}), NIL, NIL),
    "x0/3 + (zeta(40)^13 - zeta(40)^13)*x3": (_pin(1, {0: 1}, 3), NIL, NIL, _pin(40)),
    "2*(x0 + zeta(5)*x1)/7": (_pin(1, {0: 2}, 7), _pin(5, {1: 2}, 7), NIL, NIL),
    "(zeta(8)*x0 - x1)*zeta(5)^2": (_pin(40, {1: -1}), _pin(5, {2: -1}), NIL, NIL),
}

PINNED_SCALARS = {
    "(3*zeta(40)^7/2)^5": _pin(40, {15: -243}, 32),
    "zeta(40)^999": _pin(40, {3: 1, 7: -1, 11: 1, 15: -1}),
    "zeta(8)^-3": _pin(8, {1: -1}),
    "(2*zeta(37)^35/5)^40": _pin(37, {31: 2**40}, 5**40),
    "(1 + zeta(8))^5": _pin(8, {0: -4, 1: 4, 2: 10, 3: 10}),
    "1/(zeta(40) + 1)": _pin(40, {4: 1, 5: -1, 6: 1, 7: -1, 12: 1, 13: -1, 14: 1, 15: -1}),
    "zeta(8)^2*zeta(7)": _pin(28, {11: 1}),
    "(zeta(5) - zeta(5))*zeta(8)": _pin(40),
    "zeta(5) + (zeta(8) - zeta(8))": _pin(40, {8: 1}),
    "0 - zeta(40)^3": _pin(40, {3: -1}),
    "zeta(4) - zeta(8)^2": _pin(8),
    "2/3*zeta(5)^2 - 1/6": _pin(5, {0: -1, 2: 4}, 6),
    "zeta(7)^7 + zeta(8)^8": _pin(1, {0: 2}),
    "(zeta(3) + zeta(3)^2)^7": _pin(3, {0: -1}),
    "(1 + zeta(8))^0": _pin(8, {0: 1}),
    "(zeta(8)/3 - 1)^1": _pin(8, {0: -3, 1: 1}, 3),
    "(zeta(8)/3 - 1)^6": _pin(8, {0: 594, 1: -1440, 2: 1214, 3: -540}, 729),
    "3/zeta(8)^2*zeta(5)": _pin(40, {2: 3, 6: -3, 10: 3, 14: -3}),
    "-(zeta(8)/3)^2": _pin(8, {2: -1}, 9),
}


def _rep(c):
    return c.order, c.nums, c.den


@pytest.mark.parametrize("text", sorted(PINNED_FORMS))
def test_grammar_forms_keep_their_pinned_values(text):
    assert _monomial_form(text) is None  # the grammar reads it
    assert tuple(map(_rep, parse_linear_form(text))) == PINNED_FORMS[text]


@pytest.mark.parametrize("text", sorted(PINNED_SCALARS))
def test_grammar_scalars_keep_their_pinned_values(text):
    assert _rep(parse_scalar(text)) == PINNED_SCALARS[text]


def test_line_literal():
    line = parse_line("line: x0 + x1 ; x2 + x3")
    direct = Line(
        (rational(1), rational(1), rational(0), rational(0)),
        (rational(0), rational(0), rational(1), rational(1)),
    )
    assert line == direct
    assert parse_line("x0+x1;x2+x3") == direct
    with pytest.raises(ParseError):
        parse_line("x0 + x1")  # only one form
    with pytest.raises(ParseError):
        parse_line("x0+x1 ; x2+x3 ; x0")


def test_line_literal_with_cyclotomic_coefficients():
    line = parse_line("x0 + zeta(5)^4*x3 ; x1 + x2")
    xi = zeta(5)
    direct = Line(
        (rational(1), rational(0), rational(0), xi**4),
        (rational(0), rational(1), rational(1), rational(0)),
    )
    assert line == direct


def test_divisor_expressions(fermat5):
    d = parse_divisor("2*H - L[01|23](0,0) - L[02|13](0,1)", fermat5)
    assert d.coeffs[0] == 2
    assert d.coeffs[fermat5.index("L[01|23](0,0)")] == -1
    # whitespace-insensitive
    same = parse_divisor("  2 * H  -  L[01|23](0,0)-L[02|13](0,1) ", fermat5)
    assert d == same
    # repeated names accumulate
    acc = parse_divisor("H + H - H", fermat5)
    assert acc == fermat5.hyperplane_class


def test_divisor_unknown_name_lists_generators(fermat5):
    with pytest.raises(ParseError) as err:
        parse_divisor("2*H + Q", fermat5)
    assert "valid names" in str(err.value)
    assert "L[01|23](0,0)" in str(err.value)


def test_divisor_rejects_bare_integers(fermat5):
    with pytest.raises(ParseError):
        parse_divisor("3", fermat5)


def test_format_roundtrip(fermat5):
    for text in (
        "H",
        "2*H - L[01|23](0,0)",
        "-H + 3*L[03|12](4,0)",
        "0",
    ):
        if text == "0":
            d = fermat5.zero_class()
        else:
            d = parse_divisor(text, fermat5)
        assert parse_divisor(format_divisor(d), fermat5) == d if text != "0" else True
        assert format_divisor(d) == str(d)
    assert format_divisor(fermat5.zero_class()) == "0"


@pytest.mark.parametrize("d", (4, 5))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_format_then_parse_is_the_identity_on_random_classes(d, data):
    model = fermat_model(d)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=model.ngens, max_size=model.ngens))
    cls = model.class_of(coeffs)
    assert parse_divisor(format_divisor(cls), model) == cls


def test_the_zero_class_round_trips(fermat5):
    assert format_divisor(fermat5.zero_class()) == "0"
    assert parse_divisor(" 0 ", fermat5) == fermat5.zero_class()
    with pytest.raises(ParseError, match="a bare integer is not a divisor term"):
        parse_divisor("3", fermat5)
