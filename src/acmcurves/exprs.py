"""Parsers for the textual interfaces.

Scalar grammar (used for line coefficients and standalone values):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | atom ("^" integer)?
    atom   := integer | "zeta(" integer ")" | "x0".."x3" | "(" expr ")"

Every value is bounded by MAX_POWER_BITS bits, the largest bit length of
its numerators and its denominator, so no expression can stall the process.
An integer literal over that cap is a ParseError, refused by the length of
its digit string before it is converted.  A power "^" takes an exponent of
at most MAX_EXPONENT, and its result must fit the cap.  A division, and a
negative exponent, invert by the norm, whose size is about phi(n) times
the divisor's bit size: that product must fit the cap before the inverse is
computed, and the inverse must fit it after.

A linear form evaluates to one sparse map from the coordinates that occur,
and from a scalar part if one occurs, to their coefficients.  Scaling and
adding touch only those keys, so "3*zeta(40)^13*x1 + x0" never lifts the
zero coefficients of x2 and x3 to order 40, and a coordinate term carries
no zero scalar part into its products.  A scalar part that cancels, as in
"x0 + zeta(8)*x1 + 2*zeta(40) - 2*zeta(40)", leaves the coefficients at the
orders of the coordinate terms alone.

A monomial form, a sum of terms [c*][zeta(n)[^e]*]x_i such as
"x0 - 3*zeta(40)^13*x1", is read in one regex pass (_monomial_form), with
the values the grammar would give.  So is a plane combination of monomial
forms, whose terms may also be [c*][zeta(n)[^e]*](f) with f a monomial form,
as in "zeta(8)^6*(x1 + 2*zeta(5)^4*x0) - 3*(x0 + x2)".  Everything else,
every error included, goes through the grammar.

Line literals are two forms separated by ";", with an optional "line:"
prefix.  Divisor expressions are signed integer combinations of a model's
generator names, e.g. "2*H - L[01|23](0,0)", or "0" for the zero class;
whitespace is ignored and an unknown name is rejected together with the
list of valid generators.
"""

import re
from math import lcm

from .cyclo import MAX_ORDER, ONE, ZERO, _wrap, get_order, rational, zeta
from .geometry import Line


class ParseError(ValueError):
    pass


MAX_EXPONENT = 1000
MAX_POWER_BITS = 4096


def _bits(c):
    """Largest bit length among the numerators and the denominator of c."""
    return max(c.den.bit_length(), *(abs(v).bit_length() for v in c.nums))


def _over_cap(what):
    return ParseError(f"{what} exceeds the bit-size cap {MAX_POWER_BITS}")


def _capped(value, what):
    if _bits(value) > MAX_POWER_BITS:
        raise _over_cap(what)
    return value


def _inverse(value, what):
    """1/value within the bit-size cap; a zero, divided by or raised to a
    negative power, is a ParseError.  The norm that the inverse divides by
    has about phi(n)*bits(value) bits: refuse before computing it, and check
    the inverse itself after."""
    if value.is_zero():
        raise ParseError("division by zero")
    if len(value.nums) * _bits(value) > MAX_POWER_BITS:
        raise _over_cap(what)
    return _capped(value.inverse(), what)


def _power(base, exponent):
    """base^exponent within the bit-size cap; |exponent| <= MAX_EXPONENT."""
    if exponent < 0:
        base, exponent = _inverse(base, "a power"), -exponent
    # |x^e| < 2^(e*bits(x)) for rationals: refuse before computing; the
    # check after the power covers the growth of cyclotomic coefficients
    if exponent * _bits(base) > MAX_POWER_BITS:
        raise _over_cap("a power")
    return _capped(base**exponent, "a power")


# 2^MAX_POWER_BITS has this many decimal digits, so any longer integer
# literal is over the cap; shorter ones are checked after int()
MAX_LITERAL_DIGITS = len(str(2**MAX_POWER_BITS))


def _integer(token):
    """An integer literal within the bit-size cap, refused before int() when
    its digit string is too long."""
    if len(token) > MAX_LITERAL_DIGITS or int(token).bit_length() > MAX_POWER_BITS:
        shown = token if len(token) <= 8 else token[:8] + "..."
        raise _over_cap(f"integer literal {shown}")
    return int(token)


_TOKEN = re.compile(r"\s*(zeta|x[0-3]|\d+|[()+\-*/^])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected input at {text[pos:].strip()[:20]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


_SCALAR = 4  # the key of a linear value's scalar part


class _LinValue:
    """A linear value in x0..x3 as one sparse map; products must stay linear.

    terms maps a coordinate index, or _SCALAR for the scalar part, to its
    coefficient, and an absent key is zero, so x1 is {1: ONE} and the scalar
    c, _LinValue(c), is {_SCALAR: c}.  Scaling, adding and negating touch
    only the keys that occur: a coordinate term has no scalar part to
    multiply, and "3*zeta(40)^13*x1 + x0" never lifts the zero coefficients
    of x2 and x3.
    The scalar part takes the operations a dense evaluation gives it, except
    that coordinates which cancel never meet it: "(x0 - x0)*zeta(40) + 1" is
    1 at order 1, the same value that the dense evaluation has at order 40.
    """

    __slots__ = ("terms",)

    def __init__(self, const=ZERO, terms=None):
        self.terms = {_SCALAR: const} if terms is None else terms

    @staticmethod
    def coordinate(i):
        return _LinValue(terms={i: ONE})

    @property
    def const(self):
        return self.terms.get(_SCALAR, ZERO)

    def is_scalar(self):
        return all(c.is_zero() for i, c in self.terms.items() if i != _SCALAR)

    def _scaled(self, s):
        return _LinValue(terms={i: c * s for i, c in self.terms.items()})

    def __add__(self, other):
        terms = dict(self.terms)
        for i, c in other.terms.items():
            terms[i] = terms[i] + c if i in terms else c
        return _LinValue(terms=terms)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _LinValue(terms={i: -c for i, c in self.terms.items()})

    def __mul__(self, other):
        if other.is_scalar():
            return self._scaled(other.const)
        if self.is_scalar():
            return other * self
        raise ParseError("nonlinear product of coordinates")

    def __truediv__(self, other):
        if not other.is_scalar():
            raise ParseError("division by a coordinate expression")
        return self._scaled(_inverse(other.const, "a quotient"))


class _Parser:
    # the type of parsed values: a scalar is value_type(const) and x_i is
    # value_type.coordinate(i)
    value_type = _LinValue

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse_expr(self):
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_factor(self):
        if self.peek() == "-":
            self.take()
            return -self.parse_factor()
        value = self.parse_atom()
        while self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            e = self.take()
            if not e.isdigit():
                raise ParseError(f"exponent must be an integer, found {e!r}")
            if not value.is_scalar():
                raise ParseError("coordinates cannot be raised to powers here")
            # the length test keeps int() off arbitrarily long digit strings
            if len(e) > len(str(MAX_EXPONENT)) or int(e) > MAX_EXPONENT:
                shown = e if len(e) <= 8 else e[:8] + "..."
                raise ParseError(f"exponent {shown} exceeds the cap {MAX_EXPONENT}")
            value = self.value_type(_power(value.const, sign * int(e)))
        return value

    def parse_atom(self):
        tok = self.take()
        if tok.isdigit():
            return self.value_type(rational(_integer(tok)))
        if tok == "zeta":
            self.take("(")
            n = self.take()
            if not n.isdigit():
                raise ParseError(f"zeta order must be an integer, found {n!r}")
            self.take(")")
            return self.value_type(zeta(_integer(n)))
        if tok in ("x0", "x1", "x2", "x3"):
            return self.value_type.coordinate(int(tok[1]))
        if tok == "(":
            value = self.parse_expr()
            self.take(")")
            return value
        raise ParseError(f"unexpected token {tok!r}")


def _parse(text, parser_type=_Parser):
    parser = parser_type(_tokenize(text))
    try:
        value = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if parser.peek() is not None:
        raise ParseError(f"trailing input starting at {parser.peek()!r}")
    return value


def parse_scalar(text):
    """An exact scalar value, e.g. "1/2 - zeta(8)^3"."""
    value = _parse(text)
    if not value.is_scalar():
        raise ParseError("expected a scalar, found coordinates")
    return value.const


# The reader's bounds: a coefficient of at most this many digits, far below
# the bit-size cap, and an exponent of fewer digits than MAX_EXPONENT has,
# so e < MAX_EXPONENT.
_COEFF_DIGITS = 9
_EXPONENT_DIGITS = len(str(MAX_EXPONENT)) - 1

# One term of a form: sign, coefficient, root order and exponent, then a
# coordinate or the "(" of a parenthesised form; a ")" is a term of its own.
# Whitespace goes where the tokenizer allows it, but only after a token or at
# the start of the text, so no two \s* meet: each run of it has one reading
# and a failed match costs time linear in the text.
_MONOMIAL = re.compile(
    rf"(?:\A\s*)?(?:([+-])\s*)?(?:(\d{{1,{_COEFF_DIGITS}}})\s*\*\s*)?"
    rf"(?:zeta\s*\(\s*(\d{{1,2}})\s*\)\s*(?:\^\s*(\d{{1,{_EXPONENT_DIGITS}}})\s*)?\*\s*)?"
    r"(?:x([0-3])|(\())\s*|\)\s*"
)


def _monomial_form(text):
    """The coefficients of a sum of terms [c*][zeta(n)[^e]*]x_i and
    [c*][zeta(n)[^e]*](f), f a sum of the first kind, each at the order and
    in the representation the grammar gives, or None for any other text.

    Each term scales its coordinate by a monomial, the prefix times the inner
    monomial for a term of f, read off the power rows at the lcm of their
    orders as the grammar's product gives it.  Terms on one coordinate are
    summed left to right with the grammar's +.  An order over the cap, a
    leading "+", a coordinate written twice in one sum, and a sum whose
    coefficients are all zero are None, so the grammar descends, sums or
    refuses them; it reads an all-zero (f) as a scalar, which drops the
    coordinates it scales.
    """
    coeffs = [None] * 4
    form, group = set(), None  # the coordinates of the form's own terms and of an open "("
    first, pos = True, 0
    for m in _MONOMIAL.finditer(text):
        sign, c, n, e, i, opening = m.groups()
        if m.start() != pos:
            return None
        pos = m.end()
        if not (i or opening):  # ")"
            if not (group and any(group.values())):
                return None
            first, group = False, None
            continue
        n = int(n) if n else 1
        if (sign == "+" if first else not sign) or not 0 < n <= MAX_ORDER:
            return None
        c, e = -int(c or 1) if sign == "-" else int(c or 1), int(e or 1)
        first = bool(opening)
        if opening:
            if group is not None:
                return None
            group, prefix = {}, (n, c, e)
            continue
        i = int(i)
        if i in (form if group is None else group):
            return None
        if group is None:
            form.add(i)
        else:
            group[i] = c
            k, d, f = prefix
            order = lcm(k, n)
            n, c, e = order, d * c, f * (order // k) + e * (order // n)
        if (n if coeffs[i] is None else lcm(n, coeffs[i].order)) > MAX_ORDER:
            return None
        value = _wrap(n, tuple(c * r for r in get_order(n).power_rows[e % n]), 1)
        coeffs[i] = value if coeffs[i] is None else coeffs[i] + value
    if pos != len(text) or group is not None or not any(coeffs):  # None and a zero are false
        return None
    return tuple(ZERO if c is None else c for c in coeffs)


def parse_linear_form(text):
    """Coefficients of a linear form in x0..x3."""
    coeffs = _monomial_form(text)
    if coeffs is not None:
        return coeffs
    value = _parse(text)
    if not value.const.is_zero():
        raise ParseError("a projective linear form cannot have a constant term")
    if value.is_scalar():
        raise ParseError("the form has no coordinate part")
    return tuple(value.terms.get(i, ZERO) for i in range(4))


def parse_line(text):
    """A line literal: two forms separated by ";", optional "line:" prefix."""
    body = text.strip()
    if body.lower().startswith("line:"):
        body = body[5:]
    pieces = body.split(";")
    if len(pieces) != 2:
        raise ParseError('a line literal needs exactly two forms separated by ";"')
    return Line(parse_linear_form(pieces[0]), parse_linear_form(pieces[1]))


_NAME_SPLIT = re.compile(r"(?<![(,])[+-]")


def parse_divisor(text, model):
    """Integer combination of generator names over the given model."""
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty divisor expression")
    if compact == "0":  # format_divisor's text for the zero class
        return model.zero_class()
    terms = []
    start = 0
    for m in _NAME_SPLIT.finditer(compact, 1):
        terms.append(compact[start : m.start()])
        start = m.start()
    terms.append(compact[start:])
    coeffs = {}
    for term in terms:
        if not term or term in "+-":
            raise ParseError(f"malformed term in divisor expression {text!r}")
        sign = 1
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign = -1
            term = term[1:]
        mult = 1
        m = re.match(r"(\d+)\*?", term)
        if m:
            mult = _integer(m.group(1))
            term = term[m.end() :]
        if not term:
            raise ParseError("a bare integer is not a divisor term; name a generator")
        try:
            idx = model.index(term)
        except ValueError as exc:  # the model's unknown-generator message
            raise ParseError(str(exc)) from None
        coeffs[idx] = coeffs.get(idx, 0) + sign * mult
    return model._class_of_terms({i: c for i, c in coeffs.items() if c})


def format_divisor(d):
    """Inverse of parse_divisor, canonical generator order."""
    bits = []
    for i, c in sorted(d._terms.items()):
        name = d.model.generators[i]
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        if not bits:
            bits.append(body if c > 0 else f"-{body}")
        else:
            bits.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(bits) if bits else "0"
