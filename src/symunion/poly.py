"""Exact integer Laurent polynomials in t and Conway polynomials in z.

Alexander polynomials are only defined up to units ±t^k, so this module also
fixes a canonical representative (``normalize_alexander``) and converts
between the t-form and the z-form. Everything here is exact integer
arithmetic; any rounding would make the downstream certificates worthless.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping


class PolyError(Exception):
    """Base class for polynomial-layer failures."""


class NotNormalizable(PolyError):
    """A value that should have come from a knot has |p(1)| != 1."""


class NotSymmetric(PolyError):
    """Conway conversion needs a centered palindromic polynomial."""


class NonIntegralSolution(PolyError):
    """Exact arithmetic produced a non-integer where one was required."""


class ZeroPolynomial(PolyError):
    """Operation undefined for the zero polynomial."""


def _check_int(v: object, what: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"{what} must be int, got {v!r}")
    return v


class _IntPoly:
    """Ring code shared by the two polynomial types: a sparse map from
    exponent to nonzero integer coefficient. Immutable; equality and
    hashing go by the coefficient map, and the two types never compare
    equal or mix in arithmetic."""

    __slots__ = ("_c",)
    _VAR = ""

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c: dict[int, int] = {}
        if coeffs:
            for e, v in coeffs.items():
                _check_int(e, "exponent")
                _check_int(v, "coefficient")
                if v:
                    c[e] = v
        self._c = c

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._c.items()))

    def __add__(self, other):
        cls = type(self)
        if type(other) is not cls:
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        out = cls.__new__(cls)
        out._c = c
        return out

    def __mul__(self, other):
        cls = type(self)
        if isinstance(other, int) and not isinstance(other, bool):
            other = cls({0: other})
        if type(other) is not cls:
            return NotImplemented
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                else:
                    c.pop(e, None)
        out = cls.__new__(cls)
        out._c = c
        return out

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash((self._VAR, frozenset(self._c.items())))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()!r})"

    def text(self) -> str:
        return _terms_text(self.items(), self._VAR)


class LaurentPoly(_IntPoly):
    """Polynomial in t and 1/t with integer coefficients."""

    __slots__ = ()
    _VAR = "t"

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    # -- structure ---------------------------------------------------------

    def min_exp(self) -> int:
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no exponents")
        return min(self._c)

    def max_exp(self) -> int:
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no exponents")
        return max(self._c)

    # -- ring operations ---------------------------------------------------

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __pow__(self, n: int) -> "LaurentPoly":
        _check_int(n, "power")
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- transforms --------------------------------------------------------

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e + k: v for e, v in self._c.items()}
        return out

    def inverted(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {-e: v for e, v in self._c.items()}
        return out

    def evaluate(self, x):
        """Evaluate at an integer or Fraction; exact. Integer arithmetic
        unless the value can be a fraction: at a Fraction, or with negative
        exponents at |x| != 1."""
        if x == 0 and self._c and self.min_exp() < 0:
            raise ZeroDivisionError("negative exponents at t=0")
        if isinstance(x, int) and (abs(x) == 1 or min(self._c, default=0) >= 0):
            # x^e = x^|e| when |x| = 1
            return sum(v * x ** abs(e) for e, v in self._c.items())
        acc = Fraction(0)
        xf = Fraction(x)
        for e, v in self._c.items():
            if e >= 0:
                acc += v * xf**e
            else:
                acc += Fraction(v, 1) / xf ** (-e)
        if acc.denominator == 1:
            return int(acc)
        return acc

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in the Laurent ring by integer long division;
        raises if the division leaves a remainder or a non-integer
        coefficient."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        sh = self.min_exp()
        oh = other.min_exp()
        num = {e - sh: v for e, v in self._c.items()}
        den = {e - oh: v for e, v in other._c.items()}
        dd = max(den)
        dl = den[dd]
        quot: dict[int, int] = {}
        while num:
            nd = max(num)
            if nd < dd:
                raise NonIntegralSolution("polynomial division left a remainder")
            q, rem = divmod(num[nd], dl)
            if rem:
                raise NonIntegralSolution("polynomial division produced a fraction")
            qe = nd - dd
            quot[qe + sh - oh] = q
            for e, v in den.items():
                e2 = e + qe
                w = num.get(e2, 0) - q * v
                if w:
                    num[e2] = w
                else:
                    num.pop(e2, None)
        return LaurentPoly(quot)


class ConwayPoly(_IntPoly):
    """Polynomial in z with integer coefficients and exponents >= 0."""

    __slots__ = ()
    _VAR = "z"

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        super().__init__(coeffs)
        if any(e < 0 for e in self._c):
            raise ValueError("Conway polynomials have no negative powers")


# -- Alexander canonical form ------------------------------------------------


def normalize_alexander(p: LaurentPoly, knot: bool | None = None) -> LaurentPoly:
    """Canonical representative of p among its unit multiples ±t^k.

    Position: exponents centered about 0 when the span is even, else the
    lowest exponent is moved to 0. Sign: the value at 1 is made +1 when it
    is ±1 (always the case for knots), kept positive otherwise, and for
    value 0 the top coefficient is made positive. Zero passes through.

    With knot=True a value at 1 other than ±1 raises NotNormalizable,
    which signals a bug upstream rather than bad user input.
    """
    if p.is_zero():
        if knot:
            raise NotNormalizable("a knot cannot have Alexander polynomial 0")
        return p
    lo = p.min_exp()
    span = p.max_exp() - lo
    if span % 2 == 0:
        q = p.shift(-(lo + span // 2))
    else:
        q = p.shift(-lo)
    s = q.evaluate(1)
    if knot and s not in (1, -1):
        raise NotNormalizable(f"value at 1 is {s}, expected ±1 for a knot")
    if s < 0:
        q = -q
    elif s == 0 and q.coeff(q.max_exp()) < 0:
        q = -q
    return q


def is_monic(p: LaurentPoly) -> bool:
    """True iff both the top and the bottom coefficient are ±1."""
    if p.is_zero():
        raise ZeroPolynomial("monicity undefined for 0")
    return abs(p.coeff(p.max_exp())) == 1 and abs(p.coeff(p.min_exp())) == 1


# -- Conway conversion --------------------------------------------------------

_ZSQ = LaurentPoly({1: 1, 0: -2, -1: 1})  # the image of z^2


def conway_from_alexander(p: LaurentPoly, knot: bool = True) -> ConwayPoly:
    """The unique even-power z-form with p(t) = nabla(z) under z^2 = t - 2 + 1/t.

    Input is taken up to units: it is canonicalized with
    ``normalize_alexander`` first, and must then be palindromic.
    Only the knot case is implemented; link closures are handled by the
    callers that know when their contribution is forced to zero.
    """
    if not knot:
        raise ValueError("only the knot case is implemented here")
    if p.is_zero():
        raise NotSymmetric("zero polynomial does not arise from a knot")
    q = normalize_alexander(p, knot=True)
    if q.inverted() != q:
        raise NotSymmetric(f"not palindromic after centering: {q.text()}")
    rem = q
    out: dict[int, int] = {}
    while not rem.is_zero():
        k = rem.max_exp()
        if k < 0:
            raise NonIntegralSolution("peeling left a non-palindromic residue")
        a = rem.coeff(k)
        if k == 0:
            out[0] = a
            rem = rem - LaurentPoly.term(a)
        else:
            out[2 * k] = a
            rem = rem - a * _ZSQ**k
    nabla = ConwayPoly(out)
    if nabla.coeff(0) != 1:
        raise NotNormalizable("constant term of the z-form is not 1")
    return nabla


def alexander_from_conway(n: ConwayPoly) -> LaurentPoly:
    """Substitute z^2 = t - 2 + 1/t. Defined for even powers only."""
    acc = LaurentPoly.zero()
    for e, v in n.items():
        if e % 2:
            raise ValueError("odd z-powers do not land in the t-ring")
        acc = acc + v * _ZSQ ** (e // 2)
    return acc


# -- text parsing -------------------------------------------------------------


def _terms_text(items, var: str) -> str:
    if not items:
        return "0"
    parts: list[str] = []
    for e, v in items:
        mag = abs(v)
        if e == 0:
            body = str(mag)
        else:
            vp = var if e == 1 else f"{var}^{e}"
            body = vp if mag == 1 else f"{mag}*{vp}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if v > 0 else f"- {body}")
    return " ".join(parts)


_TERM_RE = re.compile(
    r"^(?P<coeff>\d+)?(?:\*)?(?:(?P<var>[A-Za-z]+)(?:\^(?P<exp>-?\d+))?)?$"
)


def parse_poly(text: str, var: str = "t") -> LaurentPoly:
    """Parse the text form produced by ``LaurentPoly.text``."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty polynomial text")
    if tokens == ["0"]:
        return LaurentPoly.zero()
    coeffs: dict[int, int] = {}
    sign = 1
    expect_term = True
    for i, tok in enumerate(tokens):
        if not expect_term:
            if tok == "+":
                sign = 1
            elif tok == "-":
                sign = -1
            else:
                raise ValueError(f"expected + or - at token {i}: {tok!r}")
            expect_term = True
            continue
        if tok == "-":  # detached sign, as in "- t^-1 + 3 - t"
            sign = -sign
            continue
        body = tok
        if body.startswith("-"):
            sign = -sign
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"bad term {tok!r}")
        if m.group("var") is not None and m.group("var") != var:
            raise ValueError(f"unexpected variable {m.group('var')!r}")
        c = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("var") is None:
            e = 0
        elif m.group("exp") is None:
            e = 1
        else:
            e = int(m.group("exp"))
        coeffs[e] = coeffs.get(e, 0) + sign * c
        sign = 1
        expect_term = False
    if expect_term:
        raise ValueError("dangling sign at end of polynomial text")
    return LaurentPoly(coeffs)
