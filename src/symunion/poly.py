"""Exact integer Laurent polynomials in t and Conway polynomials in z.

Alexander polynomials are only defined up to units ±t^k, so this module also
fixes a canonical representative (``normalize_alexander``) and converts
the t-form to the z-form. It holds the coefficient kernel both invariant
engines use: the product of {exponent: coefficient} maps (``addmul``), and
the packed form of sum c_j x^j, its value at x = 2^B (Kronecker
substitution), whose sums, products and shifts are those of the
polynomials (``width``, ``pack``, ``unpack``). Everything here is exact
integer arithmetic; any rounding would make the downstream certificates
worthless.
"""

from __future__ import annotations

from typing import Iterable, Mapping


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


def coeff_map(coeffs: Mapping[int, int]) -> dict[int, int]:
    """coeffs as a new {exponent: coefficient} dict without its zero
    coefficients. Raises TypeError unless every exponent and coefficient
    is an int; a bool is not one."""
    c: dict[int, int] = {}
    for e, v in coeffs.items():
        if type(e) is not int:
            _check_int(e, "exponent")
        if type(v) is not int:
            _check_int(v, "coefficient")
        if v:
            c[e] = v
    return c


# The fewest term pairs len(f) * len(a) at which addmul multiplies packed
# integers rather than term by term; measured on both sides in CHANGES.md.
_PACK_PAIRS = 1024


def addmul(acc: dict[int, int], f: Mapping[int, int], a: Mapping[int, int]) -> None:
    """acc += f * a in place, for {exponent: coefficient} maps with no zero
    coefficient; a coefficient that cancels to zero is dropped.

    From _PACK_PAIRS term pairs on, _addmul_packed packs acc, f and a at
    one width and makes the sum one integer product and add (Kronecker
    substitution; Harvey, JSC 2009). The width is proven: the coefficient
    of f * a at e is sum_i f_i a_(e-i), at most ||f||_1 max|a|, so every
    coefficient of acc + f * a is at most ||f||_1 max|a| + max|acc|, and
    width() of that bound reads each one back as a balanced digit."""
    if len(f) * len(a) >= _PACK_PAIRS and _addmul_packed(acc, f, a):
        return
    for e1, v1 in f.items():
        for e2, v2 in a.items():
            e = e1 + e2
            w = acc.get(e, 0) + v1 * v2
            if w:
                acc[e] = w
            else:
                del acc[e]


def _addmul_packed(acc: dict[int, int], f: Mapping[int, int], a: Mapping[int, int]) -> bool:
    """The packed product of addmul, read back by unpack. False, with acc
    unchanged, when the sum spans more exponents than there are term
    pairs, where the packed integers would be mostly empty slots."""
    lf, la = min(f), min(a)
    lo, hi = lf + la, max(f) + max(a)
    if acc:
        lo, hi = min(lo, min(acc)), max(hi, max(acc))
    if hi - lo > len(f) * len(a):
        return False
    bits = width(
        sum(map(abs, f.values())) * max(map(abs, a.values()))
        + max(map(abs, acc.values()), default=0)
    )
    p = pack(acc.items(), bits, lo) + (
        pack(f.items(), bits, lf) * pack(a.items(), bits, la) << bits * (lf + la - lo)
    )
    acc.clear()
    acc.update((lo + j, c) for j, c in enumerate(unpack(p, bits)) if c)
    return True


def width(bound: int) -> int:
    """The slot width B for coefficients of size at most bound: B - 1 is the
    bit length of bound, so each such coefficient is below 2^(B - 1)."""
    return bound.bit_length() + 1


# The fewest slots at which pack and unpack split their input in halves
# rather than take one loop, whose every step costs the size of the whole
# integer; measured on both sides in CHANGES.md.
_SPLIT_SLOTS = 128


def pack(pairs: Iterable[tuple[int, int]], bits: int, lo: int = 0) -> int:
    """sum c 2^(bits (j - lo)) over the (j, c) pairs, j >= lo: the
    polynomial sum c x^(j - lo) at x = 2^bits. From _SPLIT_SLOTS pairs on,
    the pairs are sorted by j and each half is packed from its own lowest j,
    so the sums cost the size of their halves."""
    pairs = list(pairs)
    if len(pairs) < _SPLIT_SLOTS:
        out = 0
        for j, c in pairs:
            out += c << bits * (j - lo)
        return out
    pairs.sort()
    h = len(pairs) // 2
    mid = pairs[h][0]
    return pack(pairs[:h], bits, lo) + (pack(pairs[h:], bits, mid) << bits * (mid - lo))


def unpack(p: int, bits: int) -> tuple[int, ...]:
    """The coefficients packed in p at width bits, lowest first, read as
    balanced digits: each lies in [-2^(bits-1), 2^(bits-1)). No trailing
    zero is returned; 0 unpacks to ().

    From _SPLIT_SLOTS slots on, p is split after its first h slots. The
    loop's digit j depends only on p mod 2^(bits (j + 1)), so r = p mod
    2^(bits h) unpacks to p's first h digits, then a carry: their value L
    lies in (-2^(bits h), 2^(bits h - 1)), so r = L, or r = L + 2^(bits h)
    with one more digit 1. p's other digits are those of (p - L) / 2^(bits h)
    = floor(p / 2^(bits h)) + carry, which is not 0 as p has 2h slots or
    more. (L need not be the balanced residue of p mod 2^(bits h): a top
    digit of -2^(bits - 1) can take it below -2^(bits h - 1).)"""
    n = p.bit_length() // bits
    if n < _SPLIT_SLOTS:
        mask, half = (1 << bits) - 1, 1 << (bits - 1)
        out = []
        while p:
            c = p & mask
            if c >= half:
                c -= mask + 1
            out.append(c)
            p = (p - c) >> bits
        return tuple(out)
    h = n // 2
    low = unpack(p & (1 << bits * h) - 1, bits)
    high = unpack((p >> bits * h) + (len(low) > h), bits)
    return low[:h] + (0,) * (h - len(low)) + high


class _IntPoly:
    """Ring code shared by the two polynomial types: a sparse map from
    exponent to nonzero integer coefficient. Immutable; equality and
    hashing go by the coefficient map, and the two types never compare
    equal or mix in arithmetic."""

    __slots__ = ("_c",)
    _VAR = ""

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._c = coeff_map(coeffs) if coeffs else {}

    @classmethod
    def _of(cls, c: dict[int, int]):
        """The polynomial with coefficient map c, taken as it is: c has only
        int keys and nonzero int values, and no one else changes it."""
        out = cls.__new__(cls)
        out._c = c
        return out

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

    def to_dict(self) -> dict[int, int]:
        """The coefficient map {exponent: coefficient}, as a new dict in no
        particular order."""
        return dict(self._c)

    def __add__(self, other):
        cls = type(self)
        if type(other) is not cls:
            return NotImplemented
        c = dict(self._c)
        addmul(c, other._c, {0: 1})  # c += other * 1
        return cls._of(c)

    def __mul__(self, other):
        cls = type(self)
        if isinstance(other, int) and not isinstance(other, bool):
            other = cls({0: other})
        if type(other) is not cls:
            return NotImplemented
        c: dict[int, int] = {}
        addmul(c, self._c, other._c)
        return cls._of(c)

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
        return LaurentPoly._of({e: -v for e, v in self._c.items()})

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
        return LaurentPoly._of({e + k: v for e, v in self._c.items()})

    def inverted(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        return LaurentPoly._of({-e: v for e, v in self._c.items()})

    def evaluate(self, x: int) -> int:
        """Value at an integer point; exact. Raises ValueError where the
        value is not an integer (negative exponents at |x| > 1)."""
        _check_int(x, "point")
        if abs(x) == 1 or min(self._c, default=0) >= 0:
            # x^e = x^|e| when |x| = 1
            return sum(v * x ** abs(e) for e, v in self._c.items())
        if x == 0:
            raise ZeroDivisionError("negative exponents at t=0")
        lo = self.min_exp()
        q, r = divmod(sum(v * x ** (e - lo) for e, v in self._c.items()), x**-lo)
        if r:
            raise ValueError(f"{self.text()} at t={x} is not an integer")
        return q


class ConwayPoly(_IntPoly):
    """Polynomial in z with integer coefficients and exponents >= 0."""

    __slots__ = ()
    _VAR = "z"

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        super().__init__(coeffs)
        if any(e < 0 for e in self._c):
            raise ValueError("Conway polynomials have no negative powers")


# -- Alexander canonical form ------------------------------------------------


def normalize_alexander(p: LaurentPoly, knot: bool = False) -> LaurentPoly:
    """Canonical representative of p among its unit multiples ±t^k.

    Position: exponents centered about 0 when the span is even, else the
    lowest exponent is moved to 0. Sign: the value at 1 is made +1 when it
    is ±1 (always the case for knots), kept positive otherwise, and for
    value 0 the top coefficient is made positive. Zero passes through.

    With knot=True, zero or a value at 1 other than ±1 raises
    NotNormalizable, which signals a bug upstream rather than bad user
    input; knot=False accepts both.
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


# -- Conway conversion --------------------------------------------------------


def conway_from_alexander(p: LaurentPoly) -> ConwayPoly:
    """The unique even-power z-form with p(t) = nabla(z) under z^2 = t - 2 + 1/t.

    Input is taken up to units: it is canonicalized with
    ``normalize_alexander`` first, and must then be palindromic.
    Only the knot case is implemented; link closures are handled by the
    callers that know when their contribution is forced to zero.

    The peel works on the coefficients c[e] of t^e for e >= 0, which fix
    a palindrome. It takes the top exponent k and subtracts c[k] times
    z^(2k) = (t - 2 + 1/t)^k = sum_i (-1)^i C(2k, i) t^(k-i), whose
    terms at i <= k are the ones at t^0 and above.
    """
    if p.is_zero():
        raise NotSymmetric("zero polynomial does not arise from a knot")
    q = normalize_alexander(p, knot=True)
    if q.inverted() != q:
        raise NotSymmetric(f"not palindromic after centering: {q.text()}")
    c = [q.coeff(e) for e in range(q.max_exp() + 1)]
    out: dict[int, int] = {}
    for k in range(len(c) - 1, -1, -1):
        a = b = c[k]
        if not a:
            continue
        out[2 * k] = a
        for i in range(k + 1):
            c[k - i] -= b
            b = -b * (2 * k - i) // (i + 1)  # a (-1)^(i+1) C(2k, i+1), exact
    nabla = ConwayPoly(out)
    if nabla.coeff(0) != 1:
        raise NotNormalizable("constant term of the z-form is not 1")
    return nabla


# -- text form ----------------------------------------------------------------


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
