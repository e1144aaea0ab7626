"""Exact integer Laurent polynomials in t and Conway polynomials in z.

Alexander polynomials are only defined up to units ±t^k, so this module also
fixes a canonical representative (``normalize_alexander``) and converts
the t-form to the z-form. It holds the coefficient kernel both invariant
engines use: the product of {exponent: coefficient} maps (``addmul``), and
the packed form of sum c_j x^j, its value at x = 2^B (Kronecker
substitution), whose sums, products and shifts are those of the
polynomials (``width``, ``pack``, ``unpack``), and the one determinant
engine over Z[t, 1/t] built on that kernel (``det_laurent``), which both
Alexander routes and the fraction certificate's complement closures use.
Everything here is exact integer arithmetic; any rounding would make the
downstream certificates worthless.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
import math
from operator import mul
from typing import Iterable, Mapping, Sequence


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


# -- exact determinant -------------------------------------------------------------


def _check(cancel) -> None:
    """Poll cancel, a token whose check() raises once the computation is
    to stop (invariant.CancelToken), or None."""
    if cancel is not None:
        cancel.check()


def det_laurent(
    rows: Sequence[Mapping[int, Mapping[int, int]]], cancel=None
) -> LaurentPoly:
    """Determinant over Z[t, 1/t] of the n x n matrix whose row i holds
    rows[i] (column -> entry; a column left out is zero), each entry an
    {exp: coeff} map of ints. Zero coefficients are dropped, and an entry
    left with no coefficient is a zero entry; a bool, float or other
    non-int exponent or coefficient raises TypeError. The rows are not
    changed.

    Phase 1 (_unit_pivots) expands along unit pivots +-t^k while any is
    left: first in the columns with two live rows, where a pivot updates
    one other row, then in Markowitz order. Phase 2 (_block_det) takes the
    determinant of the block that is left by integer Bareiss at t = 2^B.
    The cancel token is polled once per pivot of either phase."""
    n = len(rows)
    if any(not 0 <= j < n for row in rows for j in row):
        raise ValueError("determinant needs a square matrix")
    found = _unit_pivots(rows, cancel)
    if found is None:
        return LaurentPoly.zero()
    unit, shift, block = found
    return _block_det(block, cancel).shift(shift) * unit


def _unit_pivots(
    rows: Sequence[Mapping[int, Mapping[int, int]]],
    cancel,
    keep: range = range(0),
) -> tuple[int, int, list[list[dict[int, int]]]] | None:
    """Phase 1 of det_laurent: eliminate along unit pivots. Returns
    (u, k, S) with det = u t^k det S, where S is the block left once no
    unit entry remains, as dense rows of {exp: coeff} maps; None when a row
    runs empty, so that det = 0. Works on checked copies of the entries.
    The columns in keep, a range after every other column, are never
    pivoted on. S keeps them last, and for a choice of them that makes the
    rows square, det = u t^k det S holds for the rows and S over their
    other columns and that choice.

    Phase 0 clears the columns outside keep with two live rows first: a
    pivot there updates one other row and needs no cost. A stack holds
    such columns, at first all of them in ascending order, and is popped
    from the top. A popped column that still has two rows pivots at the
    lower of its rows that holds a unit, and is skipped when neither does;
    the pivot row's columns left with two rows are then pushed, in
    ascending order.

    On what is left, the pivot is the unit entry of least Markowitz cost
    (r-1)(c-1), ties by row and then column index. A queue in two levels
    finds it: each column keeps a heap of (r-1, i) over its unit entries,
    whose head is the column's best, and one heap holds (cost, i, j) of
    the column heads. Every column's current head is in the queue at its
    current cost, so an entry popped at its current cost is the least.
    A pivot keeps that true by re-offering only what it changed. Besides
    its own column, which goes, it changes the count c only of its row's
    columns, and entries only in those columns, so those columns offer
    their head again. An updated row of the same length keeps its other
    heap entries valid and pushes only its units in the pivot row's
    columns. An updated row whose length changed pushes all its units at
    the new length, and their columns offer their head again; a column
    outside the pivot row's where it holds no unit held none before
    either, so the row was not that column's head. Stale heap entries are
    dropped when they come up. Each column marks the entry it last queued,
    and does not queue an equal one while that entry is in the queue;
    popping the marked entry clears the mark. Dividing by a unit is a
    shift.

    The sign of the expansion is that of the permutation taking the pivot
    rows, in the order they were taken, to the pivot columns: the parity of
    the row sequence XOR that of the column sequence, with S's rows and
    columns appended in increasing order."""
    cols = max(len(rows), keep.stop)
    free = cols - len(keep)
    m: dict[int, dict[int, dict[int, int]]] = {}
    users: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(rows):
        m[i] = mi = {}
        for j, p in row.items():
            q = {}
            for e, v in p.items():
                if type(e) is not int:
                    _check_int(e, "exponent")
                if type(v) is not int:
                    _check_int(v, "coefficient")
                if v:
                    q[e] = v
            if q:
                mi[j] = q
                users[j].add(i)
    if not all(m.values()):
        return None
    row_seq: list[int] = []
    col_seq: list[int] = []
    unit, shift = 1, 0
    # an entry has no zero coefficient, so it is a unit +-t^k when it has
    # one term in [-1, 1]
    stack = [j for j in range(free) if len(users[j]) == 2]
    while stack:
        c = stack.pop()
        pair = users[c]
        if len(pair) != 2:
            continue
        r, i = sorted(pair)
        p = m[r][c]
        if not (len(p) == 1 and -1 <= sum(p.values()) <= 1):
            r, i = i, r
            p = m[r][c]
            if not (len(p) == 1 and -1 <= sum(p.values()) <= 1):
                continue
        _check(cancel)
        prow = m.pop(r)
        del prow[c]
        ((k, u),) = p.items()
        unit, shift = unit * u, shift + k
        row_seq.append(r)
        col_seq.append(c)
        pair.clear()
        for j in prow:
            users[j].discard(r)
        row = m[i]
        _eliminate(row, i, prow, k, -u, c, users)
        if not row:
            return None
        stack.extend(j for j in sorted(prow) if j < free and len(users[j]) == 2)
    # column j's heap: (r - 1, i) of its unit entries
    column: list[list[tuple[int, int]]] = [[] for _ in range(free)]
    for i, row in m.items():
        r1 = len(row) - 1
        for j, p in row.items():
            if j < free and len(p) == 1 and -1 <= sum(p.values()) <= 1:
                column[j].append((r1, i))
    for h in column:
        heapify(h)
    queue: list[tuple[int, int, int]] = []
    queued: list[tuple[int, int, int] | None] = [None] * free
    touched: Iterable[int] = range(free)
    while True:
        # each touched column queues its head at its current cost, dropping
        # the heap entries of rows that have changed since they were pushed
        for j in touched:
            h = column[j]
            while h:
                r1, i = h[0]
                row = m.get(i)
                if row is not None and len(row) - 1 == r1:
                    p = row.get(j)
                    if p is not None and len(p) == 1 and -1 <= sum(p.values()) <= 1:
                        entry = r1 * (len(users[j]) - 1), i, j
                        if queued[j] != entry:
                            queued[j] = entry
                            heappush(queue, entry)
                        break
                heappop(h)
        while queue:
            entry = heappop(queue)
            key, r, c = entry
            if queued[c] is entry:
                queued[c] = None
            prow = m.get(r)
            if prow is None or key != (len(prow) - 1) * (len(users[c]) - 1):
                continue
            p = prow.get(c)
            if p is not None and len(p) == 1 and -1 <= sum(p.values()) <= 1:
                break
        else:
            break
        _check(cancel)
        del m[r]
        del prow[c]
        ((k, u),) = p.items()
        unit, shift, nu = unit * u, shift + k, -u
        row_seq.append(r)
        col_seq.append(c)
        for j in prow:
            users[j].discard(r)
        below = users[c]
        below.discard(r)
        touched = {j for j in prow if j < free}
        for i in below:
            row = m[i]
            before = len(row)
            _eliminate(row, i, prow, k, nu, c, users)
            if not row:
                return None
            r1 = len(row) - 1
            if r1 == before - 1:
                for j in prow:
                    p = row.get(j)
                    if p is not None and j < free and len(p) == 1 and -1 <= sum(p.values()) <= 1:
                        heappush(column[j], (r1, i))
            else:
                for j, p in row.items():
                    if j < free and len(p) == 1 and -1 <= sum(p.values()) <= 1:
                        heappush(column[j], (r1, i))
                        touched.add(j)
    left_rows = sorted(m)
    taken = set(col_seq)
    left_cols = [j for j in range(cols) if j not in taken]
    if _parity(row_seq + left_rows) != _parity(col_seq + left_cols):
        unit = -unit
    return unit, shift, [[m[i].get(j, {}) for j in left_cols] for i in left_rows]


def _eliminate(row, i, prow, k, nu, c, users) -> None:
    """Row i -= (its entry at c / the pivot u t^k) times the pivot row prow,
    whose entry at c is gone, for nu = -u: row i drops column c, and the
    users of prow's columns follow the entries that appear or cancel. A
    new entry is a product of two nonzero polynomials, so it is not 0."""
    f = {e - k: nu * v for e, v in row.pop(c).items()}  # -entry / pivot
    for j, a in prow.items():
        acc = row.get(j)
        if acc is None:
            row[j] = acc = {}
            users[j].add(i)
            addmul(acc, f, a)
        else:
            addmul(acc, f, a)
            if not acc:
                del row[j]
                users[j].discard(i)


def _parity(seq: Sequence[int]) -> int:
    """The parity of seq as a permutation of range(len(seq)): a cycle of
    length L is L - 1 transpositions."""
    seen = [False] * len(seq)
    cycles = 0
    for start in range(len(seq)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = seq[j]
    return (len(seq) - cycles) & 1


def _block_width(block: Sequence[Sequence[dict[int, int]]]) -> int:
    """The packing width B of _block_det, from the lesser of Hadamard's
    bounds on the coefficients of det S over rows and over columns.
    Shifting a row or a column changes neither.

    Over rows the bound is prod_i sqrt(sum_j ||S_ij||_1^2): the coefficient
    of t^e in det S is the mean of det S(z) z^-e over |z| = 1, so it is at
    most the largest |det S(z)| there, which by Hadamard's inequality is at
    most the product of the rows' Euclidean norms, and |S_ij(z)| <=
    ||S_ij||_1 on |z| = 1. Over columns it is the same for the transpose.
    Each is at most the l1 product prod_i sum_j ||S_ij||_1 (a Euclidean
    norm is at most the l1 norm), so no l1 bound can be less.

    A coefficient is an integer, so it is at most the integer square root
    of the squared bound. B - 1 is the bit length of the lesser bound, so
    every coefficient is below 2^(B - 1)."""
    rows = [[sum(map(abs, p.values())) for p in row] for row in block]
    return width(
        math.isqrt(
            min(
                math.prod([sum(map(mul, r, r)) for r in rows]),
                math.prod([sum(map(mul, c, c)) for c in zip(*rows)]),
            )
        )
    )


def _odd(v: int) -> tuple[int, int]:
    """(o, z) with v = o 2^z and o odd; (0, 0) for 0."""
    if v & 1 or not v:
        return v, 0
    z = (v & -v).bit_length() - 1
    return v >> z, z


def _block_det(block: list[list[dict[int, int]]], cancel) -> LaurentPoly:
    """Phase 2 of det_laurent: the determinant of a k x k block S with no
    unit entry. A 1 x 1 block is its entry. Otherwise each row is shifted
    to nonnegative exponents, each entry is evaluated at t = 2^B as one
    integer (Kronecker substitution, as in the bracket), and fraction-free
    Bareiss elimination (Bareiss 1968) takes the determinant of the
    integers. The coefficients of det S are read back as balanced digits
    (unpack), which B from _block_width allows.

    Each Bareiss value is kept as (o, z), the value o 2^z with o odd, and
    the step (x piv - f top) / prev divides the odd parts only. The
    quotient Q is an integer by Sylvester's identity. With the numerator
    n 2^m and prev = o 2^y, n and o odd, Q o 2^y = n 2^m gives o | n, so
    Q = (n / o) 2^(m - y) with n / o odd and m >= y. Each step checks both,
    a zero remainder of n by o and m >= y, and raises NonIntegralSolution
    otherwise. The numerator is odd, and needs no strip, unless its two
    products carry the same power of two.

    The pivot of each step is the nonzero value of the trailing submatrix
    with the fewest bits, o.bit_length() + z, the first in row order on a
    tie; a row swap and a column swap bring it into place. The values
    there are the minors of the leading rows and columns bordered by one
    more row and column, so swapping two lines of the trailing submatrix
    gives the values of S with those two lines swapped, whose determinant
    is -det S: each swap of two distinct lines flips the sign. The cancel
    token is polled once per step."""
    k = len(block)
    if k == 1:
        _check(cancel)
        return LaurentPoly(block[0][0])
    if not k:
        return LaurentPoly.one()
    bits = _block_width(block)
    # a zero row, which a closure's block can have
    # (invariant.complement_closures), finds no pivot
    lows = [min((e for p in row for e in p), default=0) for row in block]
    a = [
        [_odd(pack(p.items(), bits, lo)) for p in row]
        for row, lo in zip(block, lows)
    ]
    sign, prev, prev_z = 1, 1, 0
    for s in range(k):
        _check(cancel)
        best = None
        for i in range(s, k):
            for j in range(s, k):
                o, z = a[i][j]
                if o and (best is None or o.bit_length() + z < best[0]):
                    best = o.bit_length() + z, i, j
        if best is None:
            return LaurentPoly.zero()
        _, p, q = best
        if p != s:
            a[s], a[p] = a[p], a[s]
            sign = -sign
        if q != s:
            for row in a:
                row[s], row[q] = row[q], row[s]
            sign = -sign
        top = a[s]
        piv, piv_z = top[s]
        for row in a[s + 1 :]:
            f, f_z = row[s]
            for j in range(s + 1, k):
                x, x_z = row[j]
                t, t_z = top[j]
                # numerator x piv - f t as n 2^m
                if not f or not t:
                    n, m = x * piv, x_z + piv_z
                elif not x:
                    n, m = -f * t, f_z + t_z
                else:
                    m1, m2 = x_z + piv_z, f_z + t_z
                    m = min(m1, m2)
                    n = (x * piv << m1 - m) - (f * t << m2 - m)
                    if m1 == m2:
                        n, z = _odd(n)
                        m += z
                if not n:
                    row[j] = 0, 0
                    continue
                n, rem = divmod(n, prev)
                if rem or m < prev_z:
                    raise NonIntegralSolution("Bareiss division left a remainder")
                row[j] = n, m - prev_z
        prev, prev_z = piv, piv_z
    det, z = a[-1][-1]
    low = sum(lows) + z // bits
    return LaurentPoly(
        {low + e: c for e, c in enumerate(unpack(sign * det << z % bits, bits)) if c}
    )


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
