"""Knot invariants: the Alexander polynomial by two independent routes
(region matrix and Fox calculus), the Jones polynomial via the Kauffman
bracket, and the formula verifications built on them.

Both Alexander routes produce the polynomial only up to units; results are
pushed through poly.normalize_alexander before comparison, which is the
only equality this module ever asserts.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .diagram import (
    Face,
    MultiComponentInput,
    NoCrossings,
    PlanarDiagram,
    validate_planarity,
    writhe,
)
from .construct import (
    _rebuild_region,
    build_all_zero_replacement,
    built_union,
    derived,
    region_tangle,
)
from .group import WirtingerPresentation, presentation
from .poly import (
    ConwayPoly,
    LaurentPoly,
    NonIntegralSolution,
    conway_from_alexander,
    normalize_alexander,
)
from .report import VerificationReport
from .tangle import (
    Tangle,
    denominator,
    numerator,
    rational_tangle,
    tangle_sum,
    vertical_twists,
)


class InvariantError(Exception):
    pass


class TooLarge(InvariantError):
    pass


class UnsupportedLinkCase(InvariantError):
    pass


class Cancelled(InvariantError):
    pass


class CancelToken:
    """Cooperative cancellation: long computations poll check() and raise
    Cancelled once another thread has called cancel()."""

    def __init__(self):
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        if self._event.is_set():
            raise Cancelled("computation cancelled")


def _check(cancel: CancelToken | None) -> None:
    if cancel is not None:
        cancel.check()


# -- exact determinant -------------------------------------------------------------


def det_laurent(
    rows: Sequence[Sequence[LaurentPoly]], cancel: CancelToken | None = None
) -> LaurentPoly:
    """Determinant over Z[t, 1/t] by one sparse elimination.

    Rows are kept as {col: {exp: coeff}} maps, with the rows that use each
    column. Each step expands along one pivot: a unit ±t^k when any is
    left, the one of least Markowitz cost (r-1)(c-1), ties broken by term
    count, then row and column index. Dividing by a unit is a shift. A
    non-unit pivot p takes a fraction-free step (Bareiss 1968): the other
    rows of its column are multiplied by p before the subtraction, and
    those factors of p are divided out exactly at the end. The sign of a
    step comes from the pivot's row and column positions among those still
    live. The cancel token is polled once per pivot.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    m = {i: {j: dict(p.items()) for j, p in enumerate(r) if p} for i, r in enumerate(rows)}
    users: list[set[int]] = [set() for _ in range(n)]
    for i, row in m.items():
        for j in row:
            users[j].add(i)
    live_rows, live_cols = list(range(n)), list(range(n))
    out, divisors = LaurentPoly.one(), []
    while m:
        _check(cancel)
        if not all(m.values()):
            return LaurentPoly.zero()
        *_, r, c = min(
            (not _is_unit(p), (len(row) - 1) * (len(users[j]) - 1), len(p), i, j)
            for i, row in m.items()
            for j, p in row.items()
        )
        prow = m.pop(r)
        piv = prow.pop(c)
        for j in prow:
            users[j].discard(r)
        below = users[c] - {r}
        if (live_rows.index(r) + live_cols.index(c)) % 2:
            out = -out
        live_rows.remove(r)
        live_cols.remove(c)
        unit = _is_unit(piv)
        if unit:
            ((k, u),) = piv.items()
            out = out.shift(k) * u
        else:
            # each row below gets a factor p and the pivot is one factor p
            # of the determinant: p^(1 - len(below)) in all
            p = LaurentPoly(piv)
            if below:
                divisors.append(p ** (len(below) - 1))
            else:
                out = out * p
            neg = {e: -v for e, v in piv.items()}
        for i in below:
            row = m[i]
            f = row.pop(c)
            if unit:  # f / pivot
                f = {e - k: u * v for e, v in f.items()}
            else:  # row * pivot
                for j, a in row.items():
                    row[j] = {}
                    _submul(row[j], neg, a)
            for j, a in prow.items():
                acc = row.setdefault(j, {})
                _submul(acc, f, a)
                if acc:
                    users[j].add(i)
                else:
                    del row[j]
                    users[j].discard(i)
    for d in divisors:
        out = out.divexact(d)
    return out


def _is_unit(p: dict[int, int]) -> bool:
    return len(p) == 1 and abs(next(iter(p.values()))) == 1


def _submul(acc: dict[int, int], f: dict[int, int], a: dict[int, int]) -> None:
    """acc -= f * a in place, keeping only nonzero coefficients."""
    for e1, v1 in f.items():
        for e2, v2 in a.items():
            e = e1 + e2
            w = acc.get(e, 0) - v1 * v2
            if w:
                acc[e] = w
            else:
                del acc[e]


# -- Alexander via the region matrix -------------------------------------------------

# Corner labels around each crossing, by corner slot (slot j is the sector
# between edge slots j and j+1): x and -x on the two corners flanking edge
# slot 1, then 1 and -1 on the two flanking slot 3. Sign conventions here
# differ across sources only up to units; this arrangement is pinned by the
# trefoil fixture and by cross-method equality with the Fox route, both
# enforced in the test suite.
_CORNER_COEFF = {0: (1, 1), 1: (-1, 1), 2: (1, 0), 3: (-1, 0)}


@dataclass(frozen=True)
class RegionMatrix:
    entries: tuple[tuple[LaurentPoly, ...], ...]
    faces: tuple[Face, ...]

    def reduced(self, drop: tuple[int, int]) -> list[list[LaurentPoly]]:
        a, b = drop
        return [
            [p for j, p in enumerate(row) if j != a and j != b]
            for row in self.entries
        ]


def region_matrix(d: PlanarDiagram) -> RegionMatrix:
    if not d.crossings:
        raise NoCrossings("region matrix needs at least one crossing")
    fs = validate_planarity(d)
    corner_face: dict[tuple[int, int], int] = {}
    for fi, f in enumerate(fs):
        for corner in f.corners:
            corner_face[corner] = fi
    rows = []
    for i in range(len(d.crossings)):
        row = [LaurentPoly.zero()] * len(fs)
        for slot, (coeff, exp) in _CORNER_COEFF.items():
            fi = corner_face[(i, slot)]
            row[fi] = row[fi] + LaurentPoly.term(coeff, exp)
        rows.append(tuple(row))
    return RegionMatrix(tuple(rows), fs)


def flanking_faces(m: RegionMatrix, edge: int) -> tuple[int, int]:
    """The two faces on either side of an edge; these are the adjacent
    columns removed before taking the determinant."""
    left = right = None
    for fi, f in enumerate(m.faces):
        for e, side in f.edge_sides:
            if e == edge:
                if side == "L":
                    left = fi
                else:
                    right = fi
    if left is None or right is None or left == right:
        raise InvariantError(f"edge {edge} does not separate two faces")
    return (left, right)


def alexander_region(
    d: PlanarDiagram, cancel: CancelToken | None = None, delete_at_edge: int = 1
) -> LaurentPoly:
    """Alexander polynomial from the region matrix, normalized. Split
    diagrams (free loops alongside anything else, or a disconnected
    crossing graph) have Alexander polynomial 0."""
    if not d.crossings:
        return LaurentPoly.one() if d.free_loops == 1 else LaurentPoly.zero()
    if d.free_loops or not d.is_connected():
        return LaurentPoly.zero()
    m = region_matrix(d)
    det = det_laurent(m.reduced(flanking_faces(m, delete_at_edge)), cancel)
    knot = len(d.components) == 1
    return normalize_alexander(det, knot=knot)


# -- Alexander via Fox calculus -------------------------------------------------------


def fox_jacobian(w: WirtingerPresentation) -> list[list[LaurentPoly]]:
    """Abelianized Fox derivative matrix: rows are relators, columns are
    generators, every generator is sent to t."""
    index = {g: j for j, g in enumerate(w.generators)}
    rows = []
    for rel in w.relators:
        row = [LaurentPoly.zero()] * len(w.generators)
        s = 0
        for g, e in rel:
            j = index[g]
            if e == 1:
                row[j] = row[j] + LaurentPoly.term(1, s)
            else:
                row[j] = row[j] + LaurentPoly.term(-1, s - 1)
            s += e
        rows.append(row)
    return rows


def alexander_fox(
    w: WirtingerPresentation, cancel: CancelToken | None = None
) -> LaurentPoly:
    """Alexander polynomial of a knot presentation: drop one relator and
    one generator column from the Fox Jacobian, take the determinant,
    normalize."""
    n = len(w.generators)
    if len(w.relators) < n - 1:
        raise ValueError("presentation has too few relators")
    jac = fox_jacobian(w)
    rows = [row[: n - 1] for row in jac[: n - 1]]
    return normalize_alexander(det_laurent(rows, cancel), knot=True)


# -- Kauffman bracket and Jones --------------------------------------------------------

# The most live states one sweep keeps; a planar frontier of width w has at
# most Catalan(w/2) pairings. A state takes about 1.0 to 1.4 KB at 68
# crossings and 15 KB at 820, mostly its packed coefficient, which grows
# with the crossings.
_STATE_LIMIT = 50_000

# (mate, a, cs): a pairing of a unit's slots and its weight
_Smoothing = tuple[tuple[int, ...], int, tuple[int, ...]]


class _Unit(NamedTuple):
    """One step of the bracket sweep: a crossing, or a box of crossings
    summed up by its own sweep. slots are the edge ids at its ends (a
    crossing's four edges, a box's external edges); kinks joins the slots
    of an edge with both ends at this crossing. Each smoothing pairs the
    slots (mate[s] is the slot joined to s) with weight
    sum cs[j] A^(a + 2j). bound is _bound of the smoothings."""

    slots: tuple[int, ...]
    kinks: dict[int, int]
    smoothings: tuple[_Smoothing, ...]
    bound: int


def _smooth(
    mate: Sequence[int], link: dict[int, int], ends: dict[int, int]
) -> tuple[list[tuple[int, int]], int]:
    """Walk a unit's slots along one smoothing. ends maps each slot that
    holds an open end to that end's edge; link joins the other slots in
    pairs. Returns the new pairs of open ends and the number of loops the
    smoothing closes."""
    seen = [False] * len(mate)
    made = []
    for s in ends:
        if not seen[s]:
            t = s
            while True:
                seen[t] = True
                u = mate[t]
                seen[u] = True
                if u in ends:
                    break
                t = link[u]
            x, y = ends[s], ends[u]
            made.append((x, y) if x < y else (y, x))
    loops = 0
    for s in range(len(mate)):
        if not seen[s]:
            loops += 1
            t = s
            while not seen[t]:
                seen[t] = True
                u = mate[t]
                seen[u] = True
                t = link[u]
    return made, loops


def _matchings(free: list[int]):
    """Every perfect matching of the slots in free, as slot -> slot."""
    if not free:
        yield {}
        return
    a, rest = free[0], free[1:]
    for i, b in enumerate(rest):
        for m in _matchings(rest[:i] + rest[i + 1 :]):
            yield {**m, a: b, b: a}


def _bound(smoothings: Sequence[_Smoothing]) -> int:
    """How much one unit can multiply the l1 norm of the live coefficients.

    A state with coefficient c, at a unit whose slots the state links in
    some pattern, passes c W delta^L to the next states for each smoothing,
    where W is the smoothing's weight and L the loops it closes; delta^L
    has l1 norm 2^L. The bound is the most that the sum of ||W||_1 2^L
    reaches over the link patterns. Adding a link never removes a loop, so
    the patterns that link every slot are enough; all of them are taken,
    also those a unit's kinks rule out."""
    slots = list(range(len(smoothings[0][0])))
    return max(
        sum(sum(map(abs, cs)) << _smooth(mate, m, {})[1] for mate, _, cs in smoothings)
        for m in _matchings(slots)
    )


# A crossing's two smoothings, with weights A and A^-1, and their bound (6).
_SMOOTHINGS = (((1, 0, 3, 2), 1, (1,)), ((3, 2, 1, 0), -1, (1,)))
_CROSSING_BOUND = _bound(_SMOOTHINGS)


def _width(units: Sequence[_Unit]) -> int:
    """The packing width B of a sweep over units. Merging states can only
    lower the l1 norm, so after every unit the l1 norm of all live
    coefficients is at most the product of the bounds of the units so far,
    and so is every final |c|; it is below 2^(B - 1)."""
    return math.prod(u.bound for u in units).bit_length() + 1


def _unpack(p: int, bits: int) -> tuple[int, ...]:
    """The coefficients packed in p at width bits, lowest first, read as
    balanced digits: each lies in [-2^(bits-1), 2^(bits-1))."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    while p:
        c = p & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        p = (p - c) >> bits
    return tuple(out)


def _crossing_unit(d: PlanarDiagram, ci: int) -> _Unit:
    kinks = {}
    for s, e in enumerate(d.crossings[ci]):
        (i, si), (j, sj) = d.incidences[e]
        if i == j:
            kinks[s] = sj if si == s else si
    return _Unit(d.crossings[ci], kinks, _SMOOTHINGS, _CROSSING_BOUND)


def _boxes(d: PlanarDiagram, fs: Sequence[Face]) -> list[list[int]]:
    """The crossings grouped into boxes, each in chain order: a box is a
    connected set of crossings joined by bigon faces, and a crossing on no
    bigon is a box of its own.

    A bigon at corner j of crossing x takes slots j and j + 1 of x to one
    other crossing, so x has at most two bigon neighbours (at corners j and
    j + 2). Every box is therefore a path or a cycle, and has at most four
    external edge ends: neighbours on a path share at least two edges, and
    4k - 2 * 2(k - 1) = 4."""
    nbr: list[set[int]] = [set() for _ in d.crossings]
    for f in fs:
        if len(f.corners) == 2:
            (x, _), (y, _) = f.corners
            if x != y:
                nbr[x].add(y)
                nbr[y].add(x)
    seen = [False] * len(nbr)
    boxes = []
    # paths are walked from an end, so ends come first
    for x in sorted(range(len(nbr)), key=lambda c: len(nbr[c]) > 1):
        box = []
        while x is not None and not seen[x]:
            seen[x] = True
            box.append(x)
            x = next((y for y in nbr[x] if not seen[y]), None)
        if box:
            boxes.append(box)
    return boxes


def _box_unit(d: PlanarDiagram, box: list[int], cancel: CancelToken | None) -> _Unit:
    """A box as one step: the sweep over its crossings leaves one state per
    pairing of its external ends, and that state's coefficient is the
    pairing's weight (the bracket skein module of a tangle is free on the
    crossingless pairings; Kauffman 1987)."""
    if len(box) == 1:
        return _crossing_unit(d, box[0])
    inner = [_crossing_unit(d, ci) for ci in box]
    bits = _width(inner)
    states, ends = _sweep(inner, bits, cancel)
    slots = tuple(sorted(ends))
    at = {e: s for s, e in enumerate(slots)}
    smoothings = []
    for pairs, (lo, p) in states.items():
        mate = [0] * len(slots)
        for x, y in pairs:
            mate[at[x]], mate[at[y]] = at[y], at[x]
        smoothings.append((tuple(mate), lo, _unpack(p, bits)))
    return _Unit(slots, {}, tuple(smoothings), _bound(smoothings))


def _sweep(
    units: Sequence[_Unit], bits: int, cancel: CancelToken | None
) -> tuple[dict[tuple[tuple[int, int], ...], tuple[int, int]], set[int]]:
    """Insert units one at a time. A state is the pairing of the open edges
    by the arcs of the processed part, a sorted tuple of edge pairs. A unit
    changes only the pairs that end at it: each of its slots holds an open
    end, or is linked to another slot by a kink loop or by two closing
    edges paired with each other. Walking the slots along each smoothing
    gives the new pairs and the loops closed. Returns the states and the
    edges left open.

    A state's coefficient is packed into one integer (Kronecker
    substitution): (lo, P) with P = sum c_j 2^(Bj) stands for
    sum c_j A^(lo + 2j). Every term of a state has the parity of the number
    of crossings processed, so one slot per power of A^2 suffices. P is the
    polynomial at A^2 = 2^B, so sums, shifts and products of it are exact
    at any size; B = bits, from _width, lets the final coefficients be read
    back."""
    two = 2 * bits
    states: dict[tuple[tuple[int, int], ...], tuple[int, int]] = {(): (0, 1)}
    frontier: set[int] = set()
    for u in units:
        _check(cancel)
        opening: dict[int, int] = {}  # slot -> its own edge, newly open
        closing: dict[int, int] = {}  # open edge -> slot
        for s, e in enumerate(u.slots):
            if s in u.kinks:
                continue
            if e in frontier:
                closing[e] = s
            else:
                opening[s] = e
        weights = [
            (mate, a, sum(c << bits * j for j, c in enumerate(cs)))
            for mate, a, cs in u.smoothings
        ]
        new: dict[tuple[tuple[int, int], ...], tuple[int, int]] = {}
        for pairs, (lo, p) in states.items():
            link, ends, kept = dict(u.kinks), dict(opening), []
            for x, y in pairs:
                sx, sy = closing.get(x), closing.get(y)
                if sx is None and sy is None:
                    kept.append((x, y))
                elif sy is None:
                    ends[sx] = y
                elif sx is None:
                    ends[sy] = x
                else:
                    link[sx], link[sy] = sy, sx
            for mate, a, w in weights:
                made, loops = _smooth(mate, link, ends)
                q = p if w == 1 else p * w
                # delta = -A^-2 (1 + A^4); A^4 is two slots
                for _ in range(loops):
                    q = -(q + (q << two))
                lq = lo + a - 2 * loops
                key = tuple(sorted(kept + made))
                old = new.get(key)
                if old is None:
                    new[key] = (lq, q)
                elif lq >= old[0]:
                    new[key] = (old[0], old[1] + (q << bits * ((lq - old[0]) >> 1)))
                else:
                    new[key] = (lq, q + (old[1] << bits * ((old[0] - lq) >> 1)))
        if len(new) > _STATE_LIMIT:
            raise TooLarge(
                f"bracket state sum reaches {len(new)} states; limit is {_STATE_LIMIT}"
            )
        states = new
        frontier -= closing.keys()
        frontier.update(opening.values())
    return states, frontier


def _sweep_order(nbrs: Sequence[Sequence[int]]) -> list[int]:
    """Process units in an order that keeps the frontier of open edges
    narrow. nbrs[i] lists the unit at the far end of each edge that leaves
    unit i. From every start unit a greedy sweep adds, among the units that
    touch the swept part, the one that changes the number of open edges
    least (ties by index); the sweep with the least (peak width, sum of
    2^(width/2)) wins, the earliest start on a tie.

    The sweep ranks candidates by one integer, key[j] = change * n + j,
    where change is j's degree less twice its swept neighbours: key[j] // n
    is the change and the order of keys is the order of (change, j)."""
    n = len(nbrs)
    base = [len(nbrs[j]) * n + j for j in range(n)]
    step = 2 * n
    best: list[int] = []
    best_score = None
    for start in range(n):
        key = list(base)
        left = set(range(n))
        touching: set[int] = set()
        order: list[int] = []
        width = peak = cost = 0
        i = start
        while True:
            order.append(i)
            left.remove(i)
            touching.discard(i)
            width += key[i] // n
            peak = max(peak, width)
            cost += 1 << (width >> 1)
            if best_score is not None and (peak, cost) >= best_score:
                break  # can no longer beat the best sweep
            if not left:
                best, best_score = order, (peak, cost)
                break
            for j in nbrs[i]:
                key[j] -= step
                if j in left:
                    touching.add(j)
            i = min(touching or left, key=key.__getitem__)
    return best


def kauffman_bracket(d: PlanarDiagram, cancel: CancelToken | None = None) -> LaurentPoly:
    """Bracket polynomial in the variable A (free loops excluded; the
    caller handles those). The diagram must pass validate_planarity, whose
    faces give the boxes.

    The crossings are grouped into boxes (_boxes), each box is summed by a
    sweep over its crossings (_box_unit), and one more sweep runs over the
    boxes, each a step whose smoothings are the pairings of its ends."""
    if not d.crossings:
        raise NoCrossings("bracket of a crossing-free diagram is handled upstream")
    boxes = _boxes(d, validate_planarity(d))
    units = [_box_unit(d, box, cancel) for box in boxes]
    unit_of = {ci: i for i, box in enumerate(boxes) for ci in box}
    nbrs: list[list[int]] = [[] for _ in units]
    for (i, _), (j, _) in d.incidences.values():
        u, v = unit_of[i], unit_of[j]
        if u != v:  # an edge inside a box never opens
            nbrs[u].append(v)
            nbrs[v].append(u)
    bits = _width(units)
    states, _ = _sweep([units[i] for i in _sweep_order(nbrs)], bits, cancel)
    if set(states) != {()}:
        raise InvariantError("open strands left after processing all crossings")
    lo, p = states[()]
    coeffs = {lo + 2 * j: c for j, c in enumerate(_unpack(p, bits)) if c}
    return LaurentPoly(coeffs).divexact(LaurentPoly({2: -1, -2: -1}))


def jones(d: PlanarDiagram, cancel: CancelToken | None = None) -> LaurentPoly:
    """Jones polynomial V(t) of a knot diagram, via the bracket with
    writhe correction and the substitution A = t^(-1/4). Exponents are
    asserted integral, which holds for knots."""
    if d.component_count() != 1:
        raise MultiComponentInput("jones handles single-component diagrams")
    if not d.crossings:
        return LaurentPoly.one()
    bracket = kauffman_bracket(d, cancel)
    w = writhe(d)
    corrected = bracket * LaurentPoly.term(1 if w % 2 == 0 else -1, -3 * w)
    out = {}
    for e, c in corrected.items():
        if e % 4 != 0:
            raise NonIntegralSolution(f"bracket exponent {e} not divisible by 4")
        out[-e // 4] = c
    return LaurentPoly(out)


# -- formula verifications ----------------------------------------------------


def _conway(delta: LaurentPoly, components: int) -> ConwayPoly:
    """Conway polynomial of a closure from its Alexander polynomial. Knots
    convert exactly; a multi-component closure is accepted only when its
    Alexander polynomial vanishes, which forces the Conway contribution to
    zero."""
    if components == 1:
        return conway_from_alexander(delta, knot=True)
    if delta.is_zero():
        return ConwayPoly.zero()
    raise UnsupportedLinkCase(
        f"{components}-component closure with nonvanishing "
        "alexander polynomial is outside the conway conversion"
    )


def _conway_closure(d: PlanarDiagram, cancel: CancelToken | None) -> ConwayPoly:
    return _conway(alexander_region(d, cancel), d.component_count())


def _shared_alexander(
    k: PlanarDiagram, key, make, cancel: CancelToken | None
) -> tuple[LaurentPoly, int]:
    """Alexander polynomial (region route) and component count of a
    diagram that both the product formula and the fraction rule read: the
    union k itself or a numerator closure of one of its tangles. make()
    gives the diagram; both values are computed once per union."""

    def compute() -> tuple[LaurentPoly, int]:
        d = make()
        return alexander_region(d, cancel), d.component_count()

    return derived(k, ("alexander", key), compute)


def verify_zero_replacement(union) -> VerificationReport:
    """Replacing every inserted tangle by the crossingless west-to-east
    tangle splits the union and kills its Alexander polynomial."""
    k = built_union(union)
    rep = VerificationReport("zero replacement collapses the polynomial")
    flat = build_all_zero_replacement(k.meta.spec)
    a = alexander_region(flat)
    rep.record("components", flat.component_count())
    rep.record("alexander of replacement", a.text())
    rep.add("alexander polynomial vanishes", a.is_zero())
    return rep


def verify_product_formula(union, cancel: CancelToken | None = None) -> VerificationReport:
    """The Alexander polynomial of the built union (or of the union a spec
    builds) must factor as the product of the tangle numerator-closure
    polynomials times the square of the partial diagram's polynomial (all
    compared in canonical form).

    The union's polynomial is computed by both routes, which must agree.
    """
    k = built_union(union)
    spec = k.meta.spec
    rep = VerificationReport("alexander product formula")
    rep.record("union crossings", len(k.crossings))

    delta, _ = _shared_alexander(k, "union", lambda: k, cancel)
    via_region = normalize_alexander(delta)
    via_fox = normalize_alexander(alexander_fox(presentation(k), cancel))
    rep.record("alexander of union", via_region.text())
    rep.add(
        "region and fox routes agree",
        via_region == via_fox,
        f"fox route gave {via_fox.text()}",
    )

    half = normalize_alexander(alexander_region(spec.partial, cancel))
    rep.record("partial factor", half.text())
    prod = half * half
    for i, t in enumerate(spec.tangles, start=1):
        delta, _ = _shared_alexander(k, i, lambda: numerator(t), cancel)
        f = normalize_alexander(delta)
        rep.record(f"numerator factor {i}", f.text())
        prod = prod * f
    prod = normalize_alexander(prod)
    rep.record("product of factors", prod.text())
    rep.add("union polynomial equals product", via_region == prod)
    return rep


def _sum_rule(rep: VerificationReport, lhs, n1, d0, n0, d1) -> VerificationReport:
    """Check nabla(lhs) = nabla(n1) nabla(d0) + nabla(d1) nabla(n0) into rep.
    Each argument is a (report key, thunk giving the Conway polynomial)
    pair. A second factor is evaluated only when its partner is nonzero,
    so a vanishing closure on one side spares the other side's polynomial
    from needing a conway form at all."""

    def value(entry) -> ConwayPoly:
        key, thunk = entry
        v = thunk()
        rep.record(key, v.text())
        return v

    left = value(lhs)
    right = ConwayPoly.zero()
    for first, second in ((n1, d0), (n0, d1)):
        f = value(first)
        if f.is_zero():
            rep.record(second[0], "skipped: factor is zero")
        else:
            right = right + f * value(second)
    rep.record("sum of products", right.text())
    rep.add("fraction formula holds", left == right)
    return rep


def verify_fraction_region(
    union, region: int = 1, cancel: CancelToken | None = None
) -> VerificationReport:
    """Decompose the union at one tangle box: the whole diagram is the
    numerator closure of (inserted tangle + everything else), so the sum
    rule of verify_fraction_formula applies with the complement played by
    rebuilds that put a crossingless tangle in the box. The vertical
    trivial tangle closes the complement's denominator, the horizontal one
    its numerator (which splits the diagram and vanishes)."""
    k = built_union(union)
    t = region_tangle(k, region)
    rep = VerificationReport(f"fraction decomposition at region {region}")
    rep.record("union crossings", len(k.crossings))

    def shared(key, make):
        return lambda: _conway(*_shared_alexander(k, key, make, cancel))

    def complement(r: Tangle, knot: bool):
        return lambda: _conway_closure(
            _rebuild_region(k, region, r, require_knot=knot), cancel
        )

    return _sum_rule(
        rep,
        ("conway of union", shared("union", lambda: k)),
        ("numerator of tangle", shared(region, lambda: numerator(t))),
        ("denominator of complement", complement(vertical_twists(0), True)),
        ("numerator of complement", complement(rational_tangle([]), False)),
        ("denominator of tangle", lambda: _conway_closure(denominator(t), cancel)),
    )


def verify_fraction_formula(
    t1: Tangle, t0: Tangle, cancel: CancelToken | None = None
) -> VerificationReport:
    """Conway-polynomial sum rule for a horizontal tangle sum:

        nabla(N(t1 + t0)) = nabla(N(t1)) nabla(D(t0))
                          + nabla(D(t1)) nabla(N(t0))
    """

    def closure(close, t: Tangle):
        return lambda: _conway_closure(close(t), cancel)

    return _sum_rule(
        VerificationReport("conway fraction formula"),
        ("numerator of sum", closure(numerator, tangle_sum(t1, t0))),
        ("numerator of first", closure(numerator, t1)),
        ("denominator of second", closure(denominator, t0)),
        ("numerator of second", closure(numerator, t0)),
        ("denominator of first", closure(denominator, t1)),
    )
