"""Knot invariants: the Alexander polynomial by two independent routes
(region matrix and Fox calculus), both taking their determinants from
poly.det_laurent, the Jones polynomial via the Kauffman bracket, and the
formula verifications built on them.

Both Alexander routes produce the polynomial only up to units; results are
pushed through poly.normalize_alexander before comparison, which is the
only equality this module ever asserts.
"""

from __future__ import annotations

from functools import cache
from heapq import heappop, heappush
import math
import threading
from typing import Callable, NamedTuple, Sequence

from .diagram import (
    MultiComponentInput,
    NoCrossings,
    PlanarDiagram,
    writhe,
)
from .construct import (
    NotAKnot,
    built_union,
    contract_box,
    derived,
    flanking_faces,
    planar_faces,
    region_tangle,
    zero_replacement,
)
from .group import WirtingerPresentation, presentation
from .poly import (
    ConwayPoly,
    LaurentPoly,
    NonIntegralSolution,
    _block_det,
    _check,
    _unit_pivots,
    conway_from_alexander,
    det_laurent,
    normalize_alexander,
    pack,
    unpack,
    width,
)
from .report import VerificationReport
from .tangle import Tangle, denominator, numerator, tangle_sum


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


# -- Alexander via the region matrix -------------------------------------------------

def reduced(
    rows: Sequence[dict[int, dict[int, int]]], drop: tuple[int, int]
) -> list[dict[int, dict[int, int]]]:
    """The rows without the columns in drop, later columns moved down;
    the entries are shared with rows."""
    a, b = drop
    return [
        {j - (j > a) - (j > b): p for j, p in row.items() if j != a and j != b}
        for row in rows
    ]


def _add_term(row: dict[int, dict[int, int]], j: int, e: int, v: int) -> None:
    """Add v t^e to entry j of row, dropping what cancels to zero."""
    acc = row.get(j)
    if acc is None:
        row[j] = {e: v}
        return
    w = acc.get(e, 0) + v
    if w:
        acc[e] = w
    elif len(acc) > 1:
        del acc[e]
    else:
        del row[j]


def region_matrix(d: PlanarDiagram) -> list[dict[int, dict[int, int]]]:
    """One row per crossing and one column per face, as sparse rows: row i
    maps each face at a corner of crossing i to the sum of the labels of
    its corners there, an {exp: coeff} map, when that sum is not zero."""
    if not d.crossings:
        raise NoCrossings("region matrix needs at least one crossing")
    return _corner_rows(planar_faces(d))


def _corner_rows(face: Sequence[int]) -> list[dict[int, dict[int, int]]]:
    """region_matrix's rows, one per 4 corners of face (diagram.faces)."""
    # Corner labels around each crossing, by corner slot (slot j is the
    # sector between edge slots j and j+1): t and -t on slots 0 and 1, the
    # two corners flanking edge slot 1, then 1 and -1 on slots 2 and 3, the
    # two flanking slot 3; a face at both corners of a pair gets 0 from it.
    # Sign conventions differ across sources only up to units; this
    # arrangement is pinned by the trefoil fixture and by cross-method
    # equality with the Fox route, both enforced in the test suite.
    rows = []
    for at in range(0, len(face), 4):
        f0, f1, f2, f3 = face[at : at + 4]
        row: dict[int, dict[int, int]] = {}
        if f0 != f1:
            row[f0] = {1: 1}
            row[f1] = {1: -1}
        if f2 != f3:
            _add_term(row, f2, 0, 1)
            _add_term(row, f3, 0, -1)
        rows.append(row)
    return rows


def alexander_region(d: PlanarDiagram, cancel: CancelToken | None = None) -> LaurentPoly:
    """Alexander polynomial from the region matrix with the two faces
    flanking edge 1 deleted, normalized. Split diagrams (free loops
    alongside anything else, or a disconnected crossing graph) have
    Alexander polynomial 0."""
    if not d.crossings:
        return LaurentPoly.one() if d.free_loops == 1 else LaurentPoly.zero()
    if d.free_loops or not d.connected:
        return LaurentPoly.zero()
    det = det_laurent(reduced(region_matrix(d), flanking_faces(d, 1)), cancel)
    knot = len(d.components) == 1
    return normalize_alexander(det, knot=knot)


def complement_closures(
    k: PlanarDiagram, i: int, cancel: CancelToken | None = None
) -> Callable[[bool], tuple[LaurentPoly, int]]:
    """Both closures of region i's complement C, read off the built union
    with one elimination: the function that takes horizontal to the
    normalized Alexander polynomial and the component count of N(C)
    (True) or of D(C) (False), which must be a knot.

    C's rows are the union's but box i's, labelled as region_matrix labels
    them, over the faces of the union with box i contracted to one vertex
    (construct.contract_box). Phase 1 (poly._unit_pivots) runs here, once,
    over the faces but the sides N and W, with E and S last and never
    pivoted on. A closure finishes the block left with S's column or E's
    (poly._block_det) when it is asked for, so D(C) raises NotAKnot only
    then. cancel is polled as det_laurent polls it."""
    face, v, components = contract_box(k, i)
    w, s, e, n = face[4 * v : 4 * v + 4]
    others = set(face) - {n, e, s, w}
    column = {f: j for j, f in enumerate([*sorted(others), e, s])}
    rows = _corner_rows(face)
    del rows[v]
    rows = [{column[f]: p for f, p in row.items() if f in column} for row in rows]
    found = _unit_pivots(rows, cancel, range(len(others), len(column)))

    def closure(horizontal: bool) -> tuple[LaurentPoly, int]:
        m = components[horizontal]
        if m != 1 and not horizontal:
            raise NotAKnot(f"result has {m} components, expected a knot")
        # W = E: N(C) is split and D(C) keeps A alone (contract_box)
        kept = [] if e == w else [-1 if horizontal else -2]
        det = LaurentPoly.zero()
        if found is not None and not (horizontal and e == w):
            det = _block_det([row[:-2] + [row[j] for j in kept] for row in found[2]], cancel)
        return normalize_alexander(det, knot=m == 1), m

    return closure


# -- Alexander via Fox calculus -------------------------------------------------------


def fox_jacobian(w: WirtingerPresentation) -> list[dict[int, dict[int, int]]]:
    """Abelianized Fox derivative matrix as sparse rows of {exp: coeff}
    maps: a row per relator, a column per generator, every generator sent
    to t."""
    index = {g: j for j, g in enumerate(w.generators)}
    rows = []
    for rel in w.relators:
        row: dict[int, dict[int, int]] = {}
        s = 0
        for g, e in rel:
            if e == 1:
                _add_term(row, index[g], s, 1)
            else:
                _add_term(row, index[g], s - 1, -1)
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
    rows = [{j: p for j, p in row.items() if j < n - 1} for row in jac[: n - 1]]
    return normalize_alexander(det_laurent(rows, cancel), knot=True)


# -- Kauffman bracket and Jones --------------------------------------------------------

# The most live states one sweep keeps; a planar frontier of width w has at
# most Catalan(w/2) pairings. At the sweep's peak a state takes about 0.9
# to 1.1 KB at 68 crossings (B = 61 to 77), 0.6 KB at 63 (T(8, 9), 1,430
# states, B = 164) and 15 KB at 820 (B = 94), mostly its packed
# coefficient, which grows with the crossings; its key, a tuple of partner
# positions with a hole for each closed edge (as long as the most edges
# open at once), takes 88 to 168 bytes.
_STATE_LIMIT = 50_000

# The most packed bits the live states may hold, by the figure _sweep
# bounds them with: states times B times the slots a state can have. The
# sweeps measured took at most 0.12 bytes of peak RSS per bit of that
# figure (the T(9, 10) partial with two kt(100) boxes: 392 MB at 3.3e9;
# T(10, 11): 52 MB at 1.3e9), so 2^32 keeps the states to about 0.5 GB.
_BIT_LIMIT = 1 << 32

# (mate, a, cs): a pairing of a unit's slots and its weight
_Smoothing = tuple[tuple[int, ...], int, tuple[int, ...]]


class _Unit(NamedTuple):
    """One step of the bracket sweep: a crossing, a box of crossings summed
    up in closed form (_box_unit), or two units merged (_joined). slots are
    the edge ids of its open ends, in the order its maker meets them. Each
    smoothing pairs the slots (mate[s] is the slot joined to s) with weight
    sum cs[j] A^(a + 2j), cs[0] and cs[-1] not 0. bound is _bound of the
    smoothings."""

    slots: tuple[int, ...]
    smoothings: tuple[_Smoothing, ...]
    bound: int


# The cache stays small: only the patterns of units of 0, 2 or 4 slots
# (33) and those of _compose's 8 slots occur.
@cache
def _smooth(
    mate: tuple[int, ...], link: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], int]:
    """Walk a unit's slots along one smoothing. link[s] is the slot that
    two closing edges paired with each other join s to, or s itself when s
    holds an open end. Returns the pairs of open-end slots the smoothing
    joins, (lower, upper) in order of the lower, and the loops it closes."""
    seen = [False] * len(mate)
    made = []
    for s, t in enumerate(link):
        if s == t and not seen[s]:
            while True:
                seen[t] = True
                u = mate[t]
                seen[u] = True
                if link[u] == u:
                    break
                t = link[u]
            made.append((s, u))  # u is unseen, so above s
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
    return tuple(made), loops


def _bound(smoothings: Sequence[_Smoothing]) -> int:
    """How much one unit can multiply the l1 norm of the live coefficients.

    A state with coefficient c, at a unit whose slots the state links in
    some pattern, passes c W delta^L to the next states for each smoothing,
    where W is the smoothing's weight and L the loops it closes; delta^L
    has l1 norm 2^L. The bound is the most that the sum of ||W||_1 2^L
    reaches over the link patterns. Adding a link never removes a loop, so
    the patterns that link every slot are enough: the perfect matchings of
    the unit's 2k = 0, 2 or 4 slots (_boxes). A smoothing and such a
    pattern close k loops when they pair the slots alike, else one (two
    distinct matchings of at most four slots form one cycle). The
    smoothings pair the slots in distinct ways (_unit_of keeps one
    smoothing per pairing), so a pattern matches at most one, and the most
    is reached at the pattern of the smoothing with the largest ||W||_1:
    2 sum ||W||_1 + (2^k - 2) max ||W||_1."""
    norms = [sum(map(abs, cs)) for _, _, cs in smoothings]
    k = len(smoothings[0][0]) // 2
    return 2 * sum(norms) + ((1 << k) - 2) * max(norms)


def _unit_of(slots: tuple[int, ...], sums: dict[tuple[int, ...], int], lo: int, bits: int) -> _Unit:
    """The unit whose smoothings are sums, each pairing's weight packed at
    width bits (P = sum c_j 2^(Bj) for sum c_j A^(lo + 2j)). A pairing whose
    weight is 0 is dropped; the others are trimmed of the zero slots at the
    bottom and unpacked."""
    smoothings = []
    for mate, p in sums.items():
        if p:
            low = ((p & -p).bit_length() - 1) // bits
            smoothings.append((mate, lo + 2 * low, unpack(p >> bits * low, bits)))
    return _Unit(slots, tuple(smoothings), _bound(smoothings))


# A crossing's two smoothings, with weights A and A^-1, and their bound (6).
_SMOOTHINGS = (((1, 0, 3, 2), 1, (1,)), ((3, 2, 1, 0), -1, (1,)))
_CROSSING_BOUND = _bound(_SMOOTHINGS)


def _width(units: Sequence[_Unit]) -> int:
    """The packing width B of a sweep over units. Merging states can only
    lower the l1 norm, so after every unit the l1 norm of all live
    coefficients is at most the product of the bounds of the units so far,
    and so is every final |c|; it is below 2^(B - 1)."""
    return width(math.prod(u.bound for u in units))


def _boxes(d: PlanarDiagram) -> list[tuple[list[int], list[int]]]:
    """The crossings grouped into boxes, each as its crossings in chain
    order and the corner of each that _box_unit reads: a box is a
    connected set of crossings joined by bigon faces (_across), and a
    crossing on no bigon is a box of its own, at corner 0.

    A bigon at corner j of crossing x takes slots j and j + 1 of x to one
    other crossing, so x has at most two bigon neighbours, across corners
    j and j + 2. Every box is therefore a path or a cycle, and has at most
    four external edge ends: neighbours on a path share at least two
    edges, and 4k - 2 * 2(k - 1) = 4. A path is walked from its lowest
    end, a cycle from its lowest crossing toward its lower neighbour, at
    the lowest corner of c_1 toward c_2, then across the corner opposite
    the one each bigon arrives at. A monogon, or a bigon with both corners
    at the one crossing of a diagram, joins no two crossings."""
    far = [_across(d.mates, k) for k in range(len(d.mates))]
    nbrs = [{n >> 2 for n in far[k : k + 4]} - {-1, k >> 2} for k in range(0, len(far), 4)]
    seen = [False] * len(nbrs)
    boxes = []
    # paths are walked from an end, so ends come first
    for x in sorted(range(len(nbrs)), key=lambda c: len(nbrs[c]) > 1):
        if seen[x]:
            continue
        seen[x] = True
        y = min(nbrs[x], default=None)
        box, corners = [x], [next((j for j in range(4) if far[4 * x + j] >> 2 == y), 0)]
        while (n := far[4 * box[-1] + corners[-1]]) >= 0 and not seen[n >> 2]:
            seen[n >> 2] = True
            box.append(n >> 2)
            corners.append(n & 3 ^ 2)
        boxes.append((box, corners))
    return boxes


def _across(mates: Sequence[int], k: int) -> int:
    """The other corner of the face at corner k if that face is a bigon,
    else -1. The face walk (diagram.faces) leaves corner k through the next
    slot counterclockwise and arrives at a corner n; the face is a bigon
    when the walk leaves n and arrives back at k."""
    n = mates[k + 1 if k & 3 != 3 else k - 3]
    return n if mates[n + 1 if n & 3 != 3 else n - 3] == k else -1


def _box_unit(
    d: PlanarDiagram, box: list[int], corners: list[int], cancel: CancelToken | None
) -> _Unit:
    """A box as one step, its weights in closed form. The bracket skein
    module of a two-string tangle is free on its two crossingless pairings
    (Kauffman 1987), and a chain of crossings c_1 ... c_m joined by bigons
    is a product in the Temperley-Lieb algebra TL_2 on {1, e}, e^2 = delta e.

    corners are j_1 ... j_m as _boxes walks them: j_i is the corner of c_i
    on its bigon with c_(i+1), and j_m the corner of c_m on its bigon with
    c_(m-1), plus 2. At c_i the smoothing
    that pairs slots j_i and j_i + 1 is e, the other one is 1, so the box
    is a 1 + b e with (a, b) = (1, 0) before c_1 and
    (a, b) <- (a w_1, a w_e + b (w_1 + w_e delta)) at each crossing. As
    w_1 w_e = 1, w_1 + w_e delta = -w_e^3. The chain's ends are c_1's two
    slots away from c_2 and c_m's two away from c_(m-1): 1 pairs each end
    at c_1 with the end at c_m the 1-smoothings lead it to, e pairs the
    ends at c_1 and those at c_m. Ends joined to each other by an edge (a
    cycle, a kink, or more than two edges between two crossings) are closed
    as the sweep closes them (_smooth), so the unit's slots are the edges
    left open, in dart order, and each pairing of them gets one smoothing
    (_unit_of), or none when its weight cancels, as the pairing a
    Reidemeister II bigon's two crossings would join the outer ends by.

    The weights are packed at B from the crossings' bound, as a sweep over
    the box's crossings would take them, at lo = -3m - 4: no term is lower.

    A box of one crossing with four distinct edges is the crossing's own
    two smoothings (_SMOOTHINGS) on its edges."""
    _check(cancel)
    if len(box) == 1:
        edges = d.crossings[box[0]]
        if len(set(edges)) == 4:
            return _Unit(tuple(edges), _SMOOTHINGS, _CROSSING_BOUND)
    mates = d.mates
    bits = width(_CROSSING_BOUND ** len(box))
    pa, pb = 1, 0  # after i crossings, a = A^(-3i) pa(A^2), and b likewise
    for j in corners:
        if _SMOOTHINGS[j & 1][1] > 0:  # w_1 = A^-1, w_e = A
            pa, pb = pa << bits, (pa << 2 * bits) - (pb << 3 * bits)
        else:  # w_1 = A, w_e = A^-1
            pa, pb = pa << 2 * bits, (pa << bits) - pb
    first, last = 4 * box[0], 4 * box[-1]
    darts = (
        first + (corners[0] + 2 & 3),
        first + (corners[0] + 3 & 3),
        last + corners[-1],
        last + (corners[-1] + 1 & 3),
    )
    end = darts[0] & 3  # c_1's first end, walked along the 1-smoothings
    for x, j in zip(box, corners):
        end = _SMOOTHINGS[j & 1 ^ 1][0][end]
        if x != box[-1]:
            end = mates[4 * x + end] & 3
    one = (2, 3, 0, 1) if end == corners[-1] else (3, 2, 1, 0)
    link = tuple(darts.index(mates[k]) if mates[k] in darts else i for i, k in enumerate(darts))
    opened = [i for i in range(4) if link[i] == i]  # unit slot -> dart
    sums: dict[tuple[int, ...], int] = {}
    for mate, p in ((one, pa), ((1, 0, 3, 2), pb)):
        made, loops = _smooth(mate, link)
        for _ in range(loops):
            p = -(p + (p << 2 * bits))
        out = [0] * len(opened)
        for x, y in made:
            x, y = opened.index(x), opened.index(y)
            out[x], out[y] = y, x
        key = tuple(out)
        sums[key] = sums.get(key, 0) + (p << bits * (2 - loops))
    slots = tuple(d.crossings[darts[i] >> 2][darts[i] & 3] for i in opened)
    return _unit_of(slots, sums, -3 * len(box) - 4, bits)


def _sweep(
    units: Sequence[_Unit], bits: int, cancel: CancelToken | None
) -> tuple[dict[tuple[int, ...], tuple[int, int]], dict[int, int]]:
    """Insert units one at a time. Every state shares one frontier: each
    open edge keeps one position from the unit that opens it to the unit
    that closes it, and a state, the pairing of the open edges by the arcs
    of the processed part, is keyed by the tuple of each position's
    partner's position. An edge that a unit closes leaves a hole, which
    holds its own position in every key (a live edge is never its own
    partner), and the unit's new edges take the lowest holes first, so a
    key is as long as the most edges ever open at once. A unit changes
    only the pairs that end at it: each of its slots holds an open end, or
    is linked to another slot by two closing edges paired with each other.
    _smooth gives the new pairs and the loops closed for each smoothing and
    link pattern. So a unit's set-up touches only its own slots, a state
    reads the partners at its at most four closing positions, and a next
    key is a copy of the old one, padded to the new length, with the
    unit's holes reset and the new pairs written in. Returns the states and
    the edges left open, by position.

    A state's coefficient is packed into one integer (Kronecker
    substitution): (lo, P) with P = sum c_j 2^(Bj) stands for
    sum c_j A^(lo + 2j). Every term of a state has the parity of the number
    of crossings processed, so one slot per power of A^2 suffices. P is the
    polynomial at A^2 = 2^B, so sums, shifts and products of it are exact
    at any size; B = bits, from _width, lets the final coefficients be read
    back.

    A smoothing whose packed weight is not 1 first sums the states it
    sends to each next key, unweighted, and the sum is multiplied by the
    weight once: the product distributes over the sum. So a long weight
    costs one product per next key, not one per state.

    A state's P has at most span slots: each unit moves every term by the
    A^a W of one of its smoothings and by delta^L, L at most half its
    slots, so the lowest term can fall by at most 2L - min a and the
    highest rise by at most max (a + 2 len(cs) - 2) + 2L. Every coefficient
    is below 2^(B - 1) (_width), so P has at most B span bits, and the
    states at most len(states) B span; the sweep refuses past _BIT_LIMIT,
    as past _STATE_LIMIT, with TooLarge."""
    two = 2 * bits
    states: dict[tuple[int, ...], tuple[int, int]] = {(): (0, 1)}
    where: dict[int, int] = {}  # open edge -> its position
    holes: list[int] = []  # a heap of the free positions below size
    size = 0
    span = 1  # the most slots any state's P has (below)
    for u in units:
        _check(cancel)
        closing = []  # (slot, position) of each closing edge
        opened = []  # the slots of the new edges
        for s, e in enumerate(u.slots):
            i = where.pop(e, None)
            if i is None:
                opened.append(s)
            else:
                closing.append((s, i))
                heappush(holes, i)
        slot_of = {i: s for s, i in closing}
        # each slot's end: a new edge's own position, or set per state
        ident = range(len(u.slots))
        ends_at = list(ident)
        grown = size
        for s in opened:
            if holes:
                i = heappop(holes)
            else:
                i, size = size, size + 1
            where[u.slots[s]] = ends_at[s] = i
        pad = list(range(grown, size))
        taken = {ends_at[s] for s in opened}
        left = [i for i in slot_of if i not in taken]  # the holes the unit leaves
        new: dict[tuple[int, ...], tuple[int, int]] = {}
        # a smoothing of weight 1 adds its next states into new; another
        # sums them per next key in a table of its own, multiplied below.
        # low and high bound the a and a + 2 len(cs) of the smoothings (span)
        weights = []
        low = high = u.smoothings[0][1]
        for mate, a, cs in u.smoothings:
            w = pack(enumerate(cs), bits)
            weights.append((mate, a, w, new if w == 1 else {}))
            if a < low:
                low = a
            if a + 2 * len(cs) > high:
                high = a + 2 * len(cs)
        span += (high - low >> 1) + len(u.slots) - 1
        steps: dict[tuple[int, ...], list] = {}  # link pattern -> smoothings' walks
        for key, (lo, p) in states.items():
            link, ends = list(ident), ends_at.copy()
            for s, i in closing:
                j = key[i]
                t = slot_of.get(j)
                if t is None:
                    ends[s] = j
                else:
                    link[s] = t
            link = tuple(link)
            walks = steps.get(link)
            if walks is None:
                walks = steps[link] = [
                    (*_smooth(mate, link), a if table is new else 0, table)
                    for mate, a, _, table in weights
                ]
            for made, loops, a, table in walks:
                nk = [*key, *pad]
                for i in left:
                    nk[i] = i
                for s, t in made:
                    x, y = ends[s], ends[t]
                    nk[x], nk[y] = y, x
                nk = tuple(nk)
                q = p
                # delta = -A^-2 (1 + A^4); A^4 is two slots
                for _ in range(loops):
                    q = -(q + (q << two))
                lq = lo + a - 2 * loops
                old = table.get(nk)
                if old is None:
                    table[nk] = (lq, q)
                elif lq >= old[0]:
                    table[nk] = (old[0], old[1] + (q << bits * ((lq - old[0]) >> 1)))
                else:
                    table[nk] = (lq, q + (old[1] << bits * ((old[0] - lq) >> 1)))
        for _, a, w, table in weights:
            if table is not new:
                for nk, (lq, q) in table.items():
                    lq, q = lq + a, q * w
                    old = new.get(nk)
                    if old is None:
                        new[nk] = (lq, q)
                    elif lq >= old[0]:
                        new[nk] = (old[0], old[1] + (q << bits * ((lq - old[0]) >> 1)))
                    else:
                        new[nk] = (lq, q + (old[1] << bits * ((old[0] - lq) >> 1)))
        if len(new) > _STATE_LIMIT or len(new) * bits * span > _BIT_LIMIT:
            raise TooLarge(
                f"bracket state sum reaches {len(new)} states of at most {bits * span} "
                f"packed bits each; limits are {_STATE_LIMIT} states and {_BIT_LIMIT} bits"
            )
        states = new
    return states, {i: e for e, i in where.items()}


def _unit_graph(units: Sequence[_Unit]) -> list[list[int]]:
    """The graph _sweep_order takes: for each unit, the unit at the far end
    of each of its slot edges. Each slot edge is held by two units; an edge
    inside a unit is no slot."""
    holder: dict[int, int] = {}  # slot edge -> the first unit that holds it
    nbrs: list[list[int]] = [[] for _ in units]
    for i, u in enumerate(units):
        for e in u.slots:
            j = holder.setdefault(e, i)
            if j != i:
                nbrs[i].append(j)
                nbrs[j].append(i)
    return nbrs


@cache
def _compose(
    mate_a: tuple[int, ...], mate_b: tuple[int, ...], code: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """The pairing of the outer ends that smoothings mate_a of unit A and
    mate_b of unit B make together, as a mate of the merged unit's slots,
    and the loops they close. Slots 0-3 are A's, 4-7 B's; code[s] is the
    slot that a shared edge joins s to, or ~i for the merged unit's slot i.
    The one loop there can be runs through both shared edges, when both
    smoothings pair their shared ends."""
    made, loops = _smooth(
        mate_a + tuple(4 + t for t in mate_b), tuple(s if c < 0 else c for s, c in enumerate(code))
    )
    out = [0] * 4
    for x, y in made:
        x, y = ~code[x], ~code[y]
        out[x], out[y] = y, x
    return tuple(out), loops


def _joined(ua: _Unit, ub: _Unit) -> _Unit:
    """Two four-slot units joined by two edges as one unit: its slots are
    the four outer edges, A's and then B's, and each pair of smoothings
    composes (_compose) to a pairing of them with weight W_A W_B delta^L.
    Compositions with the same pairing are summed, and dropped when they
    cancel (_unit_of).

    The sums are taken packed at B = width(bound_A bound_B), each weight
    from the lowest power of A of its unit's smoothings. A unit's bound is
    at least 2 sum ||W||_1 (_bound), and ||W_A W_B delta^L||_1 <=
    2 ||W_A||_1 ||W_B||_1, so no sum has a coefficient as large as
    2 sum ||W_A||_1 sum ||W_B||_1 <= bound_A bound_B / 2, and each unpacks
    at B. Not all the sums can cancel, as the bracket of a link diagram is
    never 0 (V(1) = (-2)^(components - 1))."""
    code, outer = [], []  # the outer edges: A's, then B's
    for slots, other, at in ((ua.slots, ub.slots, 4), (ub.slots, ua.slots, 0)):
        for e in slots:
            if e in other:
                code.append(at + other.index(e))
            else:
                code.append(~len(outer))
                outer.append(e)
    code = tuple(code)
    bits = width(ua.bound * ub.bound)
    la = min([a for _, a, _ in ua.smoothings])
    lb = min([a for _, a, _ in ub.smoothings])
    wb = [(mate, pack(enumerate(cs, a - lb >> 1), bits)) for mate, a, cs in ub.smoothings]
    sums: dict[tuple[int, ...], int] = {}  # pairing -> P, at A^(la + lb - 2)
    for mate_a, a, cs in ua.smoothings:
        pa = pack(enumerate(cs, a - la >> 1), bits)
        for mate_b, pb in wb:
            mate, loops = _compose(mate_a, mate_b, code)
            p = pa * pb
            # delta = -A^-2 (1 + A^4); a composition without a loop is a slot up
            sums[mate] = sums.get(mate, 0) + (-(p + (p << 2 * bits)) if loops else p << bits)
    return _unit_of(tuple(outer), sums, la + lb - 2, bits)


def _merge_pairs(
    units: list[_Unit], nbrs: list[list[int]], cancel: CancelToken | None
) -> tuple[list[_Unit], list[list[int]]]:
    """Merge every two four-slot units joined by exactly two edges into one
    (_joined), as long as any are left, and return the units and their
    graph (_unit_graph). Unit i, from the lowest, takes in its lowest such
    partner while it has one. A merge changes only the merged unit's
    edges, so every pair it makes includes it, and one pass finds them
    all. The lists are updated in place; the units are renumbered once at
    the end."""
    dead = 0
    for i, ni in enumerate(nbrs):
        while len(ni) == 4 and len(set(ni)) < 4:
            for j in sorted(ni):
                if ni.count(j) == 2 and len(nbrs[j]) == 4:
                    break
            else:
                break
            _check(cancel)
            units[i], units[j] = _joined(units[i], units[j]), None
            far, nbrs[j] = nbrs[j], []
            ni.remove(j)
            ni.remove(j)
            far.remove(i)
            far.remove(i)
            for x in far:
                nx = nbrs[x]
                nx[nx.index(j)] = i
            ni += far
            dead += 1
    if not dead:
        return units, nbrs
    kept = [i for i, u in enumerate(units) if u is not None]
    at = {i: k for k, i in enumerate(kept)}
    return [units[i] for i in kept], [[at[x] for x in nbrs[i]] for i in kept]


def _sweep_order(nbrs: Sequence[Sequence[int]]) -> list[int]:
    """Process units in an order that keeps the frontier of open edges
    narrow. nbrs[i] lists the unit at the far end of each edge that leaves
    unit i. From every start unit a greedy sweep adds, among the units that
    touch the swept part, the one that changes the number of open edges
    least (ties by index); the sweep with the least (peak width, sum of
    2^(width/2)) wins, the earliest start on a tie.

    The sweep ranks candidates by one integer, key[j] = change * n + j,
    where change is j's degree less twice its swept neighbours: key[j] // n
    is the change and the order of keys is the order of (change, j).

    Each step of a sweep depends only on the set S of units swept so far:
    key[j] counts j's neighbours in S, the candidates are the unswept
    neighbours of S (all unswept units when S has none), and the width is
    the number of edges that leave S. So two sweeps that reach the same S
    go on alike, and the rest of the sweep after S, its peak and its cost,
    is a function of S. memo keeps, for each S (a bitmask) on the path of a
    sweep, the next unit and that rest; the full set has no next unit and
    an empty rest. Every sweep ends at a kept S. The walk back along its
    path adds each step's width to the rest after the set before it, which
    fills memo and, at the start, gives the score the whole sweep would
    reach, so each start wins or loses as it would without memo, and the
    winning order is read back from memo. A sweep whose width passes the
    best peak so far cannot win, and stops there; it keeps nothing in
    memo, as the rest after its sets is not known."""
    n = len(nbrs)
    base = [len(nbrs[j]) * n + j for j in range(n)]
    step = 2 * n
    # swept set -> (next unit, peak width after it, cost after it)
    memo: dict[int, tuple[int, int, int]] = {(1 << n) - 1: (-1, 0, 0)}
    # a width never exceeds the number of edge ends, so any whole sweep wins
    best_start, best_score = -1, (sum(map(len, nbrs)) + 1, 0)
    for start in range(n):
        key = base.copy()
        touching: set[int] = set()
        # the path: each swept set, the unit that made it and its width
        sets, added, widths = [], [], []
        swept = width = 0
        i = start
        while True:
            swept |= 1 << i
            width += key[i] // n
            sets.append(swept)
            added.append(i)
            widths.append(width)
            if swept in memo or width > best_score[0]:
                break
            touching.discard(i)
            for j in nbrs[i]:
                key[j] -= step
                if not swept >> j & 1:
                    touching.add(j)
            i = min(
                touching or [j for j in range(n) if not swept >> j & 1],
                key=key.__getitem__,
            )
        if swept not in memo:  # stopped: its peak passed the best
            continue
        # back along the path: each swept set, with the step that follows it
        _, peak, cost = memo[swept]
        for s, j, w in zip(sets[-2::-1], added[:0:-1], widths[:0:-1]):
            peak, cost = max(peak, w), cost + (1 << (w >> 1))
            memo[s] = (j, peak, cost)
        w = widths[0]
        score = (max(peak, w), cost + (1 << (w >> 1)))
        if score < best_score:
            best_start, best_score = start, score
    order, swept, i = [], 0, best_start
    while i >= 0:
        order.append(i)
        swept |= 1 << i
        i = memo[swept][0]
    return order


def kauffman_bracket(d: PlanarDiagram, cancel: CancelToken | None = None) -> LaurentPoly:
    """Bracket polynomial in the variable A (free loops excluded; the
    caller handles those). The diagram must pass validate_planarity
    (planar_faces, kept with a built union).

    The crossings are grouped into boxes (_boxes), each box's weights come
    from a two-term Temperley-Lieb recurrence over its crossings
    (_box_unit), every two four-ended units joined by two edges in the
    graph of their shared slot edges (_unit_graph) are merged into one
    (_merge_pairs), and one sweep runs over the units, each a step whose
    smoothings are the pairings of its ends, one per pairing with a weight
    that is not 0 (_unit_of). A 2-tangle's bracket is a<0> + b<oo>
    (Kauffman 1987), and two twist columns side by side, as in each kt
    box, are such a tangle with no bigon between them: merged, its weights
    enter the states once, and the order search and the sweep see one
    unit where there were two. A merged unit's
    weights are read off at the width of the two units' bounds (_joined),
    and its bound is the _bound of its smoothings, so _width holds over
    the merged units as over the boxes.

    The sweep gives delta <D> = A^lo P(x), x = A^2 = 2^B, and
    delta = -A^-2 (1 + x^2), so <D> = -A^(lo + 2) Q(x) with P = (1 + x^2) Q,
    taken by divmod on the packed integer. Q's coefficients
    q_k = sum_i (-1)^i p_(k-2i) have |q_k| <= ||P||_1 < 2^(B - 1) (_width),
    so Q unpacks at the same B. P mod 1 + x^2 is r_0 + r_1 x with
    |r_0| + |r_1| <= ||P||_1 (alternating sums of P's even and odd
    coefficients), so 0 < |r_0 + r_1 2^B| < 1 + 2^(2B) unless r_0 = r_1 = 0:
    the integer division leaves a remainder, and NonIntegralSolution is
    raised, exactly when the polynomial one does."""
    if not d.crossings:
        raise NoCrossings("bracket of a crossing-free diagram is handled upstream")
    planar_faces(d)
    units = [_box_unit(d, box, corners, cancel) for box, corners in _boxes(d)]
    units, nbrs = _merge_pairs(units, _unit_graph(units), cancel)
    bits = _width(units)
    states, front = _sweep([units[i] for i in _sweep_order(nbrs)], bits, cancel)
    if front or len(states) != 1:
        raise InvariantError("open strands left after processing all crossings")
    ((lo, p),) = states.values()
    q, r = divmod(p, 1 + (1 << 2 * bits))
    if r:
        raise NonIntegralSolution("bracket state sum is not a multiple of delta")
    return LaurentPoly({lo + 2 + 2 * j: -c for j, c in enumerate(unpack(q, bits)) if c})


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
        return conway_from_alexander(delta)
    if delta.is_zero():
        return ConwayPoly.zero()
    raise UnsupportedLinkCase(
        f"{components}-component closure with nonvanishing "
        "alexander polynomial is outside the conway conversion"
    )


def _conway_closure(d: PlanarDiagram, cancel: CancelToken | None) -> ConwayPoly:
    return _conway(alexander_region(d, cancel), d.component_count())


def _shared_alexander(
    k: PlanarDiagram, t: Tangle | None, cancel: CancelToken | None
) -> tuple[LaurentPoly, int]:
    """Alexander polynomial (region route) and component count of a
    diagram that both the product formula and the fraction rule read: the
    union k itself (t None) or the numerator closure of a tangle t. Both
    are computed once per union; a closure is kept by the content of t, so
    regions holding equal tangles share it."""

    def compute() -> tuple[LaurentPoly, int]:
        d = k if t is None else numerator(t)
        return alexander_region(d, cancel), d.component_count()

    if t is None:
        return derived(k, ("alexander", "union"), compute)
    return derived(k, ("alexander", t.key), compute)


def verify_zero_replacement(union) -> VerificationReport:
    """Replacing every inserted tangle by the crossingless west-to-east
    tangle splits the union and kills its Alexander polynomial, read off
    the diagram of the zero replacement that the built union's mates give
    (construct.zero_replacement). Where the axis edge and a marked edge
    cut the partial in two, its graph falls apart: a split diagram, whose
    polynomial is 0. A union with no tangle region has nothing to replace:
    the lemma says nothing about it, and the report records that and
    holds no check."""
    k = built_union(union)
    rep = VerificationReport("zero replacement collapses the polynomial")
    if not k.meta.spec.tangles:
        rep.record("tangle regions", "none, so the lemma is vacuous")
        return rep
    z = zero_replacement(k)
    a = alexander_region(z)
    rep.record("components", z.component_count())
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

    via_region, _ = _shared_alexander(k, None, cancel)
    via_fox = alexander_fox(presentation(k), cancel)
    rep.record("alexander of union", via_region.text())
    rep.add(
        "region and fox routes agree",
        via_region == via_fox,
        f"fox route gave {via_fox.text()}",
    )

    half = alexander_region(spec.partial, cancel)
    rep.record("partial factor", half.text())
    prod = half * half
    for i, t in enumerate(spec.tangles, start=1):
        f, _ = _shared_alexander(k, t, cancel)
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
    rule of verify_fraction_formula applies, with both closures of the
    complement read off the union with the box contracted to one vertex,
    from one phase 1 (complement_closures). Its numerator closure splits
    the diagram and vanishes."""
    k = built_union(union)
    t = region_tangle(k, region)
    rep = VerificationReport(f"fraction decomposition at region {region}")
    rep.record("union crossings", len(k.crossings))
    closures = cache(lambda: complement_closures(k, region, cancel))

    def shared(t: Tangle | None):
        return lambda: _conway(*_shared_alexander(k, t, cancel))

    def complement(horizontal: bool):
        return lambda: _conway(*closures()(horizontal))

    return _sum_rule(
        rep,
        ("conway of union", shared(None)),
        ("numerator of tangle", shared(t)),
        ("denominator of complement", complement(False)),
        ("numerator of complement", complement(True)),
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
