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
from itertools import permutations
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
    build_all_zero_replacement,
    built_union,
    derived,
    expect_knot,
    flanking_faces,
    open_box,
    planar_faces,
    region_tangle,
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
    face = planar_faces(d)
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
    """Both closures of region i's complement from one rebuild and one
    elimination: the function that takes horizontal to the normalized
    Alexander polynomial and the component count of N(C) (True) or of
    D(C) (False), which must be a knot.

    Phase 1 (poly._unit_pivots) runs here, once, on the open box's region
    matrix (construct.open_box) without the twist's rows, over the faces
    but the bigon, N and W, with E and S last and never pivoted on. A
    closure finishes the block left with S's column or E's
    (poly._block_det) when it is asked for, so D(C) raises NotAKnot only
    then. cancel is polled as det_laurent polls it."""
    d, filler, (bigon, n, e, s, w), numerator_components = open_box(k, i)
    others = set(range(len(d.crossings) + 2)) - {bigon, n, e, s, w}
    column = {f: j for j, f in enumerate([*sorted(others), e, s])}
    rows = region_matrix(d)
    del rows[filler : filler + 2]
    rows = [{column[f]: p for f, p in row.items() if f in column} for row in rows]
    found = _unit_pivots(rows, cancel, range(len(others), len(column)))

    def closure(horizontal: bool) -> tuple[LaurentPoly, int]:
        m = numerator_components if horizontal else expect_knot(d).component_count()
        # W = E: N(C) is split and D(C) keeps A alone (open_box)
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
# most Catalan(w/2) pairings. A state takes about 0.8 to 1.6 KB at 68
# crossings, 0.6 to 1.2 KB at 63 (T(8, 9), 1,430 states) and 15 to 21 KB
# at 820, mostly its packed coefficient, which grows with the crossings;
# its key, a tuple of partner positions, is 0.1 to 0.4 KB less than a
# tuple of edge pairs.
_STATE_LIMIT = 50_000

# (mate, a, cs): a pairing of a unit's slots and its weight
_Smoothing = tuple[tuple[int, ...], int, tuple[int, ...]]


class _Unit(NamedTuple):
    """One step of the bracket sweep: a box of crossings summed up in
    closed form (_box_unit). slots are the edge ids of its open ends. Each
    smoothing pairs the slots (mate[s] is the slot joined to s) with weight
    sum cs[j] A^(a + 2j). bound is _bound of the smoothings."""

    slots: tuple[int, ...]
    smoothings: tuple[_Smoothing, ...]
    bound: int


def _smooth(
    mate: Sequence[int], link: dict[int, int], ends: dict[int, int]
) -> tuple[tuple[tuple[int, int], ...], int]:
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
    return tuple(made), loops


# _smooth of every smoothing against every link pattern, by (mate, link):
# the pairs of end slots it makes and the loops it closes. A unit has 0, 2
# or 4 slots; mate is a perfect matching of them and link an involution,
# link[s] the slot s is linked to, or s when s holds an open end. 1 + 2 +
# 3 * 10 = 33 entries.
_WALKS = {
    (mate, link): _smooth(
        mate,
        {s: t for s, t in enumerate(link) if s != t},
        {s: s for s, t in enumerate(link) if s == t},
    )
    for n in (0, 2, 4)
    for link in permutations(range(n))
    if all(link[t] == s for s, t in enumerate(link))
    for mate in permutations(range(n))
    if all(mate[t] == s != t for s, t in enumerate(mate))
}


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
    smoothings pair the slots in distinct ways (_box_unit merges them by
    pairing), so a pattern matches at most one, and the most is reached at
    the pattern of the smoothing with the largest ||W||_1:
    2 sum ||W||_1 + (2^k - 2) max ||W||_1."""
    norms = [sum(map(abs, cs)) for _, _, cs in smoothings]
    k = len(smoothings[0][0]) // 2
    return 2 * sum(norms) + ((1 << k) - 2) * max(norms)


# A crossing's two smoothings, with weights A and A^-1, and their bound (6).
_SMOOTHINGS = (((1, 0, 3, 2), 1, (1,)), ((3, 2, 1, 0), -1, (1,)))
_CROSSING_BOUND = _bound(_SMOOTHINGS)


def _width(units: Sequence[_Unit]) -> int:
    """The packing width B of a sweep over units. Merging states can only
    lower the l1 norm, so after every unit the l1 norm of all live
    coefficients is at most the product of the bounds of the units so far,
    and so is every final |c|; it is below 2^(B - 1)."""
    return width(math.prod(u.bound for u in units))


def _boxes(d: PlanarDiagram, face: Sequence[int]) -> list[list[int]]:
    """The crossings grouped into boxes, each in chain order: a box is a
    connected set of crossings joined by bigon faces, and a crossing on no
    bigon is a box of its own. face is the face id at each corner
    (diagram.faces); a bigon is a face at exactly two corners.

    A bigon at corner j of crossing x takes slots j and j + 1 of x to one
    other crossing, so x has at most two bigon neighbours (at corners j and
    j + 2). Every box is therefore a path or a cycle, and has at most four
    external edge ends: neighbours on a path share at least two edges, and
    4k - 2 * 2(k - 1) = 4. Only in a one-crossing diagram does a bigon have
    both corners at one crossing; the walk skips that self-neighbour as
    seen."""
    at: list[list[int]] = [[] for _ in range(max(face) + 1)]
    for k, f in enumerate(face):
        at[f].append(k >> 2)
    nbr: list[set[int]] = [set() for _ in d.crossings]
    for xs in at:
        if len(xs) == 2:
            x, y = xs
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


def _across(mates: Sequence[int], k: int) -> int:
    """The other corner of the face at corner k if that face is a bigon,
    else -1. The face walk (diagram.faces) leaves corner k through the next
    slot counterclockwise and arrives at a corner n; the face is a bigon
    when the walk leaves n and arrives back at k."""
    n = mates[k + 1 if k & 3 != 3 else k - 3]
    return n if mates[n + 1 if n & 3 != 3 else n - 3] == k else -1


def _box_unit(d: PlanarDiagram, box: list[int], cancel: CancelToken | None) -> _Unit:
    """A box as one step, its weights in closed form. The bracket skein
    module of a two-string tangle is free on its two crossingless pairings
    (Kauffman 1987), and a chain of crossings c_1 ... c_m joined by bigons
    is a product in the Temperley-Lieb algebra TL_2 on {1, e}, e^2 = delta e.

    Let j_i be the corner of c_i on its bigon with c_(i+1), and j_m the
    corner of c_m on its bigon with c_(m-1), plus 2. At c_i the smoothing
    that pairs slots j_i and j_i + 1 is e, the other one is 1, so the box
    is a 1 + b e with (a, b) = (1, 0) before c_1 and
    (a, b) <- (a w_1, a w_e + b (w_1 + w_e delta)) at each crossing. As
    w_1 w_e = 1, w_1 + w_e delta = -w_e^3. The chain's ends are c_1's two
    slots away from c_2 and c_m's two away from c_(m-1): 1 pairs each end
    at c_1 with the end at c_m the 1-smoothings lead it to, e pairs the
    ends at c_1 and those at c_m. Ends joined to each other by an edge (a
    cycle, a kink, or more than two edges between two crossings) are closed
    as the sweep closes them (_smooth), so the unit's slots are the edges
    left open and each pairing of them gets one smoothing.

    The weights are packed at B from the crossings' bound, as a sweep over
    the box's crossings would take them, at lo = -3m - 4: no term is lower.

    A box of one crossing with no kink is the crossing's own two
    smoothings (_SMOOTHINGS), moved onto its four edges in sorted order."""
    _check(cancel)
    mates = d.mates
    if len(box) == 1 and all(mates[k] >> 2 != box[0] for k in range(4 * box[0], 4 * box[0] + 4)):
        edges = d.crossings[box[0]]
        slots = tuple(sorted(edges))
        at = [slots.index(e) for e in edges]  # crossing slot -> unit slot
        order = [edges.index(e) for e in slots]  # unit slot -> crossing slot
        return _Unit(
            slots,
            tuple((tuple(at[mate[j]] for j in order), a, cs) for mate, a, cs in _SMOOTHINGS),
            _CROSSING_BOUND,
        )
    # Along one chain of faces: each next corner is opposite the corner the
    # last bigon arrives at, as an interior crossing's two bigons lead to
    # two other crossings. Two crossings may share two bigons, so c_m's
    # corner comes from the face the chain arrives by, not from a search.
    # A box of one crossing is taken at corner 0.
    if len(box) == 1:
        corners = [0]
    else:
        corners = [next(j for j in range(4) if _across(mates, 4 * box[0] + j) >> 2 == box[1])]
    for x in box[:-1]:
        corners.append(_across(mates, 4 * x + corners[-1]) & 3 ^ 2)
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
    link, ends = [], {}
    for i, k in enumerate(darts):
        if mates[k] in darts:
            link.append(darts.index(mates[k]))
        else:
            link.append(i)
            ends[i] = d.crossings[k >> 2][k & 3]
    merged: dict[tuple[tuple[int, int], ...], int] = {}
    for mate, p in ((one, pa), ((1, 0, 3, 2), pb)):
        made, loops = _WALKS[mate, tuple(link)]
        for _ in range(loops):
            p = -(p + (p << 2 * bits))
        merged[made] = merged.get(made, 0) + (p << bits * (2 - loops))
    slots = tuple(sorted(ends.values()))
    at = {i: slots.index(e) for i, e in ends.items()}  # dart -> unit slot
    smoothings = []
    for pairs, p in merged.items():
        mate = [0] * len(slots)
        for x, y in pairs:
            mate[at[x]], mate[at[y]] = at[y], at[x]
        low = ((p & -p).bit_length() - 1) // bits if p else 0  # zero slots at the bottom
        cs = unpack(p >> bits * low, bits)
        smoothings.append((tuple(mate), 2 * low - 3 * len(box) - 4, cs))
    return _Unit(slots, tuple(smoothings), _bound(smoothings))


def _sweep(
    units: Sequence[_Unit], bits: int, cancel: CancelToken | None
) -> tuple[dict[tuple[int, ...], tuple[int, int]], tuple[int, ...]]:
    """Insert units one at a time. Every state shares one frontier, the
    open edges in a fixed order; a state is the pairing of them by the
    arcs of the processed part, keyed by the tuple of each edge's
    partner's position. A unit changes only the pairs that end at it: each
    of its slots holds an open end, or is linked to another slot by two
    closing edges paired with each other. _WALKS gives the new pairs and
    the loops closed for each smoothing and link pattern. The edges left
    open keep their order and the unit's new edges follow them, so once per
    unit the positions of the closing edges, the survivors' new positions
    and those of the new edges are known, and a next key is the survivors'
    partners moved to their new positions with the new pairs written in.
    Returns the states and the frontier left open.

    A state's coefficient is packed into one integer (Kronecker
    substitution): (lo, P) with P = sum c_j 2^(Bj) stands for
    sum c_j A^(lo + 2j). Every term of a state has the parity of the number
    of crossings processed, so one slot per power of A^2 suffices. P is the
    polynomial at A^2 = 2^B, so sums, shifts and products of it are exact
    at any size; B = bits, from _width, lets the final coefficients be read
    back."""
    two = 2 * bits
    states: dict[tuple[int, ...], tuple[int, int]] = {(): (0, 1)}
    front: tuple[int, ...] = ()
    for u in units:
        _check(cancel)
        at = {e: i for i, e in enumerate(front)}
        slot_at = [-1] * len(front)  # position -> the slot its edge closes at
        closing = []  # (slot, position) of each closing edge
        for s, e in enumerate(u.slots):
            if e in at:
                slot_at[at[e]] = s
                closing.append((s, at[e]))
        kept = [i for i, s in enumerate(slot_at) if s < 0]
        moved = [0] * len(front)  # position -> its new position, if kept
        for j, i in enumerate(kept):
            moved[i] = j
        opened = [s for s, e in enumerate(u.slots) if e not in at]
        front = tuple(front[i] for i in kept) + tuple(u.slots[s] for s in opened)
        # each slot's end: a new edge's own new position, or set per state
        ident = list(range(len(u.slots)))
        ends_at = ident.copy()
        for j, s in enumerate(opened, len(kept)):
            ends_at[s] = j
        pad = [0] * len(opened)
        weights = [(mate, a, pack(enumerate(cs), bits)) for mate, a, cs in u.smoothings]
        steps: dict[tuple[int, ...], list] = {}  # link pattern -> smoothings' walks
        new: dict[tuple[int, ...], tuple[int, int]] = {}
        for key, (lo, p) in states.items():
            link, ends = ident.copy(), ends_at.copy()
            for s, i in closing:
                j = key[i]
                if slot_at[j] < 0:
                    ends[s] = moved[j]
                else:
                    link[s] = slot_at[j]
            link = tuple(link)
            walks = steps.get(link)
            if walks is None:
                walks = steps[link] = [(*_WALKS[mate, link], a, w) for mate, a, w in weights]
            base = [moved[key[i]] for i in kept] + pad
            for made, loops, a, w in walks:
                nk = base.copy()
                for s, t in made:
                    x, y = ends[s], ends[t]
                    nk[x], nk[y] = y, x
                nk = tuple(nk)
                q = p if w == 1 else p * w
                # delta = -A^-2 (1 + A^4); A^4 is two slots
                for _ in range(loops):
                    q = -(q + (q << two))
                lq = lo + a - 2 * loops
                old = new.get(nk)
                if old is None:
                    new[nk] = (lq, q)
                elif lq >= old[0]:
                    new[nk] = (old[0], old[1] + (q << bits * ((lq - old[0]) >> 1)))
                else:
                    new[nk] = (lq, q + (old[1] << bits * ((old[0] - lq) >> 1)))
        if len(new) > _STATE_LIMIT:
            raise TooLarge(
                f"bracket state sum reaches {len(new)} states; limit is {_STATE_LIMIT}"
            )
        states = new
    return states, front


def _unit_graph(d: PlanarDiagram, boxes: Sequence[Sequence[int]]) -> list[list[int]]:
    """The graph _sweep_order takes: for each box, the box at the far end
    of each edge that leaves it. An edge inside a box never opens."""
    unit_of = {ci: i for i, box in enumerate(boxes) for ci in box}
    nbrs: list[list[int]] = [[] for _ in boxes]
    for k, m in enumerate(d.mates):
        if k > m:  # each edge once, from its first end
            continue
        u, v = unit_of[k >> 2], unit_of[m >> 2]
        if u != v:
            nbrs[u].append(v)
            nbrs[v].append(u)
    return nbrs


def _sweep_order(nbrs: Sequence[Sequence[int]]) -> list[int]:
    """Process units in an order that keeps the frontier of open edges
    narrow. nbrs[i] lists the unit at the far end of each edge that leaves
    unit i. From every start unit a greedy sweep adds, among the units that
    touch the swept part, the one that changes the number of open edges
    least (ties by index); the sweep with the least (peak width, sum of
    2^(width/2)) wins, the earliest start on a tie. A sweep stops once it
    cannot win: its peak never falls, and each unit still to add costs at
    least 1.

    The sweep ranks candidates by one integer, key[j] = change * n + j,
    where change is j's degree less twice its swept neighbours: key[j] // n
    is the change and the order of keys is the order of (change, j).

    Each step of a sweep depends only on the set S of units swept so far:
    key[j] counts j's neighbours in S, the candidates are the unswept
    neighbours of S (all unswept units when S has none), and the width is
    the number of edges that leave S. So two sweeps that reach the same S
    go on alike, and the rest of the sweep after S, its peak and its cost,
    is a function of S. memo keeps, for each S (a bitmask) on the path of a
    sweep that was not stopped, the next unit and that rest; the full set
    has no next unit and an empty rest. A sweep that reaches a kept S ends
    there with the score the whole sweep would reach, (max(peak, rest
    peak), cost + rest cost), so each start wins or loses as it would
    without memo, and the winning order is read back from memo."""
    n = len(nbrs)
    base = [len(nbrs[j]) * n + j for j in range(n)]
    step = 2 * n
    # swept set -> (next unit, peak width after it, cost after it)
    memo: dict[int, tuple[int, int, int]] = {(1 << n) - 1: (-1, 0, 0)}
    # a width never exceeds the number of edge ends, so any whole sweep wins
    best_start, best_score = -1, (sum(map(len, nbrs)) + 1, 0)
    for start in range(n):
        key = list(base)
        touching: set[int] = set()
        path: list[tuple[int, int, int]] = []  # (swept set, unit added, width)
        swept = width = peak = cost = 0
        left = n
        i = start
        while True:
            swept |= 1 << i
            left -= 1
            touching.discard(i)
            width += key[i] // n
            if width > peak:
                peak = width
            cost += 1 << (width >> 1)
            path.append((swept, i, width))
            rest = memo.get(swept)
            if rest is not None:
                break
            if (peak, cost + left) >= best_score:
                break  # can no longer beat the best sweep
            for j in nbrs[i]:
                key[j] -= step
                if not swept >> j & 1:
                    touching.add(j)
            i = min(
                touching or [j for j in range(n) if not swept >> j & 1],
                key=key.__getitem__,
            )
        if rest is None:
            continue
        _, rest_peak, rest_cost = rest
        score = (max(peak, rest_peak), cost + rest_cost)
        if score < best_score:
            best_start, best_score = start, score
        # back along the path: each swept set, with the step that follows it
        for (s, _, _), (_, j, w) in zip(path[-2::-1], path[:0:-1]):
            rest_peak, rest_cost = max(rest_peak, w), rest_cost + (1 << (w >> 1))
            memo[s] = (j, rest_peak, rest_cost)
    order, swept, i = [], 0, best_start
    while i >= 0:
        order.append(i)
        swept |= 1 << i
        i = memo[swept][0]
    return order


def kauffman_bracket(d: PlanarDiagram, cancel: CancelToken | None = None) -> LaurentPoly:
    """Bracket polynomial in the variable A (free loops excluded; the
    caller handles those). The diagram must pass validate_planarity, whose
    face ids by corner give the boxes' bigons (planar_faces).

    The crossings are grouped into boxes (_boxes), each box's weights come
    from a two-term Temperley-Lieb recurrence over its crossings
    (_box_unit), and one sweep runs over the boxes, each a step whose
    smoothings are the pairings of its ends.

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
    boxes = _boxes(d, planar_faces(d))
    units = [_box_unit(d, box, cancel) for box in boxes]
    bits = _width(units)
    states, _ = _sweep([units[i] for i in _sweep_order(_unit_graph(d, boxes))], bits, cancel)
    if set(states) != {()}:
        raise InvariantError("open strands left after processing all crossings")
    lo, p = states[()]
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
    tangle splits the union and kills its Alexander polynomial. A union
    with no tangle region has nothing to replace: the lemma says nothing
    about it, and the report records that and holds no check."""
    k = built_union(union)
    rep = VerificationReport("zero replacement collapses the polynomial")
    if not k.meta.spec.tangles:
        rep.record("tangle regions", "none, so the lemma is vacuous")
        return rep
    flat = build_all_zero_replacement(k)
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
    complement from one rebuild and one phase 1 (complement_closures). Its
    numerator closure splits the diagram and vanishes."""
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
