"""Helpers only the tests use: a display layout for Alexander polynomials,
parsers for the text forms of Laurent polynomials and free-group words,
edge renumbering along the orientation (along_orientation), the
crossing-free unknot, the half-turn rotation of a tangle, the union's
assembly by provisional edge ids that the builder's dart pairing is
checked against (assemble_by_ids), the complement tangle of a one-region
union (glued_pair), the Conway-to-Alexander
substitution and the Conway peel by powers of z^2 = t - 2 + 1/t, a
monicity check, the slopes of rational tangles, the rank of a
presentation's abelianization, the exhaustive attachment search the
builder's face rule is checked against, the one-strand reversal
tangle.orient is checked against and the strand-reversal searches it
replaced, dense matrices as the sparse rows det_laurent
takes, a generator of small random union specs, a chain of circles, the
unions of the benchmark's scaling-family pool and random pool, the kt(m) x 4 family the
scaling script and the tests share (kt_member), cylinder grids and the
search for the bracket sweep's order without its memo, the bracket sweep's unit
bound by enumerating link patterns, and the loops pack and unpack split
into halves, the rebuild of a union with other tangles in its boxes
(through assemble_by_ids), and
the zero replacement and the fraction certificate's complement closures
taken from rebuilds, as they were before they were read off the union,
the Jones polynomial's values at the third and fourth roots of unity,
the bracket sweep keyed by sorted edge pairs and the box walk, both by
the walk over dicts (smooth_reference) that the cached walk replaced, the
boxes grouped by bucketing face corners and their chain corners derived
per box, as they were before _boxes walked the bigons, the unit graph
read off the mates as it was before it was read off the units, the box
units and the units the sweep runs over once its four-slot pairs are
merged, the Jones polynomial of the sweep over the unmerged box units
(jones_unmerged), a counter of the sweep's states, links on cylinder
grids, the torus knots T(p, p + 1) as braid closures with their Jones
polynomials in closed form, and their partials with two long kt boxes
(wide_union)."""

import itertools
import json
import random
import re
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

from symunion import construct, tangle
from symunion.construct import SymUnionSpec, build_symmetric_union
from symunion.corpus import FIGURE_EIGHT, FIVE_TWO, TREFOIL
from symunion.construct import _SIGMA, UnionMeta
from symunion.diagram import Crossing, DiagramError, DisconnectedDiagram, PlanarDiagram, faces
from symunion.group import GroupWord, WirtingerPresentation, wirtinger
from symunion import invariant as inv
from symunion.invariant import alexander_region
from symunion.poly import (
    ConwayPoly,
    LaurentPoly,
    NonIntegralSolution,
    NotNormalizable,
    NotSymmetric,
    ZeroPolynomial,
    normalize_alexander,
    pack,
    unpack,
    width,
)
from symunion.tangle import (
    CORNERS,
    OrientationMismatch,
    Tangle,
    kt_tangle,
    numerator,
    rational_tangle,
    vertical_twists,
)


def display_form(p: LaurentPoly) -> LaurentPoly:
    """Shift so the lowest exponent is 0; the table-friendly layout."""
    if p.is_zero():
        return p
    return p.shift(-p.min_exp())


def sparse(rows) -> list[dict[int, dict[int, int]]]:
    """A dense matrix of LaurentPoly entries (a list of rows) as the sparse
    rows det_laurent takes: column -> {exp: coeff} of a nonzero entry."""
    return [{j: p.to_dict() for j, p in enumerate(row) if p} for row in rows]


def along_orientation(
    rows: Sequence[Sequence[int]], flags: Sequence[bool], start: int
) -> dict[int, int]:
    """New ids 1..n for the edge ids in PD rows with over flags, given
    along the orientation one component at a time: the component of start
    first, from start, then the others in order of their lowest id, each
    from that id. The ids need not be 1..n. An edge with no head in the
    rows ends its walk, so every id is numbered, and the PlanarDiagram
    built from bad rows reports them."""
    succ = {}
    for (a, b, c, d), over_from_d in zip(rows, flags):
        succ[a] = c
        if over_from_d:
            succ[d] = b
        else:
            succ[b] = d
    perm: dict[int, int] = {}
    for e in (start, *sorted({e for row in rows for e in row})):
        while e not in perm:
            perm[e] = len(perm) + 1
            e = succ.get(e, e)
    return perm


def renumber_edges(d: PlanarDiagram, start_edge: int) -> PlanarDiagram:
    """Assign ids 1..2c along the orientation, one component at a time
    (along_orientation), starting at ``start_edge``. Labels are
    carried over; metadata is dropped because it holds edge references.
    Diagrams built in different orders compare equal after it."""
    if not d.crossings:
        return PlanarDiagram((), (), d.free_loops, {}, None)
    if start_edge not in range(1, d.edge_count + 1):
        raise ValueError(f"edge {start_edge} not in the diagram")
    perm = along_orientation(d.crossings, d.over_from_d, start_edge)
    xs = tuple(Crossing(*(perm[e] for e in x)) for x in d.crossings)
    labels = {perm[e]: v for e, v in d.labels.items()}
    return PlanarDiagram(xs, tuple(d.over_from_d), d.free_loops, labels, None)


def parse_word(text: str) -> GroupWord:
    """The inverse of group.word_text."""
    out = []
    for tok in text.split():
        if tok.endswith("^-1"):
            out.append((tok[:-3], -1))
        else:
            out.append((tok, 1))
    return tuple(out)


def abelianization_rank(p: WirtingerPresentation) -> int:
    """Rank over the rationals of the relators' exponent-sum matrix."""
    idx = {g: j for j, g in enumerate(p.generators)}
    rows = []
    for r in p.relators:
        row = [Fraction(0)] * len(p.generators)
        for g, e in r:
            row[idx[g]] += e
        rows.append(row)
    rank = 0
    col = 0
    n = len(p.generators)
    while rank < len(rows) and col < n:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def exhaustive_build(spec: construct.SymUnionSpec) -> PlanarDiagram:
    """The union built by trying every attachment vector in product order,
    bit 0 first, and keeping the first that embeds; the oracle for the
    face rule of construct.build_symmetric_union."""
    construct._validate_inputs(spec)
    for t in spec.tangles:
        if not tangle.is_even_type(t):
            raise construct.NotEvenType(f"{t.pairing()} is not north-to-south")
    first_err = None
    for bits in itertools.product((0, 1), repeat=len(spec.tangles)):
        try:
            return construct.expect_knot(construct._assemble_with_bits(spec, bits))
        except construct.NotPlanarInsertion as exc:
            if first_err is None:
                first_err = exc
    raise first_err


def reverse_strand(t: Tangle, corner: str) -> Tangle:
    """Reverse the orientation of the strand whose end lies at corner, one
    strand at a time; the reference for tangle.orient.

    The crossings the strand passes under are turned so that the under
    strand enters at slot a again, the over flag flips at a crossing the
    strand passes once, and the flows at its two ends swap. The result is
    built through the constructor, so every check runs on it."""
    start, end, _ = next(s for s in t.strands if corner in (s[0], s[1]))
    under: set[int] = set()
    over: set[int] = set()
    for k in t._follow(start)[2]:
        (over if k & 1 else under).add(k >> 2)
    xs = list(t.crossings)
    flags = list(t.over_from_d)
    for i in under:
        xs[i] = Crossing(xs[i].c, xs[i].d, xs[i].a, xs[i].b)
    for i in under ^ over:
        flags[i] = not flags[i]
    flows = dict(t.flows)
    for c in (start, end):
        flows[c] = "out" if flows[c] == "in" else "in"
    return Tangle(tuple(xs), tuple(flags), dict(t.boundary), flows, t.closed_loops)


def four_variants(t: Tangle) -> list[Tangle]:
    """t, then t with its first, its second and both strands reversed."""
    a, b = (s[0] for s in t.strands)
    ra = reverse_strand(t, a)
    return [t, ra, reverse_strand(t, b), reverse_strand(ra, b)]


def fit_seams_by_search(t1: Tangle, t2: Tangle, seams) -> tuple[Tangle, Tangle]:
    """The first of the 16 strand-reversal variants of (t1, t2) whose seams
    each join an 'out' to an 'in', t1's variants outermost, each in the
    order itself, first strand reversed, second, both; the oracle for
    tangle._fit_seams."""

    def ok(a: Tangle, b: Tangle) -> bool:
        return all(a.flows[c1] != b.flows[c2] for c1, c2 in seams)

    for a in four_variants(t1):
        for b in four_variants(t2):
            if ok(a, b):
                return a, b
    raise OrientationMismatch("no strand orientation satisfies the seams")


def close_by_walk(t: Tangle, pairs) -> PlanarDiagram:
    """The closure of t along pairs of corners, each component walked
    strand, closure arc, strand, ... from its first corner in CORNERS
    order, and each strand reversed as the walk meets it leaving; the
    oracle for tangle.numerator and tangle.denominator."""
    arcs = {a: b for a, b in pairs}
    arcs.update({b: a for a, b in pairs})
    fixed: set[str] = set()
    for start in CORNERS:
        corner = start
        while corner not in fixed:
            strand = next(s for s in t.strands if corner in (s[0], s[1]))
            out = strand[1] if strand[0] == corner else strand[0]
            if t.flows[corner] != "in":
                t = reverse_strand(t, corner)
            fixed.update((corner, out))
            corner = arcs[out]
    joins = [(t.boundary[a], t.boundary[b]) for a, b in pairs]
    xs, _, loops = tangle._join(t.edge_count, t.crossings, joins)
    return PlanarDiagram(tuple(xs), tuple(t.over_from_d), free_loops=loops + t.closed_loops)


def circle_chain(k):
    """k round circles in a row, each overlapping the next and passing over
    it at both crossings: the k-component unlink with 2(k - 1) crossings.
    Its end overlaps are boxes with two ends and weight delta, the middle
    ones boxes with four ends and weight 1, so the coefficients of its
    bracket delta^(k - 1) grow only by the loops the sweep closes between
    boxes."""
    ids = {}

    def edge(name):
        return ids.setdefault(name, len(ids) + 1)

    def top(j):  # circle j from its crossing with j + 1 to the one with j - 1
        return edge("left" if j == 1 else "right" if j == k else f"top{j}")

    def bottom(j):
        return edge("left" if j == 1 else "right" if j == k else f"bottom{j}")

    rows = []
    for i in range(1, k):
        inner_left, inner_right = edge(f"inner_left{i + 1}"), edge(f"inner_right{i}")
        rows.append((top(i + 1), top(i), inner_left, inner_right))
        rows.append((inner_left, bottom(i), bottom(i + 1), inner_right))
    return PlanarDiagram(tuple(Crossing(*row) for row in rows))


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


_ZSQ = LaurentPoly({1: 1, 0: -2, -1: 1})  # the image of z^2


def alexander_from_conway(n: ConwayPoly) -> LaurentPoly:
    """Substitute z^2 = t - 2 + 1/t. Defined for even powers only."""
    acc = LaurentPoly.zero()
    for e, v in n.items():
        if e % 2:
            raise ValueError("odd z-powers do not land in the t-ring")
        acc = acc + v * _ZSQ ** (e // 2)
    return acc


def conway_by_zsq_powers(p: LaurentPoly) -> ConwayPoly:
    """The z-form of p peeled with Laurent products: the top term a t^k of
    the rest is matched by a z^(2k), and a * _ZSQ**k is subtracted. The
    oracle for poly.conway_from_alexander's binomial peel, with the same
    checks in the same order."""
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
        out[2 * k] = a
        rem = rem - a * _ZSQ**k
    nabla = ConwayPoly(out)
    if nabla.coeff(0) != 1:
        raise NotNormalizable("constant term of the z-form is not 1")
    return nabla


def is_monic(p: LaurentPoly) -> bool:
    """True iff both the top and the bottom coefficient are ±1."""
    if p.is_zero():
        raise ZeroPolynomial("monicity undefined for 0")
    return abs(p.coeff(p.max_exp())) == 1 and abs(p.coeff(p.min_exp())) == 1


def tangle_fraction(cf) -> tuple[int, int]:
    """The slope p/q of rational_tangle(cf) as a pair; T(1/0) is (1, 0)."""
    if cf == "inf":
        return (1, 0)
    p, q = 0, 1
    for pos, a in enumerate(cf):
        if pos % 2 == 0:
            p, q = p + a * q, q
        else:
            p, q = p, a * p + q
    if q < 0:
        p, q = -p, -q
    return (p, q)


# Pools for randomized property suites. Partials are knot diagrams of at
# most six crossings; insertions are north-to-south pairing tangles of at
# most four crossings.
PARTIAL_POOL: tuple[PlanarDiagram, ...] = (
    TREFOIL,
    FIGURE_EIGHT,
    FIVE_TWO,
    numerator(rational_tangle([1, 1, 1, 1, 2])),
)

TANGLE_POOL: tuple[Tangle, ...] = (
    vertical_twists(2),
    vertical_twists(-2),
    vertical_twists(4),
    vertical_twists(-4),
    rational_tangle([1, 1, 1]),
    rational_tangle([1, 1, 2]),
    rational_tangle([-1, -1, -1]),
    rational_tangle([-1, -1, -2]),
)


# The most markings random_spec draws for one spec. Over 9,000 specs drawn
# from seeds 0 to 2,999 the most it took was 259.
RANDOM_SPEC_DRAWS = 2_000


def random_spec(rng: random.Random) -> SymUnionSpec:
    """A small random union spec that is known to build: partial and
    tangles drawn from the pools, marked arcs resampled until the
    insertion embeds in the plane. Raises RuntimeError, naming the partial
    and the tangle count, when no embedding turns up in RANDOM_SPEC_DRAWS
    draws, as when the builder refuses every marking."""
    n = rng.randint(1, 3)
    pool = [d for d in PARTIAL_POOL if len(d.crossings) >= n + 1]
    partial = rng.choice(pool)
    tangles = tuple(rng.choice(TANGLE_POOL) for _ in range(n))
    arcs = wirtinger(partial).arc_of_edge
    edges = sorted(arcs)
    for _ in range(RANDOM_SPEC_DRAWS):
        marked = tuple(rng.sample(edges, n + 1))
        if len({arcs[e] for e in marked}) < n + 1:
            continue
        spec = SymUnionSpec(partial, marked, tangles)
        try:
            build_symmetric_union(spec)
        except construct.NotPlanarInsertion:
            continue
        return spec
    raise RuntimeError(
        f"random_spec: no marking of PARTIAL_POOL[{PARTIAL_POOL.index(partial)}] "
        f"({len(partial.crossings)} crossings) embeds {n} tangles "
        f"in {RANDOM_SPEC_DRAWS} draws"
    )


# The benchmark's scaling-family pool: kt(m) x n over a rational-knot
# partial, with marked arcs drawn once so that the insertion embeds.
_POOLS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "pools.json").read_text()
)
FAMILY_POOL = _POOLS["family"]
FAMILY_TANGLES = {"x15": (3, 1), "x30": (4, 2), "x47": (5, 3), "x68": (6, 4)}


def pool_variant(key: str) -> PlanarDiagram:
    """The union of one entry of the scaling-family pool, such as "x68/v03"."""
    m, n = FAMILY_TANGLES[key.split("/")[0]]
    entry = FAMILY_POOL[key]
    partial = numerator(rational_tangle(entry["cf"]))
    return build_symmetric_union(
        SymUnionSpec(partial, tuple(entry["marked_arcs"]), (kt_tangle(m),) * n)
    )


# The benchmark's random pool: 66 unions of a partial of PARTIAL_POOL,
# keyed by its crossings, with tangles of TANGLE_POOL.
RANDOM_POOL = _POOLS["random"]


def random_pool_union(key: str) -> PlanarDiagram:
    """The union of one entry of the random pool, such as "c5_n2/p3"."""
    c = int(key.split("_")[0][1:])
    partial = next(d for d in PARTIAL_POOL if len(d.crossings) == c)
    entry = RANDOM_POOL[key]
    tangles = tuple(TANGLE_POOL[i] for i in entry["tangles"])
    return build_symmetric_union(SymUnionSpec(partial, tuple(entry["marked_arcs"]), tangles))


PARTIAL_12 = numerator(rational_tangle([2, 2, 2, 2, 2, 1, 1]))


def kt_member(m: int) -> PlanarDiagram:
    """The scaling family's member for m: kt(m) x 4 over
    N([2,2,2,2,2,1,1]), 24 + 4(2m - 1) crossings. The marked arcs are the
    first draw that embeds under rejection sampling with random.Random(1)
    of five edges on distinct over-arcs of the partial."""
    k = build_symmetric_union(
        SymUnionSpec(PARTIAL_12, (12, 14, 1, 18, 20), (kt_tangle(m),) * 4)
    )
    assert len(k.crossings) == 24 + 4 * (2 * m - 1)
    return k


def cylinder_grid(rows: int, cols: int) -> list[list[int]]:
    """The graph of a rows x cols grid wrapped around a cylinder, as the
    nbrs lists invariant._sweep_order takes: unit r * cols + c is joined to
    its neighbours along the row (cyclically) and the column. With cols >= 3
    there are no double edges, as in the unit graph of a diagram without
    bigons, and greedy sweeps from different starts seldom reach the same
    swept set."""
    nbrs: list[list[int]] = [[] for _ in range(rows * cols)]
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            far = [r * cols + (c + 1) % cols] + ([u + cols] if r + 1 < rows else [])
            for v in far:
                nbrs[u].append(v)
                nbrs[v].append(u)
    return nbrs



def cylinder_link(rows: int, cols: int) -> PlanarDiagram:
    """cylinder_grid(rows, cols) drawn as a link diagram, cols even: rows
    concentric circles crossed by cols radial arcs, crossing (r, c) on
    circle r at angle c. The arcs of columns 2j and 2j + 1 are joined by a
    cap inside the innermost circle and another outside the outermost, so
    each such pair is one component. Counterclockwise around (r, c) come
    the edges out to circle r + 1, on to angle c + 1, in to circle r - 1
    and back to angle c - 1. The circles run counterclockwise, the even
    columns outward and the odd ones inward, and a circle passes under
    where r + c is even."""
    ids: dict = {}

    def edge(*name):
        return ids.setdefault(name, len(ids) + 1)

    def radial(r, c):  # from circle r to circle r + 1, or a cap
        if r < 0 or r == rows - 1:
            return edge("cap", r < 0, c >> 1)
        return edge("v", r, c)

    xs = []
    for r in range(rows):
        for c in range(cols):
            around = (radial(r, c), edge("h", r, c), radial(r - 1, c), edge("h", r, (c - 1) % cols))
            start = 3 if (r + c) % 2 == 0 else 2 if c % 2 == 0 else 0  # the incoming under edge
            xs.append(Crossing(*(around[start + i & 3] for i in range(4))))
    return PlanarDiagram(tuple(xs))


def sweep_order_reference(nbrs: Sequence[Sequence[int]]) -> list[int]:
    """invariant._sweep_order as it was before its path became parallel
    lists: the path is a list of (swept set, unit added, width) tuples, and
    each sweep keeps its peak and cost as it goes and adds the rest it ends
    at from memo. The same greedy sweeps from every start and the same memo
    on swept sets; the oracle for the order _sweep_order picks."""
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
        i = start
        while True:
            swept |= 1 << i
            touching.discard(i)
            width += key[i] // n
            if width > peak:
                peak = width
            cost += 1 << (width >> 1)
            path.append((swept, i, width))
            rest = memo.get(swept)
            if rest is not None:
                break
            for j in nbrs[i]:
                key[j] -= step
                if not swept >> j & 1:
                    touching.add(j)
            i = min(
                touching or [j for j in range(n) if not swept >> j & 1],
                key=key.__getitem__,
            )
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


def sweep_order_unpruned(nbrs) -> list[int]:
    """invariant._sweep_order without its memo: the greedy
    sweep from every start unit runs to the end. Adding unit i changes the
    number of open edges by its degree less twice its edges to the swept
    units; each step adds, among the units that touch the swept ones (else
    among all that are left), the one with the least change, ties by index.
    The least (peak width, sum of 2^(width/2)) wins, the earliest start on
    a tie."""
    n = len(nbrs)

    def change(j, swept):
        return len(nbrs[j]) - 2 * sum(k in swept for k in nbrs[j])

    runs = []
    for start in range(n):
        swept: set[int] = set()
        order = []
        width = peak = cost = 0
        i = start
        while True:
            width += change(i, swept)
            swept.add(i)
            order.append(i)
            peak = max(peak, width)
            cost += 2 ** (width // 2)
            left = [j for j in range(n) if j not in swept]
            if not left:
                break
            touching = [j for j in left if any(k in swept for k in nbrs[j])]
            i = min(touching or left, key=lambda j: (change(j, swept), j))
        runs.append(((peak, cost), start, order))
    return min(runs)[2]


def smooth_reference(mate, link, ends) -> tuple[tuple[tuple[int, int], ...], int]:
    """invariant._smooth as it was before it took the link pattern as one
    tuple and was cached: ends maps each slot that holds an open end to
    that end's label, and link joins the other slots in pairs. Returns the
    new pairs of open ends, by label, and the number of loops the smoothing
    closes. The reference walk for the cached one and for the oracles."""
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


# The link patterns bound_by_link_patterns tries, by number of slots: every
# perfect matching. A unit has at most four slots.
LINKS = {0: ((),), 2: ((1, 0),), 4: ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))}


def bound_by_link_patterns(smoothings) -> int:
    """invariant._bound by enumeration: the most that the sum of
    ||W||_1 2^L over a unit's smoothings reaches over the perfect matchings
    of its slots, with the L loops each closes counted by smooth_reference."""
    return max(
        sum(sum(map(abs, cs)) << smooth_reference(mate, m, {})[1] for mate, _, cs in smoothings)
        for m in LINKS[len(smoothings[0][0])]
    )


def pack_by_loop(pairs, bits: int, lo: int = 0) -> int:
    """poly.pack as one loop, each coefficient shifted and added into the
    whole sum; the oracle for pack's split into halves."""
    out = 0
    for j, c in pairs:
        out += c << bits * (j - lo)
    return out


def unpack_by_loop(p: int, bits: int) -> tuple[int, ...]:
    """poly.unpack as one loop that takes off the lowest balanced digit of
    the whole integer at each step; the oracle for unpack's split into
    halves."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    while p:
        c = p & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        p = (p - c) >> bits
    return tuple(out)


class _Halves:
    """The partial diagram d beside its mirror image, as PD rows with
    provisional edge ids (d keeps 1..E, the mirror gets E+1..2E, fresh ids
    follow), and the axis arc cut and rejoined across the halves: d's
    outgoing stub meets the mirror's incoming stub as a0, and vice versa
    as a1."""

    def __init__(self, d: PlanarDiagram, axis: int):
        E = d.edge_count
        self.d = d
        self.rows = [list(x) for x in d.crossings]
        self.rows += [[x.c + E, x.b + E, x.a + E, x.d + E] for x in d.crossings]
        self.flags = list(d.over_from_d) + [not f for f in d.over_from_d]
        self.next_id = 2 * E + 1
        self.a0, self.a1 = self.fresh(), self.fresh()
        self._rewire(axis, (self.a0, self.a1), (self.a0, self.a1))

    def fresh(self) -> int:
        self.next_id += 1
        return self.next_id - 1

    def _rewire(self, m: int, host: tuple[int, int], mirror: tuple[int, int]) -> dict[int, int]:
        """Give the (tail, head) ends of edge m new ids in each half.
        Returns the dart (row 4r + slot) each new id ends at."""
        c = len(self.d.crossings)
        head = self.d.heads[m - 1]
        at = {}
        for k, h, ms in zip((self.d.mates[head], head), host, mirror):
            self.rows[k >> 2][k & 3] = h
            self.rows[c + (k >> 2)][_SIGMA[k & 3]] = ms
            at[h], at[ms] = k, 4 * (c + (k >> 2)) + _SIGMA[k & 3]
        return at

    def cut(self, m: int) -> dict[int, int]:
        """Open marked arc m on both halves. Returns the new stubs, each
        with the dart at its far end: the host's outgoing and incoming
        ends, then the mirror's, whose roles are reversed."""
        u, v, us, vs = (self.fresh() for _ in range(4))
        at = self._rewire(m, (u, v), (vs, us))
        return {e: at[e] for e in (u, v, us, vs)}


def assemble_by_ids(spec: SymUnionSpec, bits: tuple[int, ...]) -> PlanarDiagram:
    """construct._assemble_with_bits as it was before it paired darts: the
    halves get provisional edge ids (_Halves), each box's stubs fresh ones,
    a crossingless strand merges two stubs through an alias map, and the
    rows, labels and fold targets are renumbered along the orientation
    from a0 (along_orientation), the other components from their lowest
    provisional id. The reference for the builder, and the assembly the
    rebuilds below use, so that they share no assembly code with what
    they check. On a knot it gives the builder's diagram; on a link only
    the numbering of the components other than a0's may differ."""
    d = spec.partial
    E = d.edge_count

    labels: dict[int, str] = {}
    fold: dict[int, int] = {}
    corners = []
    for j in range(1, E + 1):
        if j not in spec.marked_arcs:
            labels[j] = f"x{j}"
            labels[j + E] = f"x{j}*"
            fold[j] = fold[j + E] = j

    h = _Halves(d, spec.marked_arcs[0])
    rows, flags = h.rows, h.flags
    labels[h.a0], labels[h.a1] = "a0", "a1"
    fold[h.a0] = fold[h.a1] = spec.marked_arcs[0]

    # a crossingless strand joins two stubs of one box; the pairs are
    # disjoint, and each merged pair keeps its lower id
    alias: dict[int, int] = {}

    def find(e: int) -> int:
        return alias.get(e, e)

    for i, (t, bit) in enumerate(zip(spec.tangles, bits), start=1):
        t = construct._oriented_for_box(t, bit)
        first = h.next_id
        u, v, us, vs = stubs = h.cut(spec.marked_arcs[i])
        if bit == 0:
            at_corner = {"NW": u, "SW": v, "NE": vs, "SE": us}
        else:
            at_corner = {"NW": v, "SW": u, "NE": us, "SE": vs}
        corners.append(tuple(stubs[at_corner[c]] for c in ("NW", "SW", "SE", "NE")))

        emap: dict[int, int] = {}
        for corner in CORNERS:
            te = t.boundary[corner]
            if te in emap:
                alias[max(emap[te], at_corner[corner])] = min(emap[te], at_corner[corner])
            else:
                emap[te] = at_corner[corner]
        k = 5
        for te in range(1, t.edge_count + 1):
            if te not in emap:
                emap[te] = h.fresh()
                labels[emap[te]] = f"s{k}_{i}"
                k += 1
        fold.update(dict.fromkeys(range(first, h.next_id), spec.marked_arcs[i]))
        for corner, kk in (("NW", 1), ("NE", 2), ("SW", 3), ("SE", 4)):
            eid = find(emap[t.boundary[corner]])
            if eid not in labels:
                labels[eid] = f"s{kk}_{i}"

        rows.extend([emap[e] for e in x] for x in t.crossings)
        flags.extend(t.over_from_d)

    if alias:
        rows = [[alias.get(e, e) for e in row] for row in rows]
    # perm numbers the ids 1, 2, ... in the order it lists them
    perm = along_orientation(rows, flags, h.a0)
    try:
        built = PlanarDiagram(
            tuple(Crossing(perm[a], perm[b], perm[c], perm[d]) for a, b, c, d in rows),
            tuple(flags),
            labels={perm[e]: lbl for e, lbl in labels.items() if e in perm and e not in alias},
            meta=UnionMeta(spec, tuple(bits), tuple(map(fold.__getitem__, perm)), tuple(corners)),
        )
        construct.planar_faces(built)
    except DiagramError as exc:
        raise construct.NotPlanarInsertion(f"insertion does not embed: {exc}") from exc

    return built


def glued_pair(partial: PlanarDiagram, e0: int, e1: int) -> Tangle:
    """The complement tangle: the symmetric union built on (e0, e1) with
    region 1 left as an open box. Summing the removed tangle (rotated a
    half turn) back on the west side and closing the numerator restores
    the union."""
    spec = SymUnionSpec(partial, (e0, e1), (rational_tangle([]),))
    construct._validate_inputs(spec)
    h = _Halves(partial, e0)
    u, v, us, vs = h.cut(e1)
    xs, ends, _ = tangle._join(h.next_id - 1, h.rows, (), (v, u, us, vs))
    boundary = dict(zip(("NW", "SW", "NE", "SE"), ends))
    flows = {"NW": "in", "SW": "out", "NE": "out", "SE": "in"}
    return Tangle(tuple(xs), tuple(h.flags), boundary, flows)


def rotate_pi(t: Tangle) -> Tangle:
    """Rotate the box a half turn: corners swap diagonally; the crossing
    tuples are unchanged because the rotation preserves both the cyclic
    order and the under-strand entry."""
    swap = {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}
    boundary = {c: t.boundary[swap[c]] for c in CORNERS}
    flows = {c: t.flows[swap[c]] for c in CORNERS}
    return Tangle(t.crossings, t.over_from_d, boundary, flows, t.closed_loops)


def unknot() -> PlanarDiagram:
    """The crossing-free round unknot."""
    return PlanarDiagram((), (), free_loops=1)


def _rebuild(k: PlanarDiagram, replace) -> PlanarDiagram:
    """The built union k rebuilt with region i holding replace[i], at the
    attachment bits of k. Pinning the bits keeps the complement of each
    region the same tangle across rebuilds. The new spec is validated and
    every tangle oriented for its box again. The reference for what
    construct.contract_box and construct.zero_replacement read off k."""
    for i in replace:
        construct.region_tangle(k, i)
    spec = k.meta.spec
    tangles = [replace.get(i, t) for i, t in enumerate(spec.tangles, start=1)]
    spec = SymUnionSpec(spec.partial, spec.marked_arcs, tangles)
    construct._validate_inputs(spec)
    return assemble_by_ids(spec, k.meta.attach_bits)


def build_all_zero_replacement(union) -> PlanarDiagram:
    """Every tangle of the union (a spec is built first) replaced by the
    trivial west-to-east pair, rebuilt; the diagram falls apart into n+1
    components. That tangle joins the host's outgoing stub to the
    mirror's incoming one, and vice versa, under either attachment bit,
    so the union's own bits embed it. The reference for
    construct.zero_replacement; like any rebuild it refuses a
    disconnected diagram (NotPlanarInsertion)."""
    k = construct.built_union(union)
    zeros = dict.fromkeys(range(1, len(k.meta.spec.tangles) + 1), rational_tangle([]))
    return _rebuild(k, zeros)


def complement_by_rebuild(
    k: PlanarDiagram, region: int, horizontal: bool
) -> tuple[LaurentPoly, int]:
    """The Alexander polynomial and component count of N(C) (horizontal)
    or D(C), the closures of region's complement C, from its own rebuild
    with the crossingless tangle that closes the box; D(C) must be a knot.
    The reference for invariant.complement_closures. A rebuild refuses a
    disconnected diagram, so a split N(C) gives (0, None): 0 is
    alexander_region's value there, and the count is not known."""
    if horizontal:
        try:
            d = _rebuild(k, {region: rational_tangle([])})
        except construct.NotPlanarInsertion as exc:
            if not isinstance(exc.__cause__, DisconnectedDiagram):
                raise
            return LaurentPoly.zero(), None
    else:
        d = construct.expect_knot(_rebuild(k, {region: vertical_twists(0)}))
    return alexander_region(d), d.component_count()


def jones_at_roots_of_unity(v: LaurentPoly, det: int) -> bool:
    """Whether the Jones polynomial v of a knot of determinant det,
    Delta(-1), has V(w) = 1 at w = e^(2 pi i/3) and V(i) = (-1)^Arf (Jones,
    Bull. AMS 1985), where Arf = 0 exactly when det = +-1 mod 8 (Levine
    1966). With T_r and S_r the sums of v's coefficients at exponents = r
    mod 3 and mod 4, V(w) = T_0 - T_2 + (T_1 - T_2) w and
    V(i) = S_0 - S_2 + (S_1 - S_3) i."""
    t = [sum(c for e, c in v.items() if e % 3 == r) for r in range(3)]
    s = [sum(c for e, c in v.items() if e % 4 == r) for r in range(4)]
    arf = det % 8 not in (1, 7)
    return t[0] - t[2] == 1 and t[1] == t[2] and s[1] == s[3] and s[0] - s[2] == (-1) ** arf


def boxes_by_faces(d: PlanarDiagram) -> list[list[int]]:
    """The crossings of invariant._boxes as it was before it found the
    bigons with _across: the corners of diagram.faces bucketed by face, a
    bigon being a face at exactly two corners, and each box walked from an
    end along sets of bigon neighbours. The oracle for _boxes."""
    face = faces(d.mates)
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
    for x in sorted(range(len(nbr)), key=lambda c: len(nbr[c]) > 1):
        box = []
        while x is not None and not seen[x]:
            seen[x] = True
            box.append(x)
            x = next((y for y in nbr[x] if not seen[y]), None)
        if box:
            boxes.append(box)
    return boxes


def chain_corners(d: PlanarDiagram, box: list[int]) -> list[int]:
    """The corners invariant._box_unit derived for a box in chain order
    before _boxes handed them over: the lowest corner of c_1 toward c_2,
    then each next one opposite the corner the last bigon arrives at; a
    box of one crossing is taken at corner 0."""
    mates = d.mates
    if len(box) == 1:
        corners = [0]
    else:
        corners = [next(j for j in range(4) if inv._across(mates, 4 * box[0] + j) >> 2 == box[1])]
    for x in box[:-1]:
        corners.append(inv._across(mates, 4 * x + corners[-1]) & 3 ^ 2)
    return corners


def box_unit_by_chain(d: PlanarDiagram, box: list[int]) -> inv._Unit:
    """invariant._box_unit as it was before a box of one crossing read
    _SMOOTHINGS and the walks were cached: every box goes through the
    corner walk (chain_corners), the Temperley-Lieb recurrence and
    smooth_reference, its slots sorted, and a pairing whose weight cancels
    is kept with the weight 0. The oracle for both."""
    mates = d.mates
    corners = chain_corners(d, box)
    bits = width(inv._CROSSING_BOUND ** len(box))
    pa, pb = 1, 0
    for j in corners:
        if inv._SMOOTHINGS[j & 1][1] > 0:
            pa, pb = pa << bits, (pa << 2 * bits) - (pb << 3 * bits)
        else:
            pa, pb = pa << 2 * bits, (pa << bits) - pb
    first, last = 4 * box[0], 4 * box[-1]
    darts = (
        first + (corners[0] + 2 & 3),
        first + (corners[0] + 3 & 3),
        last + corners[-1],
        last + (corners[-1] + 1 & 3),
    )
    end = darts[0] & 3
    for x, j in zip(box, corners):
        end = inv._SMOOTHINGS[j & 1 ^ 1][0][end]
        if x != box[-1]:
            end = mates[4 * x + end] & 3
    one = (2, 3, 0, 1) if end == corners[-1] else (3, 2, 1, 0)
    link, ends = {}, {}
    for i, k in enumerate(darts):
        if mates[k] in darts:
            link[i] = darts.index(mates[k])
        else:
            ends[i] = d.crossings[k >> 2][k & 3]
    merged: dict = {}
    for mate, p in ((one, pa), ((1, 0, 3, 2), pb)):
        made, loops = smooth_reference(mate, link, ends)
        for _ in range(loops):
            p = -(p + (p << 2 * bits))
        key = tuple(sorted(made))
        merged[key] = merged.get(key, 0) + (p << bits * (2 - loops))
    slots = tuple(sorted(ends.values()))
    at = {e: s for s, e in enumerate(slots)}
    smoothings = []
    for pairs, p in merged.items():
        mate = [0] * len(slots)
        for x, y in pairs:
            mate[at[x]], mate[at[y]] = at[y], at[x]
        low = ((p & -p).bit_length() - 1) // bits if p else 0
        cs = unpack(p >> bits * low, bits)
        smoothings.append((tuple(mate), 2 * low - 3 * len(box) - 4, cs))
    return inv._Unit(slots, tuple(smoothings), inv._bound(smoothings))


def box_units(d: PlanarDiagram) -> list:
    """The units of d's boxes (invariant._boxes, _box_unit), unmerged."""
    return [inv._box_unit(d, b, c, None) for b, c in inv._boxes(d)]


def unit_graph_by_mates(d: PlanarDiagram, boxes) -> list[list[int]]:
    """invariant._unit_graph as it was before it read the units' slots: for
    each box (_boxes), the box at the far end of each edge of d.mates that
    leaves it. The oracle for the graph read off the units."""
    unit_of = {ci: i for i, (box, _) in enumerate(boxes) for ci in box}
    nbrs: list[list[int]] = [[] for _ in boxes]
    for k, m in enumerate(d.mates):
        if k > m:  # each edge once, from its first end
            continue
        u, v = unit_of[k >> 2], unit_of[m >> 2]
        if u != v:
            nbrs[u].append(v)
            nbrs[v].append(u)
    return nbrs


def merged_units(d: PlanarDiagram) -> tuple[list, list[list[int]]]:
    """The units invariant.kauffman_bracket sweeps and their graph: d's
    boxes (_box_unit), with every two four-slot units joined by two edges
    merged (_merge_pairs)."""
    units = box_units(d)
    return inv._merge_pairs(units, inv._unit_graph(units), None)


def jones_unmerged(d: PlanarDiagram) -> LaurentPoly:
    """invariant.jones with _merge_pairs patched to merge nothing, so that
    the sweep runs over the box units: the check on the merged sweep."""
    merge = inv._merge_pairs
    inv._merge_pairs = lambda units, nbrs, cancel: (units, nbrs)
    try:
        return inv.jones(d)
    finally:
        inv._merge_pairs = merge


def sweep_by_pairs(units, bits: int):
    """invariant._sweep as it was: a state is a sorted tuple of edge pairs,
    each state scans its pairs for those that end at the unit, and each
    smoothing walks the unit's slots with smooth_reference. Returns the
    states, the edges left open, and the number of states after each unit;
    the oracle for the sweep over partner tuples."""
    two = 2 * bits
    states: dict = {(): (0, 1)}
    frontier: set[int] = set()
    counts = []
    for u in units:
        opening: dict[int, int] = {}
        closing: dict[int, int] = {}
        for s, e in enumerate(u.slots):
            if e in frontier:
                closing[e] = s
            else:
                opening[s] = e
        weights = [(mate, a, pack(enumerate(cs), bits)) for mate, a, cs in u.smoothings]
        new: dict = {}
        for pairs, (lo, p) in states.items():
            link, ends, kept = {}, dict(opening), []
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
                made, loops = smooth_reference(mate, link, ends)
                q = p if w == 1 else p * w
                for _ in range(loops):
                    q = -(q + (q << two))
                lq = lo + a - 2 * loops
                key = tuple(sorted(kept + list(made)))
                old = new.get(key)
                if old is None:
                    new[key] = (lq, q)
                elif lq >= old[0]:
                    new[key] = (old[0], old[1] + (q << bits * ((lq - old[0]) >> 1)))
                else:
                    new[key] = (lq, q + (old[1] << bits * ((old[0] - lq) >> 1)))
        counts.append(len(new))
        states = new
        frontier -= closing.keys()
        frontier.update(opening.values())
    return states, frontier, counts


def pairs_of(states, front):
    """States keyed by partner positions, keyed instead by the sorted tuple
    of the edge pairs they stand for, as sweep_by_pairs keys them. front
    maps each live position to its edge; a key entry equal to its own
    position is a hole, and the hole positions are exactly those front
    leaves out."""
    out = {}
    for key, v in states.items():
        assert {i for i, j in enumerate(key) if i != j} == set(front)
        pairs = ((front[i], front[j]) for i, j in enumerate(key) if i < j)
        out[tuple(sorted((min(x, y), max(x, y)) for x, y in pairs))] = v
    return out


class StateTally(int):
    """A stand-in for invariant._STATE_LIMIT, equal to it, that records
    the number of states the sweep holds after each unit. The sweep tests
    len(states) > limit once per unit, and for an int subclass Python
    tries the reflected __lt__ first."""

    def __new__(cls, limit: int):
        tally = super().__new__(cls, limit)
        tally.counts = []
        return tally

    def __lt__(self, n):
        self.counts.append(n)
        return int(self) < n


def torus_closure(p: int) -> PlanarDiagram:
    """The closure of the p-strand braid (s_1 ... s_(p-1))^(p+1), with
    p - 1 crossings per factor. The letter s_i is the row
    X[x_i, x_(i+1), y, z], where x_i and x_(i+1) are the edges at
    positions i and i + 1: position i + 1 goes on along the new edge y and
    position i along z. The closure joins the last edge at each position
    to the first, and the edges are numbered 1..E in order of appearance.
    The diagram is the torus knot T(p, p + 1) in the handedness whose
    Jones polynomial has negative exponents (the trefoil's for p = 2).
    Cutting it anywhere leaves 2p open strands, so the bracket sweep peaks
    at Catalan(p) states."""
    pos = list(range(1, p + 1))
    rows = []
    for _ in range(p + 1):
        for i in range(p - 1):
            y, z = p + 2 * len(rows) + 1, p + 2 * len(rows) + 2
            rows.append((pos[i], pos[i + 1], y, z))
            pos[i], pos[i + 1] = z, y
    first = {e: i + 1 for i, e in enumerate(pos)}
    ids: dict[int, int] = {}
    xs = [Crossing(*(ids.setdefault(first.get(e, e), len(ids) + 1) for e in r)) for r in rows]
    return PlanarDiagram(tuple(xs))


def torus_jones(p: int) -> LaurentPoly:
    """The Jones polynomial of torus_closure(p) in closed form: the mirror
    image, t -> 1/t, of V(T(p, q)) = t^((p-1)(q-1)/2) (1 - t^(p+1) -
    t^(q+1) + t^(p+q)) / (1 - t^2) at q = p + 1 (Jones, Ann. Math. 1987).
    The division is exact: the numerator vanishes at t = 1 and t = -1."""
    q = p + 1
    rest = {0: 1, p + 1: -1, q + 1: -1, p + q: 1}
    quotient: dict[int, int] = {}
    for e in range(max(rest), 1, -1):  # divide by 1 - t^2 from the top
        c = rest.pop(e, 0)
        if c:
            quotient[e - 2] = -c
            rest[e - 2] = rest.get(e - 2, 0) + c
    assert not any(rest.values()), "1 - t^2 does not divide the numerator"
    shift = (p - 1) * (q - 1) // 2
    return LaurentPoly({-(e + shift): c for e, c in quotient.items()})


def wide_union(p: int, m: int) -> PlanarDiagram:
    """The union of the T(p, p + 1) partial (torus_closure) with two kt(m)
    boxes, 2(p - 1)(p + 1) + 2(2m - 1) crossings. The marked arcs are the
    first draw that embeds under rejection sampling with random.Random(1)
    of three edges on distinct over-arcs of the partial, as for
    kt_member; for p = 9 they are (67, 66, 65), the 533rd draw. Raises
    RuntimeError when none of RANDOM_SPEC_DRAWS draws embeds."""
    partial = torus_closure(p)
    arcs = wirtinger(partial).arc_of_edge
    edges = sorted(arcs)
    rng = random.Random(1)
    tangles = (kt_tangle(m),) * 2
    for _ in range(RANDOM_SPEC_DRAWS):
        marked = tuple(rng.sample(edges, 3))
        if len({arcs[e] for e in marked}) < 3:
            continue
        try:
            return build_symmetric_union(SymUnionSpec(partial, marked, tangles))
        except construct.NotPlanarInsertion:
            continue
    raise RuntimeError(f"wide_union: no marking of T({p}, {p + 1}) embeds in {RANDOM_SPEC_DRAWS} draws")


def torus_alexander(p: int) -> LaurentPoly:
    """The Alexander polynomial of torus_closure(p) in closed form,
    normalized: (t^(pq) - 1)(t - 1) / ((t^p - 1)(t^q - 1)) at q = p + 1.
    The long division runs on integers from the top term down, and is
    exact: the divisor is monic, and the remainder is checked to be 0."""
    q = p + 1
    rest = (LaurentPoly({p * q: 1, 0: -1}) * LaurentPoly({1: 1, 0: -1})).to_dict()
    divisor = (LaurentPoly({p: 1, 0: -1}) * LaurentPoly({q: 1, 0: -1})).to_dict()
    top = p + q
    quotient: dict[int, int] = {}
    for e in range(max(rest), top - 1, -1):
        c = rest.pop(e, 0)
        if c:
            quotient[e - top] = c
            for d, v in divisor.items():
                if d != top:
                    rest[e - top + d] = rest.get(e - top + d, 0) - c * v
    assert not any(rest.values()), "the divisor does not divide the numerator"
    return normalize_alexander(LaurentPoly(quotient), knot=True)
