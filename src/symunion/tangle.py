"""Boxed 2-string tangles and their algebra.

A tangle is stored like a diagram fragment: crossings in the same PD
convention, plus four boundary corners NW, NE, SW, SE, each naming the edge
whose loose end reaches that corner. Flows record the strand direction at
each corner ("in" means the strand enters the box there). Edge ids run
1..2c+2; crossing-free closed circles inside the box are only counted.

Strand operations (sum, stack, closure) reverse whole strands as needed to
keep orientations coherent, rewriting crossing tuples accordingly, all
through one rule (orient); a reversal is impossible only when one strand
would need both of its ends to point the same way, which raises
OrientationMismatch.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property

from .diagram import (
    Crossing,
    InconsistentEdges,
    OrientationError,
    PlanarDiagram,
    cap_crossings,
    find_root,
    json_int,
    orient_ends,
)

CORNERS = ("NW", "NE", "SW", "SE")


class TangleError(Exception):
    pass


class OrientationMismatch(TangleError):
    pass


class BadParameter(TangleError):
    pass


@dataclass(frozen=True)
class Tangle:
    crossings: tuple[Crossing, ...]
    # None, and corners left out of flows: resolved from the edge ids
    # (diagram.orient_ends)
    over_from_d: tuple[bool, ...] | None
    boundary: Mapping[str, int]
    flows: Mapping[str, str]
    closed_loops: int = 0
    # the other end of each edge end, darts 4i + s then the corners in
    # CORNERS order; None: paired from the edge ids (diagram.orient_ends)
    mates: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if set(self.boundary) != set(CORNERS) or not set(self.flows) <= set(CORNERS):
            raise TangleError("boundary must cover NW, NE, SW, SE, and flows name only those")
        if any(v not in ("in", "out") for v in self.flows.values()):
            raise TangleError("flows are 'in' or 'out'")
        if self.over_from_d is not None and len(self.over_from_d) != len(self.crossings):
            raise TangleError("one over flag per crossing required")
        if self.closed_loops < 0:
            raise TangleError("negative closed_loops")
        corners = [(self.boundary[c], self.flows.get(c)) for c in CORNERS]
        try:
            flags, flows, mates = orient_ends(
                self.crossings, self.over_from_d, self.edge_count, corners, self.mates
            )
        except InconsistentEdges as exc:
            raise TangleError(str(exc)) from exc
        except OrientationError as exc:
            raise OrientationMismatch(str(exc)) from exc
        object.__setattr__(self, "over_from_d", flags)
        object.__setattr__(self, "flows", dict(zip(CORNERS, flows)))
        object.__setattr__(self, "mates", mates)

    @property
    def edge_count(self) -> int:
        return 2 * len(self.crossings) + 2

    @cached_property
    def key(self) -> tuple:
        """Every field as one hashable value, mappings as sorted items:
        two tangles have equal keys exactly when they are equal."""
        return tuple(
            tuple(sorted(v.items())) if isinstance(v, Mapping) else v
            for v in (getattr(self, f.name) for f in fields(self))
        )

    @cached_property
    def strands(self) -> tuple[tuple[str, str, tuple[int, ...]], ...]:
        """The two open strands as (start corner, end corner, edges),
        starting from the first unvisited corner in NW, NE, SW, SE order."""
        out = []
        seen: set[str] = set()
        for start in CORNERS:
            if start not in seen:
                end, edges, _ = self._follow(start)
                seen.update((start, end))
                out.append((start, end, tuple(edges)))
        return tuple(out)

    def _follow(self, start: str) -> tuple[str, list[int], list[int]]:
        """Follow the strand from corner start: its end corner, its edges,
        and the dart where it enters each crossing it meets."""
        mate, n = self.mates, 4 * len(self.crossings)
        edges = [self.boundary[start]]
        entries: list[int] = []
        k = mate[n + CORNERS.index(start)]
        while k < n:
            entries.append(k)
            k ^= 2  # straight through the crossing
            edges.append(self.crossings[k >> 2][k & 3])
            k = mate[k]
        return CORNERS[k - n], edges, entries

    def pairing(self) -> str:
        ends = {s[0]: s[1] for s in self.strands}
        partner = ends["NW"]
        return {"SW": "even", "NE": "horizontal", "SE": "diagonal"}[partner]

    def has_closed_components(self) -> bool:
        if self.closed_loops:
            return True
        open_edges = {e for s in self.strands for e in s[2]}
        return len(open_edges) < self.edge_count


def is_even_type(t: Tangle) -> bool:
    return t.pairing() == "even"


# -- twist builders ---------------------------------------------------------------


def horizontal_twists(n: int) -> Tangle:
    """|n| crossings between two west-to-east strands; n > 0 twists
    right-handed. n = 0 is the trivial tangle T(0/1)."""
    k = abs(n)
    top = list(range(1, k + 2))
    bot = list(range(k + 2, 2 * k + 3))
    xs = []
    for j in range(k):
        if n > 0:
            xs.append(Crossing(bot[j], bot[j + 1], top[j + 1], top[j]))
        else:
            xs.append(Crossing(top[j], bot[j], bot[j + 1], top[j + 1]))
    flags = tuple(n > 0 for _ in range(k))
    boundary = {"NW": top[0], "NE": top[k], "SW": bot[0], "SE": bot[k]}
    flows = {"NW": "in", "NE": "out", "SW": "in", "SE": "out"}
    return Tangle(tuple(xs), flags, boundary, flows)


def vertical_twists(n: int) -> Tangle:
    """|n| crossings between two north-to-south strands; the sign of n
    follows the continued-fraction convention of rational_tangle, so
    stacking vertical_twists(n) under horizontal_twists(m) yields the
    tangle m | n, not a cancelling clasp. n = 0 is the trivial tangle
    T(1/0)."""
    k = abs(n)
    left = list(range(1, k + 2))
    right = list(range(k + 2, 2 * k + 3))
    xs = []
    for j in range(k):
        if n > 0:
            xs.append(Crossing(right[j], left[j], left[j + 1], right[j + 1]))
        else:
            xs.append(Crossing(left[j], left[j + 1], right[j + 1], right[j]))
    flags = tuple(n < 0 for _ in range(k))
    boundary = {"NW": left[0], "SW": left[k], "NE": right[0], "SE": right[k]}
    flows = {"NW": "in", "SW": "out", "NE": "in", "SE": "out"}
    return Tangle(tuple(xs), flags, boundary, flows)


# -- strand reversal ----------------------------------------------------------------


def orient(t: Tangle, want: Mapping[str, str]) -> Tangle:
    """t with each strand turned whose flow at a corner of want differs
    from want there. Raises OrientationMismatch when want has one strand
    enter, or leave, at both of its ends.

    Every strand to turn is collected first, then the result is built once:
    a crossing a turned strand passes under turns a half turn, so that the
    under strand enters at slot a again and its dart at slot s moves to
    slot s ^ 2; its over flag flips when exactly one of its two passages is
    turned; and the flows at a turned strand's two ends swap. The result
    takes t's mates with the darts moved, so nothing is paired again."""
    under: set[int] = set()
    over: set[int] = set()
    flows = dict(t.flows)
    for start, end, _ in t.strands:
        if start in want and end in want and want[start] == want[end]:
            raise OrientationMismatch(
                f"the strand from {start} to {end} cannot {want[start]} at both ends"
            )
        c = start if start in want else end
        if c in want and t.flows[c] != want[c]:
            flows[start], flows[end] = flows[end], flows[start]
            for k in t._follow(start)[2]:
                (over if k & 1 else under).add(k >> 2)
    if flows == t.flows:
        return t
    xs = list(t.crossings)
    flags = list(t.over_from_d)
    for i in under:
        xs[i] = Crossing(xs[i].c, xs[i].d, xs[i].a, xs[i].b)
    for i in under ^ over:
        flags[i] = not flags[i]
    # moved is its own inverse: dart moved[k] of the result is t's dart k
    moved = [k ^ 2 if k >> 2 in under else k for k in range(len(t.mates))]
    mates = tuple(moved[t.mates[j]] for j in moved)
    return Tangle(tuple(xs), tuple(flags), dict(t.boundary), flows, t.closed_loops, mates)


# -- gluing: sum, stack, closures ------------------------------------------------------


def _join(
    n: int,
    crossings: Iterable[Sequence[int]],
    joins: Iterable[tuple[int, int]],
    kept: Sequence[int] = (),
) -> tuple[list[Crossing], list[int], int]:
    """Merge edge ids 1..n along joins. Returns the crossings and the kept
    ids with the merged edges renumbered onto 1..m, and the number of
    merged edges that meet neither a crossing nor a kept id (closed
    loops)."""
    parent = {e: e for e in range(1, n + 1)}
    for a, b in joins:
        ra, rb = find_root(parent, a), find_root(parent, b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    xs = [[find_root(parent, e) for e in x] for x in crossings]
    kept = [find_root(parent, e) for e in kept]
    used = {e for x in xs for e in x} | set(kept)
    loops = len({find_root(parent, e) for e in parent} - used)
    compact = {e: k + 1 for k, e in enumerate(sorted(used))}
    return (
        [Crossing(*(compact[e] for e in x)) for x in xs],
        [compact[e] for e in kept],
        loops,
    )


def _fit_seams(
    t1: Tangle, t2: Tangle, seams: Sequence[tuple[str, str]]
) -> tuple[Tangle, Tangle]:
    """Orient t2 so that each seam joins an 'out' to an 'in'. t1 is left
    alone unless both seams end on one strand of t2 and t1's flows at the
    two seams agree. Its two seam corners then lie on its two strands (a
    strand enters at one end and leaves at the other), so turning its first
    strand makes them differ, and that strand of t2 fits."""
    (a1, a2), (b1, b2) = seams
    if t1.flows[a1] == t1.flows[b1] and any({a2, b2} == {s, e} for s, e, _ in t2.strands):
        start, end, _ = t1.strands[0]
        t1 = orient(t1, {start: t1.flows[end]})  # its start takes its end's flow
    want = {c2: "in" if t1.flows[c1] == "out" else "out" for c1, c2 in seams}
    return t1, orient(t2, want)


def _glue(t1: Tangle, t2: Tangle, seams: Sequence[tuple[str, str]]) -> Tangle:
    """Join corner c1 of t1 to corner c2 of t2 for each seam (c1, c2). Every
    other corner keeps its name, from whichever tangle still has it free."""
    t1, t2 = _fit_seams(t1, t2, seams)

    off = t1.edge_count
    xs = list(t1.crossings) + [[e + off for e in x] for x in t2.crossings]
    joins = [(t1.boundary[c1], t2.boundary[c2] + off) for c1, c2 in seams]
    sealed = {c1 for c1, _ in seams}
    source = {c: (t2, off) if c in sealed else (t1, 0) for c in CORNERS}
    ends = [t.boundary[c] + shift for c, (t, shift) in source.items()]
    xs, ends, loops = _join(off + t2.edge_count, xs, joins, ends)
    return Tangle(
        tuple(xs),
        tuple(t1.over_from_d) + tuple(t2.over_from_d),
        dict(zip(CORNERS, ends)),
        {c: t.flows[c] for c, (t, _) in source.items()},
        t1.closed_loops + t2.closed_loops + loops,
    )


def tangle_sum(t1: Tangle, t2: Tangle) -> Tangle:
    """Horizontal juxtaposition: the east side of t1 joins the west side
    of t2. Strands are reoriented to fit, t2's first."""
    return _glue(t1, t2, (("NE", "NW"), ("SE", "SW")))


def vertical_stack(t1: Tangle, t2: Tangle) -> Tangle:
    """t1 placed on top of t2: the south side of t1 joins the north side
    of t2."""
    return _glue(t1, t2, (("SW", "NW"), ("SE", "NE")))


def _close(t: Tangle, pairs: Sequence[tuple[str, str]]) -> PlanarDiagram:
    # orient each component cycle coherently by reversing strands, then
    # unify the arc endpoints
    arcs = {a: b for a, b in pairs}
    arcs.update({b: a for a, b in pairs})
    other = {a: b for a, b, _ in t.strands}
    other.update({b: a for a, b, _ in t.strands})
    want: dict[str, str] = {}
    for corner in CORNERS:
        # walk the component: strand, closure arc, strand, ... back to the
        # start, entering each strand at the corner the walk reaches
        while corner not in want:
            want[corner], want[other[corner]] = "in", "out"
            corner = arcs[other[corner]]
    work = orient(t, want)

    joins = [(work.boundary[a], work.boundary[b]) for a, b in pairs]
    xs, _, loops = _join(work.edge_count, work.crossings, joins)
    return PlanarDiagram(
        tuple(xs), tuple(work.over_from_d), free_loops=loops + work.closed_loops
    )


def numerator(t: Tangle) -> PlanarDiagram:
    """Close the box by joining NW to NE and SW to SE."""
    return _close(t, (("NW", "NE"), ("SW", "SE")))


def denominator(t: Tangle) -> PlanarDiagram:
    """Close the box by joining NW to SW and NE to SE."""
    return _close(t, (("NW", "SW"), ("NE", "SE")))


# -- rational tangles ----------------------------------------------------------------


def rational_tangle(cf) -> Tangle:
    """Build a rational tangle from an integer list read left to right:
    odd positions add horizontal twists on the right, even positions stack
    vertical twists below. [] is T(0/1); the marker "inf" is T(1/0).
    Positive entries twist right-handed."""
    if cf == "inf":
        return vertical_twists(0)
    coeffs = list(cf)
    if any(not isinstance(a, int) or isinstance(a, bool) for a in coeffs):
        raise BadParameter("continued fraction entries must be integers")
    t = horizontal_twists(0)
    for pos, a in enumerate(coeffs):
        if pos % 2 == 0:
            t = tangle_sum(t, horizontal_twists(a))
        else:
            t = vertical_stack(t, vertical_twists(a))
    return t


# -- the Kinoshita-Terasaka tangle family ----------------------------------------------

# Handedness of the two twist columns: the family pairs an n-column with
# an opposite (n-1)-column. The overall sign below is the corpus-calibrated
# choice (see corpus.py); flipping it mirrors the whole family.
_KT_SIGN = -1


def kt_tangle(n: int) -> Tangle:
    """Two opposite vertical twist columns of n and n-1 crossings side by
    side: an even-type tangle with 2n-1 crossings whose numerator closure
    is a trivial knot."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 3:
        raise BadParameter("kt_tangle needs an integer n >= 3")
    return tangle_sum(
        vertical_twists(_KT_SIGN * n), vertical_twists(-_KT_SIGN * (n - 1))
    )


# -- serialization -----------------------------------------------------------------------


def to_tangle_doc(t: Tangle) -> dict:
    doc = {
        "crossings": [list(x) for x in t.crossings],
        "boundary": {c: t.boundary[c] for c in CORNERS},
        "flows": {c: t.flows[c] for c in CORNERS},
    }
    if t.closed_loops:
        doc["closed_loops"] = t.closed_loops
    return doc


def parse_tangle(doc: Mapping) -> Tangle:
    """A tangle from its document: {"rational": cf}, {"kt": n}, or its
    crossings and boundary. The crossing count is capped before building."""
    if not isinstance(doc, Mapping):
        raise TangleError(f"tangle document must be an object, not {type(doc).__name__}")
    try:
        if "rational" in doc:
            cf = doc["rational"]
            if cf != "inf":  # rational_tangle rejects entries that are not ints
                count = sum(abs(a) for a in cf if isinstance(a, int))
                cap_crossings(count, BadParameter)
            return rational_tangle(cf)
        if "kt" in doc:
            n = json_int(doc["kt"], TangleError)
            cap_crossings(2 * n - 1, BadParameter)
            return kt_tangle(n)
        if "crossings" not in doc or "boundary" not in doc:
            raise TangleError("tangle document needs crossings and boundary")
        cap_crossings(len(doc["crossings"]), BadParameter)
        xs = tuple(
            Crossing(*(json_int(v, TangleError) for v in row)) for row in doc["crossings"]
        )
        boundary = {c: json_int(doc["boundary"][c], TangleError) for c in CORNERS}
        flows = {c: str(doc["flows"][c]) for c in CORNERS} if "flows" in doc else {}
        loops = json_int(doc.get("closed_loops", 0), TangleError)
        return Tangle(xs, None, boundary, flows, loops)
    except (TypeError, KeyError, AttributeError) as exc:
        raise TangleError(f"malformed tangle document: {exc!r}") from exc
