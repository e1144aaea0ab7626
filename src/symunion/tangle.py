"""Boxed 2-string tangles and their algebra.

A tangle is stored like a diagram fragment: crossings in the same PD
convention, plus four boundary corners NW, NE, SW, SE, each naming the edge
whose loose end reaches that corner. Flows record the strand direction at
each corner ("in" means the strand enters the box there). Edge ids run
1..2c+2; crossing-free closed circles inside the box are only counted.

Strand operations (sum, stack, closure) reverse whole strands as needed to
keep orientations coherent, rewriting crossing tuples accordingly; a
reversal is impossible only when one strand would need both of its ends to
point the same way, which raises OrientationMismatch.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .diagram import (
    Crossing,
    InconsistentEdges,
    OrientationError,
    PlanarDiagram,
    cap_crossings,
    check_ends,
    find_root,
    resolve_orientation,
)

CORNERS = ("NW", "NE", "SW", "SE")


class TangleError(Exception):
    pass


class OrientationMismatch(TangleError):
    pass


class BadParameter(TangleError):
    pass


class BoundaryMismatch(TangleError):
    pass


Incidence = tuple  # ("X", crossing, slot) or ("B", corner)


@contextmanager
def _as_tangle_errors():
    """Edge and orientation failures the diagram layer finds in tangle
    data surface as this module's errors."""
    try:
        yield
    except InconsistentEdges as exc:
        raise TangleError(str(exc)) from exc
    except OrientationError as exc:
        raise OrientationMismatch(str(exc)) from exc


@dataclass(frozen=True)
class Tangle:
    crossings: tuple[Crossing, ...]
    over_from_d: tuple[bool, ...]
    boundary: Mapping[str, int]
    flows: Mapping[str, str]
    closed_loops: int = 0

    def __post_init__(self):
        if set(self.boundary) != set(CORNERS) or set(self.flows) != set(CORNERS):
            raise TangleError("boundary and flows must cover NW, NE, SW, SE")
        if any(v not in ("in", "out") for v in self.flows.values()):
            raise TangleError("flows are 'in' or 'out'")
        if len(self.over_from_d) != len(self.crossings):
            raise TangleError("one over flag per crossing required")
        if self.closed_loops < 0:
            raise TangleError("negative closed_loops")
        corners = [(self.boundary[c], self.flows[c]) for c in CORNERS]
        with _as_tangle_errors():
            check_ends(self.crossings, self.over_from_d, self.edge_count, corners)

    @property
    def edge_count(self) -> int:
        return 2 * len(self.crossings) + 2

    def sign(self, i: int) -> int:
        return 1 if self.over_from_d[i] else -1

    @cached_property
    def incidences(self) -> dict[int, tuple[Incidence, ...]]:
        out: dict[int, list[Incidence]] = {}
        for i, x in enumerate(self.crossings):
            for s in range(4):
                out.setdefault(x[s], []).append(("X", i, s))
        for c in CORNERS:
            out.setdefault(self.boundary[c], []).append(("B", c))
        return {e: tuple(v) for e, v in out.items()}

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

    def _follow(self, start: str) -> tuple[str, list[int], list[tuple[int, int]]]:
        """Follow the strand from corner start: its end corner, its edges,
        and the (crossing, slot) where it enters each crossing it meets."""
        edges: list[int] = []
        entries: list[tuple[int, int]] = []
        e, at = self.boundary[start], ("B", start)
        while True:
            edges.append(e)
            other = self._other(e, at)
            if other[0] == "B":
                return other[1], edges, entries
            _, i, s = other
            entries.append((i, s))
            s2 = (s + 2) % 4
            e, at = self.crossings[i][s2], ("X", i, s2)

    def _other(self, e: int, at: Incidence) -> Incidence:
        p, q = self.incidences[e]
        return q if at == p else p

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


def reverse_strand(t: Tangle, corner: str) -> Tangle:
    """Reverse the orientation of the strand whose end lies at corner."""
    start, end, _ = next(s for s in t.strands if corner in (s[0], s[1]))
    under: set[int] = set()
    over: set[int] = set()
    for i, s in t._follow(start)[2]:
        (under if s in (0, 2) else over).add(i)
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
    t1: Tangle,
    t2: Tangle,
    seams: Sequence[tuple[str, str]],
    fix_flows: bool,
) -> tuple[Tangle, Tangle]:
    """Reorient open strands until each seam joins an 'out' to an 'in'.
    Prefers leaving t1 alone, then reversing as few strands as possible."""

    def ok(a: Tangle, b: Tangle) -> bool:
        return all(a.flows[c1] != b.flows[c2] for c1, c2 in seams)

    if ok(t1, t2):
        return t1, t2
    if fix_flows:
        bad = [p for p in seams if t1.flows[p[0]] == t2.flows[p[1]]]
        raise OrientationMismatch(f"declared flows clash at seams {bad}")

    def variants(t: Tangle) -> list[Tangle]:
        a, b = (s[0] for s in t.strands)
        ra = reverse_strand(t, a)
        return [t, ra, reverse_strand(t, b), reverse_strand(ra, b)]

    v2 = variants(t2)
    for a in variants(t1):
        for b in v2:
            if ok(a, b):
                return a, b
    raise OrientationMismatch("no strand orientation satisfies the seams")


def _glue(
    t1: Tangle, t2: Tangle, seams: Sequence[tuple[str, str]], fix_flows: bool
) -> Tangle:
    """Join corner c1 of t1 to corner c2 of t2 for each seam (c1, c2). Every
    other corner keeps its name, from whichever tangle still has it free."""
    if len({c2 for _, c2 in seams}) < len(seams):
        raise BoundaryMismatch("seam corners must be distinct")
    t1, t2 = _fit_seams(t1, t2, seams, fix_flows)

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


def tangle_sum(t1: Tangle, t2: Tangle, fix_flows: bool = False) -> Tangle:
    """Horizontal juxtaposition: the east side of t1 joins the west side
    of t2. By default t2's strands are reoriented to fit; with fix_flows
    the declared flows must already match."""
    return _glue(t1, t2, (("NE", "NW"), ("SE", "SW")), fix_flows)


def vertical_stack(t1: Tangle, t2: Tangle, fix_flows: bool = False) -> Tangle:
    """t1 placed on top of t2: the south side of t1 joins the north side
    of t2."""
    return _glue(t1, t2, (("SW", "NW"), ("SE", "NE")), fix_flows)


def rotate_pi(t: Tangle) -> Tangle:
    """Rotate the box a half turn: corners swap diagonally; the crossing
    tuples are unchanged because the rotation preserves both the cyclic
    order and the under-strand entry."""
    swap = {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}
    boundary = {c: t.boundary[swap[c]] for c in CORNERS}
    flows = {c: t.flows[swap[c]] for c in CORNERS}
    return Tangle(t.crossings, t.over_from_d, boundary, flows, t.closed_loops)


def _close(t: Tangle, pairs: Sequence[tuple[str, str]]) -> PlanarDiagram:
    # orient each component cycle coherently by reversing strands, then
    # unify the arc endpoints
    arcs = {a: b for a, b in pairs}
    arcs.update({b: a for a, b in pairs})
    work = t
    fixed: set[str] = set()
    for start in CORNERS:
        if start in fixed:
            continue
        # walk the component: strand, closure arc, strand, ... back to start
        corner = start
        while True:
            strand = next(s for s in work.strands if corner in (s[0], s[1]))
            s_in, s_out = (
                (strand[0], strand[1]) if strand[0] == corner else (strand[1], strand[0])
            )
            if work.flows[s_in] != "in":
                work = reverse_strand(work, s_in)
            fixed.update((s_in, s_out))
            corner = arcs[s_out]
            if corner == start:
                break

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
            n = int(doc["kt"])
            cap_crossings(2 * n - 1, BadParameter)
            return kt_tangle(n)
        if "crossings" not in doc or "boundary" not in doc:
            raise TangleError("tangle document needs crossings and boundary")
        cap_crossings(len(doc["crossings"]), BadParameter)
        xs = tuple(Crossing(*(int(v) for v in row)) for row in doc["crossings"])
        boundary = {c: int(doc["boundary"][c]) for c in CORNERS}
        flows = {c: str(doc["flows"][c]) for c in CORNERS} if "flows" in doc else {}
        loops = int(doc.get("closed_loops", 0))
        with _as_tangle_errors():
            flags, resolved = resolve_orientation(xs, boundary, flows)
    except (TypeError, KeyError, AttributeError) as exc:
        raise TangleError(f"malformed tangle document: {exc!r}") from exc
    return Tangle(xs, flags, boundary, flows or resolved, loops)
