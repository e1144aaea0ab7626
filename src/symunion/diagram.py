"""Oriented planar diagrams of knots and links, encoded as PD codes.

A crossing is a 4-tuple (a, b, c, d) of edge ids listed counterclockwise
starting at the incoming under-strand edge, so the under-strand runs a -> c.
Which way the over-strand runs is not part of the tuple; it is stored per
crossing as the flag ``over_from_d`` (True: the over-strand enters at the
d slot and leaves at b, which makes the crossing positive; False is the
negative case). A diagram built without flags, as parsing builds one,
recovers them from the requirement that every edge has exactly one head
and one tail (orient_ends).

Edge ids of a diagram with c crossings are exactly 1..2c. Crossing-free
circle components are counted separately in ``free_loops``; they carry no
edges.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence


class DiagramError(Exception):
    """Base class for diagram-layer failures."""


class MalformedPD(DiagramError):
    pass


class InconsistentEdges(DiagramError):
    pass


class OrientationError(DiagramError):
    pass


class NotPlanar(DiagramError):
    pass


class DisconnectedDiagram(DiagramError):
    pass


class MultiComponentInput(DiagramError):
    pass


class NoCrossings(DiagramError):
    pass


class Crossing(NamedTuple):
    a: int
    b: int
    c: int
    d: int

    def __str__(self) -> str:
        return f"X[{self.a},{self.b},{self.c},{self.d}]"


@dataclass(frozen=True)
class PlanarDiagram:
    crossings: tuple[Crossing, ...]
    # None: resolved from the edge ids (orient_ends)
    over_from_d: tuple[bool, ...] | None = None
    free_loops: int = 0
    labels: Mapping[int, str] = field(default_factory=dict)
    meta: object = field(default=None, compare=False)
    # values other layers derive from this diagram and keep with it; only
    # construct.derived writes here
    computed: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    # the other end of each edge end, as orient_ends pairs them
    mates: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.crossings and self.free_loops == 0:
            raise MalformedPD("diagram has no crossings and no loop components")
        if self.free_loops < 0:
            raise MalformedPD("negative free_loops")
        if self.over_from_d is not None and len(self.over_from_d) != len(self.crossings):
            raise MalformedPD("one over flag per crossing required")
        n = 2 * len(self.crossings)
        flags, _, mates = orient_ends(self.crossings, self.over_from_d, n)
        object.__setattr__(self, "over_from_d", flags)
        object.__setattr__(self, "mates", mates)
        for e in self.labels:
            if not (1 <= e <= n):
                raise MalformedPD(f"label on unknown edge {e}")

    # -- derived structure ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return 2 * len(self.crossings)

    @cached_property
    def head_of(self) -> dict[int, tuple[int, int]]:
        """The crossing and slot where each edge ends: slot a for the
        under-strand, slot d or b for the over-strand."""
        out = {}
        for i, x in enumerate(self.crossings):
            s = 3 if self.over_from_d[i] else 1
            out[x.a], out[x[s]] = (i, 0), (i, s)
        return out

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        head, xs = self.head_of, self.crossings
        seen: set[int] = set()
        comps = []
        for e0 in range(1, self.edge_count + 1):
            if e0 in seen:
                continue
            cycle = []
            e = e0
            while e not in seen:
                seen.add(e)
                cycle.append(e)
                i, s = head[e]
                e = xs[i][s ^ 2]  # straight through the crossing
            comps.append(tuple(cycle))
        return tuple(comps)

    @property
    def component_starts(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.components)

    def component_count(self) -> int:
        return len(self.components) + self.free_loops

    def sign(self, i: int) -> int:
        return 1 if self.over_from_d[i] else -1

    @cached_property
    def signs(self) -> tuple[int, ...]:
        return tuple(self.sign(i) for i in range(len(self.crossings)))

    @cached_property
    def connected(self) -> bool:
        """Connectivity of the underlying 4-valent graph (loops split),
        walked once per diagram."""
        if self.free_loops:
            return self.free_loops == 1 and not self.crossings
        return graph_connected(self.mates)

    def __str__(self) -> str:
        return to_text(self)


def pair_ends(ids: Sequence[int]) -> tuple[int, ...]:
    """The mate of each edge end: ends k and mate[k] carry the same edge id.
    A dart is an edge end, numbered 4i + s for slot s of crossing i; a
    tangle's corners follow the darts in order. Raises InconsistentEdges
    unless every edge has exactly two ends."""
    ends: dict[int, list[int]] = {}
    for k, e in enumerate(ids):
        ends.setdefault(e, []).append(k)
    mate = [0] * len(ids)
    for e, ks in ends.items():
        if len(ks) != 2:
            raise InconsistentEdges(f"edge {e} has {len(ks)} ends, expected 2")
        j, k = ks
        mate[j], mate[k] = k, j
    return tuple(mate)


def orient_ends(
    crossings: Sequence[Crossing],
    over_from_d: Sequence[bool] | None,
    n: int,
    corners: Sequence[tuple[int, str | None]] = (),
) -> tuple[tuple[bool, ...], tuple[str, ...], tuple[int, ...]]:
    """Check and resolve the orientation of a diagram or tangle with edges
    1..n. corners lists a tangle's boundary ends as (edge, flow); an "in"
    corner is its edge's tail, and a flow of None is left to resolve.

    Raises InconsistentEdges unless the edge ids are exactly 1..n with two
    ends each, and pairs the ends once (pair_ends numbers them: the darts,
    then the corners in order). Every end is a head or a tail: an end and
    its mate differ, and so do ends k and k ^ 2 of a crossing.

    Every end the input fixes is filled first: slot a is a head and slot c
    a tail, a given flag is whether slot d is a head (slot b is the
    opposite), and a given flow sets its corner. Each edge whose two ends
    are filled is checked for one head and one tail (OrientationError
    otherwise). Ends still open are resolved: the filled ends propagate,
    then each corner left open is taken as entering, then, for a crossing
    whose over-strand never passes under and so is genuinely ambiguous, a
    deterministic numbering rule decides; a value that contradicts another
    raises OrientationError. Returns the flags, the flow at every corner
    and the mates."""
    ids = [e for x in crossings for e in x] + [e for e, _ in corners]
    for e in ids:
        if not isinstance(e, int) or e < 1 or e > n:
            raise InconsistentEdges(f"edge id {e} outside 1..{n}")
    if len(ids) != 2 * n:
        raise InconsistentEdges(f"{len(ids)} edge ends for {n} edges, expected {2 * n}")
    mate = pair_ends(ids)
    darts = 4 * len(crossings)
    head: list[bool | None] = [True, None, False, None] * len(crossings)
    for i, f in enumerate(over_from_d or ()):
        head[4 * i + 1], head[4 * i + 3] = not f, f
    head += [None if f is None else f == "out" for _, f in corners]
    for k, m in enumerate(mate):
        if head[k] is not None and head[k] == head[m]:
            h = 2 * head[k]
            raise OrientationError(f"edge {ids[k]} has {h} heads and {2 - h} tails")

    def seed(todo: list[tuple[int, bool]]) -> None:
        # each (end, value): an open end takes the value, and its mate and
        # the end across its crossing the opposite
        while todo:
            k, h = todo.pop()
            if head[k] is None:
                head[k] = h
                todo.append((mate[k], not h))
                if k < darts:
                    todo.append((k ^ 2, not h))
            elif head[k] != h:
                raise OrientationError(f"conflicting orientation at edge end {k}")

    if None in head:
        # a filled end's k ^ 2 is filled too, so only its mate may be open
        seed([(m, not head[k]) for k, m in enumerate(mate) if head[k] is not None])
        for k in range(darts, len(mate)):
            if head[k] is None:
                seed([(k, False)])
        for i, (_, b, _, d) in enumerate(crossings):
            if head[4 * i + 3] is None:
                # slot d is a head if b follows d, not if d follows b, else if b > d
                seed([(4 * i + 3, (b - d) % n == 1 or (d - b) % n != 1 and b > d)])
    flags = tuple(head[k] for k in range(3, darts, 4))
    ends = tuple("out" if head[k] else "in" for k in range(darts, len(mate)))
    return flags, ends, mate  # type: ignore[return-value]


def find_root(parent: dict[int, int], e: int) -> int:
    """Root of e in a union-find forest, compressing the path."""
    while parent[e] != e:
        parent[e] = parent[parent[e]]
        e = parent[e]
    return e


# -- parsing and serialization ---------------------------------------------------

# The most crossings a parsed PD document or tangle document may describe,
# checked before anything is built. The benchmark's largest union has 68
# crossings; scripts/alexander_scaling.py runs unions of up to 1,620, where
# `verify` takes about 0.65 s (whole process, wall clock, Python 3.11, one
# Xeon core).
MAX_CROSSINGS = 2_000


def cap_crossings(count: int, error: type[Exception]) -> None:
    if count > MAX_CROSSINGS:
        raise error(f"{count} crossings; at most {MAX_CROSSINGS} are accepted")


def json_int(value, error: type[Exception]) -> int:
    """value, which must be a JSON integer: a bool, a float or a string
    standing for a number is bad input, not something to convert."""
    if type(value) is not int:
        raise error(f"expected an integer, not {value!r}")
    return value


_PD_TERM = re.compile(r"^X\[(-?\d+),(-?\d+),(-?\d+),(-?\d+)\]$")


def parse_pd(source) -> PlanarDiagram:
    """Parse PD text like ``X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]`` or the
    structured document form (a dict, or JSON text holding one)."""
    if isinstance(source, dict):
        return _parse_doc(source)
    if not isinstance(source, str):
        raise MalformedPD(f"cannot parse {type(source).__name__}")
    s = source.strip()
    if s.startswith("{"):
        try:
            doc = json.loads(s)
        except json.JSONDecodeError as exc:
            raise MalformedPD(f"bad JSON: {exc}") from exc
        return _parse_doc(doc)
    tokens = s.split()
    cap_crossings(len(tokens), MalformedPD)
    xs = []
    for tok in tokens:
        m = _PD_TERM.match(tok)
        if not m:
            raise MalformedPD(f"bad PD term {tok!r}")
        xs.append(Crossing(*map(int, m.groups())))
    if not xs:
        raise MalformedPD("no crossings in PD text")
    return PlanarDiagram(tuple(xs))


def _parse_doc(doc: Mapping) -> PlanarDiagram:
    if "crossings" not in doc:
        raise MalformedPD("document lacks 'crossings'")
    try:
        cap_crossings(len(doc["crossings"]), MalformedPD)
        xs = []
        for row in doc["crossings"]:
            if len(row) != 4:
                raise MalformedPD(f"crossing {row!r} is not a 4-tuple")
            xs.append(Crossing(*(json_int(v, MalformedPD) for v in row)))
        labels = {int(k): str(v) for k, v in (doc.get("labels") or {}).items()}
        free_loops = json_int(doc.get("free_loops", 0), MalformedPD)
    except (TypeError, ValueError, AttributeError) as exc:
        raise MalformedPD(f"malformed diagram document: {exc}") from exc
    if not xs and free_loops == 0:
        raise MalformedPD("empty diagram document")
    return PlanarDiagram(tuple(xs), None, free_loops, labels)


def to_text(d: PlanarDiagram) -> str:
    if d.free_loops:
        raise ValueError("text form cannot carry crossing-free loops; use to_doc")
    return " ".join(str(x) for x in d.crossings)


def to_doc(d: PlanarDiagram) -> dict:
    doc: dict = {"crossings": [list(x) for x in d.crossings]}
    if d.labels:
        doc["labels"] = {str(e): d.labels[e] for e in sorted(d.labels)}
    if d.crossings:
        doc["component_starts"] = list(d.component_starts)
    if d.free_loops:
        doc["free_loops"] = d.free_loops
    return doc


# -- arcs ----------------------------------------------------------------------


def over_arcs(d: PlanarDiagram) -> tuple[tuple[int, ...], ...]:
    """The arcs of d: maximal runs of edges joined where they pass over a
    crossing, each as its sorted edge ids, in order of lowest id."""
    parent = {e: e for e in range(1, d.edge_count + 1)}
    for x in d.crossings:
        ra, rb = find_root(parent, x.b), find_root(parent, x.d)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for e in parent:
        groups.setdefault(find_root(parent, e), []).append(e)
    return tuple(tuple(sorted(v)) for _, v in sorted(groups.items()))


# -- faces ---------------------------------------------------------------------


def faces(mate: Sequence[int]) -> tuple[int, ...]:
    """Trace the regions of a diagram from its rotation system, given as
    the mate of each edge end (PlanarDiagram.mates): the face id at each
    corner, where corner 4i + j is the sector between edge slots j and
    j + 1 of crossing i. Faces are numbered in the order the walks find
    them.

    Walk rule: after arriving at a crossing on some edge end (the dart m),
    pass through corner m and leave through the next slot
    counterclockwise. Each region is traced once; together the walks use
    every edge end exactly once in each direction."""
    face = [-1] * len(mate)
    n = 0
    for start in range(len(mate)):
        if face[mate[start]] >= 0:
            continue
        cur = start
        while True:
            m = mate[cur]
            face[m] = n
            cur = m + 1 if m & 3 != 3 else m - 3
            if cur == start:
                break
        n += 1
    return tuple(face)


def graph_connected(mate: Sequence[int]) -> bool:
    """Whether the 4-valent graph whose darts 4i to 4i + 3 at vertex i pair
    as mate (PlanarDiagram.mates) is connected; it has a vertex."""
    seen = bytearray(len(mate) >> 2)
    seen[0] = 1
    todo = [0]
    while todo:
        i = todo.pop()
        for m in mate[4 * i : 4 * i + 4]:
            j = m >> 2
            if not seen[j]:
                seen[j] = 1
                todo.append(j)
    return all(seen)


def validate_planarity(d: PlanarDiagram) -> tuple[int, ...]:
    """Euler check: a connected c-crossing diagram embeds in the sphere
    iff the face walk yields exactly c + 2 regions. Returns the faces."""
    if not d.connected:
        raise DisconnectedDiagram("planarity check needs a connected diagram")
    fs = faces(d.mates)
    if d.crossings and max(fs) + 1 != len(d.crossings) + 2:
        raise NotPlanar(f"face count {max(fs) + 1}, expected {len(d.crossings) + 2}")
    return fs


# -- symmetries ------------------------------------------------------------------


def mirror(d: PlanarDiagram) -> PlanarDiagram:
    """Reflect across the projection plane: all crossing signs flip."""
    xs = tuple(Crossing(x.a, x.d, x.c, x.b) for x in d.crossings)
    flags = tuple(not f for f in d.over_from_d)
    return PlanarDiagram(xs, flags, d.free_loops, dict(d.labels), None)


def writhe(d: PlanarDiagram) -> int:
    return sum(d.signs)
