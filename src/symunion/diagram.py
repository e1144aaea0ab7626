"""Oriented planar diagrams of knots and links, encoded as PD codes.

A crossing is a 4-tuple (a, b, c, d) of edge ids listed counterclockwise
starting at the incoming under-strand edge, so the under-strand runs a -> c.
Which way the over-strand runs is not part of the tuple; it is stored per
crossing as the flag ``over_from_d`` (True: the over-strand enters at the
d slot and leaves at b, which makes the crossing positive; False is the
negative case). Parsing recovers the flags from the requirement that every
edge has exactly one head and one tail.

Edge ids of a diagram with c crossings are exactly 1..2c. Crossing-free
circle components are counted separately in ``free_loops``; they carry no
edges.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence


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
class Face:
    """One region of the diagram.

    corners: (crossing index, corner slot) in walk order, where corner slot
    j names the sector between edge slots j and j+1 of that crossing.
    edge_sides: the bounding (edge id, side) incidences in the same order;
    side "R" means the face lies right of the edge's orientation.
    """

    corners: tuple[tuple[int, int], ...]
    edge_sides: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class PlanarDiagram:
    crossings: tuple[Crossing, ...]
    over_from_d: tuple[bool, ...]
    free_loops: int = 0
    labels: Mapping[int, str] = field(default_factory=dict)
    meta: object = field(default=None, compare=False)
    # values other layers derive from this diagram and keep with it; only
    # construct.derived writes here
    computed: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.crossings and self.free_loops == 0:
            raise MalformedPD("diagram has no crossings and no loop components")
        if self.free_loops < 0:
            raise MalformedPD("negative free_loops")
        if len(self.over_from_d) != len(self.crossings):
            raise MalformedPD("one over flag per crossing required")
        n = 2 * len(self.crossings)
        check_ends(self.crossings, self.over_from_d, n)
        for e in self.labels:
            if not (1 <= e <= n):
                raise MalformedPD(f"label on unknown edge {e}")

    # -- derived structure ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return 2 * len(self.crossings)

    @cached_property
    def incidences(self) -> dict[int, tuple[tuple[int, int], ...]]:
        out: dict[int, list[tuple[int, int]]] = {}
        for i, x in enumerate(self.crossings):
            for s in range(4):
                out.setdefault(x[s], []).append((i, s))
        return {e: tuple(v) for e, v in out.items()}

    def _head_slots(self, i: int) -> tuple[int, int]:
        return (0, 3) if self.over_from_d[i] else (0, 1)

    @cached_property
    def head_of(self) -> dict[int, tuple[int, int]]:
        out = {}
        for i, x in enumerate(self.crossings):
            for s in self._head_slots(i):
                out[x[s]] = (i, s)
        return out

    @cached_property
    def tail_of(self) -> dict[int, tuple[int, int]]:
        out = {}
        for i, x in enumerate(self.crossings):
            hs = self._head_slots(i)
            for s in range(4):
                if s not in hs:
                    out[x[s]] = (i, s)
        return out

    @cached_property
    def succ(self) -> dict[int, int]:
        """Next edge along the strand through each edge's head."""
        out = {}
        for e, (i, s) in self.head_of.items():
            x = self.crossings[i]
            out[e] = x[2] if s == 0 else (x[3] if s == 1 else x[1])
        return out

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
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
                e = self.succ[e]
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

    def is_connected(self) -> bool:
        """Connectivity of the underlying 4-valent graph (loops split)."""
        if self.free_loops and self.crossings:
            return False
        if self.free_loops > 1:
            return False
        if not self.crossings:
            return True
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.crossings))}
        for incs in self.incidences.values():
            ids = [i for i, _ in incs]
            adj[ids[0]].add(ids[1])
            adj[ids[1]].add(ids[0])
        todo = [0]
        seen = {0}
        while todo:
            i = todo.pop()
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        return len(seen) == len(self.crossings)

    def other_incidence(self, e: int, at: tuple[int, int]) -> tuple[int, int]:
        p, q = self.incidences[e]
        return q if at == p else p

    def relabeled(self, labels: Mapping[int, str]) -> "PlanarDiagram":
        return PlanarDiagram(
            self.crossings, self.over_from_d, self.free_loops, dict(labels), self.meta
        )

    def with_meta(self, meta: object) -> "PlanarDiagram":
        return PlanarDiagram(
            self.crossings, self.over_from_d, self.free_loops, dict(self.labels), meta
        )

    def __str__(self) -> str:
        return to_text(self)


def check_ends(
    crossings: Sequence[Crossing],
    over_from_d: Sequence[bool],
    n: int,
    corners: Iterable[tuple[int, str]] = (),
) -> None:
    """Raise InconsistentEdges unless the edge ids are exactly 1..n with two
    ends each, and OrientationError unless every edge has one head and one
    tail. corners lists the extra (edge, flow) ends on a tangle's boundary;
    an "in" corner is its edge's tail."""
    ends: dict[int, int] = {}
    heads: dict[int, int] = {}
    for i, x in enumerate(crossings):
        hs = (0, 3) if over_from_d[i] else (0, 1)
        for s, e in enumerate(x):
            if not isinstance(e, int) or e < 1 or e > n:
                raise InconsistentEdges(f"edge id {e} outside 1..{n}")
            ends[e] = ends.get(e, 0) + 1
            heads[e] = heads.get(e, 0) + (s in hs)
    for e, flow in corners:
        ends[e] = ends.get(e, 0) + 1
        heads[e] = heads.get(e, 0) + (flow == "out")
    for e in range(1, n + 1):
        if ends.get(e, 0) != 2:
            raise InconsistentEdges(f"edge {e} has {ends.get(e, 0)} ends, expected 2")
    for e in range(1, n + 1):
        if heads[e] != 1:
            raise OrientationError(
                f"edge {e} has {heads[e]} heads and {2 - heads[e]} tails"
            )


def find_root(parent: dict[int, int], e: int) -> int:
    """Root of e in a union-find forest, compressing the path."""
    while parent[e] != e:
        parent[e] = parent[parent[e]]
        e = parent[e]
    return e


def unknot() -> PlanarDiagram:
    """The crossing-free round unknot."""
    return PlanarDiagram((), (), free_loops=1)


# -- orientation resolution ----------------------------------------------------


def resolve_orientation(
    crossings: Sequence[Crossing],
    boundary: Mapping[str, int] | None = None,
    flows: Mapping[str, str] | None = None,
) -> tuple[tuple[bool, ...], dict[str, str]]:
    """Recover the per-crossing over-strand directions from the tuples.

    Propagates the one-head-one-tail constraint per edge from the fixed
    under slots and from the given flows at the boundary corners of a
    tangle ("in" makes the corner its edge's tail); a diagram is the case
    with no corners. A corner left open is taken to enter. Strands that
    never pass under are genuinely ambiguous; those fall back to a
    deterministic numbering rule. Returns the flags and the flow at every
    corner.
    """
    boundary = boundary or {}
    # an incidence is a (crossing, slot) pair or a corner name
    edge_at: dict = {(i, s): e for i, x in enumerate(crossings) for s, e in enumerate(x)}
    edge_at.update(boundary)
    incs: dict[int, list] = {}
    for inc, e in edge_at.items():
        incs.setdefault(e, []).append(inc)
    for e, v in incs.items():
        if len(v) != 2:
            raise InconsistentEdges(f"edge {e} has {len(v)} ends, expected 2")

    role: dict = {}
    flags: list[bool | None] = [None] * len(crossings)
    queue: list = []

    def set_role(inc, r: str) -> None:
        cur = role.get(inc)
        if cur is None:
            role[inc] = r
            queue.append(inc)
        elif cur != r:
            raise OrientationError(f"conflicting orientation at {inc}")

    def set_flag(i: int, f: bool) -> None:
        if flags[i] is None:
            flags[i] = f
            set_role((i, 3 if f else 1), "h")
            set_role((i, 1 if f else 3), "t")
        elif flags[i] != f:
            raise OrientationError(f"conflicting over direction at crossing {i}")

    def drain() -> None:
        while queue:
            inc = queue.pop()
            r = role[inc]
            if isinstance(inc, tuple) and inc[1] in (1, 3) and flags[inc[0]] is None:
                set_flag(inc[0], (inc[1] == 3) == (r == "h"))
            p, q = incs[edge_at[inc]]
            set_role(q if inc == p else p, "t" if r == "h" else "h")

    for i in range(len(crossings)):
        set_role((i, 0), "h")
        set_role((i, 2), "t")
    for c, f in (flows or {}).items():
        set_role(c, "t" if f == "in" else "h")
    drain()
    for c in boundary:
        if c not in role:
            set_role(c, "t")
            drain()
    n = len(incs)
    for i, x in enumerate(crossings):
        if flags[i] is None:
            b, d = x[1], x[3]
            if (b - d) % n == 1:
                set_flag(i, True)
            elif (d - b) % n == 1:
                set_flag(i, False)
            else:
                set_flag(i, b > d)
            drain()
    corner_flows = {c: ("in" if role[c] == "t" else "out") for c in boundary}
    return tuple(flags), corner_flows  # type: ignore[return-value]


def diagram_from_tuples(
    tuples: Iterable[Sequence[int]],
    free_loops: int = 0,
    labels: Mapping[int, str] | None = None,
    flags: Sequence[bool] | None = None,
    meta: object = None,
) -> PlanarDiagram:
    xs = tuple(Crossing(*map(int, t)) for t in tuples)
    if flags is None:
        flags, _ = resolve_orientation(xs)
    return PlanarDiagram(xs, tuple(flags), free_loops, dict(labels or {}), meta)


# -- parsing and serialization ---------------------------------------------------

# The most crossings a parsed PD document or tangle document may describe,
# checked before anything is built. Far above any use: the corpus's tangles
# are kt(n) with n <= 6 and the benchmark's largest union has 68 crossings.
MAX_CROSSINGS = 2_000


def cap_crossings(count: int, error: type[Exception]) -> None:
    if count > MAX_CROSSINGS:
        raise error(f"{count} crossings; at most {MAX_CROSSINGS} are accepted")


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
    tuples = []
    for tok in tokens:
        m = _PD_TERM.match(tok)
        if not m:
            raise MalformedPD(f"bad PD term {tok!r}")
        tuples.append(tuple(int(g) for g in m.groups()))
    if not tuples:
        raise MalformedPD("no crossings in PD text")
    return diagram_from_tuples(tuples)


def _parse_doc(doc: Mapping) -> PlanarDiagram:
    if "crossings" not in doc:
        raise MalformedPD("document lacks 'crossings'")
    try:
        cap_crossings(len(doc["crossings"]), MalformedPD)
        tuples = []
        for row in doc["crossings"]:
            if len(row) != 4:
                raise MalformedPD(f"crossing {row!r} is not a 4-tuple")
            tuples.append(tuple(int(v) for v in row))
        labels = {int(k): str(v) for k, v in (doc.get("labels") or {}).items()}
        free_loops = int(doc.get("free_loops", 0))
    except (TypeError, ValueError, AttributeError) as exc:
        raise MalformedPD(f"malformed diagram document: {exc}") from exc
    if not tuples and free_loops == 0:
        raise MalformedPD("empty diagram document")
    return diagram_from_tuples(tuples, free_loops=free_loops, labels=labels)


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


def faces(d: PlanarDiagram) -> tuple[Face, ...]:
    """Trace the regions of the diagram from its rotation system.

    Walk rule: after arriving at a crossing on some edge end, leave through
    the next slot counterclockwise. Each region is traced once; together
    the walks use every edge end exactly once in each direction.
    """
    out: list[Face] = []
    visited: set[tuple[int, int]] = set()
    all_darts = [(i, s) for i in range(len(d.crossings)) for s in range(4)]
    for start in all_darts:
        if start in visited:
            continue
        corners: list[tuple[int, int]] = []
        sides: list[tuple[int, str]] = []
        cur = start
        while True:
            visited.add(cur)
            i, s = cur
            e = d.crossings[i][s]
            j, s2 = d.other_incidence(e, cur)
            corners.append((j, s2))
            sides.append((e, "R" if d.tail_of[e] == cur else "L"))
            cur = (j, (s2 + 1) % 4)
            if cur == start:
                break
        out.append(Face(tuple(corners), tuple(sides)))
    return tuple(out)


def validate_planarity(d: PlanarDiagram) -> tuple[Face, ...]:
    """Euler check: a connected c-crossing diagram embeds in the sphere
    iff the face walk yields exactly c + 2 regions. Returns the faces."""
    if not d.is_connected():
        raise DisconnectedDiagram("planarity check needs a connected diagram")
    fs = faces(d)
    if d.crossings and len(fs) != len(d.crossings) + 2:
        raise NotPlanar(f"face count {len(fs)}, expected {len(d.crossings) + 2}")
    return fs


# -- symmetries ------------------------------------------------------------------


def mirror(d: PlanarDiagram) -> PlanarDiagram:
    """Reflect across the projection plane: all crossing signs flip."""
    xs = tuple(Crossing(x.a, x.d, x.c, x.b) for x in d.crossings)
    flags = tuple(not f for f in d.over_from_d)
    return PlanarDiagram(xs, flags, d.free_loops, dict(d.labels), None)


def reverse(d: PlanarDiagram) -> PlanarDiagram:
    """Reverse the orientation of every component; signs are preserved."""
    xs = tuple(Crossing(x.c, x.d, x.a, x.b) for x in d.crossings)
    return PlanarDiagram(xs, tuple(d.over_from_d), d.free_loops, dict(d.labels), None)


def writhe(d: PlanarDiagram) -> int:
    return sum(d.signs)


# -- renumbering and connected sum -----------------------------------------------


def renumber_edges(
    d: PlanarDiagram, start_edge: int | None = None
) -> PlanarDiagram:
    """Assign ids 1..2c along the orientation, one component at a time.

    The walk starts at ``start_edge`` (default: edge 1's component, from
    its lowest id); remaining components follow in order of their lowest
    old id. Labels are carried over; metadata is dropped because it holds
    edge references the caller must remap itself.
    """
    if not d.crossings:
        return PlanarDiagram((), (), d.free_loops, {}, None)
    comps = list(d.components)
    if start_edge is not None:
        comps.sort(key=lambda c: (start_edge not in c, min(c)))
        first = comps[0]
        k = first.index(start_edge)
        comps[0] = first[k:] + first[:k]
    perm: dict[int, int] = {}
    nxt = 1
    for comp in comps:
        for e in comp:
            perm[e] = nxt
            nxt += 1
    xs = tuple(Crossing(*(perm[e] for e in x)) for x in d.crossings)
    labels = {perm[e]: v for e, v in d.labels.items()}
    return PlanarDiagram(xs, tuple(d.over_from_d), d.free_loops, labels, None)


def connected_sum(
    d1: PlanarDiagram, arc1: int, d2: PlanarDiagram, arc2: int
) -> PlanarDiagram:
    """Splice two knot diagrams at the chosen arcs.

    Each arc is cut at its midpoint and the four loose ends are rejoined
    across the diagrams, respecting orientation.
    """
    for d in (d1, d2):
        if d.component_count() != 1:
            raise MultiComponentInput("connected sum needs single-component inputs")
    if not d1.crossings:
        return renumber_edges(d2, start_edge=arc2 if d2.crossings else None)
    if not d2.crossings:
        return renumber_edges(d1, start_edge=arc1)
    for d, arc in ((d1, arc1), (d2, arc2)):
        if arc not in d.incidences:
            raise MalformedPD(f"arc {arc} not in diagram")

    off = d1.edge_count
    # provisional ids: d1 edges as-is, d2 edges + off; stubs replace the cut
    # arcs at their tail/head slots.
    stub_out1, stub_in1 = off + d2.edge_count + 1, off + d2.edge_count + 2
    stub_out2, stub_in2 = off + d2.edge_count + 3, off + d2.edge_count + 4

    def rows(d, offset, cut, out_id, in_id):
        out = []
        for i, x in enumerate(d.crossings):
            hs = d._head_slots(i)
            row = []
            for s in range(4):
                e = x[s]
                if e == cut:
                    row.append(in_id if s in hs else out_id)
                else:
                    row.append(e + offset)
            out.append(row)
        return out

    t1 = rows(d1, 0, arc1, stub_out1, stub_in1)
    t2 = rows(d2, off, arc2, stub_out2, stub_in2)
    # join: out of d1 flows into d2, and back.
    unify = {stub_in2: stub_out1, stub_in1: stub_out2}
    tuples = [[unify.get(e, e) for e in row] for row in t1 + t2]
    # compact ids to 1..2c before constructing
    ids = sorted({e for row in tuples for e in row})
    compact = {e: k + 1 for k, e in enumerate(ids)}
    tuples = [[compact[e] for e in row] for row in tuples]
    labels: dict[int, str] = {}
    for e, v in d1.labels.items():
        if e != arc1:
            labels[compact[e]] = v
    for e, v in d2.labels.items():
        if e != arc2:
            labels[compact[e + off]] = v
    flags = tuple(d1.over_from_d) + tuple(d2.over_from_d)
    out = PlanarDiagram(
        tuple(Crossing(*row) for row in tuples), flags, 0, labels, None
    )
    return renumber_edges(out, start_edge=compact[stub_out1])
