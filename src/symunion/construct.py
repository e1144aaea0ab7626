"""Build symmetric unions: a knot diagram fused with its mirror image
along an axis, with even tangles spliced into chosen arcs.

The construction takes a partial diagram D, one marked arc that becomes the
axis pair a0/a1, and one further marked arc per tangle. The result carries
edge labels recording where every edge came from (x<j> for D, x<j>* for the
mirror half, s<k>_<i> for tangle region i), and its metadata keeps the spec
and the attachment orientations, so that a certificate can rebuild the
union with other tangles in its boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence, TypeVar

from .diagram import (
    Crossing,
    PlanarDiagram,
    DiagramError,
    along_orientation,
    cap_crossings,
    json_int,
    over_arcs,
    parse_pd,
    to_doc,
    validate_planarity,
)
from .tangle import (
    CORNERS,
    Tangle,
    _join,
    is_even_type,
    orient,
    parse_tangle,
    rational_tangle,
    to_tangle_doc,
    vertical_twists,
)


class ConstructError(Exception):
    pass


class NotEvenType(ConstructError):
    pass


class NotAKnot(ConstructError):
    pass


class ClosedComponentInTangle(ConstructError):
    pass


class UnknownRegion(ConstructError):
    pass


class NotPlanarInsertion(ConstructError):
    pass


@dataclass(frozen=True)
class SymUnionSpec:
    """A partial diagram, the marked arcs (axis first), and the tangles
    to splice in at marked arcs 1..n."""

    partial: PlanarDiagram
    marked_arcs: tuple[int, ...]
    tangles: tuple[Tangle, ...]

    def __post_init__(self):
        object.__setattr__(self, "marked_arcs", tuple(self.marked_arcs))
        object.__setattr__(self, "tangles", tuple(self.tangles))
        if len(self.marked_arcs) != len(self.tangles) + 1:
            raise ConstructError(
                "need exactly one more marked arc than tangles (the axis arc)"
            )
        if len(set(self.marked_arcs)) != len(self.marked_arcs):
            raise ConstructError("marked arcs must be distinct edges")


@dataclass(frozen=True)
class UnionMeta:
    spec: SymUnionSpec
    # per box: 0 attaches the host's outgoing stub at NW, 1 swaps north
    # and south on both sides
    attach_bits: tuple[int, ...]
    # spec.tangles[i - 1] oriented for the box of region i at its bit; a
    # rebuild orients only the tangles it replaces
    boxed: tuple[Tangle, ...]


# slot of edge e+E in the mirror row (c, b, a, d), given e's slot in (a, b, c, d)
_SIGMA = {0: 2, 1: 1, 2: 0, 3: 3}


def _validate_inputs(spec: SymUnionSpec) -> None:
    d = spec.partial
    if not d.crossings or d.component_count() != 1:
        raise NotAKnot("partial diagram must be a one-component diagram "
                       "with at least one crossing")
    arcs = derived(
        d, "arc_index", lambda: {e: i for i, arc in enumerate(over_arcs(d)) for e in arc}
    )
    seen = {}
    for e in spec.marked_arcs:
        if e not in arcs:
            raise ConstructError(f"marked edge {e} not in the partial diagram")
        if arcs[e] in seen:
            raise ConstructError(
                f"marked edges {seen[arcs[e]]} and {e} lie on the same arc"
            )
        seen[arcs[e]] = e
    for i, t in enumerate(spec.tangles, start=1):
        if t.has_closed_components():
            raise ClosedComponentInTangle(f"tangle {i} contains a closed component")


def _oriented_for_box(t: Tangle, bit: int) -> Tangle:
    return orient(t, dict.fromkeys(("NW", "SE") if bit == 0 else ("SW", "NE"), "in"))


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

    def _rewire(self, m: int, host: tuple[int, int], mirror: tuple[int, int]) -> None:
        """Give the (tail, head) ends of edge m new ids in each half."""
        c = len(self.d.crossings)
        i, s = self.d.head_of[m]
        for k, h, ms in zip((self.d.mates[4 * i + s], 4 * i + s), host, mirror):
            self.rows[k >> 2][k & 3] = h
            self.rows[c + (k >> 2)][_SIGMA[k & 3]] = ms

    def cut(self, m: int) -> tuple[int, int, int, int]:
        """Open marked arc m on both halves. Returns the new stubs: the
        host's outgoing and incoming ends, then the mirror's, whose roles
        are reversed."""
        u, v, us, vs = (self.fresh() for _ in range(4))
        self._rewire(m, (u, v), (vs, us))
        return u, v, us, vs


def _assemble_with_bits(
    spec: SymUnionSpec,
    bits: tuple[int, ...],
    boxed: Sequence[Tangle],
) -> PlanarDiagram:
    """The union of spec at attachment bits, with boxed[i - 1], the tangle
    of region i oriented for its box at its bit, spliced in. Edges are
    numbered along the orientation from a0, so the one diagram built is
    the union itself; its faces are walked here (planar_faces), and its
    metadata keeps boxed for the rebuilds (_rebuild)."""
    d = spec.partial
    E = d.edge_count

    labels: dict[int, str] = {}
    for j in range(1, E + 1):
        if j not in spec.marked_arcs:
            labels[j] = f"x{j}"
            labels[j + E] = f"x{j}*"

    h = _Halves(d, spec.marked_arcs[0])
    rows, flags = h.rows, h.flags
    labels[h.a0], labels[h.a1] = "a0", "a1"

    # a crossingless strand joins two stubs of one box; the pairs are
    # disjoint, and each merged pair keeps its lower id
    alias: dict[int, int] = {}

    def find(e: int) -> int:
        return alias.get(e, e)

    for i, (t, bit) in enumerate(zip(boxed, bits), start=1):
        u, v, us, vs = h.cut(spec.marked_arcs[i])
        if bit == 0:
            at_corner = {"NW": u, "SW": v, "NE": vs, "SE": us}
        else:
            at_corner = {"NW": v, "SW": u, "NE": us, "SE": vs}

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
        for corner, kk in (("NW", 1), ("NE", 2), ("SW", 3), ("SE", 4)):
            eid = find(emap[t.boundary[corner]])
            if eid not in labels:
                labels[eid] = f"s{kk}_{i}"

        rows.extend([emap[e] for e in x] for x in t.crossings)
        flags.extend(t.over_from_d)

    if alias:
        rows = [[alias.get(e, e) for e in row] for row in rows]
    perm = along_orientation(rows, flags, h.a0)
    try:
        built = PlanarDiagram(
            tuple(Crossing(perm[a], perm[b], perm[c], perm[d]) for a, b, c, d in rows),
            tuple(flags),
            labels={perm[e]: lbl for e, lbl in labels.items() if e in perm and e not in alias},
            meta=UnionMeta(spec, tuple(bits), tuple(boxed)),
        )
        planar_faces(built)
    except DiagramError as exc:
        raise NotPlanarInsertion(f"insertion does not embed: {exc}") from exc

    return built


def expect_knot(d: PlanarDiagram) -> PlanarDiagram:
    """d, if it is a knot; else NotAKnot."""
    if d.component_count() != 1:
        raise NotAKnot(f"result has {d.component_count()} components, expected a knot")
    return d


def build_symmetric_union(spec: SymUnionSpec) -> PlanarDiagram:
    """The symmetric union of spec.partial with its mirror image, with
    spec.tangles spliced in at the marked arcs. The result is a knot
    diagram with 2c(D) + sum(c(T_i)) crossings.

    Cutting the axis edge a in both halves and rejoining them merges each
    of the two faces beside a with its mirror image. These two corridors
    are the only faces of the union that touch both halves, and a band
    across one of them joins mirror points of its two sides, so no two
    bands cross. Box i therefore embeds exactly when its marked edge m
    borders a face beside a, independently of the other boxes. Its bit
    is the side of m that face lies on: 0 for the face before m's head
    slot (flanking_faces(d, m)[0]), preferred when both sides qualify,
    else 1 for the face after it."""
    _validate_inputs(spec)
    for i, t in enumerate(spec.tangles, start=1):
        if not is_even_type(t):
            raise NotEvenType(
                f"tangle {i} pairs its ends {t.pairing()}, not north-to-south"
            )
    d = spec.partial
    axis, *marked = spec.marked_arcs
    try:
        corridors = flanking_faces(d, axis)
        sides = [flanking_faces(d, m) for m in marked]
    except DiagramError as exc:
        raise NotPlanarInsertion(f"insertion does not embed: {exc}") from exc
    bits = []
    for i, (m, (before, after)) in enumerate(zip(marked, sides), start=1):
        if before not in corridors and after not in corridors:
            raise NotPlanarInsertion(
                f"insertion does not embed: region {i}'s marked edge {m} "
                f"borders neither face beside the axis edge {axis}"
            )
        bits.append(0 if before in corridors else 1)
    boxed = [_oriented_for_box(t, bit) for t, bit in zip(spec.tangles, bits)]
    return expect_knot(_assemble_with_bits(spec, tuple(bits), boxed))


def build_all_zero_replacement(union: SymUnionSpec | PlanarDiagram) -> PlanarDiagram:
    """Every tangle of the union (a spec is built first) replaced by the
    trivial west-to-east pair; the diagram falls apart into n+1
    components. That tangle joins the host's outgoing stub to the
    mirror's incoming one, and vice versa, under either attachment bit,
    so the union's own bits embed it."""
    k = built_union(union)
    zeros = dict.fromkeys(range(1, len(k.meta.spec.tangles) + 1), rational_tangle([]))
    return _rebuild(k, zeros)


# -- the built union --------------------------------------------------------------

_T = TypeVar("_T")


def _meta_of(k: PlanarDiagram) -> UnionMeta:
    if not isinstance(k.meta, UnionMeta):
        raise ConstructError("diagram carries no construction metadata")
    return k.meta


def built_union(union: SymUnionSpec | PlanarDiagram) -> PlanarDiagram:
    """The built union a certificate works on: a spec is built here, a
    diagram must already carry construction metadata. Building once and
    passing the result to every certificate lets them share what they
    compute from it (see derived)."""
    if isinstance(union, SymUnionSpec):
        return build_symmetric_union(union)
    _meta_of(union)
    return union


def derived(d: PlanarDiagram, key: Hashable, compute: Callable[[], _T]) -> _T:
    """compute(), kept with d, so that every certificate run against the
    same built union computes it once; the value lives as long as d does."""
    if key not in d.computed:
        d.computed[key] = compute()
    return d.computed[key]


def planar_faces(d: PlanarDiagram) -> tuple[int, ...]:
    """validate_planarity(d), kept with d. A union is validated when it is
    assembled, so the invariants that read its faces walk none."""
    return derived(d, "faces", lambda: validate_planarity(d))


def flanking_faces(d: PlanarDiagram, edge: int) -> tuple[int, int]:
    """The two faces on either side of an edge. At the edge's head, dart
    4i + s, they are the faces at the corners before and after slot s.

    The two differ: a 4-valent graph has no bridge, so no face lies on
    both sides of an edge (planar_faces has checked the embedding)."""
    if edge not in d.head_of:
        raise DiagramError(f"edge {edge} is not in the diagram")
    i, s = d.head_of[edge]
    face = planar_faces(d)
    return face[4 * i + (s - 1) % 4], face[4 * i + s]


def region_tangle(k: PlanarDiagram, i: int) -> Tangle:
    """The tangle inserted at region i of the built union k."""
    tangles = _meta_of(k).spec.tangles
    if not 1 <= i <= len(tangles):
        raise UnknownRegion(f"region {i} not in 1..{len(tangles)}")
    return tangles[i - 1]


def _rebuild(k: PlanarDiagram, replace: Mapping[int, Tangle]) -> PlanarDiagram:
    """Rebuild k with region i holding replace[i], at the attachment bits
    of k. Pinning the bits keeps the complement of each region the same
    tangle across rebuilds, which the decomposition checks rely on."""
    meta = _meta_of(k)
    for i in replace:
        region_tangle(k, i)
    tangles = [replace.get(i, t) for i, t in enumerate(meta.spec.tangles, start=1)]
    spec = SymUnionSpec(meta.spec.partial, meta.spec.marked_arcs, tangles)
    _validate_inputs(spec)
    bits = meta.attach_bits
    boxed = list(meta.boxed)
    for i, t in replace.items():
        boxed[i - 1] = _oriented_for_box(t, bits[i - 1])
    return _assemble_with_bits(spec, bits, boxed)


def open_box(
    k: PlanarDiagram, i: int
) -> tuple[PlanarDiagram, int, tuple[int, int, int, int, int], int]:
    """k rebuilt with vertical_twists(2) in box i, the one diagram both
    closures of region i's complement are read from. Returns it, the index
    of the twist's top crossing (its bottom crossing follows), the faces
    (bigon, N, E, S, W) defined below, and N(C)'s component count.

    The complement C is k with box i left open; D(C) closes the box with
    two vertical arcs and N(C) with two horizontal ones. The twist orients
    under either attachment bit and joins the corners as D(C) does, so the
    diagram has D(C)'s components, and without the twist's crossings its
    region matrix is C's crossings against C's faces and the twist's
    bigon.

    The faces at the twist's corners are the bigon between its crossings
    and the box's sides: N at the top crossing and S at the bottom one,
    each opposite the bigon, and W and E at both; counterclockwise around
    the top crossing, the bigon, E, N, W. Adjacent sectors of a crossing
    never share a face, as a 4-valent graph has no bridge. N = S, or
    W = E, makes a closed curve in that face cross the diagram only at
    the box's two west edges, or at the two between its crossings, and so
    splits C into a west and an east part, or a north and a south one.
    The west corners are the host half's stubs and the east ones the
    mirror's, and each part of a half cut at the axis edge and the marked
    edge holds an axis stub, so the axis keeps N and S apart. W = E
    happens when those two edges cut the partial in two; N(C) is then a
    split diagram.

    Closing the box merges two sides, and a closure's polynomial may
    delete the merged face and a side beside it: D(C) merges N and S and
    deletes W too, N(C) merges W and E and deletes N too. So with A the
    columns of the other faces, Delta(D(C)) = det[A | E] (det[A] when
    W = E) and Delta(N(C)) = det[A | S] (0 when W = E) up to units.

    N(C)'s components are C's closed components, which miss the twist,
    and two more when C's strand from the top crossing returns to it (N(C)
    then closes each strand on itself), else one."""
    meta = _meta_of(k)
    d = _rebuild(k, {i: vertical_twists(2)})
    p = 2 * len(meta.spec.partial.crossings) + sum(len(t.crossings) for t in meta.boxed[: i - 1])
    face = planar_faces(d)
    top, bottom = face[4 * p : 4 * p + 4], face[4 * p + 4 : 4 * p + 8]
    (j,) = [j for j in range(4) if top[j] not in bottom]  # N, between two ends of C
    (s,) = [f for f in bottom if f not in top]
    end = d.mates[4 * p + j]
    while not p <= end >> 2 <= p + 1:
        end = d.mates[end ^ 2]  # straight through a crossing of C
    twist = {*d.crossings[p], *d.crossings[p + 1]}
    closed = sum(twist.isdisjoint(c) for c in d.components)
    at_box = (top[j + 2 & 3], top[j], top[j + 3 & 3], s, top[j + 1 & 3])
    return d, p, at_box, closed + 1 + (end >> 2 == p)


def glued_pair(partial: PlanarDiagram, e0: int, e1: int) -> Tangle:
    """The complement tangle: the symmetric union built on (e0, e1) with
    region 1 left as an open box. Summing the removed tangle (rotated a
    half turn) back on the west side and closing the numerator restores
    the union."""
    spec = SymUnionSpec(partial, (e0, e1), (rational_tangle([]),))
    _validate_inputs(spec)
    h = _Halves(partial, e0)
    u, v, us, vs = h.cut(e1)
    xs, ends, _ = _join(h.next_id - 1, h.rows, (), (v, u, us, vs))
    boundary = dict(zip(("NW", "SW", "NE", "SE"), ends))
    flows = {"NW": "in", "SW": "out", "NE": "out", "SE": "in"}
    return Tangle(tuple(xs), tuple(h.flags), boundary, flows)


# -- spec documents -------------------------------------------------------------------


def to_spec_doc(spec: SymUnionSpec) -> dict:
    return {
        "partial": to_doc(spec.partial),
        "marked_arcs": list(spec.marked_arcs),
        "tangles": [to_tangle_doc(t) for t in spec.tangles],
    }


def parse_spec(doc: Mapping) -> SymUnionSpec:
    """The spec a document describes. The union it would build, with
    2c(D) + sum(c(T_i)) crossings, is capped like a parsed diagram before
    anything is built."""
    if not isinstance(doc, Mapping):
        raise ConstructError(f"spec document must be an object, not {type(doc).__name__}")
    try:
        partial = parse_pd(doc["partial"])
        marked = tuple(json_int(e, ConstructError) for e in doc["marked_arcs"])
        tangles = tuple(parse_tangle(t) for t in doc["tangles"])
        # after the entries, whose errors come first: "" and {} have no
        # entry to refuse
        for key in ("marked_arcs", "tangles"):
            if not isinstance(doc[key], list):
                raise ConstructError(
                    f"spec document's {key} must be an array, not {type(doc[key]).__name__}"
                )
    except KeyError as exc:
        raise ConstructError(f"spec document is missing {exc}") from exc
    except TypeError as exc:
        raise ConstructError(f"malformed spec document: {exc}") from exc
    cap_crossings(
        2 * len(partial.crossings) + sum(len(t.crossings) for t in tangles),
        ConstructError,
    )
    return SymUnionSpec(partial, marked, tangles)
