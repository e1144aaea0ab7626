"""Build symmetric unions: a knot diagram fused with its mirror image
along an axis, with even tangles spliced into chosen arcs.

The construction takes a partial diagram D, one marked arc that becomes the
axis pair a0/a1, and one further marked arc per tangle. The result carries
edge labels recording where every edge came from (x<j> for D, x<j>* for the
mirror half, s<k>_<i> for tangle region i), and its metadata keeps the spec,
the attachment orientations and the darts around each box, so that a
certificate can read what other tangles in the boxes would give off the
one built union.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, TypeVar

from .diagram import (
    PlanarDiagram,
    DiagramError,
    cap_crossings,
    faces,
    json_int,
    number_edges,
    over_arcs,
    parse_pd,
    to_doc,
    validate_planarity,
)
from .tangle import (
    CORNERS,
    Tangle,
    is_even_type,
    orient,
    parse_tangle,
    to_tangle_doc,
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
    """What the builder records with a union, so that every certificate
    reads the one built union: no certificate assembles another, and the
    zero replacement is a diagram made from its mates and corners."""

    spec: SymUnionSpec
    # per box: 0 attaches the host's outgoing stub at NW, 1 swaps north
    # and south on both sides
    attach_bits: tuple[int, ...]
    # fold[e - 1]: the partial edge union edge e folds onto (group.build_epimorphism)
    fold: tuple[int, ...]
    # corners[i - 1]: the union darts just outside box i's corners NW, SW,
    # SE and NE, counterclockwise, all in the halves' rows (contract_box;
    # zero_replacement wires them into the zero replacement's diagram)
    corners: tuple[tuple[int, ...], ...]


# the slot of the mirror of slot s: the mirror row of (a, b, c, d) is (c, b, a, d)
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


def _assemble_with_bits(spec: SymUnionSpec, bits: tuple[int, ...]) -> PlanarDiagram:
    """The union of spec at attachment bits, built as a pairing of darts.
    Rows 0..c-1 hold the partial and rows c..2c-1 its mirror, whose dart
    4(c + r) + _SIGMA[s] is the mirror of dart 4r + s; a tail's mirror is
    a head. The axis arc's tail and head are paired with their mirrors as
    a0 and a1. Then come the rows of the tangle of each region i, oriented
    for its box at its bit, whose corner ends are paired with the four
    darts its box opens, the ends of marked arc i and their mirrors; a
    crossingless strand pairs two of them. One walk numbers the edges
    along the orientation from a0, each further component from its lowest
    dart (diagram.number_edges), and the diagram takes the pairing as it
    is, so the one diagram built is the union itself; its faces are
    walked here (planar_faces). Its metadata keeps each box's corner darts
    for contract_box and zero_replacement."""
    d = spec.partial
    c = len(d.crossings)
    tangles = [_oriented_for_box(t, bit) for t, bit in zip(spec.tangles, bits)]
    size = 8 * c + 4 * sum(len(t.crossings) for t in tangles)
    # per dart: its mate, and the label and fold target of its edge
    mate, label, fold = [0] * size, [""] * size, [0] * size
    mirror = [4 * (c + (k >> 2)) + _SIGMA[k & 3] for k in range(4 * c)]

    def ends(m: int) -> tuple[int, int]:
        head = d.heads[m - 1]
        return d.mates[head], head

    # x<j> and x<j>* fold onto edge j, the axis pair onto the axis arc, and
    # region i's edges onto marked arc i
    for k, m in enumerate(d.mates):
        e = d.crossings[k >> 2][k & 3]
        mate[k], mate[mirror[k]] = m, mirror[m]
        label[k], label[mirror[k]] = f"x{e}", f"x{e}*"
        fold[k] = fold[mirror[k]] = e
    a0, a1 = ends(spec.marked_arcs[0])
    for k, name in ((a0, "a0"), (a1, "a1")):
        mate[k], mate[mirror[k]] = mirror[k], k
        label[k] = label[mirror[k]] = name

    corners = []
    flags = [*d.over_from_d, *(not f for f in d.over_from_d)]
    base = 8 * c
    for i, t in enumerate(tangles, start=1):
        m = spec.marked_arcs[i]
        # bit 0 opens the host's outgoing stub at NW, bit 1 at SW
        nw, sw = ends(m) if bits[i - 1] == 0 else ends(m)[::-1]
        corners.append((nw, sw, mirror[sw], mirror[nw]))
        top = base + 4 * len(t.crossings)
        at = [*range(base, top), nw, mirror[nw], sw, mirror[sw]]  # t's ends, CORNERS last
        for j, x in enumerate(t.mates):
            mate[at[j]] = at[x]
        names: dict[int, str] = {}
        for j, q in enumerate(CORNERS, start=1):
            names.setdefault(t.boundary[q], f"s{j}_{i}")
        inner = [e for e in range(1, t.edge_count + 1) if e not in names]
        names.update((e, f"s{j}_{i}") for j, e in enumerate(inner, start=5))
        label[base:top] = [names[e] for x in t.crossings for e in x]
        for k, q in zip(at[-4:], CORNERS):
            label[k] = names[t.boundary[q]]
        fold[base:top] = [m] * (top - base)
        flags += t.over_from_d
        base = top

    xs, heads = number_edges(mate, flags, mirror[a0])
    try:
        built = PlanarDiagram(
            xs,
            tuple(flags),
            labels={e: label[k] for e, k in enumerate(heads, start=1)},
            meta=UnionMeta(spec, tuple(bits), tuple(fold[k] for k in heads), tuple(corners)),
            mates=tuple(mate),
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
    return expect_knot(_assemble_with_bits(spec, tuple(bits)))


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
    """The two faces on either side of an edge: at its head dart k, those
    at the corners before and after it, k - 1 (k + 3 at slot a) and k.

    The two differ: a 4-valent graph has no bridge, so no face lies on
    both sides of an edge (planar_faces has checked the embedding)."""
    if not 1 <= edge <= d.edge_count:
        raise DiagramError(f"edge {edge} is not in the diagram")
    k = d.heads[edge - 1]
    face = planar_faces(d)
    return face[k - 1 if k & 3 else k + 3], face[k]


def region_tangle(k: PlanarDiagram, i: int) -> Tangle:
    """The tangle inserted at region i of the built union k."""
    tangles = _meta_of(k).spec.tangles
    if not 1 <= i <= len(tangles):
        raise UnknownRegion(f"region {i} not in 1..{len(tangles)}")
    return tangles[i - 1]


def contract_box(k: PlanarDiagram, i: int) -> tuple[tuple[int, ...], int, tuple[int, int]]:
    """Region i's complement C, read off the built union k: box i is
    contracted to one 4-valent vertex, at the index p of its first
    crossing, with slots 0 to 3 wired to the darts just outside its
    corners NW, SW, SE and NE (UnionMeta.corners). Returns the faces of
    that graph (diagram.faces), p, and the component counts of D(C) and
    N(C), which close the box with two vertical arcs and with two
    horizontal ones. Nothing is rebuilt or renumbered.

    The vertex's corners, in slot order, hold the box's sides W, S, E and
    N, and C's region matrix is k's rows but box i's over these faces.
    Adjacent corners of a vertex never share a face, as a 4-valent graph
    has no bridge. N = S, or W = E, makes a closed curve in that face
    cross the graph only at the vertex, and so splits C into a west and
    an east part, or a north and a south one. The west corners are the
    host half's stubs and the east ones the mirror's, and each part of a
    half cut at the axis edge and the marked edge holds an axis stub, so
    the axis keeps N and S apart. W = E happens when those two edges cut
    the partial in two; N(C) is then a split diagram.

    Closing the box merges two sides, and a closure's polynomial may
    delete the merged face and a side beside it: D(C) merges N and S and
    deletes W too, N(C) merges W and E and deletes N too. So with A the
    columns of the other faces, Delta(D(C)) = det[A | E] (det[A] when
    W = E) and Delta(N(C)) = det[A | S] (0 when W = E) up to units.

    A closure's components are C's closed components, k's that miss the
    box's corner edges, and one more, or two when C's strand from NW
    returns at the corner the closure joins NW to (SW for D(C), NE for
    N(C)), which then closes each strand on itself."""
    meta = _meta_of(k)
    region_tangle(k, i)
    tangles = meta.spec.tangles
    p = 2 * len(meta.spec.partial.crossings) + sum(len(t.crossings) for t in tangles[: i - 1])
    shift = 4 - 4 * len(tangles[i - 1].crossings)
    mate = [m + shift * (m >= 4 * p) for m in k.mates]
    mate[4 * p : 4 * p + 4 - shift] = [-1] * 4  # the box's darts give way to the vertex's
    # the corner darts lie in the halves' rows, below row p, so none moves
    for j, m in enumerate(meta.corners[i - 1]):
        mate[4 * p + j], mate[m] = m, 4 * p + j
    end = mate[4 * p]
    while end >> 2 != p:
        end = mate[end ^ 2]  # straight through a crossing of C
    edges = {k.crossings[m >> 2][m & 3] for m in meta.corners[i - 1]}
    closed = sum(edges.isdisjoint(c) for c in k.components)
    return faces(mate), p, (closed + 1 + (end & 3 == 1), closed + 1 + (end & 3 == 3))


def zero_replacement(k: PlanarDiagram) -> PlanarDiagram:
    """The zero replacement of the built union k, where every box holds
    the crossingless west-to-east tangle, read off k with nothing rebuilt:
    k's mates and flags over the halves' rows (the first 2c(D) crossings,
    which hold every corner dart), each box's corner darts wired NW to NE
    and SW to SE, numbered by the builder's walk from k's edge 1. Where the
    axis edge and a marked edge cut the partial in two, it is a split
    diagram, which no rebuild could embed."""
    meta = _meta_of(k)
    halves = 2 * len(meta.spec.partial.crossings)
    mate = list(k.mates[: 4 * halves])
    for nw, sw, se, ne in meta.corners:
        mate[nw], mate[ne], mate[sw], mate[se] = ne, nw, se, sw
    flags = k.over_from_d[:halves]
    xs, _ = number_edges(mate, flags, k.heads[0])
    return PlanarDiagram(xs, flags, mates=tuple(mate))


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
