"""Build symmetric unions: a knot diagram fused with its mirror image
along an axis, with even tangles spliced into chosen arcs.

The construction takes a partial diagram D, one marked arc that becomes the
axis pair a0/a1, and one further marked arc per tangle. The result carries
edge labels recording where every edge came from (x<j> for D, x<j>* for the
mirror half, s<k>_<i> for tangle region i) plus richer metadata used by the
replacement and verification helpers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, TypeVar

from .diagram import (
    Crossing,
    PlanarDiagram,
    DiagramError,
    cap_crossings,
    over_arcs,
    parse_pd,
    renumber_edges,
    to_doc,
    validate_planarity,
)
from .tangle import (
    CORNERS,
    Tangle,
    is_even_type,
    parse_tangle,
    rational_tangle,
    reverse_strand,
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


# Which way each tangle box meets the two halves: 0 attaches the outgoing
# host stub at NW, 1 swaps north and south on both sides. Fixed once by the
# corpus calibration; see corpus.py.
_ATTACH_BIT = 0


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
class RegionInfo:
    index: int
    corners: Mapping[str, int]
    crossings: tuple[int, ...]


@dataclass(frozen=True)
class UnionMeta:
    spec: SymUnionSpec
    regions: tuple[RegionInfo, ...]
    origins: tuple[tuple, ...]
    attach_bits: tuple[int, ...] = ()


# slot of edge e+E in the mirror row (c, b, a, d), given e's slot in (a, b, c, d)
_SIGMA = {0: 2, 1: 1, 2: 0, 3: 3}


def _validate_inputs(spec: SymUnionSpec, require_even: bool) -> None:
    d = spec.partial
    if not d.crossings or d.component_count() != 1:
        raise NotAKnot("partial diagram must be a one-component diagram "
                       "with at least one crossing")
    arcs = {e: i for i, arc in enumerate(over_arcs(d)) for e in arc}
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
        if require_even and not is_even_type(t):
            raise NotEvenType(
                f"tangle {i} pairs its ends {t.pairing()}, not north-to-south"
            )


def _oriented_for_box(t: Tangle, bit: int) -> Tangle:
    into = ("NW", "SE") if bit == 0 else ("SW", "NE")
    for corner in into:
        if t.flows[corner] != "in":
            t = reverse_strand(t, corner)
    return t


def _assemble(
    spec: SymUnionSpec, *, require_even: bool = True, require_knot: bool = True
) -> PlanarDiagram:
    """Try attachment orientations per region, preferred bit first, and keep
    the first wiring that embeds in the plane. Whether a wiring embeds
    depends on which side of each cut arc faces the axis corridor, which
    the combinatorial input does not record, so the builder searches."""
    _validate_inputs(spec, require_even)
    order = (_ATTACH_BIT, 1 - _ATTACH_BIT)
    first_err: NotPlanarInsertion | None = None
    for bits in itertools.product(order, repeat=len(spec.tangles)):
        try:
            return _assemble_with_bits(
                spec, bits, require_knot=require_knot
            )
        except NotPlanarInsertion as exc:
            if first_err is None:
                first_err = exc
    assert first_err is not None
    raise first_err


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
        for (ci, s), h, ms in zip((self.d.tail_of[m], self.d.head_of[m]), host, mirror):
            self.rows[ci][s] = h
            self.rows[c + ci][_SIGMA[s]] = ms

    def cut(self, m: int) -> tuple[int, int, int, int]:
        """Open marked arc m on both halves. Returns the new stubs: the
        host's outgoing and incoming ends, then the mirror's, whose roles
        are reversed."""
        u, v, us, vs = (self.fresh() for _ in range(4))
        self._rewire(m, (u, v), (vs, us))
        return u, v, us, vs


def _compact(rows: list[list[int]]) -> tuple[list[list[int]], dict[int, int]]:
    """Rows renumbered onto 1..n in the order of their ids, and the map."""
    used = sorted({e for row in rows for e in row})
    compact = {e: j + 1 for j, e in enumerate(used)}
    return [[compact[e] for e in row] for row in rows], compact


def _assemble_with_bits(
    spec: SymUnionSpec, bits: tuple[int, ...], *, require_knot: bool
) -> PlanarDiagram:
    d = spec.partial
    c = len(d.crossings)
    E = d.edge_count
    origins = [("D", j) for j in range(c)] + [("D*", j) for j in range(c)]

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

    region_ranges: list[tuple[int, int]] = []

    for i, tangle in enumerate(spec.tangles, start=1):
        bit = bits[i - 1]
        t = _oriented_for_box(tangle, bit)
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

        start = len(rows)
        for x in t.crossings:
            rows.append([emap[e] for e in x])
        flags.extend(t.over_from_d)
        origins.extend(("T", i, j) for j in range(len(t.crossings)))
        region_ranges.append((start, len(rows)))

    rows, compact = _compact([[find(e) for e in row] for row in rows])
    labels = {compact[e]: lbl for e, lbl in labels.items() if find(e) == e and e in compact}

    try:
        built = PlanarDiagram(
            tuple(Crossing(*row) for row in rows), tuple(flags), labels=labels
        )
        validate_planarity(built)
    except DiagramError as exc:
        raise NotPlanarInsertion(f"insertion does not embed: {exc}") from exc

    if require_knot and built.component_count() != 1:
        raise NotAKnot(
            f"result has {built.component_count()} components, expected a knot"
        )

    built = renumber_edges(built, start_edge=compact[h.a0])
    by_label = {lbl: e for e, lbl in (built.labels or {}).items()}

    regions = []
    for i in range(1, len(spec.tangles) + 1):
        # merged corner edges keep only the first label: a missing s2 means
        # NE shares NW's edge, a missing s3/s4 means the south corner
        # shares the edge of whichever north corner its strand reaches
        nw = by_label[f"s1_{i}"]
        ne = by_label.get(f"s2_{i}", nw)
        sw = by_label.get(f"s3_{i}", nw)
        se = by_label.get(f"s4_{i}", sw if f"s2_{i}" not in by_label else ne)
        corners = {"NW": nw, "NE": ne, "SW": sw, "SE": se}
        lo, hi = region_ranges[i - 1]
        regions.append(RegionInfo(i, corners, tuple(range(lo, hi))))

    meta = UnionMeta(
        spec=spec,
        regions=tuple(regions),
        origins=tuple(origins),
        attach_bits=tuple(bits),
    )
    return built.with_meta(meta)


def build_symmetric_union(spec: SymUnionSpec) -> PlanarDiagram:
    """The symmetric union of spec.partial with its mirror image, with
    spec.tangles spliced in at the marked arcs. The result is a knot
    diagram with 2c(D) + sum(c(T_i)) crossings."""
    return _assemble(spec)


def build_all_zero_replacement(spec: SymUnionSpec) -> PlanarDiagram:
    """Every tangle replaced by the trivial west-to-east pair; the diagram
    falls apart into n+1 components."""
    zeros = tuple(rational_tangle([]) for _ in spec.tangles)
    flat = SymUnionSpec(spec.partial, spec.marked_arcs, zeros)
    return _assemble(flat, require_even=False, require_knot=False)


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


def region_tangle(k: PlanarDiagram, i: int) -> Tangle:
    """The tangle inserted at region i of the built union k."""
    tangles = _meta_of(k).spec.tangles
    if not 1 <= i <= len(tangles):
        raise UnknownRegion(f"region {i} not in 1..{len(tangles)}")
    return tangles[i - 1]


def _with_tangle(k: PlanarDiagram, i: int, r: Tangle) -> tuple[UnionMeta, SymUnionSpec]:
    """k's metadata, and its spec with region i holding r instead."""
    region_tangle(k, i)
    meta = k.meta
    spec = meta.spec
    tangles = list(spec.tangles)
    tangles[i - 1] = r
    return meta, SymUnionSpec(spec.partial, spec.marked_arcs, tangles)


def _rebuild_region(
    k: PlanarDiagram, i: int, r: Tangle, *, require_knot: bool
) -> PlanarDiagram:
    """Rebuild with region i holding r, keeping the attachment orientation
    vector of k. Pinning the bits keeps the complement of region i the same
    tangle across rebuilds, which the decomposition checks rely on."""
    meta, spec = _with_tangle(k, i, r)
    _validate_inputs(spec, require_even=False)
    return _assemble_with_bits(spec, meta.attach_bits, require_knot=require_knot)


def replace_tangle(k: PlanarDiagram, i: int, r: Tangle) -> PlanarDiagram:
    """Rebuild the union with region i holding r instead. The diagram must
    carry construction metadata."""
    return build_symmetric_union(_with_tangle(k, i, r)[1])


def glued_pair(partial: PlanarDiagram, e0: int, e1: int) -> Tangle:
    """The complement tangle: the symmetric union built on (e0, e1) with
    region 1 left as an open box. Summing the removed tangle (rotated a
    half turn) back on the west side and closing the numerator restores
    the union."""
    spec = SymUnionSpec(partial, (e0, e1), (rational_tangle([]),))
    _validate_inputs(spec, require_even=False)
    h = _Halves(partial, e0)
    u, v, us, vs = h.cut(e1)
    rows, compact = _compact(h.rows)
    boundary = {"NW": compact[v], "SW": compact[u], "NE": compact[us], "SE": compact[vs]}
    flows = {"NW": "in", "SW": "out", "NE": "out", "SE": "in"}
    return Tangle(tuple(Crossing(*row) for row in rows), tuple(h.flags), boundary, flows)


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
        marked = tuple(int(e) for e in doc["marked_arcs"])
        tangles = tuple(parse_tangle(t) for t in doc["tangles"])
    except KeyError as exc:
        raise ConstructError(f"spec document is missing {exc}") from exc
    except TypeError as exc:
        raise ConstructError(f"malformed spec document: {exc}") from exc
    cap_crossings(
        2 * len(partial.crossings) + sum(len(t.crossings) for t in tangles),
        ConstructError,
    )
    return SymUnionSpec(partial, marked, tangles)
