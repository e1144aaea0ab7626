"""Assembly of two mirror halves with tangle boxes spliced in along the
join arcs."""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import PARTIAL_POOL, TANGLE_POOL, exhaustive_build
from symunion import construct, corpus
from symunion.cli import verify_reports
from symunion.corpus import SPEC_FIXTURES
from symunion.construct import (
    ClosedComponentInTangle,
    ConstructError,
    NotAKnot,
    NotEvenType,
    NotPlanarInsertion,
    SymUnionSpec,
    UnionMeta,
    UnknownRegion,
    _rebuild,
    build_all_zero_replacement,
    build_symmetric_union,
    expect_knot,
    glued_pair,
    open_box,
    parse_spec,
    to_spec_doc,
)
from symunion.diagram import (
    Crossing,
    PlanarDiagram,
    over_arcs,
    parse_pd,
    writhe,
)
from symunion.invariant import (
    alexander_fox,
    alexander_region,
    flanking_faces,
    jones,
    verify_fraction_region,
    verify_product_formula,
)
from symunion.group import certify_epimorphism, wirtinger
from symunion.poly import LaurentPoly, normalize_alexander
from symunion.tangle import (
    is_even_type,
    kt_tangle,
    numerator,
    denominator,
    rational_tangle,
    rotate_pi,
    tangle_sum,
    vertical_twists,
)

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"


def trefoil():
    return parse_pd(TREFOIL)


def fig8():
    return parse_pd(FIG8)


class TestSingleRegion:
    def setup_method(self):
        self.d = trefoil()
        self.spec = SymUnionSpec(self.d, (1, 4), (vertical_twists(2),))
        self.k = build_symmetric_union(self.spec)

    def test_crossing_count(self):
        # 2 * c(partial) + c(tangle)
        assert len(self.k.crossings) == 8

    def test_single_component(self):
        assert self.k.component_count() == 1

    def test_edges_start_at_axis(self):
        by_label = {lbl: e for e, lbl in self.k.labels.items()}
        assert by_label["a0"] == 1

    def test_labels_cover_roles(self):
        labels = set(self.k.labels.values())
        assert {"a0", "a1"} <= labels
        assert any(l.startswith("x") and l.endswith("*") for l in labels)
        assert any(l.startswith("x") and not l.endswith("*") for l in labels)
        assert {"s1_1", "s2_1", "s3_1", "s4_1"} <= labels

    def test_meta_round_trip(self):
        meta = self.k.meta
        assert isinstance(meta, UnionMeta)
        assert meta.spec == self.spec
        assert meta.attach_bits == (0,)

    def test_mirror_half_flags_negated(self):
        # crossings 0..c-1 are D's, c..2c-1 their mirror images in order
        c = len(self.d.crossings)
        for j, flag in enumerate(self.d.over_from_d):
            assert self.k.over_from_d[j] == flag
            assert self.k.over_from_d[c + j] != flag

    def test_writhe_comes_from_regions_only(self):
        # the two halves cancel crossing sign by crossing sign; the tangle
        # crossings follow the 2c crossings of the halves
        c = len(self.d.crossings)
        region_w = sum(self.k.sign(ci) for ci in range(2 * c, len(self.k.crossings)))
        assert writhe(self.k) == region_w


class TestMultiRegion:
    def test_two_regions_on_trefoil(self):
        spec = SymUnionSpec(
            trefoil(), (3, 6, 5),
            (vertical_twists(2), vertical_twists(-2)),
        )
        k = build_symmetric_union(spec)
        assert len(k.crossings) == 10
        assert k.component_count() == 1
        assert len(k.meta.attach_bits) == 2

    def test_three_regions_on_fig8(self):
        spec = SymUnionSpec(
            fig8(), (6, 1, 3, 8),
            (vertical_twists(2), vertical_twists(-2), rational_tangle([1, 1, 2])),
        )
        k = build_symmetric_union(spec)
        assert len(k.crossings) == 16
        assert k.component_count() == 1
        # this marking needs mixed attachment orientations
        assert k.meta.attach_bits == (1, 0, 1)

    def test_unmarked_arcs_embed_only_sometimes(self):
        # edge 2 borders neither face beside edge 1, so the face rule
        # refuses before anything is assembled
        spec = SymUnionSpec(trefoil(), (1, 2), (vertical_twists(2),))
        with pytest.MonkeyPatch.context() as mp:
            calls = _recording(mp, construct, "_assemble_with_bits")
            with pytest.raises(NotPlanarInsertion, match="region 1's marked edge 2"):
                build_symmetric_union(spec)
        assert calls == []

    def test_a_non_planar_partial_is_refused_as_an_insertion(self):
        # a two-crossing virtual knot: its face walk finds 2 faces, not 4
        virtual = PlanarDiagram((Crossing(4, 1, 2, 3), Crossing(3, 2, 4, 1)))
        for spec in (
            SymUnionSpec(virtual, (1,), ()),
            SymUnionSpec(virtual, (1, 4), (vertical_twists(2),)),
        ):
            with pytest.raises(NotPlanarInsertion, match="face count 2, expected 4"):
                build_symmetric_union(spec)


class TestValidation:
    def test_link_partial_rejected(self):
        hopf = numerator(rational_tangle([2]))
        with pytest.raises(NotAKnot):
            build_symmetric_union(
                SymUnionSpec(hopf, (1, 2), (vertical_twists(2),))
            )

    def test_non_even_tangle_rejected(self):
        for cf in ([2], [1, 2]):
            with pytest.raises(NotEvenType):
                build_symmetric_union(
                    SymUnionSpec(trefoil(), (1, 4), (rational_tangle(cf),))
                )

    def test_closed_component_rejected(self):
        ring = tangle_sum(vertical_twists(0), vertical_twists(0))
        assert ring.closed_loops == 1
        with pytest.raises(ClosedComponentInTangle):
            build_symmetric_union(SymUnionSpec(trefoil(), (1, 4), (ring,)))

    def test_marked_arcs_must_be_distinct_arcs(self):
        # 6 and 1 lie on the same over-strand arc of the trefoil
        with pytest.raises(ConstructError):
            build_symmetric_union(
                SymUnionSpec(trefoil(), (1, 6), (vertical_twists(2),))
            )

    def test_arity_mismatch(self):
        with pytest.raises(ConstructError):
            SymUnionSpec(
                trefoil(), (1, 4),
                (vertical_twists(2), vertical_twists(2)),
            )

    def test_unknown_marked_edge(self):
        with pytest.raises(ConstructError):
            build_symmetric_union(
                SymUnionSpec(trefoil(), (1, 9), (vertical_twists(2),))
            )


class TestReplacement:
    def test_identity_round_trip(self):
        spec = SymUnionSpec(trefoil(), (1, 4), (vertical_twists(2),))
        k = build_symmetric_union(spec)
        again = expect_knot(_rebuild(k, {1: vertical_twists(2)}))
        assert again == k

    def test_replacement_changes_region_only(self):
        spec = SymUnionSpec(trefoil(), (1, 4), (vertical_twists(2),))
        k = build_symmetric_union(spec)
        k2 = expect_knot(_rebuild(k, {1: vertical_twists(4)}))
        assert len(k2.crossings) == len(k.crossings) + 2
        assert k2.meta.spec.tangles[0] == vertical_twists(4)
        assert k2.meta.attach_bits == k.meta.attach_bits

    def test_unknown_region(self):
        spec = SymUnionSpec(trefoil(), (1, 4), (vertical_twists(2),))
        k = build_symmetric_union(spec)
        with pytest.raises(UnknownRegion):
            expect_knot(_rebuild(k, {2: vertical_twists(2)}))

    @pytest.mark.parametrize("region", [0, -1, 2])
    def test_fraction_check_rejects_unknown_region_before_computing(self, region):
        spec = SymUnionSpec(trefoil(), (1, 4), (vertical_twists(2),))
        k = build_symmetric_union(spec)
        built = dict(k.computed)  # the faces walked at assembly
        with pytest.raises(UnknownRegion):
            verify_fraction_region(k, region)
        assert k.computed == built

    def test_requires_metadata(self):
        with pytest.raises(ConstructError):
            expect_knot(_rebuild(trefoil(), {1: vertical_twists(2)}))

    def test_non_even_replacement_rejected(self):
        spec = SymUnionSpec(trefoil(), (1, 4), (vertical_twists(2),))
        k = build_symmetric_union(spec)
        # a rebuild checks no tangle type; a tangle pairing west to east
        # splits the union, and expect_knot refuses the rebuild
        with pytest.raises(NotAKnot):
            expect_knot(_rebuild(k, {1: rational_tangle([2])}))


class TestZeroReplacement:
    @pytest.mark.parametrize(
        "marked,tangles",
        [
            ((1, 4), (vertical_twists(2),)),
            ((3, 6, 5), (vertical_twists(2), vertical_twists(-2))),
        ],
    )
    def test_splits_into_one_extra_component_per_region(self, marked, tangles):
        spec = SymUnionSpec(trefoil(), marked, tangles)
        k = build_symmetric_union(spec)
        flat = build_all_zero_replacement(spec)
        assert flat == build_all_zero_replacement(k)
        assert flat.meta.attach_bits == k.meta.attach_bits
        assert flat.component_count() == len(tangles) + 1
        assert alexander_region(flat) == LaurentPoly.zero()


class TestGluedPair:
    def setup_method(self):
        self.d = trefoil()
        self.t0 = glued_pair(self.d, 1, 4)

    def test_pairs_west_to_east(self):
        assert self.t0.pairing() == "horizontal"

    def test_numerator_closure_vanishes(self):
        n = numerator(self.t0)
        assert n.component_count() == 2
        assert alexander_region(n) == LaurentPoly.zero()

    def test_denominator_closure_is_the_double(self):
        dd = denominator(self.t0)
        assert dd.component_count() == 1
        half = normalize_alexander(alexander_region(self.d))
        assert normalize_alexander(alexander_region(dd)) == \
            normalize_alexander(half * half)

    def test_rebuild_restores_the_union(self):
        spec = SymUnionSpec(self.d, (1, 4), (vertical_twists(2),))
        k = build_symmetric_union(spec)
        k2 = numerator(tangle_sum(rotate_pi(vertical_twists(2)), self.t0))
        assert len(k2.crossings) == len(k.crossings)
        assert k2.component_count() == 1
        assert normalize_alexander(alexander_region(k2)) == \
            normalize_alexander(alexander_region(k))
        assert jones(k2) == jones(k)


class TestDocs:
    def test_round_trip(self):
        spec = SymUnionSpec(
            trefoil(), (3, 6, 5),
            (vertical_twists(2), rational_tangle([1, 1, 2])),
        )
        doc = to_spec_doc(spec)
        back = parse_spec(doc)
        assert back.marked_arcs == spec.marked_arcs
        assert back.tangles == spec.tangles
        assert back.partial.crossings == spec.partial.crossings
        assert build_symmetric_union(back) == build_symmetric_union(spec)

    def test_missing_key(self):
        with pytest.raises(ConstructError):
            parse_spec({"marked_arcs": [1, 4]})


@st.composite
def even_rational(draw):
    """Rational tangles with odd numerator and even denominator, so they
    pair north to south on both sides."""
    n = draw(st.integers(min_value=1, max_value=4))
    body = []
    for _ in range(n):
        mag = draw(st.integers(min_value=1, max_value=3))
        body.append(mag * draw(st.sampled_from([-1, 1])))
    t = rational_tangle(body)
    if is_even_type(t):
        return t
    # extend the twist sequence until the fraction has odd over even
    for tail in ([2], [1, 1], [2, 1], [1, 2], [1, 1, 1]):
        t2 = rational_tangle(body + tail)
        if is_even_type(t2):
            return t2
    return vertical_twists(2)


class TestBuildProperties:
    @given(even_rational())
    @settings(max_examples=30, deadline=None)
    def test_any_even_tangle_builds_a_knot(self, t):
        spec = SymUnionSpec(trefoil(), (1, 4), (t,))
        k = build_symmetric_union(spec)
        assert k.component_count() == 1
        assert len(k.crossings) == 6 + len(t.crossings)

    @given(even_rational())
    @settings(max_examples=15, deadline=None)
    def test_region_and_fox_agree_on_builds(self, t):
        spec = SymUnionSpec(trefoil(), (1, 4), (t,))
        k = build_symmetric_union(spec)
        a = normalize_alexander(alexander_region(k))
        b = normalize_alexander(alexander_fox(wirtinger(k)))
        assert a == b

    def test_known_family_insertion(self):
        # a 5-crossing trivial-looking tangle at one region of the trefoil
        spec = SymUnionSpec(trefoil(), (1, 4), (kt_tangle(3),))
        k = build_symmetric_union(spec)
        assert len(k.crossings) == 11
        assert k.component_count() == 1


# -- the attachment bits read off the faces -----------------------------------------


@st.composite
def placements(draw):
    """1-4 pool tangles at marked edges on distinct arcs of a pool partial,
    whether or not the insertion embeds."""
    partial = draw(st.sampled_from(PARTIAL_POOL))
    arcs = over_arcs(partial)
    n = draw(st.integers(min_value=1, max_value=min(4, len(arcs) - 1)))
    chosen = draw(st.permutations(range(len(arcs))))[: n + 1]
    marked = tuple(draw(st.sampled_from(arcs[a])) for a in chosen)
    tangles = tuple(draw(st.sampled_from(TANGLE_POOL)) for _ in range(n))
    return SymUnionSpec(partial, marked, tangles)


def _build_or_error(build, spec):
    try:
        return build(spec)
    except ConstructError as exc:
        return type(exc)


def _matches_the_product_loop(spec) -> bool:
    """Assert that the builder and the exhaustive product loop agree on
    spec: the same error class, or the same diagram, labels and bits.
    Returns whether spec embeds."""
    got = _build_or_error(build_symmetric_union, spec)
    want = _build_or_error(exhaustive_build, spec)
    if isinstance(want, type):
        assert got is want
        return False
    assert got == want
    assert got.labels == want.labels
    assert got.meta.attach_bits == want.meta.attach_bits
    return True


def _markings(partial, n):
    """Every marked-arc tuple of n regions: an axis edge and n more, each
    on its own arc, in every order."""
    for arcs in itertools.permutations(over_arcs(partial), n + 1):
        yield from itertools.product(*arcs)


# Twist regions over a 22-crossing two-bridge partial, marked at edges of
# its face with the most distinct arcs: 13 of them, room for 12 regions,
# one edge per arc in the order the face walk meets the arcs.
TWO_BRIDGE = numerator(rational_tangle([2] * 10 + [1, 1]))
FACE_EDGES = [2, 7, 8, 15, 16, 23, 24, 31, 32, 39, 40, 43, 1]


def test_face_edges_lie_on_one_face_and_on_distinct_arcs():
    arc_of = {e: i for i, arc in enumerate(over_arcs(TWO_BRIDGE)) for e in arc}
    assert len({arc_of[e] for e in FACE_EDGES}) == 13
    sides = [set(flanking_faces(TWO_BRIDGE, e)) for e in FACE_EDGES]
    assert set.intersection(*sides)


def _recording(mp, owner, name):
    """Wrap owner.name to record its arguments; returns the record."""
    calls = []
    f = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    mp.setattr(owner, name, recording)
    return calls


def _counted_build(spec):
    """The union spec builds, and the number of assemblies it took."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _recording(mp, construct, "_assemble_with_bits")
        k = build_symmetric_union(spec)
    return k, len(calls)


class TestAttachmentSearch:
    @given(placements())
    @settings(max_examples=60, deadline=None)
    def test_face_rule_matches_the_product_loop(self, spec):
        _matches_the_product_loop(spec)

    def test_face_rule_matches_the_product_loop_on_every_small_marking(self):
        specs = [
            SymUnionSpec(partial, marked, (vertical_twists(2),) * n)
            for partial in (corpus.TREFOIL, corpus.FIGURE_EIGHT, corpus.FIVE_TWO)
            for n in (1, 2)
            for marked in _markings(partial, n)
        ]
        assert len(specs) == 872
        assert sum(map(_matches_the_product_loop, specs)) == 288

    def test_an_edge_beside_both_corridors_takes_bit_0(self):
        # edges 40 and 43 separate the same two faces, so the box embeds
        # at either bit; the rule prefers 0, as the product loop does
        assert set(flanking_faces(TWO_BRIDGE, 40)) == set(flanking_faces(TWO_BRIDGE, 43))
        spec = SymUnionSpec(TWO_BRIDGE, (40, 43), (vertical_twists(2),))
        for bit in (0, 1):
            boxed = [construct._oriented_for_box(vertical_twists(2), bit)]
            expect_knot(construct._assemble_with_bits(spec, (bit,), boxed))
        assert _matches_the_product_loop(spec)
        assert build_symmetric_union(spec).meta.attach_bits == (0,)

    @given(
        st.integers(min_value=2, max_value=12).flatmap(
            lambda n: st.permutations(FACE_EDGES).map(lambda es: tuple(es[: n + 1]))
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_many_regions_take_one_assembly(self, marked):
        n = len(marked) - 1
        spec = SymUnionSpec(TWO_BRIDGE, marked, (vertical_twists(2),) * n)
        k, assemblies = _counted_build(spec)
        assert len(k.crossings) == 2 * len(TWO_BRIDGE.crossings) + 2 * n
        assert assemblies == 1
        assert verify_product_formula(k).passed
        assert certify_epimorphism(k).passed

    def test_twelve_regions(self):
        spec = SymUnionSpec(
            TWO_BRIDGE, tuple(FACE_EDGES[:13]), (vertical_twists(2),) * 12
        )
        k, assemblies = _counted_build(spec)
        assert len(k.crossings) == 68
        assert assemblies == 1
        # the product loop's first embedding vector, found after 2,730 of
        # its assemblies (too slow to rerun here)
        assert k.meta.attach_bits == (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1)

    def test_no_tangles(self):
        # the two halves joined at the axis: D # -D*, a ribbon knot whose
        # polynomial is the square of D's
        spec = SymUnionSpec(trefoil(), (1,), ())
        k = build_symmetric_union(spec)
        assert k == exhaustive_build(spec)
        assert len(k.crossings) == 6
        assert k.component_count() == 1
        assert k.meta.attach_bits == ()
        assert verify_product_formula(k).passed


class TestOnePass:
    """Each diagram an assembly makes is constructed, checked and walked
    once, and each tangle is oriented for its box once."""

    def _assemblies_and_diagrams(self, run):
        with pytest.MonkeyPatch.context() as mp:
            assemblies = _recording(mp, construct, "_assemble_with_bits")
            diagrams = _recording(mp, PlanarDiagram, "__post_init__")
            out = run()
        return out, len(assemblies), len(diagrams)

    @pytest.mark.parametrize("name", sorted(SPEC_FIXTURES))
    def test_one_diagram_per_assembly(self, name):
        spec = SPEC_FIXTURES[name]
        k, assemblies, diagrams = self._assemblies_and_diagrams(
            lambda: build_symmetric_union(spec)
        )
        assert (assemblies, diagrams) == (1, 1)
        _, assemblies, diagrams = self._assemblies_and_diagrams(
            lambda: build_all_zero_replacement(k)
        )
        assert (assemblies, diagrams) == (1, 1)
        for i in range(1, len(spec.tangles) + 1):
            _, assemblies, diagrams = self._assemblies_and_diagrams(lambda: open_box(k, i))
            assert (assemblies, diagrams) == (1, 1)
            # both closures of the complement come from that one rebuild
            _, assemblies, _ = self._assemblies_and_diagrams(
                lambda: verify_fraction_region(k, i)
            )
            assert assemblies == 1

    def test_one_connectivity_walk_per_diagram(self):
        with pytest.MonkeyPatch.context() as mp:
            walked = _recording(mp, PlanarDiagram.__dict__["connected"], "func")
            for spec in SPEC_FIXTURES.values():
                verify_reports(spec)
        assert walked
        assert len({id(d) for (d,) in walked}) == len(walked)

    def test_each_tangle_oriented_once_per_bit_in_a_build(self):
        # distinct objects, so that a call names its region; the bits
        # are mixed here (see test_twelve_regions)
        tangles = tuple(vertical_twists(2) for _ in range(12))
        spec = SymUnionSpec(TWO_BRIDGE, tuple(FACE_EDGES[:13]), tangles)
        with pytest.MonkeyPatch.context() as mp:
            oriented = _recording(mp, construct, "_oriented_for_box")
            k = build_symmetric_union(spec)
        keys = [(id(t), bit) for t, bit in oriented]
        assert keys == [(id(t), bit) for t, bit in zip(tangles, k.meta.attach_bits)]

    def test_a_rebuild_orients_only_its_replacements(self):
        spec = SPEC_FIXTURES["kt_union_3"]
        k = build_symmetric_union(spec)
        zero = rational_tangle([])
        with pytest.MonkeyPatch.context() as mp:
            oriented = _recording(mp, construct, "_oriented_for_box")
            _rebuild(k, {2: zero})
            assert oriented == [(zero, k.meta.attach_bits[1])]
            oriented.clear()
            build_all_zero_replacement(k)
            assert [t for t, _ in oriented] == [rational_tangle([])] * 3
            assert [bit for _, bit in oriented] == list(k.meta.attach_bits)


def test_union_documents_match_the_pin_file():
    """The documents of the corpus unions, their zero replacements and
    complements, and digests of 25 random unions, as
    scripts/pin_union_docs.py wrote them; edge numbering included."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "pin_union_docs.py"
    loader = importlib.util.spec_from_file_location("pin_union_docs", path)
    pins = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(pins)
    assert pins.documents() == json.loads(pins.PIN_FILE.read_text())
