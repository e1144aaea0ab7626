"""Assembly of two mirror halves with tangle boxes spliced in along the
join arcs."""

import pytest
from hypothesis import given, settings, strategies as st

from symunion.construct import (
    ClosedComponentInTangle,
    ConstructError,
    NotAKnot,
    NotEvenType,
    NotPlanarInsertion,
    SymUnionSpec,
    UnionMeta,
    UnknownRegion,
    build_all_zero_replacement,
    build_symmetric_union,
    glued_pair,
    parse_spec,
    replace_tangle,
    to_spec_doc,
)
from symunion.diagram import parse_pd, renumber_edges, writhe
from symunion.invariant import (
    alexander_fox,
    alexander_region,
    jones,
    verify_fraction_region,
)
from symunion.group import wirtinger
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
        assert len(meta.regions) == 1
        assert meta.attach_bits == (0,)
        assert len(meta.origins) == 8

    def test_mirror_half_flags_negated(self):
        # origins pair each mirror crossing with its source crossing
        for idx, origin in enumerate(self.k.meta.origins):
            if origin[0] == "D":
                assert self.k.over_from_d[idx] == self.d.over_from_d[origin[1]]
            elif origin[0] == "D*":
                assert self.k.over_from_d[idx] != self.d.over_from_d[origin[1]]

    def test_writhe_comes_from_regions_only(self):
        # the two halves cancel crossing sign by crossing sign
        region_w = sum(
            self.k.sign(ci)
            for r in self.k.meta.regions
            for ci in r.crossings
        )
        assert writhe(self.k) == region_w

    def test_region_corners_are_edges(self):
        corners = self.k.meta.regions[0].corners
        assert set(corners) == {"NW", "NE", "SW", "SE"}
        for e in corners.values():
            assert e in self.k.head_of


class TestMultiRegion:
    def test_two_regions_on_trefoil(self):
        spec = SymUnionSpec(
            trefoil(), (3, 6, 5),
            (vertical_twists(2), vertical_twists(-2)),
        )
        k = build_symmetric_union(spec)
        assert len(k.crossings) == 10
        assert k.component_count() == 1
        assert len(k.meta.regions) == 2
        r1, r2 = k.meta.regions
        assert set(r1.crossings).isdisjoint(r2.crossings)

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
        spec = SymUnionSpec(trefoil(), (1, 2), (vertical_twists(2),))
        with pytest.raises(NotPlanarInsertion):
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
        again = replace_tangle(k, 1, vertical_twists(2))
        assert again == k

    def test_replacement_changes_region_only(self):
        spec = SymUnionSpec(trefoil(), (1, 4), (vertical_twists(2),))
        k = build_symmetric_union(spec)
        k2 = replace_tangle(k, 1, vertical_twists(4))
        assert len(k2.crossings) == len(k.crossings) + 2
        assert k2.meta.spec.tangles[0] == vertical_twists(4)

    def test_unknown_region(self):
        spec = SymUnionSpec(trefoil(), (1, 4), (vertical_twists(2),))
        k = build_symmetric_union(spec)
        with pytest.raises(UnknownRegion):
            replace_tangle(k, 2, vertical_twists(2))

    @pytest.mark.parametrize("region", [0, -1, 2])
    def test_fraction_check_rejects_unknown_region_before_computing(self, region):
        spec = SymUnionSpec(trefoil(), (1, 4), (vertical_twists(2),))
        k = build_symmetric_union(spec)
        with pytest.raises(UnknownRegion):
            verify_fraction_region(k, region)
        assert k.computed == {}

    def test_requires_metadata(self):
        with pytest.raises(ConstructError):
            replace_tangle(trefoil(), 1, vertical_twists(2))

    def test_non_even_replacement_rejected(self):
        spec = SymUnionSpec(trefoil(), (1, 4), (vertical_twists(2),))
        k = build_symmetric_union(spec)
        with pytest.raises(NotEvenType):
            replace_tangle(k, 1, rational_tangle([2]))


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
        flat = build_all_zero_replacement(spec)
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
