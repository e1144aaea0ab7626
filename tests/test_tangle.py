import pytest
from hypothesis import given, settings, strategies as st

from helpers import display_form
from symunion.diagram import MAX_CROSSINGS, renumber_edges, validate_planarity
from symunion.group import wirtinger
from symunion.invariant import alexander_fox, alexander_region, jones
from symunion.poly import LaurentPoly, normalize_alexander
from symunion.tangle import (
    BadParameter,
    OrientationMismatch,
    Tangle,
    TangleError,
    denominator,
    horizontal_twists,
    is_even_type,
    kt_tangle,
    numerator,
    parse_tangle,
    rational_tangle,
    reverse_strand,
    rotate_pi,
    tangle_fraction,
    tangle_sum,
    to_tangle_doc,
    vertical_stack,
    vertical_twists,
)

RIGHT_TREFOIL_JONES = LaurentPoly({1: 1, 3: 1, 4: -1})
LEFT_TREFOIL_JONES = LaurentPoly({-1: 1, -3: 1, -4: -1})


def det_of(diagram) -> int:
    return abs(alexander_region(diagram).evaluate(-1))


class TestTrivialTangles:
    def test_zero_tangle_pairs_west_to_east(self):
        t = rational_tangle([])
        assert t.pairing() == "horizontal"
        assert t.boundary["NW"] == t.boundary["NE"]
        assert t.boundary["SW"] == t.boundary["SE"]
        assert not t.crossings

    def test_infinity_tangle_pairs_north_to_south(self):
        t = rational_tangle("inf")
        assert t.pairing() == "even"
        assert t.boundary["NW"] == t.boundary["SW"]
        assert t.boundary["NE"] == t.boundary["SE"]

    def test_numerator_of_zero_tangle_is_two_unknots(self):
        n = numerator(rational_tangle([]))
        assert n.free_loops == 2
        assert n.component_count() == 2

    def test_denominator_of_zero_tangle_is_unknot(self):
        d = denominator(rational_tangle([]))
        assert d.free_loops == 1
        assert d.component_count() == 1


class TestTwistRegions:
    def test_two_twists_numerator_is_hopf_link(self):
        n = numerator(rational_tangle([2]))
        assert len(n.crossings) == 2
        assert n.component_count() == 2
        # Hopf link Alexander polynomial, up to units
        assert display_form(alexander_region(n)) == LaurentPoly({0: -1, 1: 1})

    def test_two_twists_denominator_is_unknot(self):
        d = denominator(rational_tangle([2]))
        assert d.component_count() == 1
        assert alexander_region(d) == LaurentPoly.one()

    def test_three_twists_close_to_right_trefoil(self):
        n = numerator(rational_tangle([3]))
        assert jones(n) == RIGHT_TREFOIL_JONES

    def test_negative_three_twists_close_to_left_trefoil(self):
        n = numerator(rational_tangle([-3]))
        assert jones(n) == LEFT_TREFOIL_JONES

    def test_twist_count(self):
        assert len(horizontal_twists(4).crossings) == 4
        assert len(vertical_twists(-3).crossings) == 3


class TestFraction:
    @pytest.mark.parametrize(
        "cf,frac",
        [
            ([], (0, 1)),
            ("inf", (1, 0)),
            ([2], (2, 1)),
            ([3], (3, 1)),
            ([1, 1], (1, 2)),
            ([1, 1, 2], (5, 2)),
            ([1, 1, 3], (7, 2)),
            ([2, 3, 2], (16, 7)),
            ([3, -2], (-3, 5)),
        ],
    )
    def test_fraction_values(self, cf, frac):
        assert tangle_fraction(cf) == frac

    @pytest.mark.parametrize(
        "cf", [[3], [1, 1], [1, 1, 1], [1, 1, 2], [1, 1, 3], [-1, -1, -2], [3, -2], [5, 2]]
    )
    def test_numerator_determinant_matches_fraction(self, cf):
        # |Delta(-1)| of the closure equals |p| for an odd slope p/q
        p, q = tangle_fraction(cf)
        n = numerator(rational_tangle(cf))
        assert n.component_count() == 1
        assert det_of(n) == abs(p)

    def test_figure_eight_from_five_halves(self):
        n = numerator(rational_tangle([1, 1, 2]))
        assert display_form(alexander_region(n)) == LaurentPoly({0: -1, 1: 3, 2: -1})
        v = jones(n)
        assert v == LaurentPoly({-2: 1, -1: -1, 0: 1, 1: -1, 2: 1})

    def test_seven_halves_knot(self):
        n = numerator(rational_tangle([1, 1, 3]))
        assert det_of(n) == 7
        assert display_form(alexander_region(n)) == LaurentPoly({0: 2, 1: -3, 2: 2})
        assert alexander_fox(wirtinger(n)) == alexander_region(n)

    def test_fraction_rejects_non_integers(self):
        with pytest.raises(BadParameter):
            rational_tangle([1, "2"])
        with pytest.raises(BadParameter):
            rational_tangle([True, 1])


@st.composite
def small_cf(draw):
    length = draw(st.integers(min_value=1, max_value=4))
    return [
        draw(st.integers(min_value=-3, max_value=3).filter(lambda a: a != 0))
        for _ in range(length)
    ]


class TestRationalProperties:
    @given(small_cf())
    @settings(max_examples=40, deadline=None)
    def test_pairing_tracks_fraction_parity(self, cf):
        p, q = tangle_fraction(cf)
        t = rational_tangle(cf)
        if p % 2 == 0:
            assert t.pairing() == "horizontal"
        elif q % 2 == 0:
            assert t.pairing() == "even"
        else:
            assert t.pairing() == "diagonal"
        assert not t.has_closed_components()

    @given(small_cf())
    @settings(max_examples=30, deadline=None)
    def test_knot_closures_have_fraction_determinant(self, cf):
        p, q = tangle_fraction(cf)
        n = numerator(rational_tangle(cf))
        validate_planarity(n)
        if p % 2 == 1:
            assert n.component_count() == 1
            assert det_of(n) == abs(p)
        else:
            assert n.component_count() == 2

    @given(small_cf())
    @settings(max_examples=25, deadline=None)
    def test_doc_round_trip(self, cf):
        t = rational_tangle(cf)
        assert parse_tangle(to_tangle_doc(t)) == t


class TestRotation:
    @pytest.mark.parametrize("cf", [[3], [1, 1, 2], [2, 3, 2], [1, 1, 3]])
    def test_half_turn_is_involution(self, cf):
        t = rational_tangle(cf)
        assert rotate_pi(rotate_pi(t)) == t
        assert rotate_pi(t).pairing() == t.pairing()

    @pytest.mark.parametrize("cf", [[3], [1, 1, 2], [1, 1, 3]])
    def test_half_turn_preserves_closure_polynomial(self, cf):
        t = rational_tangle(cf)
        assert alexander_region(numerator(t)) == alexander_region(numerator(rotate_pi(t)))
        d1, d2 = denominator(t), denominator(rotate_pi(t))
        assert alexander_region(d1) == alexander_region(d2)


class TestSumAndStack:
    def test_sum_with_zero_tangle_is_identity_on_closures(self):
        t = rational_tangle([1, 1, 2])
        s = tangle_sum(t, rational_tangle([]))
        n1 = renumber_edges(numerator(t), start_edge=1)
        n2 = renumber_edges(numerator(s), start_edge=1)
        assert n1 == n2

    def test_horizontal_sums_associate_literally(self):
        a, b, c = horizontal_twists(2), horizontal_twists(-1), horizontal_twists(3)
        n1 = renumber_edges(numerator(tangle_sum(tangle_sum(a, b), c)), start_edge=1)
        n2 = renumber_edges(numerator(tangle_sum(a, tangle_sum(b, c))), start_edge=1)
        assert n1 == n2

    def test_mixed_sums_associate_up_to_invariants(self):
        a, b, c = rational_tangle([2]), vertical_twists(2), rational_tangle([1, 1])
        n1 = numerator(tangle_sum(tangle_sum(a, b), c))
        n2 = numerator(tangle_sum(a, tangle_sum(b, c)))
        validate_planarity(n1)
        validate_planarity(n2)
        assert n1.component_count() == n2.component_count()
        assert alexander_region(n1) == alexander_region(n2)

    def test_sum_follows_the_fraction(self):
        # 2 + 1/2 = 5/2, so the closure matches numerator(rational([1,1,2]))
        s = tangle_sum(horizontal_twists(2), vertical_twists(2))
        n = numerator(s)
        assert n.component_count() == 1
        assert det_of(n) == 5
        assert display_form(alexander_region(n)) == LaurentPoly({0: -1, 1: 3, 2: -1})

    def test_stack_closure_is_connected_sum(self):
        a, b = rational_tangle([3]), rational_tangle([1, 1, 2])
        n = numerator(vertical_stack(a, b))
        lhs = normalize_alexander(alexander_region(n), knot=True)
        rhs = normalize_alexander(
            alexander_region(numerator(a)) * alexander_region(numerator(b)), knot=True
        )
        assert lhs == rhs

    def test_strict_mode_rejects_flow_clash(self):
        with pytest.raises(OrientationMismatch):
            tangle_sum(horizontal_twists(1), vertical_twists(2), fix_flows=True)
        # the default reorients strands instead
        s = tangle_sum(horizontal_twists(1), vertical_twists(2))
        assert len(s.crossings) == 3

    def test_sum_of_vertical_pairs_creates_closed_loop(self):
        v = tangle_sum(rational_tangle("inf"), rational_tangle("inf"))
        assert v.closed_loops == 1
        assert v.has_closed_components()
        assert numerator(v).free_loops == 2

    def test_sum_of_even_tangles_traps_a_middle_circle(self):
        s = tangle_sum(rational_tangle([1, 1]), rational_tangle([1, 1]))
        assert s.has_closed_components()
        assert s.closed_loops == 0  # the circle runs through crossings


class TestKnownFamily:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_family_tangle_shape(self, n):
        t = kt_tangle(n)
        assert len(t.crossings) == 2 * n - 1
        assert is_even_type(t)
        assert not t.has_closed_components()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_family_numerator_is_trivial_knot_by_alexander(self, n):
        d = numerator(kt_tangle(n))
        assert d.component_count() == 1
        validate_planarity(d)
        assert alexander_region(d) == LaurentPoly.one()

    def test_family_denominator_is_a_link(self):
        d = denominator(kt_tangle(3))
        assert d.component_count() == 2

    @pytest.mark.parametrize("bad", [2, 1, 0, -3, True])
    def test_family_rejects_small_or_bad_parameters(self, bad):
        with pytest.raises(BadParameter):
            kt_tangle(bad)


class TestReversal:
    @pytest.mark.parametrize("cf", [[3], [1, 1, 2], [2, 3]])
    def test_reversal_is_involution(self, cf):
        t = rational_tangle(cf)
        assert reverse_strand(reverse_strand(t, "NW"), "NW") == t

    def test_reversal_flips_both_end_flows(self):
        t = rational_tangle([3])  # diagonal: NW joins SE
        r = reverse_strand(t, "NW")
        assert r.flows["NW"] != t.flows["NW"]
        assert r.flows["SE"] != t.flows["SE"]
        assert r.flows["NE"] == t.flows["NE"]

    def test_reversal_does_not_move_the_strand(self):
        t = rational_tangle([1, 1, 3])
        r = reverse_strand(t, "NE")
        assert alexander_region(numerator(r)) == alexander_region(numerator(t))


class TestValidation:
    def test_boundary_must_name_all_corners(self):
        with pytest.raises(TangleError):
            Tangle((), (), {"NW": 1, "NE": 1, "SW": 2}, {"NW": "in"})

    def test_edge_ids_must_tile(self):
        with pytest.raises(TangleError):
            Tangle(
                (),
                (),
                {"NW": 1, "NE": 1, "SW": 3, "SE": 3},
                {"NW": "in", "NE": "out", "SW": "in", "SE": "out"},
            )

    def test_incoherent_flows_rejected(self):
        with pytest.raises(OrientationMismatch):
            Tangle(
                (),
                (),
                {"NW": 1, "NE": 1, "SW": 2, "SE": 2},
                {"NW": "in", "NE": "in", "SW": "in", "SE": "out"},
            )


class TestDocs:
    @pytest.mark.parametrize(
        "t",
        [
            horizontal_twists(3),
            vertical_twists(-2),
            kt_tangle(3),
            rational_tangle([1, 1, 2]),
        ],
    )
    def test_round_trip_with_flows(self, t):
        assert parse_tangle(to_tangle_doc(t)) == t

    def test_parse_without_flows_recovers_orientation(self):
        for t in (horizontal_twists(1), vertical_twists(1), rational_tangle([1, 1, 2])):
            doc = to_tangle_doc(t)
            del doc["flows"]
            u = parse_tangle(doc)
            assert u.crossings == t.crossings
            assert u.over_from_d == t.over_from_d

    def test_shorthand_docs(self):
        assert parse_tangle({"rational": [1, 1, 2]}) == rational_tangle([1, 1, 2])
        assert parse_tangle({"kt": 3}) == kt_tangle(3)

    def test_malformed_doc(self):
        with pytest.raises(TangleError):
            parse_tangle({"boundary": {"NW": 1}})

    def test_crossings_are_capped_before_building(self):
        assert len(parse_tangle({"rational": [MAX_CROSSINGS]}).crossings) == MAX_CROSSINGS
        too_many = [
            {"rational": [MAX_CROSSINGS, -1]},
            {"kt": MAX_CROSSINGS // 2 + 1},
            {"crossings": [[1, 2, 3, 4]] * (MAX_CROSSINGS + 1), "boundary": {}},
        ]
        for doc in too_many:
            with pytest.raises(BadParameter, match=f"at most {MAX_CROSSINGS}"):
                parse_tangle(doc)
