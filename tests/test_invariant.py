import itertools
import json
import random
import threading
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symunion.invariant as inv
from bracket_oracle import bracket_naive
from helpers import display_form
from symunion import corpus
from symunion.construct import SymUnionSpec, build_symmetric_union
from symunion.diagram import (
    MultiComponentInput,
    NoCrossings,
    PlanarDiagram,
    connected_sum,
    diagram_from_tuples,
    faces,
    mirror,
    parse_pd,
    unknot,
)
from symunion.group import wirtinger
from symunion.invariant import (
    CancelToken,
    Cancelled,
    TooLarge,
    alexander_fox,
    alexander_region,
    det_laurent,
    flanking_faces,
    jones,
    kauffman_bracket,
    region_matrix,
)
from symunion.poly import LaurentPoly, normalize_alexander, parse_poly
from symunion.tangle import (
    denominator,
    kt_tangle,
    numerator,
    rational_tangle,
    tangle_sum,
    vertical_twists,
)

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"


@pytest.fixture
def trefoil():
    return parse_pd(TREFOIL)


@pytest.fixture
def fig8():
    return parse_pd(FIG8)


@pytest.fixture(scope="module")
def union68():
    """kt(6) x 4 over the 12-crossing rational knot N([2,2,2,2,2,1,1]): a
    68-crossing union, the largest member of the benchmark's scaling
    family."""
    partial = numerator(rational_tangle([2, 2, 2, 2, 2, 1, 1]))
    return build_symmetric_union(
        SymUnionSpec(partial, (20, 19, 1, 3, 4), (kt_tangle(6),) * 4)
    )


# Jones polynomial of union68, computed with the dict-coefficient bracket
# that the packed one replaced.
UNION68_JONES = (
    "t^-28 - 12*t^-27 + 81*t^-26 - 395*t^-25 + 1532*t^-24 - 4976*t^-23"
    " + 13964*t^-22 - 34566*t^-21 + 76564*t^-20 - 153267*t^-19"
    " + 279106*t^-18 - 463981*t^-17 + 704225*t^-16 - 971730*t^-15"
    " + 1204880*t^-14 - 1306636*t^-13 + 1155223*t^-12 - 630540*t^-11"
    " - 345533*t^-10 + 1763285*t^-9 - 3487957*t^-8 + 5247720*t^-7"
    " - 6660158*t^-6 + 7301122*t^-5 - 6806246*t^-4 + 4981788*t^-3"
    " - 1892927*t^-2 - 2101481*t^-1 + 6387198 - 10205653*t + 12815195*t^2"
    " - 13662620*t^3 + 12518973*t^4 - 9541401*t^5 + 5242827*t^6"
    " - 376981*t^7 - 4230113*t^8 + 7857256*t^9 - 10028797*t^10"
    " + 10586856*t^11 - 9684091*t^12 + 7708268*t^13 - 5166358*t^14"
    " + 2562403*t^15 - 299414*t^16 - 1376161*t^17 + 2383433*t^18"
    " - 2778324*t^19 + 2703367*t^20 - 2333613*t^21 + 1832400*t^22"
    " - 1324236*t^23 + 885466*t^24 - 548677*t^25 + 314722*t^26"
    " - 166556*t^27 + 80876*t^28 - 35747*t^29 + 14224*t^30 - 5018*t^31"
    " + 1536*t^32 - 395*t^33 + 81*t^34 - 12*t^35 + t^36"
)


def norm(text):
    return normalize_alexander(parse_poly(text), knot=True)


# -- determinants ---------------------------------------------------------------


def ints(lo=-9, hi=9):
    return st.integers(lo, hi)


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(ints(), min_size=n, max_size=n), min_size=n, max_size=n)
))
@settings(max_examples=60, deadline=None)
def test_det_matches_fraction_elimination(rows):
    from fractions import Fraction

    n = len(rows)
    got = det_laurent([[LaurentPoly.term(v) for v in r] for r in rows])
    m = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            det = Fraction(0)
            break
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    want = int(sign * det) if det else 0
    assert got == LaurentPoly.term(want) if want else got.is_zero()


def leibniz(rows):
    """The determinant as the plain sum over permutations: the oracle for
    det_laurent's elimination."""
    total = LaurentPoly.zero()
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = LaurentPoly.term(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


laurent_entries = st.one_of(
    st.just(LaurentPoly.zero()),
    st.builds(LaurentPoly.term, st.sampled_from([1, -1]), st.integers(-2, 2)),
    st.dictionaries(st.integers(-2, 2), ints(-3, 3), max_size=3).map(LaurentPoly),
)


@st.composite
def laurent_matrices(draw):
    """Square Laurent matrices up to 6x6 with zero, unit and non-unit
    entries; some get a zero row, a zero column, or a row that is a
    combination of two others (singular)."""
    n = draw(st.integers(1, 6))
    rows = [[draw(laurent_entries) for _ in range(n)] for _ in range(n)]
    i = draw(st.integers(0, n - 1))
    shape = draw(st.sampled_from(["plain", "zero row", "zero column", "singular"]))
    if shape == "zero row":
        rows[i] = [LaurentPoly.zero()] * n
    elif shape == "zero column":
        for row in rows:
            row[i] = LaurentPoly.zero()
    elif shape == "singular" and n > 1:
        others = [x for x in range(n) if x != i]
        j, k = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        a, b = draw(laurent_entries), draw(laurent_entries)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@given(laurent_matrices())
@settings(max_examples=150, deadline=None)
def test_det_matches_leibniz_expansion(rows):
    assert det_laurent(rows) == leibniz(rows)


def test_det_singular():
    one = LaurentPoly.one()
    assert det_laurent([[one, one], [one, one]]).is_zero()


def test_det_empty_is_one():
    assert det_laurent([]) == LaurentPoly.one()


def test_cancel_token():
    tok = CancelToken()
    assert not tok.cancelled
    tok.cancel()
    assert tok.cancelled
    rows = [
        [LaurentPoly.term(i * 3 + j + 1, (i + j) % 3) for j in range(3)]
        for i in range(3)
    ]
    with pytest.raises(Cancelled):
        det_laurent(rows, tok)


class CancelAfter(CancelToken):
    """A token that cancels itself at its k-th poll."""

    def __init__(self, k):
        super().__init__()
        self.k, self.polls = k, 0

    def check(self):
        self.polls += 1
        if self.polls >= self.k:
            self.cancel()
        super().check()


def test_cancel_stops_a_large_determinant_mid_elimination(union68):
    m = region_matrix(union68)
    rows = m.reduced(flanking_faces(m, 1))
    assert len(rows) == 68
    tok = CancelAfter(10)
    with pytest.raises(Cancelled):
        det_laurent(rows, tok)
    assert tok.polls == 10


def test_cancel_from_other_thread(trefoil):
    tok = CancelToken()
    threading.Timer(0.0, tok.cancel).start()
    for _ in range(200):
        if tok.cancelled:
            break
    with pytest.raises(Cancelled):
        kauffman_bracket(trefoil, tok)


# -- region matrix ----------------------------------------------------------------


def test_region_matrix_shape(trefoil):
    m = region_matrix(trefoil)
    assert len(m.entries) == 3
    assert all(len(row) == 5 for row in m.entries)
    for row in m.entries:
        nz = [p for p in row if not p.is_zero()]
        assert len(nz) == 4


def test_region_matrix_kink_merges_corners():
    m = region_matrix(parse_pd("X[1,2,2,1]"))
    assert len(m.entries) == 1
    assert len(m.entries[0]) == 3
    nz = [p for p in m.entries[0] if not p.is_zero()]
    assert len(nz) <= 3


def test_region_matrix_needs_crossings():
    with pytest.raises(NoCrossings):
        region_matrix(unknot())


def test_alexander_trefoil(trefoil):
    got = alexander_region(trefoil)
    assert got == norm("1 - t + t^2")
    assert display_form(got) == parse_poly("1 - t + t^2")


def test_alexander_figure_eight(fig8):
    got = alexander_region(fig8)
    assert got == norm("1 - 3*t + t^2")
    # sign normalization picks value 1 at t=1, a unit off the table form
    assert display_form(got) == parse_poly("-1 + 3*t - t^2")


@pytest.mark.parametrize("text", ["X[1,2,2,1]", "X[1,1,2,2]"])
def test_alexander_kink_unknots(text):
    assert alexander_region(parse_pd(text)) == LaurentPoly.one()


def test_alexander_unknot_and_split():
    assert alexander_region(unknot()) == LaurentPoly.one()
    assert alexander_region(PlanarDiagram((), (), free_loops=2)).is_zero()


def test_alexander_split_with_crossings(trefoil):
    d = PlanarDiagram(trefoil.crossings, trefoil.over_from_d, free_loops=1)
    assert alexander_region(d).is_zero()


def test_column_choice_independence(trefoil, fig8):
    for d in (trefoil, fig8):
        base = alexander_region(d)
        for e in range(1, d.edge_count + 1):
            assert alexander_region(d, delete_at_edge=e) == base


def test_flanking_faces_distinct(trefoil):
    m = region_matrix(trefoil)
    for e in range(1, 7):
        a, b = flanking_faces(m, e)
        assert a != b


def test_alexander_connected_sum(trefoil, fig8):
    s = connected_sum(trefoil, 2, fig8, 5)
    want = normalize_alexander(norm("1 - t + t^2") * norm("1 - 3*t + t^2"), knot=True)
    assert alexander_region(s) == want


# -- Fox calculus -----------------------------------------------------------------


def test_fox_matches_region(trefoil, fig8):
    granny = connected_sum(trefoil, 1, trefoil, 2)
    square = connected_sum(trefoil, 1, mirror(trefoil), 2)
    for d in (trefoil, fig8, granny, square):
        assert alexander_fox(wirtinger(d)) == alexander_region(d)


def test_fox_square_equals_granny(trefoil):
    granny = connected_sum(trefoil, 1, trefoil, 2)
    square = connected_sum(trefoil, 1, mirror(trefoil), 2)
    assert alexander_fox(wirtinger(granny)) == alexander_fox(wirtinger(square))


def test_large_union_routes_agree_and_equal_the_product(union68):
    assert len(union68.crossings) == 68
    spec = union68.meta.spec
    via_region = alexander_region(union68)
    via_fox = normalize_alexander(alexander_fox(wirtinger(union68)))
    half = alexander_region(spec.partial)
    prod = half * half
    for t in spec.tangles:
        prod = prod * alexander_region(numerator(t))
    assert via_region == via_fox == normalize_alexander(prod)


# -- bracket and Jones --------------------------------------------------------------


def test_bracket_frontier_matches_naive(trefoil, fig8):
    diagrams = [
        trefoil,
        fig8,
        parse_pd("X[1,2,2,1]"),
        parse_pd("X[1,1,2,2]"),
        connected_sum(trefoil, 1, fig8, 2),
    ]
    for d in diagrams:
        assert kauffman_bracket(d) == bracket_naive(d)


def random_union(seed):
    return build_symmetric_union(corpus.random_spec(random.Random(seed)))


@given(st.integers(0, 2**32))
@settings(max_examples=6, deadline=None)
def test_bracket_frontier_matches_naive_on_random_unions(seed):
    k = random_union(seed)
    assume(len(k.crossings) <= 16)
    assert kauffman_bracket(k) == bracket_naive(k)


CORPUS_UNIONS = {
    name: build_symmetric_union(spec) for name, spec in corpus.SPEC_FIXTURES.items()
}


# The benchmark's scaling-family pool: kt(m) x n over a rational-knot
# partial, with marked arcs drawn once so that the insertion embeds.
FAMILY_POOL = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "pools.json").read_text()
)["family"]
FAMILY_TANGLES = {"x15": (3, 1), "x30": (4, 2), "x47": (5, 3), "x68": (6, 4)}


def pool_variant(key):
    m, n = FAMILY_TANGLES[key.split("/")[0]]
    entry = FAMILY_POOL[key]
    partial = numerator(rational_tangle(entry["cf"]))
    return build_symmetric_union(
        SymUnionSpec(partial, tuple(entry["marked_arcs"]), (kt_tangle(m),) * n)
    )


# A corpus union, a variant of the scaling-family pool or a random union.
unions = st.one_of(
    st.sampled_from(sorted(CORPUS_UNIONS)).map(CORPUS_UNIONS.__getitem__),
    st.sampled_from(sorted(FAMILY_POOL)).map(pool_variant),
    st.integers(0, 2**32).map(random_union),
)


@st.composite
def diagrams_and_orders(draw):
    """A union with a random order of its boxes. Random orders sweep parts
    of the diagram that do not touch, and close edges whose other ends are
    paired with each other."""
    d = draw(unions)
    return d, draw(st.permutations(range(len(inv._boxes(d, faces(d))))))


@given(diagrams_and_orders())
@settings(max_examples=40, deadline=None)
def test_bracket_does_not_depend_on_the_crossing_order(case):
    d, order = case
    want = kauffman_bracket(d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inv, "_sweep_order", lambda _: list(order))
        assert kauffman_bracket(d) == want


@given(unions)
@settings(max_examples=40, deadline=None)
def test_boxes_give_the_bracket_of_single_crossings(d):
    """The sweep over boxes equals the same sweep with every crossing a box
    of its own, whose width comes from the crossings' bound alone."""
    want = kauffman_bracket(d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inv, "_boxes", lambda d, _: [[i] for i in range(len(d.crossings))])
        assert kauffman_bracket(d) == want


def circle_chain(k):
    """k round circles in a row, each overlapping the next and passing over
    it at both crossings: the k-component unlink with 2(k - 1) crossings.
    Its end overlaps are boxes with two ends and weight delta, the middle
    ones boxes with four ends and weight 1, so the coefficients of its
    bracket delta^(k - 1) grow only by the loops the sweep closes between
    boxes."""
    ids = {}

    def edge(name):
        return ids.setdefault(name, len(ids) + 1)

    def top(j):  # circle j from its crossing with j + 1 to the one with j - 1
        return edge("left" if j == 1 else "right" if j == k else f"top{j}")

    def bottom(j):
        return edge("left" if j == 1 else "right" if j == k else f"bottom{j}")

    rows = []
    for i in range(1, k):
        inner_left, inner_right = edge(f"inner_left{i + 1}"), edge(f"inner_right{i}")
        rows.append((top(i + 1), top(i), inner_left, inner_right))
        rows.append((inner_left, bottom(i), bottom(i + 1), inner_right))
    return diagram_from_tuples(rows)


TWISTED_UNION = build_symmetric_union(
    SymUnionSpec(parse_pd(TREFOIL), (1, 3, 4), (vertical_twists(4), vertical_twists(-4)))
)

# (diagram, (crossings, ends) of each box)
BOX_CASES = {
    "trefoil, one 3-cycle": (parse_pd(TREFOIL), [(3, 0)]),
    "T(2,5), one 5-cycle": (numerator(vertical_twists(5)), [(5, 0)]),
    "kinks at both ends of a twist": (denominator(vertical_twists(-4)), [(4, 0)]),
    "a kink next to a twist": (
        denominator(tangle_sum(vertical_twists(4), vertical_twists(1))),
        [(4, 2), (1, 4)],
    ),
    "twists of -4, 2 and 4": (
        numerator(rational_tangle([-4, 2, 4])),
        [(4, 4), (2, 4), (4, 4)],
    ),
    "union with vertical_twists(4) and (-4)": (
        TWISTED_UNION,
        [(2, 4), (1, 4), (2, 4), (1, 4), (4, 4), (4, 4)],
    ),
    "chain of 7 circles": (
        circle_chain(7),
        [(2, 2)] + [(2, 4)] * 4 + [(2, 2)],
    ),
}


@pytest.mark.parametrize("name", BOX_CASES)
def test_boxes_match_the_naive_bracket(name):
    d, shape = BOX_CASES[name]
    boxes = inv._boxes(d, faces(d))
    assert [(len(b), len(inv._box_unit(d, b, None).slots)) for b in boxes] == shape
    assert kauffman_bracket(d) == bracket_naive(d)


@pytest.mark.parametrize("k", range(2, 9))
def test_bracket_of_a_chain_of_circles(k):
    assert kauffman_bracket(circle_chain(k)) == LaurentPoly({2: -1, -2: -1}) ** (k - 1)


def test_jones_trefoil_both_hands(trefoil):
    left = jones(trefoil)
    assert left == parse_poly("-t^-4 + t^-3 + t^-1")
    right = jones(mirror(trefoil))
    assert right == parse_poly("t + t^3 - t^4")
    assert right == left.inverted()


def test_jones_figure_eight(fig8):
    got = jones(fig8)
    assert got == parse_poly("t^-2 - t^-1 + 1 - t + t^2")
    assert got == got.inverted()  # amphichiral


def test_jones_unknot_and_kinks():
    assert jones(unknot()) == LaurentPoly.one()
    assert jones(parse_pd("X[1,2,2,1]")) == LaurentPoly.one()
    assert jones(parse_pd("X[1,1,2,2]")) == LaurentPoly.one()


def test_jones_multiplicative(trefoil, fig8):
    s = connected_sum(trefoil, 3, fig8, 1)
    assert jones(s) == jones(trefoil) * jones(fig8)


def test_jones_of_a_long_connected_sum_is_the_product(trefoil, fig8):
    """Seven summands, both trefoils and the figure eight: many signed
    coefficients pass through the packed bracket's decode."""
    parts = [trefoil, fig8, mirror(trefoil), fig8, trefoil, mirror(trefoil), trefoil]
    d, want = parts[0], jones(parts[0])
    for k in parts[1:]:
        d = connected_sum(d, 1, k, 2)
        want = want * jones(k)
    assert len(d.crossings) == 23
    assert jones(d) == want


def test_jones_pinned_at_68_crossings(union68):
    assert jones(union68) == parse_poly(UNION68_JONES)


def test_jones_value_at_one(trefoil, fig8):
    for d in (trefoil, fig8):
        assert jones(d).evaluate(1) == 1


def test_jones_rejects_links(trefoil):
    d = PlanarDiagram(trefoil.crossings, trefoil.over_from_d, free_loops=1)
    with pytest.raises(MultiComponentInput):
        jones(d)


def test_naive_bracket_size_cap(trefoil):
    d = trefoil
    for _ in range(5):
        d = connected_sum(d, 1, trefoil, 1)
    assert len(d.crossings) == 18
    with pytest.raises(TooLarge):
        bracket_naive(d)


def test_bracket_state_cap(fig8, monkeypatch):
    monkeypatch.setattr(inv, "_STATE_LIMIT", 1)
    with pytest.raises(TooLarge):
        kauffman_bracket(fig8)


def assert_jones_matches_alexander(k):
    """V(1) = 1 and |V(-1)| = |Delta(-1)|, the determinant of the knot.
    Unlike the naive oracle these hold at any size."""
    v, det = jones(k), alexander_region(k).evaluate(-1)
    assert v.evaluate(1) == 1
    assert abs(v.evaluate(-1)) == abs(det)
    return det


def test_jones_matches_alexander_at_minus_one_on_the_corpus():
    got = {assert_jones_matches_alexander(k) for k in CORPUS_UNIONS.values()}
    assert got == {1, -135, 125}


@given(st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_jones_matches_alexander_at_minus_one_on_random_unions(seed):
    assert_jones_matches_alexander(random_union(seed))


def test_jones_matches_alexander_at_minus_one_at_68_crossings(union68):
    assert_jones_matches_alexander(union68)


@pytest.mark.parametrize("m", [25, 50])
def test_jones_matches_alexander_at_minus_one_at_220_and_420_crossings(m):
    """kt(m) x 4 over N([2,2,2,2,2,1,1]), 24 + 4(2m - 1) crossings. The
    marked arcs are the first draw that embeds under the benchmark's
    rejection sampling with random.Random(1). Delta is the factor product
    the product formula certifies, not a determinant at full size."""
    partial = numerator(rational_tangle([2, 2, 2, 2, 2, 1, 1]))
    k = build_symmetric_union(
        SymUnionSpec(partial, (12, 14, 1, 18, 20), (kt_tangle(m),) * 4)
    )
    assert len(k.crossings) == 24 + 4 * (2 * m - 1)
    half = alexander_region(partial)
    delta = normalize_alexander(half * half * alexander_region(numerator(kt_tangle(m))) ** 4)
    v = jones(k)
    assert v.evaluate(1) == 1
    assert abs(v.evaluate(-1)) == abs(delta.evaluate(-1))
