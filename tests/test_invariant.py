import copy
import itertools
import json
import math
import random
import threading
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symunion.invariant as inv
import symunion.poly as poly
from bracket_oracle import bracket_naive
from helpers import (
    FAMILY_POOL,
    LINKS,
    PARTIAL_12,
    StateTally,
    _rebuild,
    bound_by_link_patterns,
    box_unit_by_chain,
    build_all_zero_replacement,
    circle_chain,
    complement_by_rebuild,
    cylinder_grid,
    cylinder_link,
    display_form,
    glued_pair,
    jones_at_roots_of_unity,
    kt_member,
    pairs_of,
    parse_poly,
    pool_variant,
    random_spec,
    sparse,
    sweep_by_pairs,
    sweep_order_reference,
    sweep_order_unpruned,
    torus_alexander,
    torus_closure,
    torus_jones,
    unknot,
)
from symunion import corpus
from symunion.construct import (
    NotAKnot,
    SymUnionSpec,
    build_symmetric_union,
    contract_box,
    parse_spec,
    to_spec_doc,
)
from symunion.diagram import (
    DiagramError,
    MultiComponentInput,
    NoCrossings,
    PlanarDiagram,
    faces,
    mirror,
    parse_pd,
)
from symunion.group import wirtinger
from symunion.invariant import (
    CancelToken,
    Cancelled,
    TooLarge,
    UnsupportedLinkCase,
    alexander_fox,
    alexander_region,
    complement_closures,
    det_laurent,
    flanking_faces,
    fox_jacobian,
    jones,
    kauffman_bracket,
    reduced,
    region_matrix,
    verify_fraction_formula,
    verify_fraction_region,
)
from symunion.poly import LaurentPoly, NonIntegralSolution, normalize_alexander
from symunion.tangle import (
    denominator,
    kt_tangle,
    numerator,
    rational_tangle,
    tangle_sum,
    vertical_stack,
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


def knot_sum(*cfs):
    """The connected sum of the rational knots N(rational_tangle(cf)): the
    numerator closure of their tangles stacked top to bottom."""
    t = rational_tangle(cfs[0])
    for cf in cfs[1:]:
        t = vertical_stack(t, rational_tangle(cf))
    return numerator(t)


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
    got = det_laurent(sparse([[LaurentPoly.term(v) for v in r] for r in rows]))
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
    assert det_laurent(sparse(rows)) == leibniz(rows)


def is_unit(p):
    terms = p.items()
    return len(terms) == 1 and abs(terms[0][1]) == 1


unit_free_entries = st.one_of(
    st.just(LaurentPoly.zero()),
    st.dictionaries(st.integers(-6, 6), ints(-(2**40), 2**40), min_size=1, max_size=4)
    .map(LaurentPoly)
    .filter(lambda p: not is_unit(p)),
)


@st.composite
def unit_free_matrices(draw, sizes=st.integers(1, 5)):
    """Square Laurent matrices up to 5x5 (of the given sizes) with no unit
    entry, so that det_laurent hands the whole matrix to its Bareiss phase;
    coefficients up to 2^40 and exponents -6..6 make the packing width
    grow. Some get a zero row, a zero column, or a row that is a multiple
    of another (singular)."""
    n = draw(sizes)
    rows = [[draw(unit_free_entries) for _ in range(n)] for _ in range(n)]
    i = draw(st.integers(0, n - 1))
    shape = draw(st.sampled_from(["plain", "zero row", "zero column", "singular"]))
    if shape == "zero row":
        rows[i] = [LaurentPoly.zero()] * n
    elif shape == "zero column":
        for row in rows:
            row[i] = LaurentPoly.zero()
    elif shape == "singular" and n > 1:
        j = draw(st.sampled_from([x for x in range(n) if x != i]))
        f = LaurentPoly.term(draw(st.sampled_from([-3, -2, 2, 3])), draw(st.integers(-2, 2)))
        rows[i] = [f * x for x in rows[j]]
    assert not any(is_unit(p) for row in rows for p in row)
    return rows


@given(unit_free_matrices())
@settings(max_examples=100, deadline=None)
def test_det_by_bareiss_matches_leibniz_expansion(rows):
    assert det_laurent(sparse(rows)) == leibniz(rows)


@st.composite
def shifted(draw, matrices):
    """A matrix from matrices with row i times t^r_i and column j times
    t^c_j, r and c in the hundreds: the packed entries of the Bareiss phase
    then carry long runs of trailing zero bits."""
    rows = draw(matrices)
    r = draw(st.lists(st.integers(-400, 400), min_size=len(rows), max_size=len(rows)))
    c = draw(st.lists(st.integers(-400, 400), min_size=len(rows), max_size=len(rows)))
    return [[p.shift(r[i] + c[j]) for j, p in enumerate(row)] for i, row in enumerate(rows)]


@given(shifted(unit_free_matrices()))
@settings(max_examples=100, deadline=None)
def test_det_by_bareiss_matches_leibniz_on_shifted_lines(rows):
    assert det_laurent(sparse(rows)) == leibniz(rows)


@given(shifted(unit_free_matrices(st.integers(1, 2))))
@settings(max_examples=60, deadline=None)
def test_det_by_bareiss_of_1x1_and_2x2_blocks(rows):
    assert det_laurent(sparse(rows)) == leibniz(rows)


def test_bareiss_pivot_needs_a_row_and_a_column_swap():
    # at t = 2^B the entry with the fewest bits is 3t at (1, 2), next to
    # zeros, so the first step swaps rows 0 and 1 and columns 0 and 2;
    # reversing rows and columns moves it to (1, 0), a row swap alone
    big = LaurentPoly({0: 1000, 1: -999, 2: 5})
    z = LaurentPoly.zero()
    three = LaurentPoly.term(3, 1)
    for rows in (
        [[big, z, big], [z, big * 2, three], [big * 3, big, z]],
        [[big, big * 5, z], [z, big * 2, three], [big * 3, z, big]],
    ):
        assert det_laurent(sparse(rows)) == leibniz(rows)
        assert det_laurent(sparse([row[::-1] for row in rows[::-1]])) == leibniz(rows)


def block_width_with_l1_bounds(block):
    """_block_width as it was with the l1 products over rows and over
    columns beside Hadamard's two bounds: the least of the four."""
    rows = [[sum(map(abs, p.values())) for p in row] for row in block]
    cols = list(zip(*rows))
    return poly.width(
        min(
            math.prod(map(sum, rows)),
            math.prod(map(sum, cols)),
            math.isqrt(math.prod([sum(x * x for x in r) for r in rows])),
            math.isqrt(math.prod([sum(x * x for x in c) for c in cols])),
        )
    )


@given(shifted(unit_free_matrices()))
@settings(max_examples=100, deadline=None)
def test_block_width_matches_the_four_bounds(rows):
    block = [[p.to_dict() for p in row] for row in rows]
    assert poly._block_width(block) == block_width_with_l1_bounds(block)


def test_block_width_matches_the_four_bounds_on_the_determinants_of_unions():
    blocks = []
    real = poly._block_width
    diagrams = [build_symmetric_union(s) for _, s in sorted(corpus.SPEC_FIXTURES.items())]
    diagrams += [pool_variant(f"x{n}/v00") for n in (15, 30, 47, 68)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_block_width", lambda block: blocks.append(block) or real(block))
        for d in diagrams:
            alexander_region(d)
            alexander_fox(wirtinger(d))
    assert len(blocks) >= len(diagrams) and max(map(len, blocks)) >= 3
    for block in blocks:
        assert real(block) == block_width_with_l1_bounds(block)


def test_bareiss_checks_each_division(monkeypatch):
    rows = [[LaurentPoly({0: 2 + i, 1: j - 3}) for j in range(3)] for i in range(3)]
    monkeypatch.setattr(poly, "divmod", lambda n, d: (n // d, 1), raising=False)
    with pytest.raises(NonIntegralSolution):
        det_laurent(sparse(rows))


def unit_pivots_by_scan(rows, keep=range(0)):
    """Phase 1 of det_laurent by a full scan, after the same phase 0 as
    poly._unit_pivots: first the columns outside keep with two live rows,
    off a stack that starts with all of them in ascending order, pops from
    the top, pivots at the lower row holding a unit, skips a column where
    neither does, and pushes the pivot row's columns that are left with
    two live rows, in ascending order. Then at every step the unit entry
    of least ((r-1)(c-1), i, j) outside the columns in keep. The sign of
    each step comes from the pivot's position among the live rows and
    columns. The reference for the pivot queue of poly._unit_pivots."""
    m = {i: {j: LaurentPoly(p) for j, p in row.items() if p} for i, row in enumerate(rows)}
    live_rows, live_cols = list(range(len(rows))), list(range(max(len(rows), keep.stop)))
    unit, shift = 1, 0

    def rows_of(j):
        return sorted(i for i, row in m.items() if j in row)

    def pivot(r, c):
        nonlocal unit, shift
        prow = m.pop(r)
        ((k, u),) = prow.pop(c).items()
        if (live_rows.index(r) + live_cols.index(c)) % 2:
            unit = -unit
        live_rows.remove(r)
        live_cols.remove(c)
        unit, shift = unit * u, shift + k
        for row in m.values():
            if c in row:
                f = row.pop(c).shift(-k) * u
                for j, a in prow.items():
                    row[j] = row.get(j, LaurentPoly.zero()) - f * a
                    if not row[j]:
                        del row[j]
        return prow

    stack = [j for j in live_cols if j not in keep and len(rows_of(j)) == 2]
    while stack and all(m.values()):
        c = stack.pop()
        pair = rows_of(c)
        units = [i for i in pair if len(pair) == 2 and is_unit(m[i][c])]
        if units:
            prow = pivot(units[0], c)
            stack += [j for j in sorted(prow) if j not in keep and len(rows_of(j)) == 2]
    while all(m.values()):
        candidates = [
            ((len(row) - 1) * (len(rows_of(j)) - 1), i, j)
            for i, row in m.items()
            for j, p in row.items()
            if is_unit(p) and j not in keep
        ]
        if not candidates:
            block = [[m[i][j].to_dict() if j in m[i] else {} for j in live_cols]
                     for i in live_rows]
            return unit, shift, block
        _, r, c = min(candidates)
        pivot(r, c)
    return None


@given(laurent_matrices())
@settings(max_examples=100, deadline=None)
def test_pivot_queue_takes_the_pivots_of_a_full_scan(rows):
    assert poly._unit_pivots(sparse(rows), None) == unit_pivots_by_scan(sparse(rows))


@given(laurent_matrices(), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_kept_columns_are_never_pivoted_and_finish_any_square_choice(rows, extra, data):
    """rows with `extra` more columns, the last extra + 1 kept: phase 1
    pivots only outside them, and the block with any one kept column gives
    the determinant of the rows over the other columns and that one."""
    n = len(rows)
    rows = [row + [data.draw(laurent_entries) for _ in range(extra)] for row in rows]
    keep = range(n - 1, n + extra)
    found = poly._unit_pivots(sparse(rows), None, keep)
    assert found == unit_pivots_by_scan(sparse(rows), keep)
    for x in keep:
        want = leibniz([row[: n - 1] + [row[x]] for row in rows])
        if found is None:
            assert want.is_zero()
            continue
        unit, shift, block = found
        square = [row[: -len(keep)] + [row[x - len(rows[0])]] for row in block]
        assert poly._block_det(square, None).shift(shift) * unit == want


def test_pivot_queue_queues_a_head_again_after_its_entry_is_popped():
    # found by random searches against the full scan: a queued head is
    # popped and dropped, and later heads its column again at the same
    # cost, so the pop has to clear the column's mark. Phase 0 now takes
    # the first matrix's pivot at (0, 3), so that it no longer reaches the
    # case; the second, an integer matrix, reaches it after phase 0
    first = [
        {0: {0: 1, 1: 1}, 1: {1: 1}, 2: {0: 2}, 3: {0: 1}, 4: {1: 1, 2: -1}},
        {3: {0: 1, 1: 1}, 4: {0: 1}},
        {1: {0: 2}, 4: {0: 2}},
        {1: {0: 1}, 2: {0: 1, 1: -1}, 4: {0: 1, 1: -1}},
        {0: {0: 1, 1: 1}, 4: {0: -1, 1: 1}},
    ]
    second = [
        {2: {0: 1}, 3: {0: -1}, 4: {0: -1}, 5: {0: 1}},
        {0: {0: -2}, 1: {0: -1}, 2: {0: -1}, 3: {0: 3}},
        {0: {0: 2}, 4: {0: -1}},
        {0: {0: -1}, 2: {0: 2}, 4: {0: -1}},
        {0: {0: -1}, 1: {0: 1}, 5: {0: 2}},
        {3: {0: -2}, 4: {0: -2}, 5: {0: -2}},
    ]
    for rows in (first, second):
        assert poly._unit_pivots(rows, None) == unit_pivots_by_scan(rows)


def test_phase_0_skips_a_two_row_column_with_no_unit():
    # column 1, popped first, holds 2 and 3: no unit, so phase 0 moves on
    # to column 0; a pivot at 2 would divide by a non-unit
    rows = [{0: {0: 1}, 1: {0: 2}}, {0: {0: 1}, 1: {0: 3}}]
    assert poly._unit_pivots(rows, None) == unit_pivots_by_scan(rows) == (1, 0, [])
    assert det_laurent(rows) == LaurentPoly.one()


def test_phase_0_pivots_at_the_lower_row_when_both_hold_a_unit():
    # column 1 holds -1 in row 0 and t in row 1: phase 0 takes row 0, where
    # the Markowitz tie-break alone would take t^3 at (0, 0) and a pivot at
    # row 1 would leave t^3 + t and shift 1
    rows = [{0: {3: 1}, 1: {0: -1}}, {0: {2: 1}, 1: {1: 1}}]
    assert poly._unit_pivots(rows, None) == unit_pivots_by_scan(rows) == (1, 0, [[{2: 1, 4: 1}]])
    assert det_laurent(rows) == LaurentPoly({2: 1, 4: 1})


def test_phase_0_never_pivots_a_kept_two_row_column():
    # kept columns 1 and 2 hold units in both rows; free column 0 holds none
    rows = [{0: {0: 2}, 1: {0: 1}, 2: {0: 1}}, {0: {0: 3}, 1: {0: 1}, 2: {1: 1}}]
    block = [[{0: 2}, {0: 1}, {0: 1}], [{0: 3}, {0: 1}, {1: 1}]]
    assert poly._unit_pivots(rows, None, range(1, 3)) == (1, 0, block)
    assert unit_pivots_by_scan(rows, range(1, 3)) == (1, 0, block)


def test_cancel_stops_phase_1_at_its_first_phase_0_pivot():
    class FiresAt(CancelToken):
        def __init__(self, poll):
            super().__init__()
            self.polls, self.poll = 0, poll

        def check(self):
            self.polls += 1
            if self.polls == self.poll:
                self.cancel()
            super().check()

    # column 1 has two rows, both units, so the first pivot is phase 0's;
    # the second is Markowitz's, at (1, 0)
    rows = [{0: {0: 1}, 1: {0: 1}}, {1: {0: 1}}]
    for poll in (1, 2):
        tok = FiresAt(poll)
        with pytest.raises(Cancelled):
            poly._unit_pivots(rows, tok)
        assert tok.polls == poll
    tok = FiresAt(3)
    assert poly._unit_pivots(rows, tok) == unit_pivots_by_scan(rows) == (1, 0, [])
    assert tok.polls == 2


def test_a_row_emptied_in_phase_0_makes_the_determinant_0():
    # row 1 is twice row 0, so the pivot at (0, 1) leaves it empty
    rows = [{0: {0: 1}, 1: {0: 1}}, {0: {0: 2}, 1: {0: 2}}, {2: {0: 1}}]
    assert poly._unit_pivots(rows, None) is None
    assert unit_pivots_by_scan(rows) is None
    assert det_laurent(rows).is_zero()


def alexander_matrices(k):
    """The matrices both Alexander routes take the determinant of: the
    region matrix without the two faces that flank edge 1, and the Fox
    matrix without the last relator and generator."""
    w = wirtinger(k)
    n = len(w.generators)
    fox = [{j: p for j, p in row.items() if j < n - 1} for row in fox_jacobian(w)[: n - 1]]
    return reduced(region_matrix(k), flanking_faces(k, 1)), fox


def test_pivot_queue_takes_the_pivots_of_a_full_scan_at_68_crossings(union68):
    for rows in alexander_matrices(union68):
        assert poly._unit_pivots(rows, None) == unit_pivots_by_scan(rows)


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
@pytest.mark.parametrize("place", ["exponent", "coefficient"])
@pytest.mark.parametrize("first", [{0: {0: 2}, 1: {1: 1}}, {}])
def test_det_rejects_non_int_entries(bad, place, first):
    # also after an empty row, which makes the determinant 0
    entry = {bad: 1} if place == "exponent" else {0: bad}
    with pytest.raises(TypeError):
        det_laurent([first, {0: {0: 1}, 1: entry}])


@st.composite
def padded(draw, rows):
    """rows with zero coefficients added to some entries and entries that
    hold only zero coefficients put in some empty places."""
    out = []
    for row in rows:
        new = {}
        for j in range(len(rows)):
            p = dict(row.get(j, {}))
            if draw(st.booleans()):
                e = draw(st.integers(-3, 3))
                p.setdefault(e, 0)
            if p:
                new[j] = p
        out.append(new)
    return out


@given(laurent_matrices().flatmap(lambda m: st.tuples(st.just(sparse(m)), padded(sparse(m)))))
@settings(max_examples=100, deadline=None)
def test_det_drops_zero_coefficients_and_empty_entries(pair):
    rows, with_zeros = pair
    assert poly._unit_pivots(with_zeros, None) == poly._unit_pivots(rows, None)
    assert det_laurent(with_zeros) == det_laurent(rows)


@given(laurent_matrices())
@settings(max_examples=100, deadline=None)
def test_det_leaves_its_rows_unchanged(m):
    rows = sparse(m)
    before = copy.deepcopy(rows)
    first = det_laurent(rows)
    assert rows == before
    assert det_laurent(rows) == first
    assert rows == before


def test_det_singular():
    one = LaurentPoly.one()
    assert det_laurent(sparse([[one, one], [one, one]])).is_zero()


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
        det_laurent(sparse(rows), tok)


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
    rows = reduced(region_matrix(union68), flanking_faces(union68, 1))
    assert len(rows) == 68
    tok = CancelAfter(10)
    with pytest.raises(Cancelled):
        det_laurent(rows, tok)
    assert tok.polls == 10


def test_cancel_stops_the_bareiss_phase():
    # no entry is a unit, so every poll is a Bareiss step, one per step
    rows = [[LaurentPoly({0: (i + 2) ** (j + 1), 1: 3 + i - j}) for j in range(4)]
            for i in range(4)]
    tok = CancelAfter(10)
    assert not leibniz(rows).is_zero()
    assert det_laurent(sparse(rows), tok) == leibniz(rows)
    assert tok.polls == 4
    tok = CancelAfter(2)
    with pytest.raises(Cancelled):
        det_laurent(sparse(rows), tok)
    assert tok.polls == 2


# The determinants of union68's alexander_matrices, not normalized.
UNION68_REGION_DET = (
    "-t^28 + 22*t^29 - 203*t^30 + 1028*t^31 - 3149*t^32 + 6090*t^33 - 7575*t^34"
    " + 6090*t^35 - 3149*t^36 + 1028*t^37 - 203*t^38 + 22*t^39 - t^40"
)
UNION68_FOX_DET = (
    "t^-3 - 22*t^-2 + 203*t^-1 - 1028 + 3149*t - 6090*t^2 + 7575*t^3"
    " - 6090*t^4 + 3149*t^5 - 1028*t^6 + 203*t^7 - 22*t^8 + t^9"
)


def test_raw_determinants_pinned_at_68_crossings(union68):
    region, fox = alexander_matrices(union68)
    assert det_laurent(region) == parse_poly(UNION68_REGION_DET)
    assert det_laurent(fox) == parse_poly(UNION68_FOX_DET)


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
    assert len(m) == 3
    for row in m:
        assert set(row) <= set(range(5))
        assert len(row) == 4
        assert all(p and all(p.values()) for p in row.values())


def test_region_matrix_kink_merges_corners():
    m = region_matrix(parse_pd("X[1,2,2,1]"))
    assert len(m) == 1
    assert set(m[0]) <= set(range(3))
    assert len(m[0]) <= 3
    assert all(p and all(p.values()) for p in m[0].values())


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


def test_column_choice_independence(trefoil, fig8, union68):
    # alexander_region deletes the faces flanking edge 1; any edge will do
    for d, edges in ((trefoil, range(1, 7)), (fig8, range(1, 9)), (union68, (2, 69, 135))):
        base = alexander_region(d)
        m = region_matrix(d)
        for e in edges:
            det = det_laurent(reduced(m, flanking_faces(d, e)))
            assert normalize_alexander(det, knot=True) == base


def test_flanking_faces_distinct(trefoil):
    for e in range(1, 7):
        a, b = flanking_faces(trefoil, e)
        assert a != b


def test_flanking_faces_of_an_unknown_edge(trefoil):
    for edge in (0, 7, -1):
        with pytest.raises(DiagramError):
            flanking_faces(trefoil, edge)


def test_alexander_connected_sum():
    s = knot_sum([3], [1, 1, 2])
    want = normalize_alexander(norm("1 - t + t^2") * norm("1 - 3*t + t^2"), knot=True)
    assert alexander_region(s) == want


# -- Fox calculus -----------------------------------------------------------------


def test_fox_matches_region(trefoil, fig8):
    granny = knot_sum([3], [3])
    square = knot_sum([3], [-3])
    for d in (trefoil, fig8, granny, square):
        assert alexander_fox(wirtinger(d)) == alexander_region(d)


def test_fox_square_equals_granny():
    granny = knot_sum([3], [3])
    square = knot_sum([3], [-3])
    assert alexander_fox(wirtinger(granny)) == alexander_fox(wirtinger(square))


@pytest.mark.parametrize("text", ["X[1,1,2,2]", "X[1,2,2,1]"])
def test_fox_row_of_a_kink_cancels_to_nothing(text):
    # the relator is g g^s g^-1 g^-s for sign s; in the positive kink the
    # third letter cancels one term of the two-term entry 1 + t
    d = parse_pd(text)
    assert fox_jacobian(wirtinger(d)) == [{}]
    assert alexander_fox(wirtinger(d)) == alexander_region(d) == LaurentPoly.one()


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
        knot_sum([3], [1, 1, 2]),
    ]
    for d in diagrams:
        assert kauffman_bracket(d) == bracket_naive(d)


def random_union(seed):
    return build_symmetric_union(random_spec(random.Random(seed)))


@given(st.integers(0, 2**32))
@settings(max_examples=6, deadline=None)
def test_bracket_frontier_matches_naive_on_random_unions(seed):
    k = random_union(seed)
    assume(len(k.crossings) <= 16)
    assert kauffman_bracket(k) == bracket_naive(k)


CORPUS_UNIONS = {
    name: build_symmetric_union(spec) for name, spec in corpus.SPEC_FIXTURES.items()
}


# A corpus union, a variant of the scaling-family pool or a random union.
unions = st.one_of(
    st.sampled_from(sorted(CORPUS_UNIONS)).map(CORPUS_UNIONS.__getitem__),
    st.sampled_from(sorted(FAMILY_POOL)).map(pool_variant),
    st.integers(0, 2**32).map(random_union),
)


# The largest union that gets a free random order of its boxes. Free
# orders on the 68-crossing variants can pass the bracket's state limit.
FREE_ORDER_CROSSINGS = 47


@st.composite
def diagrams_and_orders(draw):
    """A union with a random order of its boxes. Free random orders sweep
    parts of the diagram that do not touch, and close edges whose other
    ends are paired with each other. Above FREE_ORDER_CROSSINGS the order
    is a random connected sweep: a random start, then at each step a
    random box that touches the boxes swept so far."""
    d = draw(unions)
    boxes = inv._boxes(d, faces(d.mates))
    if len(d.crossings) <= FREE_ORDER_CROSSINGS:
        return d, draw(st.permutations(range(len(boxes))))
    box_of = {ci: i for i, box in enumerate(boxes) for ci in box}
    nbrs: list[set[int]] = [set() for _ in boxes]
    for k, m in enumerate(d.mates):
        nbrs[box_of[k >> 2]].add(box_of[m >> 2])
    order = [draw(st.integers(0, len(boxes) - 1))]
    touching = nbrs[order[0]] - set(order)
    while touching:
        order.append(draw(st.sampled_from(sorted(touching))))
        touching = (touching | nbrs[order[-1]]) - set(order)
    assert sorted(order) == list(range(len(boxes)))  # a union is connected
    return d, order


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


@given(unions)
@settings(max_examples=30, deadline=None)
def test_sweep_order_matches_the_unpruned_search(d):
    """The sweep order stops a start early only when it cannot win, so it
    picks the order the full search over every start picks."""
    graphs = []
    order = inv._sweep_order
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inv, "_sweep_order", lambda nbrs: graphs.append(nbrs) or order(nbrs))
        kauffman_bracket(d)
    assert order(graphs[0]) == sweep_order_unpruned(graphs[0])


def test_sweep_order_matches_the_unpruned_search_on_fixed_graphs():
    """The unit graphs of the 64 pool variants, the corpus unions and
    chains of circles, where sweeps from different starts often reach the
    same swept set."""
    diagrams = [pool_variant(k) for k in sorted(FAMILY_POOL)]
    diagrams += [build_symmetric_union(s) for _, s in sorted(corpus.SPEC_FIXTURES.items())]
    diagrams += [circle_chain(k) for k in range(2, 9)]
    assert len(diagrams) == 64 + 7 + 7
    for d in diagrams:
        nbrs = inv._unit_graph(d, inv._boxes(d, faces(d.mates)))
        assert inv._sweep_order(nbrs) == sweep_order_unpruned(nbrs)


@pytest.mark.parametrize("rows, cols", [(1, 3), (2, 5), (3, 6), (3, 8), (4, 9), (5, 12)])
def test_sweep_order_matches_the_unpruned_search_on_cylinder_grids(rows, cols):
    nbrs = cylinder_grid(rows, cols)
    assert inv._sweep_order(nbrs) == sweep_order_unpruned(nbrs)


def test_sweep_order_matches_the_reference_on_fixed_graphs():
    """The same order as _sweep_order before its path became parallel
    lists, on the unit graphs of the 64 pool variants, the corpus unions,
    the torus closures T(p, p + 1) for p up to 9 and 15 random unions."""
    diagrams = [pool_variant(k) for k in sorted(FAMILY_POOL)]
    diagrams += [build_symmetric_union(s) for _, s in sorted(corpus.SPEC_FIXTURES.items())]
    diagrams += [torus_closure(p) for p in range(2, 10)]
    diagrams += [random_union(seed) for seed in range(15)]
    for d in diagrams:
        nbrs = inv._unit_graph(d, inv._boxes(d, faces(d.mates)))
        assert inv._sweep_order(nbrs) == sweep_order_reference(nbrs)


@st.composite
def connected_multigraphs(draw):
    """A random connected multigraph without loops, as nbrs lists: a
    random tree on n vertices, then more edges, parallel ones allowed."""
    n = draw(st.integers(1, 14))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        edges += draw(st.lists(pairs, max_size=2 * n))
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in draw(st.permutations(edges)):
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


@given(connected_multigraphs())
@settings(max_examples=200, deadline=None)
def test_sweep_order_matches_the_reference_on_random_multigraphs(nbrs):
    assert inv._sweep_order(nbrs) == sweep_order_reference(nbrs) == sweep_order_unpruned(nbrs)


def test_sweep_order_of_disconnected_and_empty_graphs():
    """Once a part is swept, the sweep goes on from the unswept unit of
    least change, ties by index, and the empty graph has the empty order."""
    nbrs = [[1, 1], [0, 0], [3, 4], [2, 4], [2, 3], []]
    assert inv._sweep_order(nbrs) == sweep_order_reference(nbrs) == sweep_order_unpruned(nbrs)
    assert inv._sweep_order([]) == sweep_order_reference([]) == []


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
        [(4, 2), (1, 2)],
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
    boxes = inv._boxes(d, faces(d.mates))
    assert [(len(b), len(inv._box_unit(d, b, None).slots)) for b in boxes] == shape
    assert kauffman_bracket(d) == bracket_naive(d)


@pytest.mark.parametrize("text", ["X[1,2,2,1]", "X[1,1,2,2]"])
def test_a_one_crossing_diagram_is_one_box(text):
    # its bigon has both corners at the one crossing
    d = parse_pd(text)
    assert inv._boxes(d, faces(d.mates)) == [[0]]


def link_patterns(slots):
    """Every partial matching of slots, as slot -> slot; a slot left out
    holds an open end."""
    if not slots:
        yield {}
        return
    a, rest = slots[0], slots[1:]
    yield from link_patterns(rest)
    for i, b in enumerate(rest):
        for m in link_patterns(rest[:i] + rest[i + 1 :]):
            yield {**m, a: b, b: a}


def bound_by_brute_force(unit):
    """_bound over every pattern of links and open ends, not only the
    perfect matchings, with the loops counted by _smooth."""
    slots = list(range(len(unit.slots)))
    return max(
        sum(
            sum(map(abs, cs)) << inv._smooth(mate, link, {s: s for s in slots if s not in link})[1]
            for mate, _, cs in unit.smoothings
        )
        for link in link_patterns(slots)
    )


def test_crossing_bound_is_six():
    # A + A^-1 when no slot is linked; 1 * 4 + 1 * 2 when both pairs of
    # one smoothing are linked and close two loops
    assert inv._CROSSING_BOUND == 6


def test_bound_matches_the_link_pattern_enumeration():
    """The closed form of _bound against the enumeration over the perfect
    matchings of a unit's slots, on every unit of the pool, the corpus and
    chains of circles."""
    diagrams = [pool_variant(k) for k in sorted(FAMILY_POOL)]
    diagrams += [build_symmetric_union(s) for _, s in sorted(corpus.SPEC_FIXTURES.items())]
    diagrams += list(corpus.DIAGRAM_FIXTURES.values())
    diagrams += [circle_chain(k) for k in range(2, 9)]
    units = [inv._box_unit(d, b, None) for d in diagrams for b in inv._boxes(d, faces(d.mates))]
    assert {len(u.slots) for u in units} == {0, 2, 4}
    assert inv._bound(inv._SMOOTHINGS) == bound_by_link_patterns(inv._SMOOTHINGS) == 6
    for u in units:
        assert u.bound == bound_by_link_patterns(u.smoothings)


def test_box_bounds_match_the_brute_force_bound():
    diagrams = [d for d, _ in BOX_CASES.values()] + [pool_variant(k) for k in sorted(FAMILY_POOL)]
    units = [inv._box_unit(d, b, None) for d in diagrams for b in inv._boxes(d, faces(d.mates))]
    assert {len(u.slots) for u in units} == {0, 2, 4}
    for u in units:
        assert u.bound == bound_by_brute_force(u)


def test_walk_table_matches_smooth():
    """_WALKS holds _smooth of every perfect matching of 0, 2 or 4 slots
    against every link pattern, an involution whose fixed points hold the
    open ends, and nothing else."""
    want = {}
    for n, mates in LINKS.items():
        for link in link_patterns(list(range(n))):
            ends = {s: s for s in range(n) if s not in link}
            for mate in mates:
                key = mate, tuple(link.get(s, s) for s in range(n))
                want[key] = inv._smooth(mate, link, ends)
    assert len(want) == 33
    assert inv._WALKS == want


def every_box_diagram():
    """The 64 pool variants, the 7 corpus unions and the torus closures
    T(3, 4) to T(7, 8)."""
    diagrams = [pool_variant(k) for k in sorted(FAMILY_POOL)]
    diagrams += [build_symmetric_union(s) for _, s in sorted(corpus.SPEC_FIXTURES.items())]
    diagrams += [torus_closure(p) for p in range(3, 8)]
    return diagrams


def test_box_units_match_the_chain_walk():
    """Every box, one crossing or many, against _box_unit as it was: the
    same slots, smoothings and bound. Most one-crossing boxes have no kink
    and read _SMOOTHINGS."""
    single = 0
    for d in every_box_diagram() + [d for d, _ in BOX_CASES.values()]:
        for b in inv._boxes(d, faces(d.mates)):
            got, want = inv._box_unit(d, b, None), box_unit_by_chain(d, b)
            assert got.slots == want.slots
            assert set(got.smoothings) == set(want.smoothings)
            assert len(got.smoothings) == len(want.smoothings)
            assert got.bound == want.bound
            single += len(b) == 1 and len(got.slots) == 4
    assert single > 500


def peak_open(units) -> int:
    """The most edges open at once while units are swept in order."""
    open_edges: set[int] = set()
    peak = 0
    for u in units:
        open_edges ^= set(u.slots)
        peak = max(peak, len(open_edges))
    return peak


def assert_sweep_matches_the_pairs(d, order=None):
    """_sweep against the pair-keyed sweep over d's boxes, in order or in
    _sweep_order's order: the same final states, the same number of states
    after every unit, and the same states halfway, read as edge pairs.
    Every key is as long as the most edges open at once, never longer, as
    new edges fill the holes that closed ones leave."""
    boxes = inv._boxes(d, faces(d.mates))
    if order is None:
        order = inv._sweep_order(inv._unit_graph(d, boxes))
    units = [inv._box_unit(d, boxes[i], None) for i in order]
    bits = inv._width(units)
    tally = StateTally(inv._STATE_LIMIT)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inv, "_STATE_LIMIT", tally)
        states, front = inv._sweep(units, bits, None)
    want, open_edges, counts = sweep_by_pairs(units, bits)
    assert (pairs_of(states, front), front, open_edges) == (want, {}, set())
    assert tally.counts == counts
    assert {len(key) for key in states} == {peak_open(units)}
    half = units[: len(units) // 2]
    states, front = inv._sweep(half, bits, None)
    want, open_edges, _ = sweep_by_pairs(half, bits)
    assert set(front.values()) == open_edges and len(front) == len(open_edges)
    assert pairs_of(states, front) == want
    assert {len(key) for key in states} == {peak_open(half)}


def test_sweep_matches_the_pairs_on_fixed_diagrams():
    """The pool variants, the corpus unions, the torus closures, random
    unions, chains of circles and links on cylinder grids."""
    diagrams = every_box_diagram() + [random_union(seed) for seed in range(15)]
    diagrams += [circle_chain(k) for k in range(2, 9)]
    diagrams += [cylinder_link(r, c) for r, c in ((1, 2), (2, 4), (3, 6), (4, 8), (2, 10))]
    for d in diagrams:
        assert_sweep_matches_the_pairs(d)


@given(diagrams_and_orders())
@settings(max_examples=15, deadline=None)
def test_sweep_matches_the_pairs_in_random_orders(case):
    assert_sweep_matches_the_pairs(*case)


@pytest.mark.parametrize("p", range(3, 8))
def test_jones_of_torus_closures(p):
    """The closed form of V(T(p, p + 1)), mirrored; the sweep peaks at
    Catalan(p) states."""
    tally = StateTally(inv._STATE_LIMIT)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inv, "_STATE_LIMIT", tally)
        assert jones(torus_closure(p)) == torus_jones(p)
    assert max(tally.counts) == math.comb(2 * p, p) // (p + 1)


@pytest.mark.parametrize("p", range(2, 7))
def test_alexander_of_torus_closures(p):
    """The closed form of Delta(T(p, p + 1)) by both routes: the trefoil's
    t - 1 + 1/t at p = 2, and a span of (p - 1)(q - 1), twice the genus."""
    d = torus_closure(p)
    want = torus_alexander(p)
    assert alexander_region(d) == alexander_fox(wirtinger(d)) == want
    assert want.max_exp() - want.min_exp() == (p - 1) * p


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


def test_jones_multiplicative():
    s = knot_sum([3], [1, 1, 2])
    assert jones(s) == jones(knot_sum([3])) * jones(knot_sum([1, 1, 2]))


def test_jones_of_a_long_connected_sum_is_the_product():
    """Seven summands, both trefoils and the figure eight: many signed
    coefficients pass through the packed bracket's decode."""
    parts = [[3], [1, 1, 2], [-3], [1, 1, 2], [3], [-3], [3]]
    d = knot_sum(*parts)
    want = LaurentPoly.one()
    for cf in parts:
        want = want * jones(knot_sum(cf))
    assert len(d.crossings) == 23
    assert jones(d) == want


def test_jones_pinned_at_68_crossings(union68):
    assert jones(union68) == parse_poly(UNION68_JONES)


JONES_PINS = json.loads((Path(__file__).parent / "data" / "jones_pins.json").read_text())


def test_jones_matches_the_pin_file():
    """All 64 variants of the scaling-family pool, 15 to 68 crossings,
    byte for byte (scripts/pin_jones.py wrote the file)."""
    assert sorted(JONES_PINS) == sorted(FAMILY_POOL)
    for key, text in JONES_PINS.items():
        assert jones(pool_variant(key)).text() == text, key


def test_jones_value_at_one(trefoil, fig8):
    for d in (trefoil, fig8):
        assert jones(d).evaluate(1) == 1


def test_jones_rejects_links(trefoil):
    d = PlanarDiagram(trefoil.crossings, trefoil.over_from_d, free_loops=1)
    with pytest.raises(MultiComponentInput):
        jones(d)


def test_naive_bracket_size_cap():
    d = knot_sum(*[[3]] * 6)
    assert len(d.crossings) == 18
    with pytest.raises(TooLarge):
        bracket_naive(d)


@pytest.mark.parametrize("packed", [1, 2, -3])
def test_bracket_refuses_a_state_sum_that_delta_does_not_divide(trefoil, monkeypatch, packed):
    # the sweep's sum is delta <D>; one the division by delta leaves a
    # remainder on is refused, not unpacked
    monkeypatch.setattr(inv, "_sweep", lambda units, bits, cancel: ({(): (0, packed)}, set()))
    with pytest.raises(NonIntegralSolution):
        kauffman_bracket(trefoil)


def test_bracket_state_cap(fig8, monkeypatch):
    monkeypatch.setattr(inv, "_STATE_LIMIT", 1)
    with pytest.raises(TooLarge):
        kauffman_bracket(fig8)


def assert_jones_matches_alexander(k):
    """V(1) = 1, |V(-1)| = |Delta(-1)|, the determinant of the knot, and
    the values at the third and fourth roots of unity. Unlike the naive
    oracle these hold at any size."""
    v, det = jones(k), alexander_region(k).evaluate(-1)
    assert v.evaluate(1) == 1
    assert abs(v.evaluate(-1)) == abs(det)
    assert jones_at_roots_of_unity(v, det)
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


def test_jones_at_roots_of_unity_on_the_pool():
    for key in sorted(FAMILY_POOL):
        k = pool_variant(key)
        assert jones_at_roots_of_unity(jones(k), alexander_region(k).evaluate(-1)), key


def test_jones_at_roots_of_unity_fails_on_a_wrong_value():
    # fig8_union_1 has Delta(-1) = 125 = 5 mod 8, so Arf = 1 and V(i) = -1
    k = CORPUS_UNIONS["fig8_union_1"]
    v, det = jones(k), alexander_region(k).evaluate(-1)
    assert det % 8 == 5 and jones_at_roots_of_unity(v, det)
    assert not jones_at_roots_of_unity(v, det + 4)
    assert not jones_at_roots_of_unity(v + LaurentPoly({0: 1, 3: -1}), det)
    assert not jones_at_roots_of_unity(v + LaurentPoly({0: 1, 4: -1}), det)


@pytest.mark.parametrize("m", [25, 50])
def test_jones_matches_alexander_at_minus_one_at_220_and_420_crossings(m):
    """Delta is the factor product the product formula certifies, not a
    determinant at full size."""
    k = kt_member(m)
    half = alexander_region(PARTIAL_12)
    delta = normalize_alexander(half * half * alexander_region(numerator(kt_tangle(m))) ** 4)
    v = jones(k)
    assert v.evaluate(1) == 1
    assert abs(v.evaluate(-1)) == abs(delta.evaluate(-1))
    assert jones_at_roots_of_unity(v, delta.evaluate(-1))


# -- the fraction certificate's complement closures ------------------------------


def assert_complements_match_the_rebuilds(k, regions=None):
    for i in regions or range(1, len(k.meta.spec.tangles) + 1):
        closure = complement_closures(k, i)
        for horizontal in (False, True):
            got, want = closure(horizontal), complement_by_rebuild(k, i, horizontal)
            if want[1] is None:  # a split N(C), test_a_complement_that_falls_apart
                want = want[0], got[1]
            assert got == want, (i, horizontal)


def test_complements_match_the_rebuilds_on_the_corpus():
    for k in CORPUS_UNIONS.values():
        assert_complements_match_the_rebuilds(k)


@given(unions)
@settings(max_examples=20, deadline=None)
def test_complements_match_the_rebuilds_on_unions(k):
    assert_complements_match_the_rebuilds(k)


def test_complements_match_the_rebuilds_at_68_crossings(union68):
    assert_complements_match_the_rebuilds(union68)


def test_complement_matches_the_rebuilds_at_420_crossings():
    assert_complements_match_the_rebuilds(kt_member(50), [1])


def test_complements_match_the_rebuilds_beside_a_crossingless_box():
    # box 1 holds vertical_twists(0): each of its strands is one union
    # edge, from the dart outside its "in" corner to the dart outside its
    # "out" corner, and the vertex takes a row that the box did not have
    for k in CORPUS_UNIONS.values():
        if k.meta.spec.tangles:
            assert_complements_match_the_rebuilds(_rebuild(k, {1: vertical_twists(0)}))


@pytest.mark.parametrize("name", sorted(CORPUS_UNIONS))
def test_complements_match_the_rebuilds_when_every_box_is_empty(name):
    # every tangle {"rational": "inf"}, which verify passes
    # (tests/data/verify_docs.json pins trefoil_union_2 so)
    spec = corpus.SPEC_FIXTURES[name]
    doc = to_spec_doc(spec)
    doc["tangles"] = [{"rational": "inf"}] * len(spec.tangles)
    k = build_symmetric_union(parse_spec(doc))
    assert sum(len(t.crossings) for t in k.meta.spec.tangles) == 0
    assert_complements_match_the_rebuilds(k)


@pytest.mark.parametrize("key", ["x15/v10", "x47/v03"])
def test_a_complement_that_falls_apart(key):
    # the axis edge and region 1's marked edge cut the partial in two, so
    # W = E and N(C) is a split diagram, which a rebuild refuses: verify
    # exited 2 here with NotPlanarInsertion while it rebuilt N(C)
    k = pool_variant(key)
    face, p, _ = contract_box(k, 1)
    w, _, e, _ = face[4 * p : 4 * p + 4]
    assert e == w
    closure = complement_closures(k, 1)
    assert closure(False) == complement_by_rebuild(k, 1, False)
    assert closure(True) == (LaurentPoly.zero(), 2)
    assert complement_by_rebuild(k, 1, True) == (LaurentPoly.zero(), None)
    if len(k.meta.spec.tangles) == 1:  # then C is glued_pair's tangle
        n = numerator(glued_pair(k.meta.spec.partial, *k.meta.spec.marked_arcs))
        assert (alexander_region(n), n.component_count()) == closure(True)
    assert verify_fraction_region(k, 1).passed


def test_the_contraction_reads_the_sides_at_the_vertex():
    # box i's corner darts end its edges s1_i (NW), s3_i (SW), s4_i (SE)
    # and s2_i (NE), the west ones at crossings of the host half and the
    # east ones at the mirror's; the box contracted to one vertex at row p
    # embeds (c + 2 faces for c crossings), and the vertex's corners hold
    # four sides; every corner dart lies in the halves' rows, below 8c(D)
    # and so below row p, where contract_box moves no dart
    for k in CORPUS_UNIONS.values():
        half = len(k.meta.spec.partial.crossings)
        for i in range(1, len(k.meta.spec.tangles) + 1):
            corners = k.meta.corners[i - 1]
            labels = [k.labels[k.crossings[m >> 2][m & 3]] for m in corners]
            assert labels == [f"s{j}_{i}" for j in (1, 3, 4, 2)]
            assert [m >> 2 < half for m in corners] == [True, True, False, False]
            assert max(corners) < 8 * half
            face, p, _ = contract_box(k, i)
            tangles = k.meta.spec.tangles
            c = len(k.crossings) - len(tangles[i - 1].crossings) + 1
            assert len(face) == 4 * c and len(set(face)) == max(face) + 1 == c + 2
            assert p == 2 * half + sum(len(t.crossings) for t in tangles[: i - 1])
            # W = E only where a partial is cut in two
            assert len(set(face[4 * p : 4 * p + 4])) == 4


def test_a_box_beside_a_split_one():
    # kt_union_3 with box 2 closed west to east: at region 1, D(C) has
    # two components and N(C) three, and N(kt(3)) is a knot, so the sum
    # rule reads D(C) and raises, as the rebuild does
    k = _rebuild(CORPUS_UNIONS["kt_union_3"], {2: rational_tangle([])})
    closure = complement_closures(k, 1)
    assert closure(True) == complement_by_rebuild(k, 1, True)
    _, _, (denominator_components, numerator_components) = contract_box(k, 1)
    assert numerator_components == 3
    assert denominator_components == 2
    with pytest.raises(NotAKnot):
        complement_by_rebuild(k, 1, False)
    with pytest.raises(NotAKnot):
        closure(False)
    with pytest.raises(NotAKnot):
        verify_fraction_region(k, 1)


def test_a_link_complement_is_read_only_when_its_partner_is_nonzero():
    # in the zero replacement every box holds the west-to-east tangle, so
    # N(T) is two free loops, its Conway polynomial is 0, and D(C), which
    # is not a knot, is never read
    flat = build_all_zero_replacement(CORPUS_UNIONS["kt_union_3"])
    rep = verify_fraction_region(flat, 1)
    assert rep.passed
    assert rep.data["denominator of complement"] == "skipped: factor is zero"
    with pytest.raises(NotAKnot):
        complement_closures(flat, 1)(False)


def test_a_nonzero_numerator_closure_of_a_link_complement_is_refused(monkeypatch):
    # N(C) is a 2-component link; with every block determinant forced to
    # 1, its Alexander polynomial is not 0, outside the Conway conversion
    k = CORPUS_UNIONS["kt_union_1"]
    assert complement_closures(k, 1)(True)[1] == 2
    for module in (inv, poly):
        monkeypatch.setattr(module, "_block_det", lambda block, cancel: LaurentPoly.one())
    with pytest.raises(UnsupportedLinkCase, match="2-component closure"):
        verify_fraction_region(k, 1)


def test_cancel_stops_the_complement_in_its_phase_1(union68, monkeypatch):
    tok, calls = CancelToken(), []
    pivots = inv._unit_pivots

    def cancelling(rows, cancel, keep=range(0)):
        if keep:  # the complement's phase 1
            calls.append(keep)
            tok.cancel()
        return pivots(rows, cancel, keep)

    monkeypatch.setattr(inv, "_unit_pivots", cancelling)
    with pytest.raises(Cancelled) as info:
        verify_fraction_region(union68, 2, tok)
    assert len(calls) == 1
    frames = [f.name for f in info.traceback]
    assert frames[-4:] == ["cancelling", "_unit_pivots", "_check", "check"]
    assert "complement_closures" in frames


@pytest.mark.parametrize(
    "t1,t0",
    [
        (vertical_twists(2), vertical_twists(2)),
        (rational_tangle([1, 1, 2]), vertical_twists(4)),
        (rational_tangle([2]), rational_tangle([3])),
        (rational_tangle([1, 2, 1]), rational_tangle([2])),
    ],
)
def test_fraction_formula_refuses_a_link_closure_with_nonzero_alexander(t1, t0):
    # in each pair some closure is a 2-component link with nonzero Delta,
    # which the knot-only Conway conversion does not cover
    with pytest.raises(UnsupportedLinkCase, match="2-component closure"):
        verify_fraction_formula(t1, t0)
