import json
import random

import pytest

from helpers import build_all_zero_replacement, circle_chain, renumber_edges, unknot
from symunion import corpus, diagram
from symunion.diagram import (
    Crossing,
    DisconnectedDiagram,
    InconsistentEdges,
    MalformedPD,
    NotPlanar,
    OrientationError,
    PlanarDiagram,
    faces,
    is_head,
    mirror,
    orient_ends,
    pair_ends,
    parse_pd,
    to_doc,
    to_text,
    validate_planarity,
    writhe,
)
from symunion.construct import build_symmetric_union
from symunion.corpus import SPEC_FIXTURES
from symunion.tangle import (
    OrientationMismatch,
    Tangle,
    TangleError,
    horizontal_twists,
    numerator,
    parse_tangle,
    rational_tangle,
    to_tangle_doc,
    vertical_stack,
)

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
KINK_NEG = "X[1,2,2,1]"
KINK_POS = "X[1,1,2,2]"


@pytest.fixture
def trefoil():
    return parse_pd(TREFOIL)


@pytest.fixture
def fig8():
    return parse_pd(FIG8)


def test_parse_trefoil(trefoil):
    assert len(trefoil.crossings) == 3
    assert trefoil.edge_count == 6
    assert len(trefoil.components) == 1
    assert trefoil.component_starts == (1,)
    # this presentation is the left-handed trefoil: every crossing negative
    assert trefoil.signs == (-1, -1, -1)
    assert writhe(trefoil) == -3
    # edges were numbered along the strand
    assert trefoil.components == ((1, 2, 3, 4, 5, 6),)


def test_parse_figure_eight(fig8):
    assert len(fig8.crossings) == 4
    assert sorted(fig8.signs) == [-1, -1, 1, 1]
    assert writhe(fig8) == 0
    assert len(fig8.components) == 1


def test_face_counts(trefoil, fig8):
    assert len(set(faces(trefoil.mates))) == 5
    assert len(set(faces(fig8.mates))) == 6


def test_negative_kink():
    d = parse_pd(KINK_NEG)
    assert writhe(d) == -1
    fs = faces(d.mates)
    assert len(set(fs)) == 3
    # one region is bounded by a single edge-side, that is, has one corner
    assert sorted(fs.count(f) for f in set(fs)) == [1, 1, 2]


def test_positive_kink():
    # both ends of each edge meet the same crossing; that is a legal
    # Reidemeister-1 kink, the mirror of X[1,2,2,1]
    d = parse_pd(KINK_POS)
    assert writhe(d) == +1
    assert len(set(faces(d.mates))) == 3
    assert d.component_count() == 1


@pytest.mark.parametrize(
    "text",
    [
        "X[1,1,1,2]",  # id 1 three times
        "X[1,4,2,5] X[3,6,4,1]",  # ids 2,3,5,6 appear once
        "X[1,2,3,7] X[3,1,2,7]",  # 7 outside 1..2c
    ],
)
def test_edge_multiplicity_rejected(text):
    with pytest.raises(InconsistentEdges):
        parse_pd(text)


@pytest.mark.parametrize("text", ["", "trefoil", "X[1,2,3]", "X[1 2 3 4]"])
def test_malformed_text_rejected(text):
    with pytest.raises(MalformedPD):
        parse_pd(text)


def test_unorientable_rejected():
    # edge 1 would need two heads (under-in at both crossings)
    with pytest.raises(OrientationError):
        parse_pd("X[1,3,2,4] X[1,4,2,3]")


def test_wrong_flags_rejected(trefoil):
    with pytest.raises(OrientationError):
        PlanarDiagram(trefoil.crossings, (True, True, True))


def test_torus_projection_fails_euler_check():
    d = parse_pd("X[1,2,1,2]")
    assert len(set(faces(d.mates))) != 3
    with pytest.raises(NotPlanar):
        validate_planarity(d)


def test_planarity_of_fixtures(trefoil, fig8):
    validate_planarity(trefoil)
    validate_planarity(fig8)
    validate_planarity(parse_pd(KINK_NEG))
    validate_planarity(unknot())


def test_disconnected_flagged(trefoil):
    d = PlanarDiagram(trefoil.crossings, trefoil.over_from_d, free_loops=1)
    assert not d.connected
    assert d.component_count() == 2
    with pytest.raises(DisconnectedDiagram):
        validate_planarity(d)


def test_face_partition(trefoil, fig8):
    def before(k):  # the corner before dart k, counterclockwise
        return k - 1 if k & 3 else k + 3

    for d in (trefoil, fig8, parse_pd(KINK_NEG), parse_pd(KINK_POS)):
        fs = faces(d.mates)
        # every corner has a face, and there are c + 2 faces
        assert len(fs) == 4 * len(d.crossings)
        assert set(fs) == set(range(len(d.crossings) + 2))
        # every edge has one face on each side: the two corners beside one
        # end of it see the faces the corners beside its other end see,
        # swapped, and the two differ
        for k, m in enumerate(d.mates):
            assert (fs[k], fs[before(k)]) == (fs[before(m)], fs[m])
            assert fs[k] != fs[before(k)]


def test_mirror_negates_writhe(trefoil, fig8):
    for d in (trefoil, fig8):
        m = mirror(d)
        assert writhe(m) == -writhe(d)
        assert mirror(m) == d
        validate_planarity(m)


def test_mirror_hands_over_the_mates_of_its_crossings(trefoil, fig8):
    # slots b and d trade places, so the mates mirror hands over are those
    # its edge ids pair
    unions = [build_symmetric_union(spec) for spec in SPEC_FIXTURES.values()]
    for d in [trefoil, fig8, numerator(rational_tangle([2, 1, 3])), *unions]:
        m = mirror(d)
        assert m.mates == pair_ends([e for x in m.crossings for e in x])


def test_renumber_identity(trefoil):
    assert renumber_edges(trefoil, start_edge=1) == trefoil


def test_renumber_rotates_strand(trefoil):
    d = renumber_edges(trefoil, start_edge=3)
    assert d.component_starts == (1,)
    assert sorted(e for x in d.crossings for e in x) == sorted(
        e for x in trefoil.crossings for e in x
    )
    assert d.signs == trefoil.signs


def test_text_round_trip(trefoil, fig8):
    for d in (trefoil, fig8, parse_pd(KINK_NEG), parse_pd(KINK_POS)):
        assert parse_pd(to_text(d)) == d


def test_text_form_rejects_loops():
    with pytest.raises(ValueError):
        to_text(unknot())


def test_doc_round_trip(trefoil):
    labels = {1: "a0", 4: "s1_1"}
    labeled = PlanarDiagram(trefoil.crossings, trefoil.over_from_d, labels=labels)
    doc = to_doc(labeled)
    assert doc["component_starts"] == [1]
    again = parse_pd(json.loads(json.dumps(doc)))
    assert again == labeled
    assert again.labels[4] == "s1_1"


def test_doc_json_text(trefoil):
    assert parse_pd(json.dumps(to_doc(trefoil))) == trefoil


def test_doc_free_loops():
    doc = to_doc(unknot())
    assert doc == {"crossings": [], "free_loops": 1}
    d = parse_pd(doc)
    assert d == unknot()


def test_label_on_unknown_edge(trefoil):
    with pytest.raises(MalformedPD):
        PlanarDiagram(trefoil.crossings, trefoil.over_from_d, labels={99: "a0"})


def test_unknot_basics():
    u = unknot()
    assert u.component_count() == 1
    assert u.connected
    assert writhe(u) == 0
    assert faces(u.mates) == ()


def test_connected_sum_counts():
    # a connected sum is the numerator closure of a vertical stack
    a, b = rational_tangle([3]), rational_tangle([1, 1, 2])
    s = numerator(vertical_stack(a, b))
    assert len(s.crossings) == 7
    assert s.component_count() == 1
    assert writhe(s) == writhe(numerator(a)) + writhe(numerator(b))
    validate_planarity(s)
    # edge ids renumbered along the strand
    assert sorted(e for x in s.crossings for e in x) == sorted(
        list(range(1, 15)) * 2
    )


def test_from_tuples_matches_parse(trefoil):
    rows = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
    built = PlanarDiagram(tuple(Crossing(*row) for row in rows))
    assert built == trefoil
    assert built.crossings[0] == Crossing(1, 4, 2, 5)


def test_meta_ignored_by_equality(trefoil):
    assert PlanarDiagram(trefoil.crossings, trefoil.over_from_d, meta=("anything",)) == trefoil


# each case pins the exception the dict-based count of edge ends raised,
# including the ids a list index would take differently (off the range,
# negative, bool, str); an edge-id error comes before the flags and flows
# are checked or resolved
TREFOIL_ROWS = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
TREFOIL_FLAGS = (False, False, False)
OPEN_PAIR = [(1, "in"), (1, "out"), (2, "in"), (2, "out")]


@pytest.mark.parametrize(
    "rows, flags, n, corners, error",
    [
        (TREFOIL_ROWS, TREFOIL_FLAGS, 6, (), None),
        ([(1, 4, 2, 7)] + TREFOIL_ROWS[1:], TREFOIL_FLAGS, 6, (), InconsistentEdges),
        ([(0, 4, 2, 5)] + TREFOIL_ROWS[1:], TREFOIL_FLAGS, 6, (), InconsistentEdges),
        ([(False, 4, 2, 5)] + TREFOIL_ROWS[1:], TREFOIL_FLAGS, 6, (), InconsistentEdges),
        ([(True, 4, 2, 5)] + TREFOIL_ROWS[1:], TREFOIL_FLAGS, 6, (), None),
        ([("1", 4, 2, 5)] + TREFOIL_ROWS[1:], TREFOIL_FLAGS, 6, (), InconsistentEdges),
        # edge 2 with one end, edge 6 with three
        ([(1, 4, 6, 5)] + TREFOIL_ROWS[1:], TREFOIL_FLAGS, 6, (), InconsistentEdges),
        (TREFOIL_ROWS, (True, True, True), 6, (), OrientationError),
        ((), (), 2, OPEN_PAIR, None),
        ((), (), 2, OPEN_PAIR[:3] + [(99, "out")], InconsistentEdges),
        ((), (), 2, OPEN_PAIR[:3] + [(-1, "out")], InconsistentEdges),
        ((), (), 2, OPEN_PAIR[:3] + [(0, "out")], InconsistentEdges),
        ((), (), 2, OPEN_PAIR[:3] + [("2", "out")], InconsistentEdges),
        ((), (), 2, [(True, "in")] + OPEN_PAIR[1:], None),
        ((), (), 2, [(1, "out")] + OPEN_PAIR[1:], OrientationError),
    ],
)
def test_check_ends_raises_as_before(rows, flags, n, corners, error):
    xs = [Crossing(*row) for row in rows]
    if error is None:
        orient_ends(xs, flags, n, corners)
    else:
        with pytest.raises(error):
            orient_ends(xs, flags, n, corners)
    if error is InconsistentEdges:
        with pytest.raises(error):
            orient_ends(xs, None, n, [(e, None) for e, _ in corners])


TREFOIL_MATES = (7, 6, 9, 8, 11, 10, 1, 0, 3, 2, 5, 4)


# The trefoil's pairing handed to the constructor with one defect, on
# rows whose edge ids pair the ends the same way: both routes raise the
# same exception with the same message.
@pytest.mark.parametrize(
    "defect, rows, error, message",
    [
        (
            {0: 0, 7: 7},
            [(1, 4, 2, 5), (3, 6, 4, 4), (5, 2, 6, 3)],
            InconsistentEdges,
            "edge 1 has 1 ends, expected 2",
        ),
        (
            {7: 1},
            [(1, 1, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)],
            InconsistentEdges,
            "edge 1 has 3 ends, expected 2",
        ),
        (
            {0: 1, 1: 0, 6: 7, 7: 6},
            [(1, 1, 2, 5), (3, 6, 4, 4), (5, 2, 6, 3)],
            OrientationError,
            "edge 1 has 2 heads and 0 tails",
        ),
    ],
    ids=["fixed point", "not an involution", "two heads"],
)
def test_a_handed_pairing_is_refused_as_its_edge_ids_are(defect, rows, error, message):
    assert TREFOIL_MATES == pair_ends([e for row in TREFOIL_ROWS for e in row])
    mates = [defect.get(k, m) for k, m in enumerate(TREFOIL_MATES)]
    PlanarDiagram(tuple(Crossing(*row) for row in TREFOIL_ROWS), TREFOIL_FLAGS, mates=TREFOIL_MATES)
    xs = tuple(Crossing(*row) for row in rows)
    with pytest.raises(error, match=f"^{message}$"):
        PlanarDiagram(xs, TREFOIL_FLAGS)
    with pytest.raises(error, match=f"^{message}$"):
        PlanarDiagram(xs, TREFOIL_FLAGS, mates=tuple(mates))


def test_a_handed_pairing_of_ends_of_other_edges_is_refused():
    """Partners of darts 0 and 4 swapped on the trefoil rows: still an
    involution with one head and one tail per pair, but the mates would
    walk other faces and strands than the edge ids read."""
    xs = tuple(Crossing(*row) for row in TREFOIL_ROWS)
    mates = list(TREFOIL_MATES)
    mates[0], mates[4], mates[7], mates[11] = 11, 7, 4, 0
    with pytest.raises(InconsistentEdges, match="^end 0 of edge 1 is paired with edge 3$"):
        PlanarDiagram(xs, TREFOIL_FLAGS, mates=tuple(mates))


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 7)],  # 7 for 3
        [(1, 4, 2, 5), (1, 6, 4, 1), (5, 2, 6, 1)],  # 1 for 3: four ends
    ],
    ids=["outside 1..6", "four ends"],
)
def test_a_handed_pairing_needs_the_edge_ids_1_to_n(rows):
    # the mates pair ends of one id on these rows, as on the trefoil's
    xs = tuple(Crossing(*row) for row in rows)
    with pytest.raises(InconsistentEdges, match="^edge ids are not exactly 1..6$"):
        PlanarDiagram(xs, TREFOIL_FLAGS, mates=TREFOIL_MATES)


def test_a_handed_pairing_of_the_wrong_size_or_range_is_refused():
    xs = tuple(Crossing(*row) for row in TREFOIL_ROWS)
    with pytest.raises(InconsistentEdges, match="^11 mates for 12 edge ends$"):
        PlanarDiagram(xs, TREFOIL_FLAGS, mates=TREFOIL_MATES[:-1])
    with pytest.raises(InconsistentEdges, match="^edge 1 has 3 ends, expected 2$"):
        PlanarDiagram(xs, TREFOIL_FLAGS, mates=(12, *TREFOIL_MATES[1:]))


def test_a_tangle_checks_its_handed_pairing():
    t = horizontal_twists(1)  # heads at slots a and d of its one crossing
    args = (t.crossings, t.over_from_d, dict(t.boundary), dict(t.flows))
    assert Tangle(*args, mates=t.mates).mates == t.mates
    with pytest.raises(TangleError, match="^edge 3 has 1 ends, expected 2$"):
        Tangle(*args, mates=(0, *t.mates[1:]))
    two_heads = list(t.mates)
    a, d = t.mates[0], t.mates[3]
    two_heads[0], two_heads[3], two_heads[a], two_heads[d] = 3, 0, d, a
    with pytest.raises(TangleError, match="^end 0 of edge 3 is paired with edge 1$"):
        Tangle(*args, mates=tuple(two_heads))
    # ids that pair the ends as two_heads does: edge 1 at slots a and d,
    # edge 3 at NW and SW
    xs, boundary = (Crossing(1, 4, 2, 1),), {"NW": 3, "NE": 2, "SW": 3, "SE": 4}
    for mates in (None, tuple(two_heads)):
        with pytest.raises(OrientationMismatch, match="^edge 1 has 2 heads and 0 tails$"):
            Tangle(xs, t.over_from_d, boundary, dict(t.flows), mates=mates)


# The first circle of circle_chain(3) passes over at both of its crossings,
# so no under slot orients it: orient_ends falls back on the edge
# numbering at crossing 0, over slots b and d, with n = 8 edges. Each
# relabeling takes one branch of that rule.
@pytest.mark.parametrize(
    "perm, flags",
    [
        ((3, 7, 1, 8, 2, 4, 5, 6), (True, False, True, False)),
        ((3, 7, 1, 6, 2, 4, 5, 8), (False, True, True, False)),
        ((3, 6, 5, 2, 1, 4, 7, 8), (False, True, True, False)),
    ],
    ids=["b follows d", "d follows b", "neither"],
)
def test_orientation_fallback_follows_the_numbering(perm, flags):
    xs = [Crossing(*(perm[e - 1] for e in x)) for x in circle_chain(3).crossings]
    b, d = xs[0].b, xs[0].d
    if (b - d) % 8 == 1:
        assert flags[0]
    elif (d - b) % 8 == 1:
        assert not flags[0]
    else:
        assert flags[0] == (b > d)
    assert orient_ends(xs, None, 8)[:2] == (flags, ())
    assert PlanarDiagram(tuple(xs)).over_from_d == flags
    PlanarDiagram(tuple(xs), flags)


def _unflowed(doc):
    return {k: v for k, v in doc.items() if k != "flows"}


@pytest.mark.parametrize(
    "parse, source",
    [
        (parse_pd, TREFOIL),
        (parse_pd, json.dumps({"crossings": TREFOIL_ROWS, "free_loops": 0})),
        (parse_pd, {"crossings": TREFOIL_ROWS, "labels": {"1": "a0"}}),
        (parse_tangle, to_tangle_doc(rational_tangle([1, 1, 2]))),
        (parse_tangle, _unflowed(to_tangle_doc(rational_tangle([1, 1, 2])))),
    ],
    ids=["pd text", "pd json", "pd document", "tangle", "tangle without flows"],
)
def test_parsing_pairs_the_ends_once(parse, source, monkeypatch):
    calls = []
    real = diagram.pair_ends

    def counted(ids):
        calls.append(ids)
        return real(ids)

    monkeypatch.setattr(diagram, "pair_ends", counted)
    parsed = parse(source)
    assert len(calls) == 1
    # the parsed value keeps those mates: reading them pairs nothing again
    assert parsed.mates == real(calls[0])
    assert len(calls) == 1


def test_the_head_table_holds_a_head_dart_of_each_edge():
    """On every parsed fixture, entry e - 1 of the head table is a head
    dart (is_head) whose slot carries edge id e."""
    sources = [TREFOIL, KINK_NEG, KINK_POS]
    sources += [to_doc(d) for d in corpus.DIAGRAM_FIXTURES.values()]
    sources += [to_doc(build_symmetric_union(s)) for s in SPEC_FIXTURES.values()]
    for d in map(parse_pd, sources):
        assert len(d.heads) == d.edge_count
        for e, k in enumerate(d.heads, start=1):
            assert is_head(k, d.over_from_d)
            assert d.crossings[k >> 2][k & 3] == e


def test_renumber_walks_the_start_component_then_the_rest_by_lowest_id():
    flat = build_all_zero_replacement(SPEC_FIXTURES["kt_union_3"])  # 4 components
    ids = list(range(1, flat.edge_count + 1))
    random.Random(3).shuffle(ids)
    d = PlanarDiagram(
        tuple(Crossing(*(ids[e - 1] for e in x)) for x in flat.crossings), flat.over_from_d
    )
    start = d.components[2][1]
    comps = sorted(d.components, key=lambda c: (start not in c, min(c)))
    k = comps[0].index(start)
    order = [e for c in [comps[0][k:] + comps[0][:k]] + comps[1:] for e in c]
    want = {e: j for j, e in enumerate(order, start=1)}
    got = renumber_edges(d, start_edge=start)
    assert got.crossings == tuple(Crossing(*(want[e] for e in x)) for x in d.crossings)
    with pytest.raises(ValueError):
        renumber_edges(d, start_edge=d.edge_count + 1)
