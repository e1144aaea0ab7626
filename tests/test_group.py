import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import abelianization_rank, parse_word, unknot
from symunion.construct import build_symmetric_union
from symunion.corpus import SPEC_FIXTURES
from symunion.diagram import NoCrossings, PlanarDiagram, parse_pd
from symunion.group import (
    MissingMetadata,
    apply_map,
    build_epimorphism,
    canonical_relator_key,
    exponent_sum,
    free_reduce,
    inverse_word,
    longitude_word,
    meridian_image,
    verify_homomorphism,
    verify_surjective,
    wirtinger,
    word_text,
)
from symunion.tangle import numerator, rational_tangle, vertical_stack

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"


def words(alphabet="xyz", max_size=24):
    letter = st.tuples(st.sampled_from(list(alphabet)), st.sampled_from((1, -1)))
    return st.lists(letter, max_size=max_size).map(tuple)


def test_free_reduce_examples():
    assert free_reduce((("x", 1), ("x", -1))) == ()
    assert free_reduce((("x", 1), ("y", 1), ("y", -1), ("x", 1))) == (
        ("x", 1),
        ("x", 1),
    )
    # image of a difference word and its partner collapses entirely
    assert free_reduce((("x", 1), ("y", 1), ("y", -1), ("x", -1))) == ()


@given(words())
@settings(max_examples=80)
def test_free_reduce_properties(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert len(r) <= len(w)
    assert exponent_sum(r) == exponent_sum(w)
    assert free_reduce(w + inverse_word(w)) == ()


@given(words(max_size=10), st.integers(0, 9))
@settings(max_examples=60)
def test_canonical_key_invariance(w, k):
    r = free_reduce(w)
    if not r:
        assert canonical_relator_key(w) == ()
        return
    k = k % len(r)
    rotated = r[k:] + r[:k]
    assert canonical_relator_key(rotated) == canonical_relator_key(r)
    assert canonical_relator_key(inverse_word(r)) == canonical_relator_key(r)


@given(words())
@settings(max_examples=40)
def test_word_text_round_trip(w):
    assert parse_word(word_text(w)) == w


def test_wirtinger_trefoil():
    p = wirtinger(parse_pd(TREFOIL))
    assert len(p.generators) == 3
    assert len(p.relators) == 3
    assert all(len(r) == 4 for r in p.relators)
    assert p.meridian == p.generators[p.arc_of_edge[1]]
    assert abelianization_rank(p) == 2


def test_wirtinger_figure_eight():
    p = wirtinger(parse_pd(FIG8))
    assert len(p.generators) == 4
    assert len(p.relators) == 4
    assert abelianization_rank(p) == 3


def test_wirtinger_composite_rank():
    s = numerator(vertical_stack(rational_tangle([3]), rational_tangle([1, 1, 2])))
    p = wirtinger(s)
    assert len(p.generators) == 7
    assert abelianization_rank(p) == 6


def test_wirtinger_relator_shape():
    p = wirtinger(parse_pd(TREFOIL))
    for r in p.relators:
        (u, eu), (o1, e1), (v, ev), (o2, e2) = r
        assert eu == 1 and ev == -1
        assert o1 == o2 and e1 == -e2


def test_wirtinger_needs_crossings():
    with pytest.raises(NoCrossings):
        wirtinger(unknot())


def test_identity_map_verifies():
    p = wirtinger(parse_pd(TREFOIL))
    ident = {g: ((g, 1),) for g in p.generators}
    rep = verify_homomorphism(ident, p, p)
    assert rep.passed
    assert verify_surjective(ident, p)
    assert meridian_image(ident, p) == ((p.meridian, 1),)


def test_corrupted_map_fails():
    p = wirtinger(parse_pd(TREFOIL))
    g0, g1, g2 = p.generators
    bad = {g0: ((g1, 1),), g1: ((g1, 1),), g2: ((g1, 1),)}
    # collapsing everything to one generator still satisfies the relators,
    # but misses surjectivity
    assert not verify_surjective(bad, p)
    # an inconsistent target assignment breaks a relator image
    twisted = {g0: ((g0, 1), (g1, 1)), g1: ((g1, 1),), g2: ((g2, 1),)}
    rep = verify_homomorphism(twisted, p, p)
    assert not rep.passed
    assert any(not c.passed for c in rep.checks)


def test_apply_map_handles_inverses():
    phi = {"a": (("x", 1), ("y", 1))}
    assert apply_map(phi, (("a", -1),)) == (("y", -1), ("x", -1))
    with pytest.raises(ValueError):
        apply_map(phi, (("b", 1),))


def test_partial_map_reported():
    p = wirtinger(parse_pd(TREFOIL))
    rep = verify_homomorphism({}, p, p)
    assert not rep.passed
    assert not rep.checks[0].passed


def test_an_arc_folding_onto_two_partial_arcs_is_refused():
    # the corpus union rebuilt with one edge of a long arc folded onto a
    # partial edge on another arc than the rest of that arc
    k = build_symmetric_union(SPEC_FIXTURES["trefoil_union_2"])
    khat = wirtinger(k.meta.spec.partial)
    assert build_epimorphism(k, khat)
    first, second, *_ = next(arc for arc in wirtinger(k).arcs if len(arc) > 1)
    target = khat.arc_of_edge[k.meta.fold[second - 1]]
    other = next(e for e, arc in khat.arc_of_edge.items() if arc != target)
    fold = list(k.meta.fold)
    fold[first - 1] = other
    bad = PlanarDiagram(
        k.crossings, k.over_from_d, labels=k.labels,
        meta=dataclasses.replace(k.meta, fold=tuple(fold)),
    )
    with pytest.raises(MissingMetadata, match=r"arc \d+ folds onto several targets"):
        build_epimorphism(bad, khat)


def test_the_longitude_needs_the_axis_labels():
    with pytest.raises(MissingMetadata, match="no edge labeled a0"):
        longitude_word(parse_pd(TREFOIL))


def test_the_fold_needs_the_construction_metadata():
    d = parse_pd(TREFOIL)
    with pytest.raises(MissingMetadata, match="no construction metadata"):
        build_epimorphism(d, wirtinger(d))
