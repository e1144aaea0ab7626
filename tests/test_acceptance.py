"""Acceptance gate: one test per shipped claim, with pinned values and
pinned time budgets. Every assertion here is exact; no tolerances.

Polynomial reading notes for the pinned Jones values (kt_union_1 and
kt_union_3): the tabulated source value for kt_union_1 writes its
degree-five term in a stray variable, read here as -5*t^5, and contains
no degree-one term; the computed coefficient of t^1 is asserted to be 0
below. The kt_union_3 value likewise has no t^-4 term. No global mirror
(t to 1/t) is applied anywhere: the builder's calibrated conventions
reproduce the pinned values as they stand.
"""

import random
import time

import pytest

from helpers import build_all_zero_replacement, glued_pair, is_monic, random_spec, rotate_pi
from symunion import corpus
from symunion.construct import (
    NotEvenType,
    SymUnionSpec,
    build_symmetric_union,
)
from symunion.group import (
    build_epimorphism,
    certify_epimorphism,
    longitude_word,
    verify_homomorphism,
    verify_longitude_trivial,
    wirtinger,
)
from symunion.invariant import (
    alexander_fox,
    alexander_region,
    jones,
    verify_fraction_formula,
    verify_product_formula,
)
from symunion.poly import LaurentPoly, normalize_alexander
from symunion.tangle import (
    kt_tangle,
    numerator,
    rational_tangle,
    vertical_twists,
)


FIG8_DELTA = LaurentPoly({-1: -1, 0: 3, 1: -1})


@pytest.fixture(scope="module")
def random_specs():
    rng = random.Random(8151)
    return [random_spec(rng) for _ in range(50)]


@pytest.fixture(scope="module")
def all_specs(random_specs):
    return list(corpus.SPEC_FIXTURES.values()) + random_specs


def timed(budget, fn, *args, **kwargs):
    t0 = time.monotonic()
    out = fn(*args, **kwargs)
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"{fn.__name__} took {elapsed:.1f}s, budget {budget}s"
    return out


def test_criterion_1_pinned_alexander_values():
    for name in ("kt_union_1", "kt_union_2", "kt_union_3"):
        k = build_symmetric_union(corpus.SPEC_FIXTURES[name])
        delta = timed(10, alexander_region, k)
        assert delta == LaurentPoly.one(), name

    ke = build_symmetric_union(corpus.SPEC_FIXTURES["fig8_union_1"])
    delta = timed(10, alexander_region, ke)
    cube = normalize_alexander(FIG8_DELTA * FIG8_DELTA * FIG8_DELTA, knot=True)
    assert delta == cube

    rep = timed(10, verify_product_formula, corpus.SPEC_FIXTURES["fig8_union_1"])
    assert rep.passed
    assert rep.data["numerator factor 1"] == FIG8_DELTA.text()
    assert rep.data["partial factor"] == FIG8_DELTA.text()

    assert is_monic(LaurentPoly({-1: 1, 0: -1, 1: 1}))
    assert not is_monic(LaurentPoly({0: 2, 1: -3, 2: 2}))


def test_criterion_2_pinned_jones_values():
    budgets = {"kt_union_1": 5, "kt_union_2": 30, "kt_union_3": 300}
    for name, budget in budgets.items():
        k = build_symmetric_union(corpus.SPEC_FIXTURES[name])
        v = timed(budget, jones, k)
        assert v == corpus.JONES_PINNED[name], name
    assert corpus.JONES_PINNED["kt_union_1"].coeff(1) == 0
    assert corpus.JONES_PINNED["kt_union_1"].coeff(5) == -5
    assert corpus.JONES_PINNED["kt_union_3"].coeff(-4) == 0


def test_criterion_3_zero_replacement_kills_alexander(all_specs):
    t0 = time.monotonic()
    for spec in all_specs:
        flat = build_all_zero_replacement(spec)
        assert flat.component_count() == len(spec.tangles) + 1
        assert alexander_region(flat).is_zero()
    assert time.monotonic() - t0 < 60


def test_criterion_4_product_formula_everywhere(all_specs):
    t0 = time.monotonic()
    for spec in all_specs:
        rep = verify_product_formula(spec)
        assert rep.passed, rep.human()
        # the verifier compares both routes on the union; cover the factor
        # diagrams too
        for d in [spec.partial] + [numerator(t) for t in spec.tangles]:
            region = normalize_alexander(alexander_region(d), knot=True)
            fox = normalize_alexander(alexander_fox(wirtinger(d)), knot=True)
            assert region == fox
    assert time.monotonic() - t0 < 300


def test_criterion_5_epimorphism_certificates(all_specs):
    t0 = time.monotonic()
    for spec in all_specs:
        rep = certify_epimorphism(spec)
        assert rep.passed, rep.human()
        assert rep.data["length after reduction"] == "0"
    assert time.monotonic() - t0 < 60


def test_criterion_6_fraction_formula_pairs():
    kt3 = kt_tangle(3)
    pairs = [
        # the one-region union over the five-crossing unknot partial,
        # decomposed at its tangle box
        (rotate_pi(kt3), glued_pair(corpus.KT_PARTIAL_3, 5, 8)),
        (rotate_pi(vertical_twists(2)), glued_pair(corpus.KT_PARTIAL_3, 5, 1)),
        (rotate_pi(rational_tangle([1, 1, 2])), glued_pair(corpus.FIGURE_EIGHT, 1, 4)),
        (rotate_pi(rational_tangle([1, 1, 1])), glued_pair(corpus.TREFOIL, 1, 3)),
        # crossingless tangles: the vertical one turns the sum into a
        # connected sum of the partial with its mirror image, the
        # horizontal one splits it
        (vertical_twists(0), glued_pair(corpus.TREFOIL, 1, 3)),
        (rational_tangle([]), glued_pair(corpus.TREFOIL, 1, 3)),
    ]
    assert len(pairs) >= 5
    for i, (t1, t0) in enumerate(pairs):
        rep = verify_fraction_formula(t1, t0)
        assert rep.passed, f"pair {i}: {rep.human()}"


def test_criterion_7_negative_controls():
    spec = corpus.SPEC_FIXTURES["kt_union_1"]
    k = build_symmetric_union(spec)
    src = wirtinger(k)
    dst = wirtinger(spec.partial)
    phi = build_epimorphism(k, dst)

    wrong = dict(phi)
    victim = next(g for g in src.generators if len(src.generators) > 1)
    other = next(
        t for t in dst.generators if ((t, 1),) != wrong[victim]
    )
    wrong[victim] = ((other, 1),)
    assert not verify_homomorphism(wrong, src, dst).passed

    meridian_word = ((src.meridian, 1),)
    assert not verify_longitude_trivial(phi, meridian_word).passed

    with pytest.raises(NotEvenType):
        build_symmetric_union(
            SymUnionSpec(corpus.TREFOIL, (1, 3), (rational_tangle([2]),))
        )


def test_note_merged_regions_share_the_alexander_polynomial():
    a = build_symmetric_union(corpus.SPEC_FIXTURES["trefoil_union_2"])
    b = build_symmetric_union(corpus.SPEC_FIXTURES["trefoil_union_merged"])
    pa = normalize_alexander(alexander_region(a), knot=True)
    pb = normalize_alexander(alexander_region(b), knot=True)
    assert pa == pb
    assert pa == normalize_alexander(alexander_fox(wirtinger(a)), knot=True)
    assert pb == normalize_alexander(alexander_fox(wirtinger(b)), knot=True)
