"""The built-in fixtures keep the shapes and polynomial pins they were
frozen with."""

import random
import time

import pytest

import helpers
from helpers import RANDOM_SPEC_DRAWS, TANGLE_POOL, random_spec
from symunion import corpus
from symunion.construct import NotPlanarInsertion, build_symmetric_union
from symunion.diagram import validate_planarity
from symunion.group import wirtinger
from symunion.invariant import alexander_fox, alexander_region, jones
from symunion.poly import normalize_alexander
from symunion.tangle import is_even_type, numerator


EXPECTED_CROSSINGS = {
    "kt_knot": 12,
    "kt_union_1": 15,
    "kt_union_2": 20,
    "kt_union_3": 29,
    "trefoil_union_2": 13,
    "trefoil_union_merged": 13,
    "fig8_union_1": 12,
}


@pytest.fixture(scope="module")
def built():
    return {
        name: build_symmetric_union(spec)
        for name, spec in corpus.SPEC_FIXTURES.items()
    }


class TestSpecFixtures:
    def test_every_spec_builds_a_knot(self, built):
        for name, k in built.items():
            assert k.component_count() == 1, name
            validate_planarity(k)

    def test_crossing_counts(self, built):
        for name, k in built.items():
            assert len(k.crossings) == EXPECTED_CROSSINGS[name], name

    def test_alexander_pins(self, built):
        for name, k in built.items():
            got = normalize_alexander(alexander_region(k), knot=True)
            assert got == corpus.ALEXANDER_PINNED[name], name

    def test_jones_pins_exact(self, built):
        for name, want in corpus.JONES_PINNED.items():
            assert jones(built[name]) == want, name

    def test_merged_pair_is_the_same_knot(self, built):
        a = built["trefoil_union_2"]
        b = built["trefoil_union_merged"]
        assert jones(a) == jones(b)


class TestDiagramFixtures:
    def test_validate_and_pins(self):
        for name, d in corpus.DIAGRAM_FIXTURES.items():
            validate_planarity(d)
            assert d.component_count() == 1, name
            if name in corpus.ALEXANDER_PINNED:
                got = normalize_alexander(alexander_region(d), knot=True)
                assert got == corpus.ALEXANDER_PINNED[name], name

    def test_partials_are_unknot_diagrams(self):
        for name in ("kt_partial_3", "kt_partial_4"):
            d = corpus.DIAGRAM_FIXTURES[name]
            assert alexander_region(d).text() == "1"
            assert normalize_alexander(
                alexander_fox(wirtinger(d))
            ).text() == "1"


class TestTangleFixtures:
    def test_even_type(self):
        for name, t in corpus.TANGLE_FIXTURES.items():
            assert is_even_type(t), name

    def test_numerator_closures_are_trivial(self):
        for t in corpus.TANGLE_FIXTURES.values():
            assert alexander_region(numerator(t)).text() == "1"

    def test_pool_tangles_are_even(self):
        for t in TANGLE_POOL:
            assert is_even_type(t)


class TestRandomSpec:
    def test_deterministic_for_a_seed(self):
        a = random_spec(random.Random(7))
        b = random_spec(random.Random(7))
        assert a.marked_arcs == b.marked_arcs
        assert a.partial.crossings == b.partial.crossings

    def test_specs_build(self):
        rng = random.Random(99)
        for _ in range(8):
            spec = random_spec(rng)
            k = build_symmetric_union(spec)
            assert k.component_count() == 1
            assert len(spec.partial.crossings) <= 6
            assert all(len(t.crossings) <= 4 for t in spec.tangles)

    def test_a_builder_that_refuses_every_marking_stops_the_draws(self, monkeypatch):
        """A fault that makes the builder refuse every insertion fails
        within a second, naming the partial and the tangle count, instead
        of drawing markings forever."""
        builds = []

        def refuse(spec):
            builds.append(spec)
            raise NotPlanarInsertion("refused")

        monkeypatch.setattr(helpers, "build_symmetric_union", refuse)
        t0 = time.process_time()
        with pytest.raises(RuntimeError, match=r"PARTIAL_POOL\[\d\] \(\d+ crossings\) embeds [123] tangles"):
            random_spec(random.Random(7))
        assert time.process_time() - t0 < 1
        assert 0 < len(builds) <= RANDOM_SPEC_DRAWS
