"""Built-in fixtures: small table knots, the twist-region tangle family,
and the symmetric-union specs exercised by the test suite and the CLI.

Marked-arc positions and the handedness of the twist family are frozen
here after a one-time calibration. Each box's attachment orientation
follows from the partial's faces, but the twist family's handedness is a
mirror ambiguity that combinatorial input cannot settle, so the three
trivial-Alexander unions were matched against independently tabulated
Jones polynomials (exact, all terms). The pinned values live in
JONES_PINNED; scripts/calibrate_corpus.py rederives the choices from
scratch. Everything else in this module follows from those choices.
"""

from __future__ import annotations

from .construct import SymUnionSpec
from .diagram import PlanarDiagram, parse_pd
from .poly import LaurentPoly
from .tangle import (
    Tangle,
    kt_tangle,
    numerator,
    rational_tangle,
    vertical_stack,
    vertical_twists,
)


TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
FIGURE_EIGHT = parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")
FIVE_TWO = numerator(rational_tangle([1, 1, 3]))

KT_TANGLE_3 = kt_tangle(3)
KT_TANGLE_4 = kt_tangle(4)

# Unknot diagrams with 5 and 7 crossings; the two halves of every union
# in the kt family below.
KT_PARTIAL_3 = numerator(KT_TANGLE_3)
KT_PARTIAL_4 = numerator(KT_TANGLE_4)


SPEC_FIXTURES: dict[str, SymUnionSpec] = {
    # 12 crossings, trivial Alexander polynomial; the classical example of
    # an 11-crossing knot invisible to the Alexander polynomial.
    "kt_knot": SymUnionSpec(KT_PARTIAL_3, (5, 1), (vertical_twists(2),)),
    # One, two, and three kt-tangle regions over unknot partials. Each has
    # trivial Alexander polynomial; their Jones polynomials are pinned.
    "kt_union_1": SymUnionSpec(KT_PARTIAL_3, (5, 8), (KT_TANGLE_3,)),
    "kt_union_2": SymUnionSpec(KT_PARTIAL_3, (5, 8, 1), (KT_TANGLE_3, KT_TANGLE_3)),
    "kt_union_3": SymUnionSpec(
        KT_PARTIAL_4, (6, 1, 9, 10), (KT_TANGLE_3, KT_TANGLE_3, KT_TANGLE_3)
    ),
    # Two rational regions over a trefoil partial, and the same knot with
    # the two tangles stacked into a single region. Both give the identical
    # Alexander polynomial (and in fact the same Jones polynomial).
    "trefoil_union_2": SymUnionSpec(
        TREFOIL, (1, 3, 4), (rational_tangle([1, 1, 1]), rational_tangle([1, 1, 2]))
    ),
    "trefoil_union_merged": SymUnionSpec(
        TREFOIL,
        (1, 3),
        (vertical_stack(rational_tangle([1, 1, 1]), rational_tangle([1, 1, 2])),),
    ),
    # One figure-eight-numerator region over a figure-eight partial; the
    # Alexander polynomial is the cube of the figure-eight polynomial.
    "fig8_union_1": SymUnionSpec(FIGURE_EIGHT, (1, 4), (rational_tangle([1, 1, 2]),)),
}

DIAGRAM_FIXTURES: dict[str, PlanarDiagram] = {
    "trefoil": TREFOIL,
    "figure8": FIGURE_EIGHT,
    "5_2": FIVE_TWO,
    "kt_partial_3": KT_PARTIAL_3,
    "kt_partial_4": KT_PARTIAL_4,
}

TANGLE_FIXTURES: dict[str, Tangle] = {
    "kt_tangle_3": KT_TANGLE_3,
    "kt_tangle_4": KT_TANGLE_4,
}


# Frozen reference polynomials. Alexander values are in the centered
# normalized form produced by normalize_alexander; Jones values are exact
# coefficient maps in t.
ALEXANDER_PINNED: dict[str, LaurentPoly] = {
    "trefoil": LaurentPoly({-1: 1, 0: -1, 1: 1}),
    "figure8": LaurentPoly({-1: -1, 0: 3, 1: -1}),
    "5_2": LaurentPoly({-1: 2, 0: -3, 1: 2}),
    "kt_knot": LaurentPoly.one(),
    "kt_union_1": LaurentPoly.one(),
    "kt_union_2": LaurentPoly.one(),
    "kt_union_3": LaurentPoly.one(),
    "trefoil_union_2": LaurentPoly(
        {-4: -1, -3: 6, -2: -16, -1: 28, 0: -33, 1: 28, 2: -16, 3: 6, 4: -1}
    ),
    "trefoil_union_merged": LaurentPoly(
        {-4: -1, -3: 6, -2: -16, -1: 28, 0: -33, 1: 28, 2: -16, 3: 6, 4: -1}
    ),
    "fig8_union_1": LaurentPoly(
        {-3: -1, -2: 9, -1: -30, 0: 45, 1: -30, 2: 9, 3: -1}
    ),
}

JONES_PINNED: dict[str, LaurentPoly] = {
    "kt_union_1": LaurentPoly(
        {-5: 1, -4: -3, -3: 5, -2: -6, -1: 5, 0: -2, 2: 3, 3: -5, 4: 6, 5: -5,
         6: 3, 7: -1}
    ),
    "kt_union_2": LaurentPoly(
        {-6: 1, -5: -3, -4: 5, -3: -5, -2: 1, -1: 5, 0: -10, 1: 14, 2: -13,
         3: 9, 4: -2, 5: -5, 6: 10, 7: -11, 8: 8, 9: -4, 10: 1}
    ),
    "kt_union_3": LaurentPoly(
        {-9: 1, -8: -4, -7: 10, -6: -16, -5: 15, -3: -31, -2: 66, -1: -87,
         0: 77, 1: -29, 2: -40, 3: 108, 4: -148, 5: 146, 6: -102, 7: 33,
         8: 34, 9: -77, 10: 86, 11: -69, 12: 42, 13: -19, 14: 6, 15: -1}
    ),
}
