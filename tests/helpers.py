"""Helpers only the tests use: a display layout for Alexander polynomials,
a parser for the text form of free-group words, the rank of a
presentation's abelianization, the exhaustive attachment search the
builder's pruned search is checked against, and dense matrices as the
sparse rows det_laurent takes."""

import itertools
from fractions import Fraction

from symunion import construct
from symunion.diagram import PlanarDiagram
from symunion.group import GroupWord, WirtingerPresentation
from symunion.poly import LaurentPoly


def display_form(p: LaurentPoly) -> LaurentPoly:
    """Shift so the lowest exponent is 0; the table-friendly layout."""
    if p.is_zero():
        return p
    return p.shift(-p.min_exp())


def sparse(rows) -> list[dict[int, LaurentPoly]]:
    """A dense matrix (a list of rows) as sparse rows: column -> nonzero
    entry."""
    return [{j: p for j, p in enumerate(row) if p} for row in rows]


def parse_word(text: str) -> GroupWord:
    """The inverse of group.word_text."""
    out = []
    for tok in text.split():
        if tok.endswith("^-1"):
            out.append((tok[:-3], -1))
        else:
            out.append((tok, 1))
    return tuple(out)


def abelianization_rank(p: WirtingerPresentation) -> int:
    """Rank over the rationals of the relators' exponent-sum matrix."""
    idx = {g: j for j, g in enumerate(p.generators)}
    rows = []
    for r in p.relators:
        row = [Fraction(0)] * len(p.generators)
        for g, e in r:
            row[idx[g]] += e
        rows.append(row)
    rank = 0
    col = 0
    n = len(p.generators)
    while rank < len(rows) and col < n:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def exhaustive_build(spec: construct.SymUnionSpec) -> PlanarDiagram:
    """The union built by trying every attachment vector in product order,
    preferred bit first, and keeping the first that embeds; the oracle for
    construct.build_symmetric_union's pruned search."""
    construct._validate_inputs(spec, require_even=True)
    order = (construct._ATTACH_BIT, 1 - construct._ATTACH_BIT)
    first_err = None
    for bits in itertools.product(order, repeat=len(spec.tangles)):
        try:
            return construct._assemble_with_bits(spec, bits, require_knot=True)
        except construct.NotPlanarInsertion as exc:
            if first_err is None:
                first_err = exc
    raise first_err
