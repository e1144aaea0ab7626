"""Helpers only the tests use: a display layout for Alexander polynomials,
a parser for the text form of free-group words, and the rank of a
presentation's abelianization."""

from fractions import Fraction

from symunion.group import GroupWord, WirtingerPresentation
from symunion.poly import LaurentPoly


def display_form(p: LaurentPoly) -> LaurentPoly:
    """Shift so the lowest exponent is 0; the table-friendly layout."""
    if p.is_zero():
        return p
    return p.shift(-p.min_exp())


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
