"""The Kauffman bracket as the plain sum over all 2^n states: the oracle the
tests hold symunion's frontier state sum against."""

from symunion.invariant import TooLarge
from symunion.poly import LaurentPoly

NAIVE_LIMIT = 16


def bracket_naive(d):
    """Bracket polynomial in A of a diagram with 1 to NAIVE_LIMIT
    crossings (free loops excluded, as in kauffman_bracket). Each state's
    loops are counted by union-find over the crossing slots, node 4i + s
    for slot s of crossing i."""
    n = len(d.crossings)
    if n > NAIVE_LIMIT:
        raise TooLarge(f"naive bracket limited to {NAIVE_LIMIT} crossings")
    edges = [(k, m) for k, m in enumerate(d.mates) if k < m]
    tally: dict[tuple[int, int], int] = {}  # (power of A, loops) -> states
    for mask in range(1 << n):
        parent = list(range(4 * n))

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        loops = 0
        exp = 0
        joins = list(edges)
        for i in range(n):
            a_smooth = not (mask >> i) & 1
            exp += 1 if a_smooth else -1
            pairs = ((0, 1), (2, 3)) if a_smooth else ((0, 3), (1, 2))
            joins += [(4 * i + s, 4 * i + t) for s, t in pairs]
        for p, q in joins:
            rp, rq = find(p), find(q)
            if rp == rq:
                loops += 1
            else:
                parent[rp] = rq
        tally[exp, loops] = tally.get((exp, loops), 0) + 1
    # every state of a diagram with a crossing closes at least one loop, and
    # the bracket counts all but one: <D> = sum A^exp delta^(loops - 1)
    delta = LaurentPoly({2: -1, -2: -1})
    total = LaurentPoly.zero()
    for (exp, loops), count in tally.items():
        total = total + LaurentPoly.term(count, exp) * delta ** (loops - 1)
    return total
