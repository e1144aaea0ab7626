#!/usr/bin/env python3
"""Time the two Alexander routes and the Jones polynomial on the scaling
family and check them.

The family member for m carries kt(m) x 4 over the 12-crossing rational
knot N([2,2,2,2,2,1,1]), 24 + 4(2m - 1) crossings, built by
helpers.kt_member, which the tests share.

For each m the script prints the crossings, the best of --repeat process
times of the region-route and Fox-route determinants, and for each route
the size k of the block left once no unit pivot remains, the packing
width B of that block, and the process seconds of one run of each phase:
phase 1 (the unit pivots, poly._unit_pivots) and phase 2 (the block's
Bareiss, poly._block_det). Then come the process seconds of one
jones(k), the Kauffman-bracket sweep, and of region 1's two complement
closures for the fraction certificate, taken both ways: from one rebuild
and one phase 1 (invariant.complement_closures) and from a rebuild
and a region-route determinant each (helpers.complement_by_rebuild). It
exits 1 unless both routes give the polynomial the product formula
predicts, Delta(partial)^2 prod Delta(N(kt(m))), unless |V(-1)| =
|Delta(-1)|, both the knot's determinant, and V(w) = 1 at the third root
of unity w and V(i) = (-1)^Arf with Arf read off Delta(-1) mod 8, so that
the bracket is checked at every size the script runs, and unless the two
ways give the same complement closures.

    python scripts/alexander_scaling.py --m 6 12 25 --repeat 3
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))  # the family, the reference routes

from helpers import (  # noqa: E402
    PARTIAL_12,
    complement_by_rebuild,
    jones_at_roots_of_unity,
    kt_member,
)
from symunion import invariant, poly  # noqa: E402
from symunion.group import presentation  # noqa: E402
from symunion.invariant import (  # noqa: E402
    alexander_region,
    complement_closures,
    flanking_faces,
    fox_jacobian,
    jones,
    reduced,
)
from symunion.poly import det_laurent, normalize_alexander  # noqa: E402
from symunion.tangle import numerator  # noqa: E402


def region_rows(k):
    return reduced(invariant.region_matrix(k), flanking_faces(k, 1))


def fox_rows(k):
    w = presentation(k)
    n = len(w.generators)
    return [{j: p for j, p in row.items() if j < n - 1} for row in fox_jacobian(w)[: n - 1]]


def best_time(rows, repeat: int):
    best, value = None, None
    for _ in range(repeat):
        t0 = time.process_time()
        value = det_laurent(rows)
        dt = time.process_time() - t0
        best = dt if best is None else min(best, dt)
    return best, value


def phases(rows) -> tuple[int, int, float, float]:
    """The size k of the block left after the unit pivots and its width B
    (0 and 0 when no block is left), and the process seconds of phase 1
    and of phase 2 (0 when no block is left)."""
    t0 = time.process_time()
    found = poly._unit_pivots(rows, None)
    t1 = time.process_time()
    if found is None or not found[2]:
        return 0, 0, t1 - t0, 0.0
    block = found[2]
    poly._block_det(block, None)
    return len(block), poly._block_width(block), t1 - t0, time.process_time() - t1


def complements(k) -> tuple[float, float, bool]:
    """The process seconds of region 1's two complement closures from one
    phase 1 and from two rebuilds, and whether they agree."""
    t0 = time.process_time()
    closure = complement_closures(k, 1)
    got = [closure(h) for h in (False, True)]
    t1 = time.process_time()
    want = [complement_by_rebuild(k, 1, h) for h in (False, True)]
    return t1 - t0, time.process_time() - t1, got == want


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--m", type=int, nargs="+", default=[6, 12, 25, 50, 100, 200],
                    help="kt twist parameters to run (default: 68 to 1,620 crossings)")
    ap.add_argument("--repeat", type=int, default=3, help="best of this many runs")
    args = ap.parse_args()

    half = alexander_region(PARTIAL_12)
    failures = 0
    print("crossings     m   region_s      fox_s  region k/B  phase1_s  phase2_s"
          "   fox k/B  phase1_s  phase2_s   jones_s  compl_s  rebuilt_s  ok")
    for m in args.m:
        k = kt_member(m)
        want = half * half
        for t in k.meta.spec.tangles:
            want = want * alexander_region(numerator(t))
        want = normalize_alexander(want, knot=True)
        rrows, frows = region_rows(k), fox_rows(k)
        t_region, d_region = best_time(rrows, args.repeat)
        t_fox, d_fox = best_time(frows, args.repeat)
        t0 = time.process_time()
        v = jones(k)
        t_jones = time.process_time() - t0
        ok = normalize_alexander(d_region, knot=True) == normalize_alexander(d_fox, knot=True) == want
        ok = ok and abs(v.evaluate(-1)) == abs(want.evaluate(-1))
        ok = ok and jones_at_roots_of_unity(v, want.evaluate(-1))
        t_one, t_two, same = complements(k)
        ok = ok and same
        failures += not ok
        (kr, br, r1, r2), (kf, bf, f1, f2) = phases(rrows), phases(frows)
        print(f"{len(k.crossings):9} {m:5} {t_region:10.3f} {t_fox:10.3f} "
              f"{kr:5}/{br:<5} {r1:9.3f} {r2:9.3f} {kf:4}/{bf:<5} {f1:9.3f} {f2:9.3f} "
              f"{t_jones:9.3f} {t_one:8.3f} {t_two:10.3f}  {'yes' if ok else 'NO'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
