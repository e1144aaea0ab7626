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
jones(k), the Kauffman-bracket sweep, of region 1's two complement
closures for the fraction certificate, taken both ways: read off the
built union with box 1 contracted to one vertex, with one phase 1
(invariant.complement_closures), and from a rebuild and a region-route
determinant each (helpers.complement_by_rebuild), and of all four
certificates on the member (cli.verify_reports, as `symunion verify`
runs them). It exits 1 unless both routes give the polynomial the
product formula predicts, Delta(partial)^2 prod Delta(N(kt(m))), unless
|V(-1)| = |Delta(-1)|, both the knot's determinant, and V(w) = 1 at the
third root of unity w and V(i) = (-1)^Arf with Arf read off Delta(-1)
mod 8, so that the bracket is checked at every size the script runs,
unless the two ways give the same complement closures, unless every
certificate's report passes, and unless the zero-replacement lemma's
report, read off the union, gives the components of the zero
replacement's rebuild (helpers.build_all_zero_replacement) and
Delta = 0, as the rebuild's region-route polynomial does, and unless the
member, which build_symmetric_union assembles by pairing darts, has the
document and metadata of the reference assembly by provisional edge ids
(helpers.assemble_by_ids).

With --torus it runs both routes on the wide family too: the torus knots
T(p, p + 1) as p-strand braid closures (helpers.torus_closure), whose
Fox matrices keep few two-row columns. For each p it prints the
crossings, the best of --repeat process times of each route and each
route's k/B and phase seconds, and exits 1 unless both routes give the
closed form of Delta(T(p, p + 1)) (helpers.torus_alexander). --m runs
by default only when --torus is not given.

    python scripts/alexander_scaling.py --m 6 12 25 --repeat 3
    python scripts/alexander_scaling.py --torus 8 14 20
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))  # the family, the reference routes

from helpers import (  # noqa: E402
    PARTIAL_12,
    assemble_by_ids,
    build_all_zero_replacement,
    complement_by_rebuild,
    jones_at_roots_of_unity,
    kt_member,
    torus_alexander,
    torus_closure,
)
from symunion import invariant, poly  # noqa: E402
from symunion.cli import verify_reports  # noqa: E402
from symunion.diagram import to_doc  # noqa: E402
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
    """The process seconds of region 1's two complement closures read off
    the union and from two rebuilds, and whether they agree."""
    t0 = time.process_time()
    closure = complement_closures(k, 1)
    got = [closure(h) for h in (False, True)]
    t1 = time.process_time()
    want = [complement_by_rebuild(k, 1, h) for h in (False, True)]
    return t1 - t0, time.process_time() - t1, got == want


def same_as_the_reference(k) -> bool:
    """Whether the reference assembly of k's spec at k's bits gives k's
    document and metadata."""
    ref = assemble_by_ids(k.meta.spec, k.meta.attach_bits)
    return to_doc(ref) == to_doc(k) and ref.meta == k.meta


def certificates(k) -> tuple[float, bool]:
    """The process seconds of every certificate on k, and whether all of
    their reports pass and the lemma's, the first, matches the rebuild."""
    t0 = time.process_time()
    reports = verify_reports(k)
    seconds = time.process_time() - t0
    flat = build_all_zero_replacement(k)
    lemma = reports[0].data
    same = lemma["components"] == str(flat.component_count())
    same = same and lemma["alexander of replacement"] == alexander_region(flat).text() == "0"
    return seconds, same and all(r.passed for r in reports)


def scaling_family(ms, repeat: int) -> int:
    """Print one row per kt twist parameter m; the number of rows that
    fail their checks."""
    half = alexander_region(PARTIAL_12)
    failures = 0
    print("crossings     m   region_s      fox_s  region k/B  phase1_s  phase2_s"
          "   fox k/B  phase1_s  phase2_s   jones_s  compl_s  rebuilt_s  verify_s  ok")
    for m in ms:
        k = kt_member(m)
        want = half * half
        for t in k.meta.spec.tangles:
            want = want * alexander_region(numerator(t))
        want = normalize_alexander(want, knot=True)
        rrows, frows = region_rows(k), fox_rows(k)
        t_region, d_region = best_time(rrows, repeat)
        t_fox, d_fox = best_time(frows, repeat)
        t0 = time.process_time()
        v = jones(k)
        t_jones = time.process_time() - t0
        ok = normalize_alexander(d_region, knot=True) == normalize_alexander(d_fox, knot=True) == want
        ok = ok and abs(v.evaluate(-1)) == abs(want.evaluate(-1))
        ok = ok and jones_at_roots_of_unity(v, want.evaluate(-1))
        t_one, t_two, same = complements(k)
        t_verify, passed = certificates(k)
        ok = ok and same and passed and same_as_the_reference(k)
        failures += not ok
        (kr, br, r1, r2), (kf, bf, f1, f2) = phases(rrows), phases(frows)
        print(f"{len(k.crossings):9} {m:5} {t_region:10.3f} {t_fox:10.3f} "
              f"{kr:5}/{br:<5} {r1:9.3f} {r2:9.3f} {kf:4}/{bf:<5} {f1:9.3f} {f2:9.3f} "
              f"{t_jones:9.3f} {t_one:8.3f} {t_two:10.3f} {t_verify:9.3f}  {'yes' if ok else 'NO'}")
    return failures


def wide_family(ps, repeat: int) -> int:
    """Print one row per torus knot T(p, p + 1); the number of rows whose
    routes do not both give the closed form."""
    failures = 0
    print("  p  crossings   region_s      fox_s  region k/B  phase1_s  phase2_s"
          "   fox k/B  phase1_s  phase2_s  ok")
    for p in ps:
        d = torus_closure(p)
        rrows, frows = region_rows(d), fox_rows(d)
        t_region, d_region = best_time(rrows, repeat)
        t_fox, d_fox = best_time(frows, repeat)
        ok = (normalize_alexander(d_region, knot=True) == normalize_alexander(d_fox, knot=True)
              == torus_alexander(p))
        failures += not ok
        (kr, br, r1, r2), (kf, bf, f1, f2) = phases(rrows), phases(frows)
        print(f"{p:3} {len(d.crossings):10} {t_region:10.3f} {t_fox:10.3f} "
              f"{kr:5}/{br:<5} {r1:9.3f} {r2:9.3f} {kf:4}/{bf:<5} {f1:9.3f} {f2:9.3f}  "
              f"{'yes' if ok else 'NO'}")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--m", type=int, nargs="+",
                    help="kt twist parameters to run (default: 68 to 1,620 crossings, "
                         "unless --torus is given)")
    ap.add_argument("--torus", type=int, nargs="+", default=[],
                    help="braid strands p of the torus knots T(p, p + 1) to run")
    ap.add_argument("--repeat", type=int, default=3, help="best of this many runs")
    args = ap.parse_args()
    if args.m is None:
        args.m = [] if args.torus else [6, 12, 25, 50, 100, 200]

    failures = scaling_family(args.m, args.repeat) if args.m else 0
    if args.torus:
        failures += wide_family(args.torus, args.repeat)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
