#!/usr/bin/env python3
"""Time and check the Jones polynomial on wide partials: the torus knots
T(p, p + 1), each drawn as the closure of the p-strand braid
(s_1 ... s_(p-1))^(p+1) (helpers.torus_closure), (p - 1)(p + 1) crossings.
Cutting such a closure leaves 2p open strands, so the bracket sweep keeps
up to Catalan(p) states, where the kt family keeps a few dozen.

For each p the script prints the crossings, the sweep's units before and
after the merge of four-slot pairs joined by two edges
(helpers.merged_units), the peak number of states the sweep holds after a
unit, the state-steps (the states summed over the units), the process
seconds of one jones(d) and those seconds in microseconds per state-step.
The counts are read from the sweep's comparison with
invariant._STATE_LIMIT (helpers.StateTally). It exits 1 if the merge
joins any units, as the peak guard counts on single-crossing units. It
also exits 1 unless the peak is at most Catalan(p), which a sweep order
that keeps the frontier at 2p open edges reaches, unless V(1) = 1,
V(w) = 1 at the third root of unity w and V(i) = (-1)^Arf with Arf read
off the determinant Delta(-1) (helpers.jones_at_roots_of_unity), and
unless V is the mirror image of the closed form of V(T(p, p + 1))
(helpers.torus_jones).

Then it runs the long boxes: the T(9, 10) partial with two kt(m) boxes
(helpers.wide_union) at m = 3, 100 and 400, 170, 558 and 1,758
crossings, whose long box weights every state of the mirror half
carries. For each m it prints the crossings, the units before and after
the merge, the peak states and the process seconds of one jones(d). It
exits 1 unless m = 3 and m = 100 give V(1) = 1 and pass the checks at
the roots of unity, and unless m = 400 is refused with TooLarge, whose
message names the states and the packed bits each holds against both
limits. There is no timing gate.

    python scripts/jones_wide.py --p 4 5 6 7 8
"""

import argparse
import math
import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))  # the builder and checks

from helpers import (  # noqa: E402
    StateTally,
    jones_at_roots_of_unity,
    merged_units,
    torus_closure,
    torus_jones,
    wide_union,
)
from symunion import invariant  # noqa: E402
from symunion.invariant import TooLarge, alexander_region, jones  # noqa: E402

# (m, whether jones(d) finishes) of each long-box union wide_union(9, m)
LONG_BOXES = ((3, True), (100, True), (400, False))


def long_boxes() -> int:
    """Print one row per long-box union; the number of rows that fail."""
    failures = 0
    limit = invariant._STATE_LIMIT
    refusal = re.compile(
        rf"reaches \d+ states of at most \d+ packed bits each; "
        rf"limits are {limit} states and {invariant._BIT_LIMIT} bits$"
    )
    print("  p      m  crossings  boxes/units  peak_states   jones_s  ok")
    for m, finishes in LONG_BOXES:
        d = wide_union(9, m)
        boxes, units = len(invariant._boxes(d)), len(merged_units(d)[0])
        invariant._STATE_LIMIT = tally = StateTally(limit)
        t0 = time.process_time()
        try:
            v = jones(d)
        except TooLarge as e:
            v, refused = None, str(e)
        finally:
            invariant._STATE_LIMIT = limit
        t_jones = time.process_time() - t0
        if v is None:
            ok = not finishes and refusal.search(refused) is not None
            note = f"refused: {refused}"
        else:
            ok = finishes and v.evaluate(1) == 1
            ok = ok and jones_at_roots_of_unity(v, alexander_region(d).evaluate(-1))
            note = ""
        failures += not ok
        print(f"{9:3} {m:6} {len(d.crossings):10} {boxes:6}/{units:<5} {max(tally.counts):12} "
              f"{t_jones:9.3f}  {'yes' if ok else 'NO'}  {note}".rstrip())
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--p", type=int, nargs="+", default=[4, 5, 6, 7, 8, 9],
                    help="braid strands p of T(p, p + 1) to run (default: 4 to 9)")
    args = ap.parse_args()

    failures = 0
    limit = invariant._STATE_LIMIT
    print("  p  crossings  boxes/units  peak_states  state_steps   jones_s  us_per_step  ok")
    for p in args.p:
        d = torus_closure(p)
        boxes, units = len(invariant._boxes(d)), len(merged_units(d)[0])
        invariant._STATE_LIMIT = tally = StateTally(limit)
        try:
            t0 = time.process_time()
            v = jones(d)
            t_jones = time.process_time() - t0
        finally:
            invariant._STATE_LIMIT = limit
        det = alexander_region(d).evaluate(-1)
        peak, steps = max(tally.counts), sum(tally.counts)
        ok = (
            units == boxes
            and peak <= math.comb(2 * p, p) // (p + 1)
            and v.evaluate(1) == 1
            and jones_at_roots_of_unity(v, det)
            and v == torus_jones(p)
        )
        failures += not ok
        print(f"{p:3} {len(d.crossings):10} {boxes:6}/{units:<5} {peak:12} {steps:12} {t_jones:9.3f} "
              f"{1e6 * t_jones / steps:12.2f}  {'yes' if ok else 'NO'}")
    failures += long_boxes()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
