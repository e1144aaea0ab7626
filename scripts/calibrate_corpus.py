#!/usr/bin/env python3
"""Rederive the frozen corpus calibration from the pinned Jones values.

The builder reads each box's attachment orientation off the partial's
faces, but the twist family has a mirror ambiguity that combinatorial
input does not settle. The corpus freezes one handedness and one
placement per fixture. This script shows the choices are forced by the
pins:

  * default run: every pinned fixture is rebuilt and compared with its
    pinned Jones value, and the mirror image of each union is shown to
    produce the t -> 1/t image instead (so the opposite handedness
    convention would not reproduce the pins);
  * --full additionally reruns the marked-arc sweeps, listing every
    placement that reproduces each pin exactly, and fails if a frozen
    placement is not among them.

Exits 1 if any check fails.
"""

import argparse
import itertools
import sys
import time

from symunion import corpus
from symunion.construct import (
    NotPlanarInsertion,
    SymUnionSpec,
    build_symmetric_union,
)
from symunion.diagram import mirror
from symunion.group import wirtinger
from symunion.invariant import jones
from symunion.tangle import kt_tangle


def check_frozen() -> bool:
    ok = True
    for name, want in sorted(corpus.JONES_PINNED.items()):
        spec = corpus.SPEC_FIXTURES[name]
        k = build_symmetric_union(spec)
        got = jones(k)
        exact = got == want
        mirrored = jones(mirror(k)) == want.inverted()
        ok &= exact and mirrored
        print(
            f"{name}: marked {spec.marked_arcs} "
            f"bits {k.meta.attach_bits} "
            f"pin {'exact' if exact else 'MISMATCH'}, "
            f"mirror image gives the inverted pin: {mirrored}"
        )
    return ok


def sweep(name: str) -> bool:
    spec = corpus.SPEC_FIXTURES[name]
    want = corpus.JONES_PINNED[name]
    part = spec.partial
    tangles = spec.tangles
    n = len(tangles)
    arcs = wirtinger(part).arc_of_edge
    edges = sorted(arcs)
    hits = []
    t0 = time.time()
    built = 0
    for e0 in edges:
        rest = [e for e in edges if e != e0 and arcs[e] != arcs[e0]]
        for combo in itertools.combinations(rest, n):
            if len({arcs[e] for e in combo}) < n:
                continue
            ms = (e0,) + combo
            try:
                k = build_symmetric_union(SymUnionSpec(part, ms, tangles))
            except NotPlanarInsertion:
                continue
            built += 1
            if jones(k) == want:
                hits.append((ms, k.meta.attach_bits))
    print(f"\n{name}: {built} placements built in {time.time() - t0:.1f}s, "
          f"{len(hits)} reproduce the pin exactly:")
    for ms, bits in hits:
        star = " <- frozen" if ms == spec.marked_arcs else ""
        print(f"  marked {ms} bits {bits}{star}")
    frozen_hit = any(
        set(ms) == set(spec.marked_arcs) and ms[0] == spec.marked_arcs[0]
        for ms, _ in hits
    )
    if not frozen_hit:
        print("  frozen choice not among the hits")
    return frozen_hit


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--full", action="store_true",
                    help="rerun the marked-arc sweeps (a few seconds)")
    args = ap.parse_args()

    print("twist family:", kt_tangle(3).pairing(), "pairing,",
          len(kt_tangle(3).crossings), "crossings")
    ok = check_frozen()
    if args.full:
        for name in sorted(corpus.JONES_PINNED):
            ok &= sweep(name)
    if not ok:
        print("\ncalibration check FAILED", file=sys.stderr)
        return 1
    print("\ncalibration check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
