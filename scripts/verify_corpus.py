#!/usr/bin/env python3
"""Run every verification over every corpus spec and print a summary.

Drives the same pipeline as ``symunion verify``: each union is built
once, then the zero-replacement vanishing check, the product formula with
its two polynomial routes, the fold-down epimorphism certificate, and the
per-region fraction decomposition run against it. Exits nonzero if
anything fails.
"""

import sys
import time

from symunion import corpus
from symunion.cli import verify_reports


def main() -> int:
    failures = 0
    t_start = time.time()
    for name, spec in sorted(corpus.SPEC_FIXTURES.items()):
        t0 = time.time()
        reports = verify_reports(spec)
        elapsed = time.time() - t0
        failures += 0 if all(r.passed for r in reports) else 1
        print(f"{name} ({elapsed:.2f}s)")
        for r in reports:
            print(f"  [{'PASS' if r.passed else 'FAIL'}] {r.title}")

    print(f"\n{len(corpus.SPEC_FIXTURES)} specs in {time.time() - t_start:.1f}s, "
          f"{failures} with failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
