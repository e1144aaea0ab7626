#!/usr/bin/env python3
"""Pin the Jones polynomials of the benchmark's scaling-family pool.

The pool (`perfbench/golden/pools.json`, key "family") holds 16 variants
of each of the four members kt(m) x n, from 15 to 68 crossings. For each
variant the pin file holds `jones(union).text()`, so the bracket's state
sum is checked byte for byte at every member's size, including the 68
crossings where the benchmark's golden file records no value.

    python scripts/pin_jones.py    # write tests/data/jones_pins.json

The tier-1 test test_jones_matches_the_pin_file compares pins() with the
file.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # the pool's unions live with the tests

from helpers import FAMILY_POOL, pool_variant  # noqa: E402

from symunion.invariant import jones  # noqa: E402

PIN_FILE = ROOT / "tests" / "data" / "jones_pins.json"


def pins() -> dict[str, str]:
    return {key: jones(pool_variant(key)).text() for key in sorted(FAMILY_POOL)}


def main() -> int:
    PIN_FILE.parent.mkdir(exist_ok=True)
    PIN_FILE.write_text(json.dumps(pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
