#!/usr/bin/env python3
"""Pin the documents of built unions and of their rebuilds.

For each of the 7 corpus unions the pin file holds the union's document
(`to_doc`) with its attachment bits, the same for its zero replacement,
and for each tangle region the two complements the fraction check
rebuilds: the crossingless vertical tangle (denominator side) and the
crossingless horizontal tangle (numerator side) in that region's box.
For 25 unions drawn by `random_spec(random.Random(2026))` it holds the
sha256 digest of the same documents. Edge numbering, labels and component
starts are all part of a document, so any change to how a union is
assembled shows up here. The unions come from `build_symmetric_union`,
which pairs darts; the zero replacements and complements from the
rebuilds in `tests/helpers.py` (`_rebuild`), which go through the
reference assembly by provisional edge ids (`assemble_by_ids`), so one
pin file holds the output of both assemblies.

    python scripts/pin_union_docs.py    # write tests/data/union_docs.json

The tier-1 test test_union_documents_match_the_pin_file compares
documents() with the file.
"""

import hashlib
import json
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # random_spec lives with the tests

from helpers import _rebuild, build_all_zero_replacement, random_spec  # noqa: E402

from symunion import corpus  # noqa: E402
from symunion.construct import build_symmetric_union, expect_knot  # noqa: E402
from symunion.diagram import to_doc  # noqa: E402
from symunion.tangle import rational_tangle, vertical_twists  # noqa: E402

PIN_FILE = ROOT / "tests" / "data" / "union_docs.json"
RANDOM_SEED = 2026
RANDOM_COUNT = 25


def _doc(d) -> dict:
    return {**to_doc(d), "attach_bits": list(d.meta.attach_bits)}


def union_docs(spec) -> dict:
    """The documents of the union spec builds, its zero replacement and
    both complements at every region."""
    k = build_symmetric_union(spec)
    regions = {}
    for i in range(1, len(spec.tangles) + 1):
        regions[str(i)] = {
            "denominator": _doc(expect_knot(_rebuild(k, {i: vertical_twists(0)}))),
            "numerator": _doc(_rebuild(k, {i: rational_tangle([])})),
        }
    return {
        "union": _doc(k),
        "zero": _doc(build_all_zero_replacement(k)),
        "complements": regions,
    }


def _digest(docs: dict) -> str:
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def documents() -> dict:
    rng = random.Random(RANDOM_SEED)
    return {
        "corpus": {
            name: union_docs(spec) for name, spec in sorted(corpus.SPEC_FIXTURES.items())
        },
        "random_sha256": [_digest(union_docs(random_spec(rng))) for _ in range(RANDOM_COUNT)],
    }


def main() -> int:
    PIN_FILE.parent.mkdir(exist_ok=True)
    text = json.dumps(documents(), indent=1, sort_keys=True)
    # one line per list of numbers: a crossing, the bits, the starts
    text = re.sub(r"\[[-\d,\s]*\]", lambda m: " ".join(m.group().split()), text)
    PIN_FILE.write_text(text + "\n")
    print(f"wrote {PIN_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
