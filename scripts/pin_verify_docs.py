#!/usr/bin/env python3
"""Pin the output of `symunion verify --format doc` on the corpus and on
unions where a certificate takes a special case.

For each of the 7 corpus specs the pin file holds the exit status of
`symunion verify <spec> --format doc` and its output, line by line, as the
CLI writes it: all four certificates, every report's checks and details,
no timings. It holds the same for trefoil_union_2 with both boxes holding
the crossingless tangle {"rational": "inf"}, and for the scaling-family
pool variants x15/v10, x47/v03 and x47/v08 (keys "<variant>/all"), where
the axis edge and a marked edge cut the partial in two, so the zero
replacement is a split diagram. On x15/v10 and x47/v03 that marked edge is
region 1's (W = E, so the numerator closure of the complement is split),
and the file also holds the output of `verify --fraction --format doc` on
them (keys "<variant>"). The output is meant to stay byte-identical
across refactors, so any change to a union's assembly, a polynomial or a
word shows up here.

    python scripts/pin_verify_docs.py    # write tests/data/verify_docs.json

The tier-1 test test_verify_documents_match_the_pin_file compares
documents() with the file.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # pool_variant lives with the tests

from helpers import pool_variant  # noqa: E402

from symunion import corpus  # noqa: E402
from symunion.cli import main as cli_main  # noqa: E402
from symunion.construct import SymUnionSpec, to_spec_doc  # noqa: E402
from symunion.tangle import rational_tangle  # noqa: E402

PIN_FILE = ROOT / "tests" / "data" / "verify_docs.json"


def verify_doc(spec, *certificates: str) -> dict:
    """The exit status and the output lines of `verify --format doc` on
    spec, run through the CLI on a spec document written to a file, with
    the certificate options given (none: all four)."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "spec.json", Path(tmp) / "verify.json"
        path.write_text(json.dumps(to_spec_doc(spec)))
        status = cli_main(["verify", str(path), *certificates, "--format", "doc", "-o", str(out)])
        return {"exit": status, "lines": out.read_text().split("\n")}


def documents() -> dict:
    docs = {name: verify_doc(spec) for name, spec in corpus.SPEC_FIXTURES.items()}
    base = corpus.SPEC_FIXTURES["trefoil_union_2"]
    inf = (rational_tangle("inf"),) * len(base.tangles)
    docs["trefoil_union_2/inf"] = verify_doc(SymUnionSpec(base.partial, base.marked_arcs, inf))
    for key in ("x15/v10", "x47/v03"):
        docs[key] = verify_doc(pool_variant(key).meta.spec, "--fraction")
    for key in ("x15/v10", "x47/v03", "x47/v08"):
        docs[f"{key}/all"] = verify_doc(pool_variant(key).meta.spec)
    return docs


def main() -> int:
    PIN_FILE.parent.mkdir(exist_ok=True)
    PIN_FILE.write_text(json.dumps(documents(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
