#!/usr/bin/env python3
"""Pin the output of `symunion verify --format doc` on the corpus.

For each of the 7 corpus specs the pin file holds the exit status of
`symunion verify <spec> --format doc` and its output, line by line, as the
CLI writes it: all four certificates, every report's checks and details,
no timings. The output is meant to stay byte-identical across refactors,
so any change to a union's assembly, a polynomial or a word shows up here.

    python scripts/pin_verify_docs.py    # write tests/data/verify_docs.json

The tier-1 test test_verify_documents_match_the_pin_file compares
documents() with the file.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from symunion import corpus  # noqa: E402
from symunion.cli import main as cli_main  # noqa: E402
from symunion.construct import to_spec_doc  # noqa: E402

PIN_FILE = ROOT / "tests" / "data" / "verify_docs.json"


def verify_doc(spec) -> dict:
    """The exit status and the output lines of `verify --format doc` on
    spec, run through the CLI on a spec document written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "spec.json", Path(tmp) / "verify.json"
        path.write_text(json.dumps(to_spec_doc(spec)))
        status = cli_main(["verify", str(path), "--format", "doc", "-o", str(out)])
        return {"exit": status, "lines": out.read_text().split("\n")}


def documents() -> dict:
    return {name: verify_doc(spec) for name, spec in sorted(corpus.SPEC_FIXTURES.items())}


def main() -> int:
    PIN_FILE.parent.mkdir(exist_ok=True)
    PIN_FILE.write_text(json.dumps(documents(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
