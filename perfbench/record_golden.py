"""Draw the input pools and record the golden outputs of the benchmark.

    python3 perfbench/record_golden.py

Writes, under perfbench/golden/:

pools.json      the scaling-family pool (FAMILY_POOL variants per member)
                and the random-union pool (RANDOM_POOL per stratum), each
                entry with its op times (Jones and Alexander for a family
                variant), the fastest of three runs in calibrated seconds,
                which the seed's stratified pick sorts by;
verify.json     ``verify --format doc`` of every corpus spec;
alexander.json  ``invariants --alexander --format doc`` and
jones.json      ``invariants --jones --format doc`` of every family
                variant; a refused op is recorded as null.

Run it only on a commit whose outputs are trusted: they become the
reference every later commit is checked against byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _run(cli_main, argv: list[str]) -> tuple[str | None, float]:
    """(output or None if refused, fastest of three calibrated times)."""
    best = float("inf")
    for _ in range(3):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc, took = calibrate.timed(lambda: cli_main(argv))
        best = min(best, took)
        if rc not in (0, 3):
            raise RuntimeError(f"{argv}: exit {rc}: {err.getvalue()}")
    return (out.getvalue() if rc == 0 else None), best


def _write(name: str, doc: dict) -> None:
    with open(workloads.GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import symunion as su
    from symunion.cli import main as cli_main

    calibrate.install()
    calibrate.warm_up()

    pools: dict[str, dict] = {"family": {}, "random": {}}
    golden: dict[str, dict] = {"verify": {}, "alexander": {}, "jones": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = Path(tmp) / "doc.json"
        for name in workloads.CORPUS_SPECS:
            cli_main(["fixtures", name, "-o", str(path)])
            golden["verify"][name], _ = _run(cli_main, ["verify", str(path), "--format", "doc"])
        for c, n in workloads.STRATA:
            for k in range(workloads.RANDOM_POOL):
                entry = workloads.draw_random_union(su, c, n, k)
                spec = workloads.random_union_spec(su, c, entry)
                path.write_text(json.dumps(su.to_spec_doc(spec)), encoding="utf-8")
                _, entry["verify_s"] = _run(cli_main, ["verify", str(path), "--format", "doc"])
                pools["random"][f"c{c}_n{n}/p{k}"] = entry
            print(f"random c{c}_n{n} drawn", flush=True)
        for c, m, n in workloads.FAMILY:
            tag = f"x{workloads.crossings_of(c, m, n)}"
            for k in range(workloads.FAMILY_POOL):
                key = f"{tag}/v{k:02d}"
                entry = workloads.draw_family_member(su, c, m, n, k)
                _, union = workloads.family_member(su, m, n, entry)
                path.write_text(json.dumps(su.to_doc(union)), encoding="utf-8")
                golden["jones"][key], entry["jones_s"] = _run(
                    cli_main, ["invariants", str(path), "--jones", "--format", "doc"])
                golden["alexander"][key], entry["alexander_s"] = _run(
                    cli_main, ["invariants", str(path), "--alexander", "--format", "doc"])
                if golden["alexander"][key] is None:
                    raise RuntimeError(f"alexander of {key} was refused")
                pools["family"][key] = entry
                print(key, "jones refused" if golden["jones"][key] is None else "", flush=True)
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    _write("pools", pools)
    for kind, doc in golden.items():
        _write(kind, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
