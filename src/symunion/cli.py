"""Command line front end.

Four commands: build a union from a spec document, compute invariants of
a diagram, verify the certified identities of a spec, and emit built-in
fixtures. Reports serialize as JSON documents (sorted keys, no timings)
so output is byte-stable for a fixed input; --timings opts into wall
times. Exit codes: 0 all good, 1 a verification check failed, 2 bad
input, 3 resource limit hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import corpus
from .construct import (
    ConstructError,
    SymUnionSpec,
    build_symmetric_union,
    built_union,
    parse_spec,
    to_spec_doc,
)
from .diagram import DiagramError, PlanarDiagram, parse_pd, to_doc, to_text
from .group import GroupError, certify_epimorphism, wirtinger
from .invariant import (
    Cancelled,
    TooLarge,
    UnsupportedLinkCase,
    alexander_fox,
    alexander_region,
    jones,
    verify_fraction_region,
    verify_product_formula,
    verify_zero_replacement,
)
from .poly import PolyError, conway_from_alexander, normalize_alexander
from .report import VerificationReport
from .tangle import TangleError, to_tangle_doc


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _load_spec(path: str):
    doc = json.loads(_read(path))
    return parse_spec(doc)


def cmd_build(args) -> int:
    spec = _load_spec(args.spec)
    k = build_symmetric_union(spec)
    if args.format == "text":
        _emit(to_text(k), args.output)
    else:
        _emit(_dump(to_doc(k)), args.output)
    return 0


def cmd_invariants(args) -> int:
    d = parse_pd(_read(args.diagram))
    run_all = not (args.alexander or args.conway or args.jones)
    doc: dict = {"crossings": len(d.crossings)}
    lines = [f"crossings: {len(d.crossings)}"]
    knot = d.component_count() == 1

    def emit(rc: int) -> int:
        _emit("\n".join(lines) if args.format == "text" else _dump(doc), args.output)
        return rc

    if args.alexander or args.conway or run_all:
        a = alexander_region(d)
        doc["alexander"] = a.text()
        lines.append(f"alexander (region matrix): {a.text()}")
        if knot and d.crossings:
            b = normalize_alexander(alexander_fox(wirtinger(d)))
            doc["alexander_fox"] = b.text()
            doc["alexander_methods_agree"] = a == b
            lines.append(f"alexander (fox calculus):  {b.text()}")
            lines.append(f"methods agree: {'yes' if a == b else 'NO'}")
            if a != b:
                return emit(1)
        if args.conway or run_all:
            if knot:
                c = conway_from_alexander(a, knot=True)
                doc["conway"] = c.text()
                lines.append(f"conway: {c.text()}")
            elif a.is_zero():
                doc["conway"] = "0"
                lines.append("conway: 0")

    if args.jones or run_all:
        v = jones(d)
        doc["jones"] = v.text()
        lines.append(f"jones: {v.text()}")
    return emit(0)


# The certificates verify runs, in report order; each names its CLI flag.
CERTIFICATES = ("lemma", "theorem1", "theorem2", "fraction")


def verify_reports(
    union: SymUnionSpec | PlanarDiagram, selected: Sequence[str] = CERTIFICATES
) -> list[VerificationReport]:
    """Run the selected certificates against one built union (a spec is
    built first). The union is built once and every certificate reads the
    polynomials and presentations the others already computed from it."""
    k = built_union(union)
    reports: list[VerificationReport] = []
    if "lemma" in selected:
        reports.append(verify_zero_replacement(k))
    if "theorem1" in selected:
        reports.append(verify_product_formula(k))
    if "theorem2" in selected:
        reports.append(certify_epimorphism(k))
    if "fraction" in selected:
        for i in range(1, len(k.meta.spec.tangles) + 1):
            reports.append(verify_fraction_region(k, i))
    return reports


def cmd_verify(args) -> int:
    selected = [c for c in CERTIFICATES if getattr(args, c)] or CERTIFICATES
    reports = verify_reports(_load_spec(args.spec), selected)
    if args.format == "text":
        text = "\n\n".join(r.human(include_timings=args.timings) for r in reports)
    else:
        text = _dump([r.to_doc(include_timings=args.timings) for r in reports])
    _emit(text, args.output)
    return 0 if all(r.passed for r in reports) else 1


def cmd_fixtures(args) -> int:
    if args.name is None:
        lines = []
        for name in sorted(corpus.SPEC_FIXTURES):
            spec = corpus.SPEC_FIXTURES[name]
            lines.append(
                f"{name:24} spec     partial {len(spec.partial.crossings)} "
                f"crossings, {len(spec.tangles)} tangle region(s)"
            )
        for name in sorted(corpus.DIAGRAM_FIXTURES):
            d = corpus.DIAGRAM_FIXTURES[name]
            lines.append(f"{name:24} diagram  {len(d.crossings)} crossings")
        for name in sorted(corpus.TANGLE_FIXTURES):
            t = corpus.TANGLE_FIXTURES[name]
            lines.append(f"{name:24} tangle   {len(t.crossings)} crossings")
        _emit("\n".join(lines), args.output)
        return 0
    name = args.name
    if name in corpus.SPEC_FIXTURES:
        doc = to_spec_doc(corpus.SPEC_FIXTURES[name])
    elif name in corpus.DIAGRAM_FIXTURES:
        doc = to_doc(corpus.DIAGRAM_FIXTURES[name])
    elif name in corpus.TANGLE_FIXTURES:
        doc = to_tangle_doc(corpus.TANGLE_FIXTURES[name])
    else:
        raise ConstructError(f"no fixture named {name!r}; run without a name to list")
    _emit(_dump(doc), args.output)
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="symunion",
        description="Build symmetric-union knot diagrams and verify their "
        "certified polynomial and group identities.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build the union a spec document describes")
    b.add_argument("spec", help="spec document path (JSON), or - for stdin")
    b.add_argument("-o", "--output", help="write here instead of stdout")
    b.add_argument("--format", choices=("text", "doc"), default="doc")
    b.set_defaults(func=cmd_build)

    inv = sub.add_parser(
        "invariants", help="polynomial invariants of a diagram (all by default)"
    )
    inv.add_argument("diagram", help="PD document or PD text path, or - for stdin")
    inv.add_argument("--alexander", action="store_true",
                     help="alexander polynomial by both methods, compared")
    inv.add_argument("--conway", action="store_true", help="conway polynomial")
    inv.add_argument("--jones", action="store_true", help="jones polynomial")
    inv.add_argument("-o", "--output")
    inv.add_argument("--format", choices=("text", "doc"), default="text")
    inv.set_defaults(func=cmd_invariants)

    v = sub.add_parser(
        "verify", help="verify the certified identities of a spec (all by default)"
    )
    v.add_argument("spec", help="spec document path (JSON), or - for stdin")
    v.add_argument("--theorem1", action="store_true",
                   help="alexander product formula, both polynomial routes")
    v.add_argument("--theorem2", action="store_true",
                   help="fold-down epimorphism certificate")
    v.add_argument("--lemma", action="store_true",
                   help="zero replacement kills the alexander polynomial")
    v.add_argument("--fraction", action="store_true",
                   help="conway sum rule at each tangle region")
    v.add_argument("--timings", action="store_true",
                   help="include wall times (output no longer byte-stable)")
    v.add_argument("-o", "--output")
    v.add_argument("--format", choices=("text", "doc"), default="text")
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("fixtures", help="list built-in fixtures or write one")
    f.add_argument("name", nargs="?", help="fixture to emit as a document")
    f.add_argument("-o", "--output")
    f.set_defaults(func=cmd_fixtures)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TooLarge, Cancelled) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (
        OSError,
        ValueError,
        KeyError,
        DiagramError,
        ConstructError,
        TangleError,
        GroupError,
        PolyError,
        UnsupportedLinkCase,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
