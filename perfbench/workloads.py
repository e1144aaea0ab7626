"""Inputs, operations and output checks of the three benchmark workloads.

Every input is written to disk as the document a user would hand to the
CLI, built through symunion's public API. Each operation is the argv of
one ``symunion`` command on such a document, paired with a check that
decides whether the command's output is right.

verify-mix         ``verify SPEC --format doc`` on the seven corpus specs
                   and 22 random unions, two per size stratum.
alexander-scaling  ``invariants DIAGRAM --alexander --format doc`` on one
                   variant of each scaling-family member.
jones-scaling      ``invariants DIAGRAM --jones --format doc`` on eight
                   variants of each scaling-family member.

The scaling family is kt(m) x n over a c-crossing rational-knot partial,
(c, m, n) in FAMILY, so its members have 2c + n(2m - 1) = 15, 30, 47 and
68 crossings. A family variant is the partial or its mirror image plus
the marked arcs; a random union is a draw from corpus.random_spec's pools
with the partial and the tangle count fixed by its stratum.

Both are drawn once, by record_golden.py, into fixed pools kept in
golden/pools.json together with each entry's measured op times. The seed
picks from the pools so that every seed gets the same spread of sizes and
nearly the same total time (see stratified_pick). Fixed pools also let
golden outputs recorded once cover every seed.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("verify-mix", "alexander-scaling", "jones-scaling")

# Per-op deadline by workload; a refused or failed op is charged this.
DEADLINE_S = {"verify-mix": 10.0, "alexander-scaling": 30.0, "jones-scaling": 10.0}

CORPUS_SPECS = (
    "fig8_union_1",
    "kt_knot",
    "kt_union_1",
    "kt_union_2",
    "kt_union_3",
    "trefoil_union_2",
    "trefoil_union_merged",
)

# (partial crossings, number of tangles) of the random verify-mix unions:
# every stratum the pools allow.
STRATA = (
    (3, 1), (4, 1), (5, 1), (6, 1),
    (3, 2), (4, 2), (5, 2), (6, 2),
    (4, 3), (5, 3), (6, 3),
)

# (c, m, n) of each scaling-family member, and the continued fraction of
# its c-crossing rational-knot partial.
FAMILY = ((5, 3, 1), (8, 4, 2), (10, 5, 3), (12, 6, 4))
PARTIAL_CF = {5: (2, 1, 1, 1), 8: (2, 1, 1, 2, 2), 10: (2, 2, 2, 2, 1, 1),
              12: (2, 2, 2, 2, 2, 1, 1)}
FAMILY_POOL = 16
VARIANTS = {"alexander-scaling": 1, "jones-scaling": 8}
RANDOM_POOL = 6
RANDOM_PICKS = 2

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    """One CLI call and the check of its standard output."""

    label: str
    argv: list[str]
    check: Callable[[str], None]
    tag: str | None = None  # scaling-family member, as "x<crossings>"


def crossings_of(c: int, m: int, n: int) -> int:
    return 2 * c + n * (2 * m - 1)


# -- polynomial text -----------------------------------------------------------


def terms(text: str) -> dict[int, int]:
    """Coefficients of a polynomial in the CLI's text form, such as
    ``-t^-2 + 3 - 2*t``; parsed here so the checks do not rely on the
    program's own parser."""
    out: dict[int, int] = {}
    sign = 1
    for tok in text.split():
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coeff, star, power = tok.partition("*")
        if not star:
            coeff, power = (tok, "") if tok[0].isdigit() else ("1", tok)
        exp = int(power.partition("^")[2] or 1) if power else 0
        out[exp] = out.get(exp, 0) + sign * int(coeff)
        sign = 1
    return {e: c for e, c in out.items() if c}


def value_at(coeffs: dict[int, int], x: int) -> int:
    """Value at x = 1 or x = -1, where every power is an integer."""
    return sum(c * x ** (e % 2) for e, c in coeffs.items())


# -- input generation ----------------------------------------------------------


def _pools(su):
    partials = (
        su.parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"),
        su.parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"),
        su.numerator(su.rational_tangle([1, 1, 3])),
        su.numerator(su.rational_tangle([1, 1, 1, 1, 2])),
    )
    tangles = (
        su.vertical_twists(2), su.vertical_twists(-2),
        su.vertical_twists(4), su.vertical_twists(-4),
        su.rational_tangle([1, 1, 1]), su.rational_tangle([1, 1, 2]),
        su.rational_tangle([-1, -1, -1]), su.rational_tangle([-1, -1, -2]),
    )
    return {len(d.crossings): d for d in partials}, tangles


def _marked_union(su, rng: random.Random, partial, tangles):
    """Resample marked arcs until the insertion embeds in the plane, as
    corpus.random_spec does. Returns the spec and the built union."""
    arcs = su.wirtinger(partial).arc_of_edge
    edges = sorted(arcs)
    n = len(tangles)
    while True:
        marked = tuple(rng.sample(edges, n + 1))
        if len({arcs[e] for e in marked}) < n + 1:
            continue
        spec = su.SymUnionSpec(partial, marked, tuple(tangles))
        try:
            return spec, su.build_symmetric_union(spec)
        except su.NotPlanarInsertion:
            continue


def draw_random_union(su, c: int, n: int, k: int) -> dict:
    """Pool entry k of verify-mix stratum (c, n): tangles drawn from
    corpus.random_spec's tangle pool and marked arcs that embed."""
    partials, tangle_pool = _pools(su)
    rng = random.Random(f"random:{c}:{n}:{k}")
    picks = [rng.randrange(len(tangle_pool)) for _ in range(n)]
    spec, _ = _marked_union(su, rng, partials[c], [tangle_pool[i] for i in picks])
    return {"tangles": picks, "marked_arcs": list(spec.marked_arcs)}


def draw_family_member(su, c: int, m: int, n: int, k: int) -> dict:
    """Pool entry k of one scaling-family member: the partial or its mirror
    image, and marked arcs that embed."""
    rng = random.Random(f"family:{c}:{m}:{n}:{k}")
    cf = list(PARTIAL_CF[c])
    if rng.random() < 0.5:
        cf = [-a for a in cf]
    partial = su.numerator(su.rational_tangle(cf))
    spec, _ = _marked_union(su, rng, partial, [su.kt_tangle(m)] * n)
    return {"cf": cf, "marked_arcs": list(spec.marked_arcs)}


def random_union_spec(su, c: int, entry: dict):
    partials, tangle_pool = _pools(su)
    tangles = tuple(tangle_pool[i] for i in entry["tangles"])
    return su.SymUnionSpec(partials[c], tuple(entry["marked_arcs"]), tangles)


def family_member(su, m: int, n: int, entry: dict):
    """(spec, built union) of one pool entry of the scaling family."""
    partial = su.numerator(su.rational_tangle(entry["cf"]))
    spec = su.SymUnionSpec(partial, tuple(entry["marked_arcs"]), (su.kt_tangle(m),) * n)
    return spec, su.build_symmetric_union(spec)


def stratified_pick(rng: random.Random, entries: dict, cost: str, count: int) -> list[str]:
    """One key from each of count equal groups of the entries sorted by
    their recorded cost, so every seed gets the same spread of sizes.

    Mirrored groups, g and count-1-g, take mirrored ranks: the seed draws a
    rank j for g, and its mirror takes rank size-1-j, so a cheap pick in a
    low group comes with a dear pick in the high group and the total cost
    stays nearly the same from seed to seed. A middle group, its own
    mirror, takes a rank from its central quarter. (The Alexander times
    of one family member's 16 variants range over +-10% of their median.)"""
    keys = sorted(entries, key=lambda k: (entries[k][cost], k))
    size = len(keys) // count
    picks = [""] * count
    for g in range(count // 2):
        j, h = rng.randrange(size), count - 1 - g
        picks[g], picks[h] = keys[g * size + j], keys[h * size + size - 1 - j]
    if count % 2:
        g, quarter = count // 2, max(1, size // 4)
        picks[g] = keys[g * size + (size - quarter) // 2 + rng.randrange(quarter)]
    return picks


def _members(pool: dict, prefix: str) -> dict:
    return {k: v for k, v in pool.items() if k.startswith(prefix + "/")}


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_golden(kind: str) -> dict:
    with open(GOLDEN_DIR / f"{kind}.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- checks --------------------------------------------------------------------


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _golden_check(golden: dict, key: str):
    def check(out: str) -> None:
        _expect(out == golden.get(key), f"output differs from the golden output of {key}")
    return check


def _random_verify_check(n_tangles: int):
    def check(out: str) -> None:
        reports = json.loads(out)
        _expect(len(reports) == 3 + n_tangles,
                f"{len(reports)} reports, expected {3 + n_tangles}")
        _expect(all(r["passed"] and r["checks"] for r in reports),
                "a certificate failed")
    return check


def _alexander_check(golden: dict, key: str, reference: str):
    golden_check = _golden_check(golden, key)

    def check(out: str) -> None:
        doc = json.loads(out)
        _expect(doc.get("alexander_methods_agree") is True,
                "region and fox routes disagree")
        _expect(doc["alexander"] == reference,
                "region result is not the product of the factor polynomials")
        golden_check(out)
    return check


def _jones_check(golden, key: str, det_abs: int):
    def check(out: str) -> None:
        v = terms(json.loads(out)["jones"])
        _expect(value_at(v, 1) == 1, "V(1) != 1")
        _expect(abs(value_at(v, -1)) == det_abs, "|V(-1)| != |Delta(-1)|")
        if golden.get(key) is not None:
            _golden_check(golden, key)(out)
    return check


# -- workloads -------------------------------------------------------------------


def verify_mix(su, cli_main, seed: int, workdir: Path) -> list[Op]:
    golden = load_golden("verify")
    pool = load_golden("pools")["random"]
    ops = []
    for name in CORPUS_SPECS:
        path = workdir / f"{name}.json"
        if cli_main(["fixtures", name, "-o", str(path)]) != 0:
            raise RuntimeError(f"fixtures {name} failed")
        ops.append(Op(name, ["verify", str(path), "--format", "doc"],
                      _golden_check(golden, name)))
    for c, n in STRATA:
        stratum = f"c{c}_n{n}"
        rng = random.Random(f"verify-mix:{seed}:{stratum}")
        for key in stratified_pick(rng, _members(pool, stratum), "verify_s", RANDOM_PICKS):
            spec = random_union_spec(su, c, pool[key])
            path = workdir / f"random_{key.replace('/', '_')}.json"
            path.write_text(_dump(su.to_spec_doc(spec)), encoding="utf-8")
            ops.append(Op(key, ["verify", str(path), "--format", "doc"],
                          _random_verify_check(n)))
    return ops


def _factor_reference(su, spec) -> str:
    """normalize(Delta(partial)^2 * prod Delta(N(T_i))) from the small factor
    diagrams, in the CLI's text form."""
    half = su.alexander_region(spec.partial)
    prod = half * half
    for t in spec.tangles:
        prod = prod * su.alexander_region(su.numerator(t))
    return su.normalize_alexander(prod).text()


def scaling(su, workload: str, seed: int, workdir: Path) -> list[Op]:
    kind = "alexander" if workload == "alexander-scaling" else "jones"
    golden = load_golden(kind)
    pool = load_golden("pools")["family"]
    ops = []
    for c, m, n in FAMILY:
        tag = f"x{crossings_of(c, m, n)}"
        rng = random.Random(f"{workload}:{seed}:{tag}")
        for key in stratified_pick(rng, _members(pool, tag), f"{kind}_s", VARIANTS[workload]):
            spec, union = family_member(su, m, n, pool[key])
            path = workdir / f"{key.replace('/', '_')}.json"
            path.write_text(_dump(su.to_doc(union)), encoding="utf-8")
            reference = _factor_reference(su, spec)
            if kind == "alexander":
                argv = ["invariants", str(path), "--alexander", "--format", "doc"]
                check = _alexander_check(golden, key, reference)
            else:
                argv = ["invariants", str(path), "--jones", "--format", "doc"]
                det_abs = abs(value_at(terms(reference), -1))
                check = _jones_check(golden, key, det_abs)
            ops.append(Op(key, argv, check, tag))
    return ops


def make_inputs(su, cli_main, workload: str, seed: int, workdir: Path) -> list[Op]:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if workload == "verify-mix":
        return verify_mix(su, cli_main, seed, workdir)
    return scaling(su, workload, seed, workdir)
