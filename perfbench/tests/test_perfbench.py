"""Tests of the benchmark itself: seeded inputs, family sizes, metric code.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import math
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import calibrate  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import symunion as su  # noqa: E402
from symunion.cli import main as cli_main  # noqa: E402


def _documents(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_documents(workload, tmp_path):
    workloads.make_inputs(su, cli_main, workload, 7, tmp_path / "a")
    workloads.make_inputs(su, cli_main, workload, 7, tmp_path / "b")
    assert _documents(tmp_path / "a") and _documents(tmp_path / "a") == _documents(tmp_path / "b")


def test_other_seed_gives_other_random_unions(tmp_path):
    workloads.make_inputs(su, cli_main, "verify-mix", 1, tmp_path / "a")
    workloads.make_inputs(su, cli_main, "verify-mix", 2, tmp_path / "b")
    assert _documents(tmp_path / "a") != _documents(tmp_path / "b")


def _pool(kind):
    return workloads.load_golden("pools")[kind]


def test_family_pool_members_have_fixed_crossing_counts():
    family = _pool("family")
    assert len(family) == workloads.FAMILY_POOL * len(workloads.FAMILY)
    for c, m, n in workloads.FAMILY:
        tag = f"x{workloads.crossings_of(c, m, n)}"
        for key, entry in family.items():
            if key.startswith(tag + "/"):
                spec, union = workloads.family_member(su, m, n, entry)
                assert len(spec.partial.crossings) == c
                assert len(union.crossings) == int(tag[1:])
    assert sorted({int(k.split("/")[0][1:]) for k in family}) == [15, 30, 47, 68]


@pytest.mark.parametrize("workload", ["alexander-scaling", "jones-scaling"])
def test_scaling_inputs_have_fixed_crossing_counts(workload, tmp_path):
    ops = workloads.make_inputs(su, cli_main, workload, 3, tmp_path)
    per_member = workloads.VARIANTS[workload]
    assert [op.tag for op in ops] == [
        t for t in ("x15", "x30", "x47", "x68") for _ in range(per_member)]
    for op in ops:
        d = su.parse_pd((tmp_path / Path(op.argv[1]).name).read_text(encoding="utf-8"))
        assert f"x{len(d.crossings)}" == op.tag


def test_pools_match_their_generators():
    for key, entry in _pool("random").items():
        stratum, k = key.split("/")
        c, n = (int(x[1:]) for x in stratum.split("_"))
        drawn = workloads.draw_random_union(su, c, n, int(k[1:]))
        assert drawn == {"tangles": entry["tangles"], "marked_arcs": entry["marked_arcs"]}
    for key, entry in _pool("family").items():
        tag, k = key.split("/")
        if tag in ("x15", "x30"):
            c, m, n = next(f for f in workloads.FAMILY
                           if f"x{workloads.crossings_of(*f)}" == tag)
            drawn = workloads.draw_family_member(su, c, m, n, int(k[1:]))
            assert drawn == {"cf": entry["cf"], "marked_arcs": entry["marked_arcs"]}


def test_random_pool_strata():
    for key, entry in _pool("random").items():
        c, n = (int(x[1:]) for x in key.split("/")[0].split("_"))
        spec = workloads.random_union_spec(su, c, entry)
        assert (len(spec.partial.crossings), len(spec.tangles)) == (c, n)


def test_stratified_pick_takes_one_entry_per_cost_group():
    entries = {f"e{i}": {"cost": float(i)} for i in range(8)}
    for seed in range(5):
        rng = workloads.random.Random(seed)
        picks = workloads.stratified_pick(rng, entries, "cost", 4)
        assert [int(p[1:]) // 2 for p in picks] == [0, 1, 2, 3]
    again = workloads.stratified_pick(workloads.random.Random(1), entries, "cost", 4)
    assert again == workloads.stratified_pick(workloads.random.Random(1), entries, "cost", 4)


def test_stratified_pick_balances_mirrored_groups():
    entries = {f"e{i:02d}": {"cost": float(i)} for i in range(16)}
    picked = set()
    for seed in range(20):
        rng = workloads.random.Random(seed)
        # two groups of 8 take ranks j and 7 - j: the costs always sum to 15
        a, b = workloads.stratified_pick(rng, entries, "cost", 2)
        assert entries[a]["cost"] + entries[b]["cost"] == 15
        picked.add(a)
        # a lone group takes a rank from its central quarter, 6 to 9
        (c,) = workloads.stratified_pick(rng, entries, "cost", 1)
        assert 6 <= entries[c]["cost"] <= 9
    assert len(picked) > 1


def test_polynomial_text_parser():
    assert workloads.terms("-t^-2 + 3 - 2*t + t^5") == {-2: -1, 0: 3, 1: -2, 5: 1}
    assert workloads.terms("1") == {0: 1}
    assert workloads.terms("-4*t^-3 - t") == {-3: -4, 1: -1}
    coeffs = workloads.terms("t^-1 - 1 + t")
    assert workloads.value_at(coeffs, 1) == 1
    assert workloads.value_at(coeffs, -1) == -3


def test_refused_and_failed_ops_are_charged_the_deadline():
    ok = metrics.OpResult(0, "ok", 0.5)
    assert metrics.charged(ok, 10.0) == 0.5
    assert metrics.charged(metrics.OpResult(0, "refused", 0.16), 10.0) == 10.0
    assert metrics.charged(metrics.OpResult(0, "failed", 0.01), 10.0) == 10.0


def test_summary_on_hand_made_results():
    deadline = 8.0
    results = [
        # input 0: three passes, median of 1, 2 and 3 is 2
        metrics.OpResult(0, "ok", 1.0),
        metrics.OpResult(0, "ok", 3.0),
        metrics.OpResult(0, "ok", 2.0),
        # input 1: quick but refused both times: charged the deadline
        metrics.OpResult(1, "refused", 0.16),
        metrics.OpResult(1, "refused", 0.17),
        # input 2: one answer and one failure: median of 0.5 and 8
        metrics.OpResult(2, "ok", 0.5),
        metrics.OpResult(2, "failed", 0.4),
    ]
    s = metrics.summarize(results, deadline)
    medians = [2.0, 8.0, (0.5 + 8.0) / 2]
    assert s["pass_s"] == pytest.approx(sum(medians))
    assert s["geomean_s"] == pytest.approx(math.prod(medians) ** (1 / 3))
    # per input 0/3, 2/2 and 1/2 of the ops were not ok
    assert s["fail_ratio"] == pytest.approx((0 + 1 + 0.5) / 3)
    assert s["ok_ratio"] == pytest.approx(1 - (0 + 1 + 0.5) / 3)


def test_calibration_scales_by_the_reference_around_an_op():
    n, k = calibrate.NOMINAL_S, calibrate.SENSITIVITY
    assert calibrate.calibrated(1.0, [n, n]) == pytest.approx(1.0)
    assert calibrate.calibrated(1.0, [2 * n, 2 * n]) == pytest.approx(0.5 ** k)
    assert calibrate.calibrated(3.0, [n, 3 * n, 2 * n]) == pytest.approx(3.0 * 0.5 ** k)
    # the scale depends on the references only: k times the work, k times the time
    assert calibrate.calibrated(6.0, [n, 3 * n]) == pytest.approx(
        2 * calibrate.calibrated(3.0, [n, 3 * n]))
    assert calibrate.reference() > 0


def test_clock_leaves_out_references_inside_an_op():
    old = signal.getsignal(signal.SIGPROF)
    calibrate.install()
    try:
        t0, w0 = calibrate.clock(), calibrate.perf_counter()
        calibrate.start_sampling()
        try:
            deadline = calibrate.perf_counter() + 1.0
            while calibrate.perf_counter() < deadline:
                pass
        finally:
            inside = calibrate.stop_sampling()
        net, wall = calibrate.clock() - t0, calibrate.perf_counter() - w0
    finally:
        signal.signal(signal.SIGPROF, old)
    assert len(inside) >= 2
    assert net == pytest.approx(wall - sum(inside), abs=0.05)


def test_reference_loop_runs_no_program_code():
    import ast
    tree = ast.parse(Path(calibrate.__file__).read_text(encoding="utf-8"))
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "random", "signal", "statistics", "time"}


def test_pass_metrics_scale_times_but_not_counts():
    tracer = tracing.Tracer()
    tracer.stats = {0: {"invariant.det_s": 2.0, "invariant.det.calls": 3.0},
                    1: {"invariant.det_s": 1.0, "invariant.det.calls": 1.0}}
    out = tracer.pass_metrics([0, 1], {0: 0.5, 1: 2.0})
    assert out["invariant.det_s"] == pytest.approx(2.0 * 0.5 + 1.0 * 2.0)
    assert out["invariant.det.calls"] == 4.0


def test_summary_rejects_empty_input():
    with pytest.raises(ValueError):
        metrics.summarize([], 1.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_reject_changed_outputs(workload, tmp_path):
    ops = workloads.make_inputs(su, cli_main, workload, 4, tmp_path)
    golden = workloads.load_golden(
        {"verify-mix": "verify", "alexander-scaling": "alexander",
         "jones-scaling": "jones"}[workload])
    checked = 0
    for op in ops:
        want = golden.get(op.label)
        if want is None:
            continue
        op.check(want)
        if workload == "jones-scaling":
            changed = want.replace('"jones": "', '"jones": "2 + ', 1)
        else:
            changed = want.replace("true", "false", 1)
        with pytest.raises(workloads.CheckFailed):
            op.check(changed)
        checked += 1
    assert checked


def test_jones_check_uses_the_reference_identities():
    # V(1) = 1 and V(-1) = 5 for this text
    out = '{"jones": "t^-2 - t^-1 + 1 - t + t^2", "crossings": 68}'
    workloads._jones_check({}, "k", det_abs=5)(out)
    with pytest.raises(workloads.CheckFailed):
        workloads._jones_check({}, "k", det_abs=9)(out)
    with pytest.raises(workloads.CheckFailed):  # V(1) = 2
        workloads._jones_check({}, "k", det_abs=0)('{"jones": "t^-1 + t"}')


def test_call_classifies_outcomes():
    import run

    def busy(argv):
        while True:
            pass

    def failing_check(out):
        raise workloads.CheckFailed("wrong")

    op = workloads.Op("op", [], lambda out: None)
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        outcome, took, _ = run.call(busy, op, 0.2)
        assert outcome == "refused" and 0.2 <= took < 5
        assert run.call(lambda argv: 3, op, 5.0)[0] == "refused"
        assert run.call(lambda argv: 1, op, 5.0)[0] == "failed"
        assert run.call(lambda argv: 0, op, 5.0)[0] == "ok"
        assert run.call(lambda argv: 0, workloads.Op("op", [], failing_check), 5.0)[0] == "failed"
        assert run.call(lambda argv: 1 / 0, op, 5.0)[0] == "failed"
    finally:
        signal.signal(signal.SIGALRM, old)
