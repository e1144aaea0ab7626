"""The symunion benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 30 --trace 0

Load shape: one process, closed loop, one client. Each op is an in-process
call of ``symunion.cli.main(argv)`` on a document written during set-up;
the next op starts when the previous one returns. Ops run in passes over
the workload's inputs until --seconds have gone by (the first pass always
completes). Every output is checked; see workloads.py.

Times are calibrated seconds (see calibrate.py): a fixed reference loop
runs before the first op, inside every op and after it, and each op's
time, less the references inside it, is scaled by the host speed those
references show. Set-up is timed the same way.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes, prints the per-layer metrics of the traced passes and the
tracing overhead, and writes the spans under .bench_out/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A refused op (exit 3 or over the deadline) is not counted as failed; it
lowers ok_ratio and is charged the deadline in pass_s and geomean_s.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate
import metrics
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


class DeadlineExceeded(BaseException):
    """Raised from the alarm handler; a BaseException so that no handler in
    the program under test swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def fresh_import():
    """Import symunion from the checkout's sources, dropping any earlier
    import so each set-up pays the import again."""
    for name in [n for n in sys.modules if n == "symunion" or n.startswith("symunion.")]:
        del sys.modules[name]
    su = importlib.import_module("symunion")
    return su, importlib.import_module("symunion.cli")


def call(cli_main, op: workloads.Op, deadline: float) -> tuple[str, float, str]:
    """Run one op; returns (outcome, seconds, detail)."""
    out, err = io.StringIO(), io.StringIO()
    rc: int | None = None
    t0 = calibrate.clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                rc = cli_main(op.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        pass
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the op boundary: record the crash, keep measuring
        return "failed", calibrate.clock() - t0, traceback.format_exc(limit=3)
    seconds = calibrate.clock() - t0
    if rc is None or seconds > deadline:
        return "refused", seconds, f"over the {deadline} s deadline"
    if rc == 3:
        return "refused", seconds, err.getvalue().strip()
    if rc != 0:
        return "failed", seconds, f"exit {rc}: {err.getvalue().strip()[:200]}"
    try:
        op.check(out.getvalue())
    except Exception as exc:  # any malformed output is a failed check
        return "failed", seconds, f"{type(exc).__name__}: {exc}"
    return "ok", seconds, ""


def timed_loop(cli_main, ops, seconds: float, deadline: float, tracer=None):
    """Passes over ops until the time is up. With a tracer, even passes run
    untraced and odd passes traced, and at least one of each completes.
    Results carry calibrated seconds; op_info keeps the uncalibrated time
    (wall time less the references inside the op) as wall_s."""
    results: dict[bool, list[metrics.OpResult]] = {False: [], True: []}
    traced_passes: list[list[int]] = []
    op_info: dict[int, dict] = {}
    failures: list[str] = []
    last = [0.0] * len(ops)
    min_passes = 2 if tracer else 1
    start = perf_counter()
    ref = calibrate.reference()
    pass_no, op_id, done = 0, 0, False
    while not done:
        traced = tracer is not None and pass_no % 2 == 1
        if traced:
            tracer.install()
        pass_ops = []
        for i, op in enumerate(ops):
            if pass_no >= min_passes and perf_counter() - start + last[i] > seconds:
                done = True
                break
            if traced:
                tracer.begin_op(op_id, op.tag)
            calibrate.start_sampling()
            try:
                outcome, took, detail = call(cli_main, op, deadline)
            finally:
                inside = calibrate.stop_sampling()
                if traced:
                    tracer.end_op()
            ref_after = calibrate.reference()
            scaled = calibrate.calibrated(took, [ref, *inside, ref_after])
            ref = ref_after
            last[i] = max(last[i], took + ref)
            results[traced].append(metrics.OpResult(i, outcome, scaled))
            op_info[op_id] = {"label": op.label, "pass": pass_no, "outcome": outcome,
                              "wall_s": took, "seconds": scaled}
            if outcome != "ok":
                failures.append(f"{op.label}: {outcome}: {detail}")
            pass_ops.append(op_id)
            op_id += 1
        else:
            if traced:
                traced_passes.append(pass_ops)
        if traced:
            tracer.uninstall()
        pass_no += 1
    return results, traced_passes, op_info, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "symunion" / "__init__.py").is_file():
        print(f"error: no symunion sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = ROOT / ".bench_out" / args.workload

    calibrate.install()
    calibrate.warm_up()

    def set_up():
        su, cli = fresh_import()
        return cli, workloads.make_inputs(su, cli.main, args.workload, args.seed, workdir)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        (cli, ops), took = calibrate.timed(set_up)
        setup_times.append(took)

    deadline = workloads.DEADLINE_S[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    signal.signal(signal.SIGALRM, _on_alarm)
    gc.collect()
    results, traced_passes, op_info, failures = timed_loop(
        cli.main, ops, args.seconds, deadline, tracer)

    all_results = results[False] + results[True]
    failed = sum(r.outcome == "failed" for r in all_results)
    refused = sum(r.outcome == "refused" for r in all_results)
    plain = metrics.summarize(results[False], deadline)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} inputs, "
          f"{len(all_results)} ops, {refused} refused, {failed} failed, "
          f"fail_ratio {metrics.summarize(all_results, deadline)['fail_ratio']:.4f}")
    for line in sorted(set(failures))[:20]:
        print(f"  not ok: {line}")
    scale = {op: info["seconds"] / info["wall_s"] for op, info in op_info.items()
             if info["wall_s"] > 0}
    print(f"  calibration: calibrated / wall seconds, median "
          f"{statistics.median(scale.values()):.4f}, "
          f"range {min(scale.values()):.4f}-{max(scale.values()):.4f}")

    if tracer is None:
        values = {
            "pass_s": (plain["pass_s"], "s"),
            "geomean_s": (plain["geomean_s"], "s"),
            "ok_ratio": (plain["ok_ratio"], "ratio"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        per_pass = [tracer.pass_metrics(p, scale) for p in traced_passes]
        traced = metrics.summarize(results[True], deadline)
        values = {name: (statistics.median(m[name] for m in per_pass), unit)
                  for name, unit in tracing.PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (traced["pass_s"] - plain["pass_s"], "s")
        path = workdir / f"trace-seed{args.seed}.json"
        tracer.write(path, op_info)
        print(f"  untraced pass_s {plain['pass_s']:.4f}, traced pass_s "
              f"{traced['pass_s']:.4f}, {len(traced_passes)} traced pass(es); "
              f"spans in {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
