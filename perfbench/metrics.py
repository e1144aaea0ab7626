"""End-to-end metrics from a list of op results.

An op is ``ok`` (exit 0 and its output check passed), ``refused`` (exit 3,
or stopped at the per-op deadline) or ``failed`` (any other exit code, an
exception, or a failed output check). Following the PAR convention of
solver benchmarks, a refused or failed op is charged the workload's
deadline instead of its actual time, so turning a quick refusal into a
slower answer reads as a gain, not a slowdown.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass

OUTCOMES = ("ok", "refused", "failed")


@dataclass(frozen=True)
class OpResult:
    index: int  # position of the input in one pass
    outcome: str  # one of OUTCOMES
    seconds: float  # wall time the call took


def charged(r: OpResult, deadline: float) -> float:
    return r.seconds if r.outcome == "ok" else deadline


def summarize(results: list[OpResult], deadline: float) -> dict[str, float]:
    """pass_s is the sum over inputs of each input's median charged time,
    that is one pass at typical speed; geomean_s is the geometric mean of
    the same medians, so every input size weighs the same. fail_ratio is
    the share of ops not ok in one pass: each input's share of bad
    outcomes, averaged over inputs, so a partly run last pass does not
    tilt it."""
    if not results:
        raise ValueError("no op results to summarize")
    by_input: dict[int, list[OpResult]] = defaultdict(list)
    for r in results:
        by_input[r.index].append(r)
    medians, bad = [], []
    for _, rs in sorted(by_input.items()):
        medians.append(statistics.median(charged(r, deadline) for r in rs))
        bad.append(sum(r.outcome != "ok" for r in rs) / len(rs))
    fail_ratio = statistics.fmean(bad)
    return {
        "pass_s": sum(medians),
        "geomean_s": math.exp(statistics.fmean(math.log(x) for x in medians)),
        "fail_ratio": fail_ratio,
        "ok_ratio": 1 - fail_ratio,
    }
