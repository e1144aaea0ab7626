"""Host-speed calibration of measured times.

The speed of a shared host drifts: on a 2-vCPU VM shared with other
tenants, a fixed pure-Python loop took anywhere from 25 to 37 ms within
one ten-second run, and process CPU time drifted with wall time, so the
drift is in the processor's speed, not in scheduling. Runs of the same
code, each tens of seconds long, differed by 12-15% in median op time,
and more under heavier load.

So the benchmark runs a fixed reference loop just before and just after
each op, and also inside it: while an op runs, a profiling timer signal
runs the reference every INTERVAL_S seconds of process time. The op is
timed with clock(), which leaves out the time spent in those in-op
references, and its time is scaled by how fast the host ran the
references taken around and inside it:

    calibrated seconds = seconds * (NOMINAL_S / mean reference seconds) ** SENSITIVITY

that is, seconds on a host where the reference takes NOMINAL_S. The
program's times move more with the host's speed than the reference's do:
across runs of all three workloads, log op time rose by 1.2-1.3 for each
unit of log reference time, hence SENSITIVITY. In trials on this
benchmark's own workloads, calibration cut the spread of medians between
runs by two to five times; references inside long ops (several seconds)
were needed, since the host's speed changes within an op. The reference
does the program's two kinds of work, small-integer arithmetic on
dict-based polynomials and elimination over big integers, with its own
code: no symunion code runs in it, so a change to symunion cannot move it.
The scaling depends only on the reference, never on the op, so a change
that makes an op k times faster makes its calibrated time k times smaller.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

# Reference time of a 2-vCPU VM running Python 3.11 at its usual speed.
NOMINAL_S = 0.012
# Process time between two references inside an op.
INTERVAL_S = 0.25
# Log-log slope of op time on reference time across runs.
SENSITIVITY = 1.25

_rng = random.Random(20260101)
_SMALL = [[_rng.randint(-9, 9) for _ in range(18)] for _ in range(18)]
_POLY = {e: _rng.randint(-50, 50) for e in range(-6, 7)}
_BIG = [[_rng.getrandbits(256) - (1 << 255) for _ in range(13)] for _ in range(13)]


def _eliminate(rows: list[list[int]]) -> int:
    """Fraction-free elimination with floor division (exact or not: only the
    amount of work matters, and it is the same on every call)."""
    m = [r[:] for r in rows]
    n, prev = len(m), 1
    for k in range(n - 1):
        if m[k][k] == 0:
            m[k][k] = 1
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


def _poly_power() -> int:
    acc = {0: 1}
    for _ in range(12):
        out: dict[int, int] = {}
        for e1, c1 in acc.items():
            for e2, c2 in _POLY.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        acc = {e: c for e, c in out.items() if c}
    return len(acc)


def reference() -> float:
    """Run the reference loop once; returns its wall time in seconds."""
    t0 = perf_counter()
    _eliminate(_SMALL)
    _poly_power()
    _eliminate(_BIG)
    return perf_counter() - t0


def warm_up(times: int = 5) -> None:
    for _ in range(times):
        reference()


def calibrated(seconds: float, refs: list[float]) -> float:
    """seconds scaled to a host whose reference time is NOMINAL_S."""
    return seconds * (NOMINAL_S / statistics.fmean(refs)) ** SENSITIVITY


# -- references inside an op ----------------------------------------------------

_samples: list[float] = []
_spent = 0.0  # seconds spent in in-op references so far


def _on_prof(signum, frame):
    global _spent
    t0 = perf_counter()
    try:
        _samples.append(reference())
    finally:
        _spent += perf_counter() - t0


def install() -> None:
    signal.signal(signal.SIGPROF, _on_prof)


def clock() -> float:
    """perf_counter() less the time spent in in-op references."""
    while True:
        spent = _spent
        now = perf_counter()
        if spent == _spent:  # no reference ran in between
            return now - spent


def start_sampling() -> None:
    _samples.clear()
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def stop_sampling() -> list[float]:
    """Stops the in-op references; returns the times they took."""
    signal.setitimer(signal.ITIMER_PROF, 0)
    return list(_samples)


def timed(fn):
    """Calls fn() with references around and inside it; returns its result
    and the calibrated seconds it took. Needs install() first."""
    ref = reference()
    t0 = clock()
    start_sampling()
    try:
        result = fn()
    finally:
        inside = stop_sampling()
    took = clock() - t0
    return result, calibrated(took, [ref, *inside, reference()])
