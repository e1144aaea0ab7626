"""Per-layer spans, recorded from outside the program.

The tracer wraps public functions of symunion's modules with timing
wrappers. A function is wrapped under every name it is bound to inside the
package, since ``from .x import y`` binds at import time: wrapping
``diagram.faces`` also rebinds ``invariant.faces``. A target that no
longer exists is skipped, so a later refactor loses spans, not the run.

Spans carry an op id, a name, the index of their parent span, and start
and end times, read from calibrate.clock(), which leaves out the host-speed
references run inside an op. They stay in memory and are written out when
the run ends. Self time is a span's duration minus the time its child
spans cover.

Two hot leaf methods, ``LaurentPoly.divexact`` and ``LaurentPoly.evaluate``
(hundreds of thousands of calls a pass), are not stored span by span:
their calls and time are added to per-op counters and charged to the
enclosing span as child time.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from calibrate import clock

# (module, attribute, span name)
TARGETS = (
    ("symunion.cli", "_read", "cli.load"),
    ("symunion.cli", "_load_spec", "cli.load"),
    ("symunion.diagram", "parse_pd", "cli.load"),
    ("symunion.cli", "_emit", "cli.emit"),
    ("symunion.cli", "_dump", "cli.emit"),
    ("symunion.construct", "build_symmetric_union", "construct.build"),
    ("symunion.diagram", "faces", "diagram.faces"),
    ("symunion.diagram", "validate_planarity", "diagram.validate_planarity"),
    ("symunion.tangle", "numerator", "tangle.closure"),
    ("symunion.tangle", "denominator", "tangle.closure"),
    ("symunion.group", "wirtinger", "group.wirtinger"),
    ("symunion.group", "certify_epimorphism", "group.certify_epimorphism"),
    ("symunion.group", "longitude_word", "group.longitude"),
    ("symunion.invariant", "det_laurent", "invariant.det"),
    ("symunion.invariant", "region_matrix", "invariant.region_matrix"),
    ("symunion.invariant", "alexander_region", "invariant.alexander_region"),
    ("symunion.invariant", "alexander_fox", "invariant.alexander_fox"),
    ("symunion.invariant", "kauffman_bracket", "invariant.bracket"),
    ("symunion.invariant", "jones", "invariant.jones"),
    ("symunion.invariant", "verify_product_formula", "invariant.product_formula"),
    ("symunion.invariant", "verify_fraction_region", "invariant.fraction_region"),
    ("symunion.poly", "normalize_alexander", "poly.normalize_alexander"),
    ("symunion.poly", "conway_from_alexander", "poly.conway_from_alexander"),
)

# (module, class, method, counter name)
LEAF_METHODS = (
    ("symunion.poly", "LaurentPoly", "divexact", "poly.divexact"),
    ("symunion.poly", "LaurentPoly", "evaluate", "poly.evaluate"),
)

ROOT = "cli.main"
FAMILY_TAGS = ("x15", "x30", "x47", "x68")

# Reported per pass, in this order; a metric the pass never touched is 0.
PER_LAYER = (
    [("invariant.det_s", "s"), ("invariant.det.incl_s", "s"),
     ("invariant.det.calls", "count")]
    + [(f"invariant.det_s.dim{b}", "s") for b in ("0-15", "16-31", "32-63", "64-127")]
    + [("invariant.det.dim_max", "rows"),
       ("poly.evaluate_s", "s"), ("poly.evaluate.calls", "count"),
       ("poly.divexact_s", "s"), ("poly.divexact.calls", "count")]
    + [(f"invariant.alexander_region_s.{t}", "s") for t in FAMILY_TAGS]
    + [(f"invariant.alexander_fox_s.{t}", "s") for t in FAMILY_TAGS]
    + [("invariant.bracket_s", "s"), ("invariant.bracket.refused", "count")]
    + [(f"invariant.jones_s.{t}", "s") for t in FAMILY_TAGS]
    + [("construct.build_s", "s"), ("construct.build.calls", "count"),
       ("construct.attach.attempts", "count"),
       ("invariant.fraction_region.incl_s", "s"),
       ("invariant.product_formula.incl_s", "s"),
       ("invariant.region_matrix_s", "s"),
       ("diagram.faces_s", "s"), ("diagram.faces.calls", "count"),
       ("diagram.validate_planarity_s", "s"),
       ("tangle.closure_s", "s"), ("tangle.closure.calls", "count"),
       ("group.wirtinger_s", "s"), ("group.wirtinger.calls", "count"),
       ("poly.normalize_alexander_s", "s"),
       ("poly.conway_from_alexander_s", "s"),
       ("group.certify_epimorphism.incl_s", "s"),
       ("group.longitude.len", "count"),
       ("cli.load_s", "s"), ("cli.emit_s", "s"), ("cli.main_s", "s"),
       ("trace.spans", "count"), ("trace.overhead_s", "s")]
)
MAX_KEYS = {"invariant.det.dim_max"}
TIME_KEYS = {name for name, unit in PER_LAYER if unit == "s"}


def _dim_bucket(n: int) -> str:
    for lo, hi in ((0, 15), (16, 31), (32, 63)):
        if n <= hi:
            return f"{lo}-{hi}"
    return "64-127"


def _det_hook(st, args, result, exc, self_t):
    dim = len(args[0])
    st[f"invariant.det_s.dim{_dim_bucket(dim)}"] += self_t
    st["invariant.det.dim_max"] = max(st["invariant.det.dim_max"], dim)


def _build_hook(st, args, result, exc, self_t):
    # rank of the kept attachment bits in construct's attachment search order
    # (itertools.product over (0, 1)), plus one, is the attempts it took
    bits = getattr(getattr(result, "meta", None), "attach_bits", None)
    if bits is not None:
        st["construct.attach.attempts"] += 1 + int("".join(map(str, bits)) or "0", 2)


def _bracket_hook(st, args, result, exc, self_t):
    if exc is not None and type(exc).__name__ == "TooLarge":
        st["invariant.bracket.refused"] += 1


def _longitude_hook(st, args, result, exc, self_t):
    if result is not None:
        st["group.longitude.len"] += len(result)


HOOKS = {
    "invariant.det": _det_hook,
    "construct.build": _build_hook,
    "invariant.bracket": _bracket_hook,
    "group.longitude": _longitude_hook,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [op, name, parent index, start, end]
        self.stats: dict[int, defaultdict] = {}  # per-op counters and times
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._depth: defaultdict = defaultdict(int)
        self._st: defaultdict | None = None
        self._op = -1
        self._tag: str | None = None
        self._root: list = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        start = clock()
        self.spans.append([self._op, name, parent, start, start])
        frame = [len(self.spans) - 1, start, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _exit(self, name: str, frame: list) -> float:
        end = clock()
        idx, start, child = frame
        # an op stopped at its deadline can leave the stack out of step
        if self._stack and self._stack[-1] is frame:
            self._stack.pop()
        self.spans[idx][4] = end
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        st = self._st
        st[name + "_s"] += dur - child
        st[name + ".calls"] += 1
        self._depth[name] -= 1
        if not self._depth[name]:
            st[name + ".incl_s"] += dur
            if self._tag:
                st[f"{name}_s.{self._tag}"] += dur
        return dur - child

    def begin_op(self, op: int, tag: str | None) -> None:
        self._op, self._tag = op, tag
        self._st = self.stats[op] = defaultdict(float)
        self._root = self._enter(ROOT)

    def end_op(self) -> None:
        self._exit(ROOT, self._root)
        self._stack.clear()
        self._depth.clear()
        self._st = None

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer, hook = self, HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._st is None:
                return fn(*args, **kwargs)
            st = tracer._st
            frame = tracer._enter(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self_t = tracer._exit(name, frame)
                if hook is not None:
                    hook(st, args, result, exc, self_t)

        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        tracer, key_s, key_calls = self, name + "_s", name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._st
            if st is None:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[key_s] += dt
                st[key_calls] += 1
                if tracer._stack:
                    tracer._stack[-1][2] += dt

        return wrapper

    def install(self) -> None:
        """Wrap every target under each name it is bound to in the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "symunion" or n.startswith("symunion."))]
        for modname, attr, name in TARGETS:
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:
                continue
            wrapped = self._span_wrapper(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for modname, clsname, attr, name in LEAF_METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                continue
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, self._leaf_wrapper(name, orig))

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._patched):
            setattr(obj, key, orig)
        self._patched.clear()

    # -- results ----------------------------------------------------------------

    def pass_metrics(self, ops: list[int], scale: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics summed over the given ops (one pass). Times of
        an op are multiplied by its scale, its calibration factor."""
        total: defaultdict = defaultdict(float)
        for op in ops:
            for key, value in self.stats.get(op, {}).items():
                if key in TIME_KEYS:
                    total[key] += value * scale.get(op, 1.0)
                elif key in MAX_KEYS:
                    total[key] = max(total[key], value)
                else:
                    total[key] += value
        wanted = {name for name, _ in PER_LAYER}
        out = {name: float(total.get(name, 0.0)) for name in wanted}
        op_set = set(ops)
        out["trace.spans"] = float(sum(1 for s in self.spans if s[0] in op_set))
        return out

    def write(self, path: Path, ops: dict[int, dict]) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "span_fields": ["op", "name", "parent", "start", "end"],
            "names": names,
            "spans": [[s[0], index[s[1]], s[2], s[3], s[4]] for s in self.spans],
            "ops": {str(op): info for op, info in ops.items()},
            "op_counters": {str(op): dict(st) for op, st in self.stats.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
