"""Spans around every public function of the energysieve package, for the
benchmark's traced run.

`instrument` replaces each public function at every module attribute that
binds it, not only in its defining module: `correlation`, `sieve`, `sets`
and `cli` import names such as `energy_sum_path`, `DifferenceTable`,
`sieve_primes` and `occupancy` directly, and patching the defining module
alone would miss those calls.  `DifferenceTable.__init__` and `.lookup` are
wrapped on the class.

Each span records its duration and its self time (the duration minus the
part its child spans cover).  While tracemalloc is tracing, it also records
its peak above the memory in use when it began; tracemalloc slows the
package's Python loops several times over, so timings come from passes
without it and peaks from a separate pass with it.  Counts are computed from
call arguments, so they repeat exactly.  Spans are kept in memory and written
out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "energysieve"
# the package modules that do work; `errors` holds none
LAYERS = ("energy", "sieve", "correlation", "arith", "sets", "cli", "limits")
MIB = float(1 << 20)

# total time (".s"), excluding a span nested in another of the same name
TIMED = (
    "energy.rep_sum", "energy.rep_diff",
    "sieve.DifferenceTable", "sieve.DifferenceTable.lookup", "sieve.divisor_sum_partition",
    "sieve.composite_moduli_check", "sieve.gallagher_bound",
    "arith.series_table", "arith.singular_series", "arith.sieve_primes", "arith.delta",
    "sets.is_sidon", "sets.residue_avoiding_random", "sets.read_set", "sets.write_set",
    "sets.squares_up_to", "sets.mod4_restrict",
)
SELF_TIMED = (
    "energy.energy_sum_path", "energy.energy_diff_path", "sieve.divisor_sum_direct",
    "correlation.energy_decomposition", "correlation.energy_lower_bound",
    "correlation.correlation_row", "correlation.ramanujan_row", "correlation.sidon_row",
    "correlation.sidon_report", "cli.main",
)
CALLED = (
    "energy.rep_sum", "energy.rep_diff", "sieve.DifferenceTable", "arith.sieve_primes",
    "arith.delta", "arith.factorize", "sets.squares_up_to", "sets.occupancy",
    "limits.check_allocation",
)
PEAK_LAYERS = ("energy", "sieve", "sets")
# metrics that only a pass with tracemalloc measures
MEMORY_METRICS = (*(f"{layer}.peak_mb" for layer in PEAK_LAYERS), "limits.peak_over_counted")


def _card(s) -> int:
    return len(s.elements)


def _pair_window(counts: Counter, a: dict) -> None:
    xs, ys = a["X"].elements, a["Y"].elements
    counts["energy.pairs"] += len(xs) * len(ys)
    if len(xs) and len(ys):
        # x + y and x - y both span (max X - min X) + (max Y - min Y) + 1 values
        counts["energy.window"] += int(xs[-1] - xs[0]) + int(ys[-1] - ys[0]) + 1


def _series_terms(counts: Counter, a: dict) -> None:
    counts["arith.series_terms"] = max(counts["arith.series_terms"], max(int(x) for x in a["xs"]))


def _counted(counts: Counter, a: dict) -> None:
    # the cap applies to each request on its own, so the largest one is what
    # a peak is compared with
    for key in ("limits.counted_bytes", "limits.job_counted_bytes"):
        counts[key] = max(counts[key], int(a["nbytes"]))


# span name -> update of the counts from the call's bound arguments
COUNTERS = {
    "energy.rep_sum": _pair_window,
    "energy.rep_diff": _pair_window,
    "sieve.DifferenceTable": lambda c, a: c.update({"sieve.diff_pairs": _card(a["A"]) ** 2}),
    "sieve.divisor_sum_partition":
        lambda c, a: c.update({"sieve.partition_moduli": math.isqrt(a["N"])}),
    "arith.series_table": _series_terms,
    "sets.is_sidon":
        lambda c, a: c.update({"sets.sidon_pairs": _card(a["X"]) * (_card(a["X"]) + 1) // 2}),
    "limits.check_allocation": _counted,
}


@dataclass
class _Frame:
    name: str
    layer: str
    outer: bool   # no enclosing span of the same name
    base: int     # traced bytes when the span began
    t0: float = 0.0
    child_s: float = 0.0
    peak: int = 0  # highest traced bytes seen before the last child reset the peak


@dataclass
class Tracer:
    spans: list = field(default_factory=list)        # every finished span, all passes
    counts: Counter = field(default_factory=Counter)  # this pass
    pass_index: int = 0
    _pass_start: int = 0
    _memory: bool = False
    _stack: list = field(default_factory=list)
    _depth: Counter = field(default_factory=Counter)
    _job_ratios: list = field(default_factory=list)

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self._pass_start = len(self.spans)
        self.counts = Counter()
        self._job_ratios = []
        self._memory = tracemalloc.is_tracing()

    def enter(self, name: str, layer: str) -> _Frame:
        current = 0
        if self._memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
        frame = _Frame(name, layer, self._depth[name] == 0, current)
        self._depth[name] += 1
        self._stack.append(frame)
        frame.t0 = perf_counter()
        return frame

    def exit(self, frame: _Frame) -> dict:
        t1 = perf_counter()
        peak = max(frame.peak, tracemalloc.get_traced_memory()[1]) if self._memory else 0
        self._stack.pop()
        self._depth[frame.name] -= 1
        duration = t1 - frame.t0
        if self._stack:
            self._stack[-1].child_s += duration
        span = {
            "pass": self.pass_index,
            "tracemalloc": self._memory,
            "name": frame.name,
            "layer": frame.layer,
            "depth": len(self._stack),
            "start": frame.t0,
            "end": t1,
            "self_s": duration - frame.child_s,
            "peak_bytes": peak - frame.base,
            "outer": frame.outer,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def job(self, name: str):
        """Root span of one benchmark job; also records the job's tracemalloc
        peak over the largest allocation `check_allocation` was asked about."""
        self.counts["limits.job_counted_bytes"] = 0
        frame = self.enter(f"job.{name}", "job")
        try:
            yield
        finally:
            span = self.exit(frame)
            counted = self.counts["limits.job_counted_bytes"]
            if counted and self._memory:
                self._job_ratios.append(span["peak_bytes"] / counted)

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current pass."""
        total, self_s, calls = Counter(), Counter(), Counter()
        layer_self, layer_peak = Counter(), Counter()
        for sp in self.spans[self._pass_start:]:
            calls[sp["name"]] += 1
            self_s[sp["name"]] += sp["self_s"]
            if sp["outer"]:
                total[sp["name"]] += sp["end"] - sp["start"]
            layer_self[sp["layer"]] += sp["self_s"]
            layer_peak[sp["layer"]] = max(layer_peak[sp["layer"]], sp["peak_bytes"])
        c = self.counts
        m: dict[str, float] = {}
        m.update({f"{n}.s": total[n] for n in TIMED})
        m.update({f"{n}.self_s": self_s[n] for n in SELF_TIMED})
        m.update({f"{n}.calls": calls[n] for n in CALLED})
        m.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
        m.update({f"{layer}.peak_mb": layer_peak[layer] / MIB for layer in PEAK_LAYERS})
        pair_s = total["energy.rep_sum"] + total["energy.rep_diff"]
        m["energy.pairs"] = c["energy.pairs"]
        m["energy.window"] = c["energy.window"]
        m["energy.pairs_per_s"] = c["energy.pairs"] / pair_s if pair_s else 0.0
        m["sieve.diff_pairs"] = c["sieve.diff_pairs"]
        m["sieve.partition_moduli"] = c["sieve.partition_moduli"]
        m["arith.series_terms"] = c["arith.series_terms"]
        m["sets.sidon_pairs"] = c["sets.sidon_pairs"]
        m["cli.out_bytes"] = c["cli.out_bytes"]
        m["limits.counted_mb"] = c["limits.counted_bytes"] / MIB
        m["limits.peak_over_counted"] = max(self._job_ratios, default=0.0)
        return m

    def attributed_s(self) -> float:
        """Self time of the current pass spent inside the package's layers."""
        return sum(sp["self_s"] for sp in self.spans[self._pass_start:] if sp["layer"] in LAYERS)


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    count = COUNTERS.get(name)
    signature = inspect.signature(fn) if count else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count:
            count(tracer.counts, signature.bind(*args, **kwargs).arguments)
        frame = tracer.enter(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return wrapper


def package_modules() -> dict:
    return {
        name: mod for name, mod in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    }


def instrument(tracer: Tracer):
    """Wrap every public function at every binding site; returns the undo."""
    modules = package_modules()
    wrappers: dict = {}
    undo: list = []
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ not in modules:
                continue
            layer = obj.__module__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            if obj not in wrappers:
                wrappers[obj] = _wrap(tracer, obj, f"{layer}.{obj.__name__}", layer)
            setattr(mod, attr, wrappers[obj])
            undo.append((mod, attr, obj))
    table = modules[f"{PACKAGE}.sieve"].DifferenceTable
    for attr, name in (("__init__", "sieve.DifferenceTable"), ("lookup", "sieve.DifferenceTable.lookup")):
        original = vars(table)[attr]
        setattr(table, attr, _wrap(tracer, original, name, "sieve"))
        undo.append((table, attr, original))

    def restore() -> None:
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)

    return restore
