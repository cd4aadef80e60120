"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds the public functions the pipeline calls to
timing wrappers, in every ringsolve module namespace that holds them (so
``ringsolve.dynamics.compile_plan`` and ``ringsolve.netlist.plan`` are both
covered), and ``restore`` puts the originals back.  Each wrapped call adds a
span (name, start, end, parent span, op id) to an in-memory list; a few
wrappers also count work (steps, samples, bytes, state dimension) from the
arguments and results.  Self time is a span's duration minus the durations
of its direct children; calls nest strictly because the program is
single-threaded.

The program has no queues or worker pools, so a layer has busy time and
counts only: there is no per-layer wait time to report.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import reference as ref

MODULES = (
    "ringsolve",
    "ringsolve.problem",
    "ringsolve.netlist",
    "ringsolve.dynamics",
    "ringsolve.phase",
    "ringsolve.metrics",
    "ringsolve.cli",
)

# span name -> (defining module, attribute)
TARGETS = {
    "cli.run": ("ringsolve.cli", "run"),
    "dynamics.solve": ("ringsolve.dynamics", "solve"),
    "dynamics.simulate": ("ringsolve.dynamics", "simulate"),
    "dynamics.stability_report": ("ringsolve.dynamics", "stability_report"),
    "dynamics.build_system": ("ringsolve.dynamics", "build_system"),
    "dynamics.ideal_system": ("ringsolve.dynamics", "ideal_system"),
    "netlist.plan": ("ringsolve.netlist", "plan"),
    "netlist.program_memristors": ("ringsolve.netlist", "program_memristors"),
    "problem.scale_problem": ("ringsolve.problem", "scale_problem"),
    "problem.inv_inf_norm": ("ringsolve.problem", "inv_inf_norm"),
    "phase.simulate_phase_integrator": ("ringsolve.phase", "simulate_phase_integrator"),
    "phase.simulate_phase_lowpass": ("ringsolve.phase", "simulate_phase_lowpass"),
    "phase.sfdr": ("ringsolve.phase", "sfdr"),
    "metrics.efficiency": ("ringsolve.metrics", "efficiency"),
}
TRACE_WRITE_CSV = "dynamics.trace_write_csv"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    op: int
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _file_bytes(path) -> int:
    return os.path.getsize(path) if isinstance(path, str) and os.path.exists(path) else 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- rebinding -------------------------------------------------------

    def originals(self) -> dict[str, object]:
        """The functions the tracer wraps, by span name."""
        found = {}
        for name, (module, attr) in TARGETS.items():
            found[name] = getattr(sys.modules[module], attr)
        trace_cls = sys.modules["ringsolve.dynamics"].Trace
        found[TRACE_WRITE_CSV] = trace_cls.__dict__["write_csv"]
        return found

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {
            "dynamics.simulate": self._count_simulate,
            "dynamics.stability_report": self._count_stability,
            "phase.simulate_phase_integrator": self._count_samples,
            "phase.simulate_phase_lowpass": self._count_samples,
            "cli.run": self._count_cli_output,
            TRACE_WRITE_CSV: self._count_csv_bytes,
        }
        originals = self.originals()
        for name, fn in originals.items():
            wrapper = self._wrap(name, fn, hooks.get(name))
            if name == TRACE_WRITE_CSV:
                self._rebind(sys.modules["ringsolve.dynamics"].Trace, "write_csv", wrapper)
                continue
            for module in MODULES:
                namespace = sys.modules[module]
                for attr, value in list(vars(namespace).items()):
                    if value is fn:
                        self._rebind(namespace, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _rebind(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.end - span.start
            if hook is not None:
                hook(name, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- counters (measured from arguments and results) -------------------

    def _count_simulate(self, name, args, kwargs, result) -> None:
        ss, cfg = args[0], args[1]
        steps, needed = ref.steps_from_trace(result, ss, cfg)
        self.counts["dynamics.simulate.steps"] += steps
        self.counts["dynamics.simulate.needed_steps"] += needed
        self.counts["dynamics.simulate.state_dim_sum"] += ss.m.shape[0]

    def _count_stability(self, name, args, kwargs, result) -> None:
        dim = args[0].m.shape[0]
        key = "dynamics.stability_report.state_dim_max"
        self.counts[key] = max(self.counts[key], dim)

    def _count_samples(self, name, args, kwargs, result) -> None:
        self.counts[f"{name}.samples"] += len(result)

    def _count_cli_output(self, name, args, kwargs, result) -> None:
        argv = list((args[0] if args else kwargs.get("argv")) or [])
        total = 0
        for flag in ("--out", "--trace"):
            if flag in argv:
                total += _file_bytes(argv[argv.index(flag) + 1])
        self.counts["cli.output_bytes"] += total

    def _count_csv_bytes(self, name, args, kwargs, result) -> None:
        destination = args[1] if len(args) > 1 else kwargs.get("destination")
        self.counts[f"{name}.bytes"] += _file_bytes(destination)

    # -- results ----------------------------------------------------------

    def layer_stats(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        stats: dict[str, list] = {name: [0, 0.0] for name in [*TARGETS, TRACE_WRITE_CSV]}
        for span in self.spans:
            entry = stats[span.name]
            entry[0] += 1
            entry[1] += span.self_s
        return {name: (calls, self_s) for name, (calls, self_s) in stats.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "op", "self_s"])
            origin = self.spans[0].start if self.spans else 0.0
            for i, s in enumerate(self.spans):
                out.writerow([i, s.name, f"{s.start - origin:.9f}", f"{s.end - origin:.9f}",
                              s.parent, s.op, f"{s.self_s:.9f}"])
