"""Measurement loop, metrics and result files of the benchmark.

Operations run as a closed loop with one caller: the next operation starts
when the previous one returns.  Only the operation itself is timed; input
staging, the correctness check and the calibration kernel run between
timings.  A run stops at the first whole cycle after ``--seconds`` (and
after the cycles the modelled figures need), or at HARD_CAP_S whatever the
cycle.  The timed metrics use each operation's CPU time scaled to the
nominal host speed (see ``calibration``); the raw wall-clock figures are
printed beside them.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import ringsolve
from calibration import Calibrator
from tracer import Tracer
from workloads import SOLVER_FAILURES, WORKLOADS, Outcome

HARD_CAP_S = 150.0
SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median
SETUP_KERNELS = 10  # kernel samples that scale each set-up to the nominal host
P90_MIN_OPS = 100  # leaves at least ten samples beyond the 90th percentile
RESULTS_DIR = "perfbench_results"


@dataclass
class Record:
    index: int
    label: str
    start: float
    seconds: float  # host (wall-clock) time
    cpu: float      # the process's CPU time
    cause: Optional[str]
    wrong: bool
    model: list
    scaled: float = 0.0  # CPU time scaled to the nominal host speed


def measure(wl, seconds: float, min_ops: int, cal: Calibrator,
            tracer: Optional[Tracer] = None) -> list[Record]:
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        op = wl.op(i)
        wl.stage(op)
        if cal.due(time.perf_counter()):
            cal.sample()
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            out = wl.run(op)
            error = None
        except Exception as exc:  # an op failure is counted, never fatal
            error = Outcome(f"{type(exc).__name__}: {exc}",
                            wrong=not isinstance(exc, SOLVER_FAILURES))
        cpu = time.process_time() - c0
        elapsed = time.perf_counter() - t0
        if error is None:
            try:
                outcome = wl.check(op, out)
            except Exception as exc:
                outcome = Outcome(f"check raised {type(exc).__name__}: {exc}")
        else:
            outcome = error
        if tracer is not None:
            tracer.op = -1
        wrong = outcome.cause is not None and outcome.wrong
        records.append(Record(i, op.label, t0, elapsed, cpu, outcome.cause, wrong, outcome.model))
        i += 1
        used = time.perf_counter() - start
        if used >= HARD_CAP_S or (i % wl.cycle == 0 and i >= min_ops and used >= seconds):
            break
    cal.sample()
    for r in records:
        r.scaled = r.cpu * cal.scale(r.start + r.seconds / 2.0)
    return records


def _times(records: list[Record], host: bool) -> list[float]:
    return [r.seconds if host else r.scaled for r in records]


def ops_per_s(records: list[Record], host: bool = False) -> float:
    return len(records) / sum(_times(records, host))


def op_s_p50(records: list[Record], cycle: int, host: bool = False) -> float:
    """Median over whole cycles of the mean seconds per operation in the cycle."""
    times = _times(records, host)
    whole = len(times) // cycle * cycle
    return statistics.median(sum(times[k : k + cycle]) / cycle for k in range(0, whole, cycle))


def end_to_end(records: list[Record], wl, setup_s: float) -> dict[str, tuple[float, str]]:
    prefix = wl.model_cycles * wl.cycle
    samples = [s for r in records[:prefix] for s in r.model]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s(records), "1/s"),
        "op_s_p50": (op_s_p50(records, wl.cycle), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "model_t_converge_us_p50": (
            statistics.median(t for t, _ in samples) if samples else 0.0, "us"),
        "model_energy_uj_p50": (
            statistics.median(e for _, e in samples) if samples else 0.0, "uJ"),
    }


def report_only(records: list[Record], wl, cal: Calibrator,
                setup_host_s: float) -> dict[str, tuple[float, str]]:
    """Metrics printed in the report but not in the JSON result (see README)."""
    failed = sum(r.cause is not None for r in records)
    extra = {"fail_ratio": (failed / len(records), "ratio")}
    if len(records) >= P90_MIN_OPS:
        extra["op_s_p90"] = (statistics.quantiles(_times(records, False), n=10)[8], "s")
    extra.update({
        "host.setup_s": (setup_host_s, "s"),
        "host.ops_per_s": (ops_per_s(records, host=True), "1/s"),
        "host.op_s_p50": (op_s_p50(records, wl.cycle, host=True), "s"),
        "calibration.kernel_s_p50": (cal.median_s(), "s"),
        "calibration.samples": (len(cal.seconds), "count"),
    })
    return extra


def per_layer(tracer: Tracer, traced: list[Record], untraced: list[Record]) -> dict:
    stats = tracer.layer_stats()
    counts = tracer.counts
    ops = len(traced)

    def calls(name):
        return stats[name][0]

    def self_s(name):
        return stats[name][1]

    def ratio(num, den):
        return num / den if den else 0.0

    steps = counts["dynamics.simulate.steps"]
    out = {
        "trace.ops": (ops, "count"),
        "trace.overhead_ratio": (ops_per_s(traced) / ops_per_s(untraced), "ratio"),
        "dynamics.simulate.calls": (calls("dynamics.simulate"), "count"),
        "dynamics.simulate.self_s": (self_s("dynamics.simulate"), "s"),
        "dynamics.simulate.steps": (steps, "count"),
        "dynamics.simulate.state_dim_mean": (
            ratio(counts["dynamics.simulate.state_dim_sum"], calls("dynamics.simulate")), "states"),
        "dynamics.simulate.ns_per_step": (ratio(self_s("dynamics.simulate") * 1e9, steps), "ns"),
        "dynamics.simulate.useful_step_ratio": (
            ratio(counts["dynamics.simulate.needed_steps"], steps), "ratio"),
        "dynamics.stability_report.calls": (calls("dynamics.stability_report"), "count"),
        "dynamics.stability_report.self_s": (self_s("dynamics.stability_report"), "s"),
        "dynamics.stability_report.state_dim_max": (
            counts["dynamics.stability_report.state_dim_max"], "states"),
        "dynamics.ladder.rungs_per_op": (
            ratio(calls("dynamics.stability_report"), calls("dynamics.solve")), "ratio"),
        "dynamics.ladder.useful_ratio": (
            ratio(calls("dynamics.simulate"), calls("dynamics.stability_report")), "ratio"),
        "dynamics.solve.self_s": (self_s("dynamics.solve"), "s"),
        "dynamics.ideal_system.calls": (calls("dynamics.ideal_system"), "count"),
        "dynamics.ideal_system.self_s": (self_s("dynamics.ideal_system"), "s"),
        "problem.scale_problem.calls": (calls("problem.scale_problem"), "count"),
        "problem.scale_problem.self_s": (self_s("problem.scale_problem"), "s"),
        "problem.inv_inf_norm.calls": (calls("problem.inv_inf_norm"), "count"),
        "netlist.plan.calls": (calls("netlist.plan"), "count"),
        "netlist.plan.self_s": (self_s("netlist.plan"), "s"),
        "netlist.plan.calls_per_op": (ratio(calls("netlist.plan"), ops), "ratio"),
        "netlist.program_memristors.calls": (calls("netlist.program_memristors"), "count"),
        "netlist.program_memristors.self_s": (self_s("netlist.program_memristors"), "s"),
        "dynamics.build_system.calls": (calls("dynamics.build_system"), "count"),
        "dynamics.build_system.self_s": (self_s("dynamics.build_system"), "s"),
        "cli.run.calls": (calls("cli.run"), "count"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "cli.output_bytes": (counts["cli.output_bytes"], "B"),
        "dynamics.trace_write_csv.calls": (calls("dynamics.trace_write_csv"), "count"),
        "dynamics.trace_write_csv.self_s": (self_s("dynamics.trace_write_csv"), "s"),
        "dynamics.trace_write_csv.bytes": (counts["dynamics.trace_write_csv.bytes"], "B"),
        "metrics.efficiency.calls": (calls("metrics.efficiency"), "count"),
        "metrics.efficiency.self_s": (self_s("metrics.efficiency"), "s"),
        "phase.sfdr.calls": (calls("phase.sfdr"), "count"),
        "phase.sfdr.self_s": (self_s("phase.sfdr"), "s"),
    }
    for fn in ("simulate_phase_lowpass", "simulate_phase_integrator"):
        name = f"phase.{fn}"
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
        out[f"{name}.ns_per_sample"] = (
            ratio(self_s(name) * 1e9, counts[f"{name}.samples"]), "ns")
    return out


def environment(args, blas_threads: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": blas_threads,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_setup(args, root: Path) -> tuple[float, float]:
    """(wall, scaled CPU) set-up seconds of a fresh process: imports, inputs and warm-up."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(done.stdout.splitlines()[-1])
    return probe["setup_s"], probe["setup_scaled_s"]


def _failures(records: list[Record]) -> list[dict]:
    return [{"op": r.index, "label": r.label, "cause": r.cause, "wrong": r.wrong}
            for r in records if r.cause]


def main(args, root: Path, start: float, blas_threads: int) -> int:
    if not Path(ringsolve.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: ringsolve imported from {ringsolve.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2
    results_root = root / RESULTS_DIR
    results_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=results_root)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        # CPU time counts from process start, so it includes interpreter
        # start-up; kernel samples taken right after scale it.
        wall, cpu = time.perf_counter() - start, time.process_time()
        cal = Calibrator()
        for _ in range(SETUP_KERNELS):
            cal.sample()
        own_setup = (wall, cpu * cal.overall_scale())
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup[0], "setup_scaled_s": own_setup[1]}))
            return 0
        return _run(args, root, wl, own_setup, cal, blas_threads, results_root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, root, wl, own_setup, cal, blas_threads, results_root) -> int:
    outdir = results_root / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    outdir.mkdir(exist_ok=True)
    env = environment(args, blas_threads)
    (outdir / "env.json").write_text(json.dumps(env, indent=2) + "\n")

    if args.trace:
        half = args.seconds / 2.0
        untraced = measure(wl, half, wl.cycle, cal)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(wl, half, wl.cycle, cal, tracer)
        finally:
            tracer.restore()
        tracer.write_spans(str(outdir / "spans.csv"))
        records = untraced + traced
        metrics = per_layer(tracer, traced, untraced)
        shown = metrics
        setup = []
    else:
        setup = [own_setup] + [probe_setup(args, root) for _ in range(SETUP_PROBES)]
        records = measure(wl, args.seconds, wl.model_cycles * wl.cycle, cal)
        setup_host_s = statistics.median(wall for wall, _ in setup)
        metrics = end_to_end(records, wl, statistics.median(scaled for _, scaled in setup))
        shown = {**metrics, **report_only(records, wl, cal, setup_host_s)}

    failures = _failures(records)
    result = {
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    redrawn = sorted(i for i in wl.excluded if i < len(records))
    detail = {**result, "environment": env, "setup_samples_s": setup, "failures": failures,
              "redrawn_ops": redrawn,
              "calibration": [[t, s] for t, s in zip(cal.times, cal.seconds)],
              "ops": [[r.index, r.label, r.start, r.seconds, r.cpu, r.scaled] for r in records]}
    (outdir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} ops={len(records)} "
          f"nproc={env['nproc']} blas_threads={blas_threads} results={outdir.relative_to(root)}")
    if args.trace:
        print("# per-layer busy time and counts; single process with no queues, "
              "so no layer has wait time")
    for name, (value, unit) in shown.items():
        note = f"  ({len(records)} samples)" if name == "op_s_p90" else ""
        print(f"{name:44s} {value:.6g} {unit}{note}")
    if redrawn:
        print(f"# {len(redrawn)} of {len(records)} ops redrew inputs outside the workload's "
              f"input class (see the workload notes)")
    for f in failures:
        kind = "WRONG" if f["wrong"] else "FAILED"
        print(f"{kind} op {f['op']} ({f['label']}): {f['cause']}")
    print(json.dumps(result))
    return 0
