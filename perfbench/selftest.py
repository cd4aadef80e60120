"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py          # from the root of a checkout

Also collectable with ``python3 -m pytest perfbench/selftest.py``.  Two of
the tests start the benchmark in a child process; the slowest takes about
fifteen seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import reference as ref  # noqa: E402
import ringsolve.dynamics  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import IDEAL_CFG, WORKLOADS  # noqa: E402

HELD_OUT_SEED = 20261017


def _same(x, y) -> bool:
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    if hasattr(x, "a") and hasattr(x, "b"):  # LinearProblem
        return np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(_same(u, v) for u, v in zip(x, y))
    return x == y


def _workload(name: str, seed: int, workdir: str):
    return WORKLOADS[name](seed, workdir)


def test_generator_is_deterministic_per_seed():
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for seed in (1, HELD_OUT_SEED):
                first, second = _workload(name, seed, tmp), _workload(name, seed, tmp)
                for i in (0, 1, first.cycle - 1, 3 * first.cycle + 1):
                    a, b = first.make_op(i), second.make_op(i)
                    assert a.label == b.label and _same(a.data, b.data), (name, seed, i)
            one, other = _workload(name, 1, tmp), _workload(name, 2, tmp)
            assert not _same(one.make_op(0).data, other.make_op(0).data), name


def test_wrappers_restore_the_originals():
    tr = tracer_mod.Tracer()
    originals = tr.originals()
    bound = {
        (module, attr): value
        for module in tracer_mod.MODULES
        for attr, value in vars(sys.modules[module]).items()
    }
    tr.install()
    try:
        assert ringsolve.dynamics.simulate is not originals["dynamics.simulate"]
        assert ringsolve.dynamics.compile_plan is not originals["netlist.plan"]
        assert ringsolve.cli.solve is not originals["dynamics.solve"]
        trace_cls = ringsolve.dynamics.Trace
        assert trace_cls.__dict__["write_csv"] is not originals["dynamics.trace_write_csv"]
    finally:
        tr.restore()
    for (module, attr), value in bound.items():
        assert vars(sys.modules[module])[attr] is value, f"{module}.{attr} not restored"
    assert ringsolve.dynamics.Trace.__dict__["write_csv"] is originals["dynamics.trace_write_csv"]


def test_tracer_self_time_excludes_children():
    with tempfile.TemporaryDirectory() as tmp:
        wl = _workload("ideal-ladder", 1, tmp)
        tr = tracer_mod.Tracer()
        tr.install()
        try:
            wl.run(wl.make_op(0))
        finally:
            tr.restore()
    solve = [s for s in tr.spans if s.name == "dynamics.solve"]
    assert len(solve) == 1
    children = [s for s in tr.spans if s.parent == tr.spans.index(solve[0])]
    assert {s.name for s in children} >= {"dynamics.simulate", "dynamics.stability_report"}
    covered = sum(s.end - s.start for s in children)
    assert abs(solve[0].self_s - (solve[0].end - solve[0].start - covered)) < 1e-12
    assert tr.counts["dynamics.simulate.steps"] > 0


def test_gate_rejects_a_perturbed_x():
    with tempfile.TemporaryDirectory() as tmp:
        wl = _workload("ideal-ladder", 1, tmp)
        op = wl.make_op(0)
        res = wl.run(op)
        assert wl.check(op, res).cause is None
        bad = wl.check(op, dataclasses.replace(res, x=res.x + 2e-3))
        assert bad.cause and bad.wrong

        phase = _workload("phase-spectral", 1, tmp)
        op = phase.make_op(0)
        series, report = phase.run(op)
        assert phase.check(op, (series, report)).cause is None
        off_grid = phase.check(op, (series + 1e-3, report))
        assert off_grid.cause and off_grid.wrong


def test_ladder_reference_matches_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        wl = _workload("ideal-ladder", 1, tmp)
        for i in range(6):
            op = wl.make_op(i)
            res = wl.run(op)
            rate = ref.ladder_decay_rate(op.data["problem"].a, IDEAL_CFG.g)
            assert rate * IDEAL_CFG.t_max >= wl.MIN_DECAY, i
            assert abs(res.stability.max_re_eig + rate) <= 1e-9 * rate, (i, res.fallback)


def test_calibration_uses_the_samples_near_an_operation():
    cal = calibration.Calibrator()
    cal.times = [float(t) for t in range(20)]
    cal.seconds = [1e-3 if t < 10 else 4e-3 for t in range(20)]
    assert calibration.NEAREST <= 9
    assert cal.scale(2.5) == calibration.NOMINAL_S / 1e-3
    assert cal.scale(17.0) == calibration.NOMINAL_S / 4e-3
    assert cal.overall_scale() == calibration.NOMINAL_S / 2.5e-3


def _bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_model_figures_repeat_exactly():
    for name in ("phase-spectral", "sweep-reuse"):
        runs = []
        for _ in range(2):
            done = _bench(["--workload", name, "--seed", "3", "--seconds", "1"], ROOT)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, done.stdout
            runs.append({k: v["value"] for k, v in result["metrics"].items()
                         if k.startswith("model_")})
        assert runs[0] == runs[1] and len(runs[0]) == 2, (name, runs)


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _bench(["--workload", "ideal-ladder", "--seed", "1", "--seconds", "1"], bare)
    assert done.returncode != 0
    assert not done.stdout.strip(), done.stdout


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
