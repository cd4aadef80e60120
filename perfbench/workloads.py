"""The four benchmark workloads.

Each workload turns the seed into inputs, runs one operation per call (the
only part that is timed), and checks the output against ``reference``.
Operation ``i`` is a pure function of (seed, i), so inputs repeat exactly
for a seed however many operations a run completes.  Runs stop on whole
cycles of ``cycle`` operations, so every run sees the same mix.

A check returns ``Outcome``: the cause of failure (None when the operation
succeeded), whether the output was wrong, and the modelled (t_converge in
us, energy in uJ) samples the output yields.  An honest "did not converge"
is a failed operation but not a wrong answer; an answer that misses its
reference is both.  Modelled figures come from ``ringsolve.metrics``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

import reference as ref
import ringsolve.cli
import ringsolve.dynamics
import ringsolve.metrics
import ringsolve.phase
from ringsolve.dynamics import Mode, SolveOptions, SolverConfig
from ringsolve.problem import LinearProblem, ScalePolicy


@dataclass
class Op:
    index: int
    label: str
    data: dict


@dataclass
class Outcome:
    cause: Optional[str] = None
    wrong: bool = True  # meaningful only when cause is set
    model: list = field(default_factory=list)  # [(t_converge_us, energy_uj)]


# Documented solver outcomes: the op failed, but the program did not err.
SOLVER_FAILURES = (ringsolve.dynamics.UnstableSystem,)


def not_converged(diagnostics: str) -> Outcome:
    return Outcome(f"not converged: {diagnostics or 'residual above eps'}", wrong=False)


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def model_sample(n: int, integrators: int, t_converge_s: float) -> tuple[float, float]:
    """(t_converge in us, energy in uJ) of one solve, as the metrics command reports."""
    power = ringsolve.metrics.power_estimate(integrators)
    report = ringsolve.metrics.efficiency(
        ringsolve.metrics.ops_count(n), power, t_converge_s, integrator_count=integrators
    )
    return report.t_converge_us, report.energy_uj


class Workload:
    name = ""
    cycle = 1
    model_cycles = 1  # the modelled figures come from this many leading cycles
    setup_ops = 0     # operations whose inputs are generated during set-up

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._ops: dict[int, Op] = {}
        self.excluded: set[int] = set()  # ops whose first draws left the input class

    def op(self, i: int) -> Op:
        return self._ops[i] if i in self._ops else self.make_op(i)

    def prepare(self) -> None:
        """Generate the set-up inputs and run one untimed warm-up operation."""
        for i in range(self.setup_ops):
            self._ops[i] = self.make_op(i)
        self.warm_up()

    def make_op(self, i: int) -> Op:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def stage(self, op: Op) -> None:
        """Untimed preparation just before the operation runs."""

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, out: Any) -> Outcome:
        raise NotImplementedError


def dense_problem(rng: np.random.Generator, n: int) -> LinearProblem:
    """Diagonally dominant mixed-sign system with a fixed cost per size.

    45 % of the off-diagonal entries are positive (so the planned
    orientation keeps them and needs that many inverters), the diagonal is
    -1.25 times its row's off-diagonal mass, and the matrix is scaled to a
    maximum absolute row sum of 10.  Under the auto step the step count then
    depends on the horizon alone, and the state dimension on n alone.
    """
    off = rng.uniform(0.2, 1.0, (n, n))
    np.fill_diagonal(off, 0.0)
    idx = np.flatnonzero(~np.eye(n, dtype=bool))
    sign = -np.ones(n * n)
    sign[rng.permutation(idx)[: int(0.45 * idx.size)]] = 1.0
    a = off * sign.reshape(n, n)
    np.fill_diagonal(a, -1.25 * off.sum(axis=1))
    a *= 10.0 / np.abs(a).sum(axis=1).max()
    return LinearProblem(a, rng.uniform(-0.5, 0.5, n))


class StructuralDense(Workload):
    """Fresh dense systems, n in {12, 16, 20}, structural mode, default config."""

    name = "structural-dense"
    SIZES = (12, 16, 20)
    cycle = len(SIZES)
    model_cycles = 8
    setup_ops = cycle * model_cycles

    def make_op(self, i):
        n = self.SIZES[i % self.cycle]
        return Op(i, f"n={n}", {"problem": dense_problem(_rng(self.seed, 1, i), n)})

    def warm_up(self):
        ringsolve.dynamics.solve(
            dense_problem(_rng(self.seed, 0, 0), 4), SolverConfig(t_max=2e-7)
        )

    def run(self, op):
        return ringsolve.dynamics.solve(op.data["problem"])

    def check(self, op, res):
        p = op.data["problem"]
        if not res.converged:
            return not_converged(res.diagnostics)
        cause = ref.check_x(res.x, p.a, p.b)
        if cause:
            return Outcome(cause)
        integrators = ref.census(p.a)
        if res.plan is None or res.plan.total_integrators != integrators:
            return Outcome(f"plan census differs from the reference {integrators}")
        return Outcome(model=[model_sample(p.n, integrators, res.t_converge)])


# Criterion-10 settings: eps 1e-6, 40 us, dt = 0.5 / g, exact scaling.
IDEAL_CFG = SolverConfig(
    k_vco=300e6,
    eps_residual=1e-6,
    t_max=40e-6,
    dt=0.5 / (300e6 / math.pi),
    mode=Mode.IDEAL,
)
IDEAL_OPTIONS = SolveOptions(scale=ScalePolicy.EXACT)


def uniform_problem(rng: np.random.Generator, n: int, kappa_max: float = 25.0) -> LinearProblem:
    """Uniform random system in [-1, 1] with kappa_inf <= kappa_max (rejection)."""
    while True:
        a = rng.uniform(-1.0, 1.0, (n, n))
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            continue
        kappa = np.abs(a).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
        if kappa <= kappa_max:
            return LinearProblem(a, rng.uniform(-0.5, 0.5, n))


class IdealLadder(Workload):
    """Fresh small systems, n in {4, 8}, ideal mode with the criterion-10 settings.

    The input class is the systems the 40 us horizon can settle: besides
    kappa_inf <= 25, the slowest mode of the rung the ladder simulates must
    decay by at least exp(-MIN_DECAY) over the horizon.  About one draw in
    90 misses that and is redrawn; the run reports how many.  Without the
    condition about one op in 700 ends unconverged (the residual still
    above 1e-6 at 40 us), all of them at a decay below exp(-14).
    """

    name = "ideal-ladder"
    SIZES = (4, 8)
    MIN_DECAY = 20.0
    # Modelled figures come from the n = 8 ops: a median over two size
    # clusters would sit in the gap between them.
    MODEL_SIZE = 8
    cycle = len(SIZES)
    model_cycles = 500
    setup_ops = cycle * model_cycles

    def make_op(self, i):
        n = self.SIZES[i % self.cycle]
        rng = _rng(self.seed, 1, i)
        while True:
            p = uniform_problem(rng, n)
            if ref.ladder_decay_rate(p.a, IDEAL_CFG.g) * IDEAL_CFG.t_max >= self.MIN_DECAY:
                return Op(i, f"n={n}", {"problem": p})
            self.excluded.add(i)

    def warm_up(self):
        ringsolve.dynamics.solve(
            uniform_problem(_rng(self.seed, 0, 0), 4), IDEAL_CFG, IDEAL_OPTIONS
        )

    def run(self, op):
        return ringsolve.dynamics.solve(op.data["problem"], IDEAL_CFG, IDEAL_OPTIONS)

    def check(self, op, res):
        p = op.data["problem"]
        if not res.converged:
            return not_converged(res.diagnostics)
        cause = ref.check_x(res.x, p.a, p.b)
        if cause:
            return Outcome(cause)
        if p.n != self.MODEL_SIZE:
            return Outcome()
        return Outcome(model=[model_sample(p.n, ref.after_reuse_census(p.n), res.t_converge)])


def reuse_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Diagonally dominant mixed-sign matrix inside the ladder and memristor ranges."""
    off = rng.uniform(0.3, 1.2, (n, n))
    np.fill_diagonal(off, 0.0)
    a = off * np.where(rng.random((n, n)) < 0.4, 1.0, -1.0)
    np.fill_diagonal(a, -1.5 * off.sum(axis=1))
    return a


class SweepReuse(Workload):
    """A few fixed matrices, n in {6, 8, 10}, driven through ringsolve.cli.run.

    The matrices do not depend on the seed, which draws the right-hand
    sides.  Operation i works on matrix i % 3 with kind (i // 3) % 4: a k_vco sweep,
    or a traced solve of a new right-hand side, plain, on an 8-bit ladder,
    or on memristors with write noise.  Every operation writes its documents
    into the work directory.
    """

    name = "sweep-reuse"
    SIZES = (6, 8, 10)
    KINDS = ("sweep", "solve", "solve-q8", "solve-mem")
    cycle = len(SIZES) * len(KINDS)
    model_cycles = 8
    setup_ops = cycle * model_cycles
    TMAX = "2e-6"
    KVCO_LIST = (100e6, 200e6, 300e6)
    # Modelled figures are taken at the default operating point only, so
    # each matrix contributes one cluster of samples and the median sits in
    # the middle one.
    DEFAULT_KVCO = 300e6
    R_IN, R_UNIT, BITS = 2000.0, 8000.0, 8
    WRITE_NOISE = 0.02
    EPS = 1e-3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # The matrices are the same for every seed; the seed draws the inputs.
        self.matrices = [reuse_matrix(_rng(0, 2, k), n) for k, n in enumerate(self.SIZES)]
        self.paths = {
            key: os.path.join(workdir, name)
            for key, name in (
                ("problem", "problem.json"),
                ("out", "result.json"),
                ("trace", "trace.csv"),
                ("sweep", "sweep.csv"),
            )
        }

    def make_op(self, i):
        k = i % len(self.SIZES)
        kind = self.KINDS[(i // len(self.SIZES)) % len(self.KINDS)]
        a = self.matrices[k]
        b = _rng(self.seed, 1, i).uniform(-0.5, 0.5, a.shape[0])
        return Op(i, f"{kind} n={a.shape[0]}", {"a": a, "b": b, "kind": kind})

    def _argv(self, op) -> list[str]:
        kind, p = op.data["kind"], self.paths
        common = [p["problem"], "--tmax", self.TMAX]
        if kind == "sweep":
            kvco = ",".join(f"{v:g}" for v in self.KVCO_LIST)
            return ["sweep", *common, "--kvco-list", kvco, "--out", p["sweep"]]
        argv = ["solve", *common, "--out", p["out"], "--trace", p["trace"]]
        if kind == "solve-q8":
            argv += ["--quantize-bits", str(self.BITS), "--r-unit", f"{self.R_UNIT:g}"]
        elif kind == "solve-mem":
            argv += ["--memristor", "--write-noise", f"{self.WRITE_NOISE:g}", "--seed", str(op.index)]
        return argv

    def warm_up(self):
        warm = self.make_op(self.cycle - 1)  # a traced memristor solve
        self.stage(warm)
        self.run(warm)

    def stage(self, op):
        with open(self.paths["problem"], "w", encoding="utf-8") as fh:
            json.dump({"a": op.data["a"].tolist(), "b": op.data["b"].tolist()}, fh)
        op.data["argv"] = self._argv(op)

    def run(self, op):
        return ringsolve.cli.run(op.data["argv"])

    def check(self, op, code):
        if code == ringsolve.cli.EXIT_DIVERGENCE:
            return Outcome("exit code 3: no convergence or no stable rung", wrong=False)
        if code != 0:
            return Outcome(f"exit code {code}")
        a, b, kind = op.data["a"], op.data["b"], op.data["kind"]
        n = a.shape[0]
        integrators = ref.census(a)
        if kind == "sweep":
            return self._check_sweep(a, b, integrators)
        with open(self.paths["out"], encoding="utf-8") as fh:
            doc = json.load(fh)
        if not doc["converged"]:
            return not_converged(doc["diagnostics"])
        if doc["plan_summary"]["total_integrators"] != integrators:
            return Outcome(f"plan census differs from the reference {integrators}")
        if kind == "solve":
            realized = a
        elif kind == "solve-q8":
            realized = ref.quantized_matrix(a, self.BITS, self.R_IN, self.R_UNIT)
        else:
            realized = ref.memristor_matrix(a, self.R_IN, self.WRITE_NOISE, op.index)
        if not doc["residual_inf"] <= self.EPS:
            return Outcome(f"realized residual {doc['residual_inf']:.3e} > eps {self.EPS:g}")
        cause = ref.check_x(doc["x"], realized, b) or self._check_trace(doc["x"], n)
        if cause:
            return Outcome(cause)
        return Outcome(model=[model_sample(n, integrators, doc["t_converge_s"])])

    def _check_sweep(self, a, b, integrators):
        with open(self.paths["sweep"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        n = a.shape[0]
        header = "k_vco_hz,converged,fallback,t_converge_s,residual_inf," + ",".join(
            f"x{i}" for i in range(n)
        )
        if lines[0] != header or len(lines) != len(self.KVCO_LIST) + 1:
            return Outcome("sweep table has the wrong header or row count")
        model = []
        for kvco, line in zip(self.KVCO_LIST, lines[1:]):
            cells = line.split(",")
            if float(cells[0]) != kvco or cells[1] != "true":
                return Outcome(f"sweep point {kvco:g} missing or unconverged under exit code 0")
            cause = ref.check_x([float(v) for v in cells[5:]], a, b, f"sweep point {kvco:g}")
            if cause:
                return Outcome(cause)
            if kvco == self.DEFAULT_KVCO:
                model.append(model_sample(n, integrators, float(cells[3])))
        return Outcome(model=model)

    def _check_trace(self, x, n) -> Optional[str]:
        with open(self.paths["trace"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = "t_s," + ",".join(f"x{i}" for i in range(n)) + ",residual_inf"
        if lines[0] != header or len(lines) < 3:
            return "trace CSV has the wrong header or too few rows"
        last = np.array([float(v) for v in lines[-1].split(",")[1 : n + 1]])
        if not np.allclose(last, x, rtol=1e-8, atol=1e-12):
            return "trace CSV final row differs from the result document"
        return None


class PhaseSpectral(Workload):
    """The phase-domain model on its own: SFDR reports and closed-loop runs.

    A cycle holds the nine (M, tap method) SFDR reports for M in {3, 4, 32}
    at 2^15 samples, interleaved with three closed-loop low-pass step
    responses (R_f/R_in in {1, 2, 4}, output steps of about -+0.2 V).  The
    seed draws the tone bins and amplitudes.  The modelled figures of this
    workload are those of the low-pass loop, a one-integrator single-path
    solver: its settling time and the matching energy.
    """

    name = "phase-spectral"
    SFDR_CASES = tuple((m, method) for m in (3, 4, 32) for method in ringsolve.phase.PhaseMethod)
    RATIOS = (1.0, 2.0, 4.0)
    cycle = len(SFDR_CASES) + len(RATIOS)
    model_cycles = 3
    setup_ops = cycle * model_cycles
    SAMPLES = 1 << 15
    PHASE_DEVIATION = (0.5, 1.0)  # rad, peak, of the SFDR test tone
    LOWPASS_SAMPLES = 8192
    LOWPASS_SWING = 0.2  # output step, V
    SETTLE_BAND = 0.1    # share of the swing
    LOWPASS_TOL = 0.01   # V, steady-state level against the DC gain
    LOWPASS_CFG = ringsolve.phase.PhaseConfig(
        m_phases=8, f0=200e6, f_ref=200e6, k_vco=100e6, dt=1.0 / (24 * 8 * 200e6)
    )

    def make_op(self, i):
        rng = _rng(self.seed, 1, i)
        group, pos = divmod(i % self.cycle, 4)
        if pos < 3:
            m, method = self.SFDR_CASES[3 * group + pos]
            cfg = ringsolve.phase.PhaseConfig(m_phases=m, f0=5e6, k_vco=10e6, method=method)
            tone_bin = int(rng.integers(10, 15))
            f_sig = tone_bin / (self.SAMPLES * cfg.dt)
            t = np.arange(self.SAMPLES) * cfg.dt
            # Peak phase deviation k_eff * amp / f_sig stays inside the
            # detector's linear window around phase0 = pi/2.
            k_eff = ringsolve.phase.effective_kvco(cfg).k_vco_hz_per_v
            amp = rng.uniform(*self.PHASE_DEVIATION) * f_sig / k_eff
            v_in = cfg.v0 + amp * np.sin(2.0 * math.pi * f_sig * t)
            return Op(i, f"sfdr M={m} {method.value}",
                      {"cfg": cfg, "v_in": v_in, "f_sig": f_sig, "tone_bin": tone_bin})
        ratio = self.RATIOS[group]
        cfg = self.LOWPASS_CFG
        sign = -1.0 if group % 2 else 1.0
        step = sign * rng.uniform(0.97, 1.03) * self.LOWPASS_SWING / ratio
        bias = cfg.v0 * (1.0 + 1.0 / ratio) - cfg.v_dd / (2.0 * ratio)
        b_in = np.full(self.LOWPASS_SAMPLES, bias + step)
        return Op(i, f"lowpass ratio={ratio:g}",
                  {"cfg": cfg, "b_in": b_in, "ratio": ratio, "step": step})

    def warm_up(self):
        self.run(self.make_op(0))
        ringsolve.phase.simulate_phase_lowpass(np.full(64, 0.75), 1.0, self.LOWPASS_CFG)

    def run(self, op):
        d = op.data
        if "b_in" in d:
            return ringsolve.phase.simulate_phase_lowpass(d["b_in"], d["ratio"], d["cfg"])
        out = ringsolve.phase.simulate_phase_integrator(d["v_in"], d["cfg"])
        return out, ringsolve.phase.sfdr(out, d["f_sig"], d["cfg"])

    def check(self, op, out):
        d = op.data
        cfg = d["cfg"]
        if "b_in" not in d:
            series, report = out
            cause = ref.check_pwm_levels(series, cfg.m_phases, cfg.v_dd)
            found = int(round(report.fundamental_hz * self.SAMPLES * cfg.dt))
            if cause is None and found != d["tone_bin"]:
                cause = f"fundamental at bin {found}, tone at bin {d['tone_bin']}"
            return Outcome(cause)
        cause = ref.check_pwm_levels(out, cfg.m_phases, cfg.v_dd)
        if cause:
            return Outcome(cause)
        period = int(round(1.0 / (cfg.f_ref * cfg.dt)))
        t_settle, final = ref.settle_time(
            out, period, cfg.dt, self.SETTLE_BAND * self.LOWPASS_SWING
        )
        expected = cfg.v_dd / 2.0 - d["ratio"] * d["step"]
        if not abs(final - expected) <= self.LOWPASS_TOL:
            return Outcome(f"low-pass level {final:.4f} V, DC gain predicts {expected:.4f} V")
        return Outcome(model=[model_sample(1, 1, t_settle)])


WORKLOADS = {w.name: w for w in (StructuralDense, IdealLadder, SweepReuse, PhaseSpectral)}
