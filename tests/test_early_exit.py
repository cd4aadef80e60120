"""Early exit and trace-grid striding in simulate, against plain stepping.

simulate takes every RK4 step only until the residual window is met, then
advances along the trace grid with the dec-step map.  The oracle below is
the literal loop it replaces: one step z <- R z + u at a time over the
whole horizon, every residual kept, the window found afterwards.
"""

import dataclasses
import math

import numpy as np
import pytest

from ringsolve import dynamics
from ringsolve.dynamics import (
    CONVERGENCE_WINDOW,
    OVERFLOW_LIMIT,
    Mode,
    SolveOptions,
    SolveResult,
    SolverConfig,
    StepBudgetExceeded,
    Trace,
    build_system,
    ideal_system,
    simulate,
    solve,
    stability_report,
)
from ringsolve.netlist import MemristorBank, QuantizerSpec, plan
from ringsolve.problem import LinearProblem

TOL = 1e-12

VARIANTS = {
    "plain": SolveOptions(),
    "quantized-8bit": SolveOptions(
        quantizer=QuantizerSpec(bits=8, r_unit=64000.0, r_in=2000.0, r_on=10.0)
    ),
    "memristor-noisy": SolveOptions(
        memristor=MemristorBank(write_noise_sigma=0.02), memristor_seed=7
    ),
}


def plain_simulate(ss, cfg, trace_decimation=0, stability=None):
    """Oracle with simulate's signature: one RK4 step at a time to t_max."""
    dt = dynamics._auto_dt(ss, cfg)
    n_steps = max(CONVERGENCE_WINDOW + 1, math.ceil(cfg.t_max / dt))
    r, s = dynamics._step_operators(ss.m, dt)
    u = s @ ss.f
    states = np.zeros((n_steps + 1, len(u)))
    last, overflow_at = n_steps, None
    for k in range(1, n_steps + 1):
        states[k] = r @ states[k - 1] + u
        if np.abs(states[k]).max() > OVERFLOW_LIMIT:
            last = overflow_at = k
            break
    main = states[: last + 1, : ss.n_main]
    residual = np.abs(ss.b_hat - main @ ss.a_hat.T).max(axis=1)

    win = CONVERGENCE_WINDOW + 1
    t_converge = None
    if len(residual) >= win:
        below = residual <= cfg.eps_residual
        sustained = np.lib.stride_tricks.sliding_window_view(below, win).all(axis=1)
        if sustained.any():
            t_converge = float(int(np.argmax(sustained)) * dt)
    converged = (
        overflow_at is None
        and t_converge is not None
        and residual[-1] <= cfg.eps_residual
    )
    report = stability if stability is not None else stability_report(ss)
    diagnostics = ""
    if overflow_at is not None:
        diagnostics = (
            f"state magnitude exceeded {OVERFLOW_LIMIT:.0e} at "
            f"t = {overflow_at * dt:.3e} s; run truncated and reported as "
            "divergence"
        )
    elif not converged and not report.stable:
        diagnostics = (
            f"state matrix is unstable (max Re eig = {report.max_re_eig:.3e}); "
            "residual did not settle"
        )

    dec = trace_decimation if trace_decimation > 0 else max(1, n_steps // 4096)
    kept = list(range(0, last + 1, dec))
    if kept[-1] != last:
        kept.append(last)
    return SolveResult(
        x=main[-1].copy(),
        residual_inf=float(residual[-1]),
        converged=converged,
        t_converge=t_converge,
        stability=report,
        trace=Trace(np.array(kept, dtype=float) * dt, main[kept], residual[kept]),
        diagnostics=diagnostics,
    )


def assert_matches(res, ref):
    assert res.t_converge == ref.t_converge
    assert res.converged == ref.converged
    assert res.fallback == ref.fallback
    assert res.diagnostics == ref.diagnostics
    np.testing.assert_array_equal(res.trace.t, ref.trace.t)
    tol = TOL * max(1.0, float(np.abs(ref.x).max()))
    assert np.abs(res.x - ref.x).max() <= tol
    assert abs(res.residual_inf - ref.residual_inf) <= tol
    assert np.abs(res.trace.states - ref.trace.states).max() <= tol
    assert np.abs(res.trace.residual_inf - ref.trace.residual_inf).max() <= tol


def random_stable(rng, n, sign):
    """Diagonally dominant with a negative (sign -1) or positive (+1) diagonal;
    the planner's orientation makes both stable on the first rung."""
    a = rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(0.1, 1.0, (n, n))
    a[np.diag_indices(n)] = sign * (np.abs(a).sum(axis=1) + rng.uniform(0.1, 1.0, n))
    # entries within the 8-bit ladder's range and the memristors' window
    return LinearProblem(4.0 * a / np.abs(a).max(), rng.uniform(-0.5, 0.5, n))


def solve_both(monkeypatch, p, cfg, options):
    res = solve(p, cfg, options)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "simulate", plain_simulate)
        ref = solve(p, cfg, options)
    return res, ref


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_random_structural_systems(monkeypatch, variant):
    rng = np.random.default_rng(2026)
    for trial in range(8):
        n = int(rng.integers(1, 13))
        p = random_stable(rng, n, sign=-1 if trial % 3 else 1)
        cfg = SolverConfig(
            t_max=float(rng.choice([1e-6, 2e-6])),
            eps_residual=float(rng.choice([1e-3, 1e-6])),
        )
        options = dataclasses.replace(
            VARIANTS[variant], trace_decimation=int(rng.choice([0, 1, 7, 100]))
        )
        res, ref = solve_both(monkeypatch, p, cfg, options)
        assert_matches(res, ref)


def test_random_ideal_systems(monkeypatch):
    rng = np.random.default_rng(11)
    for trial in range(8):
        n = int(rng.integers(1, 13))
        p = random_stable(rng, n, sign=-1 if trial % 3 else 1)
        cfg = SolverConfig(mode=Mode.IDEAL, t_max=2e-6)
        options = SolveOptions(trace_decimation=int(rng.choice([0, 1, 7, 100])))
        res, ref = solve_both(monkeypatch, p, cfg, options)
        assert_matches(res, ref)
        assert ref.converged


def test_gram_rung(monkeypatch, mixed2x2):
    res, ref = solve_both(monkeypatch, mixed2x2, SolverConfig(t_max=2e-6), None)
    assert ref.fallback == "gram-negated"
    assert_matches(res, ref)


def scalar_system(cfg, b=0.5):
    """dx/dt = -g/2 (b + x): the residual decays geometrically, one step at a time."""
    return ideal_system(np.array([[-1.0]]), np.array([b]), cfg)


@pytest.mark.parametrize("dec", [0, 1, 7, 100])
@pytest.mark.parametrize("where", ["mid-block", "across-block-boundary"])
def test_window_position(dec, where):
    cfg = SolverConfig(t_max=1e-6)
    ss = scalar_system(cfg)
    every_step = plain_simulate(ss, cfg, 1).trace
    block = min(dynamics._block_size(1), every_step.t.size - 1)
    start = block // 2 if where == "mid-block" else block - 4
    # a threshold between the residuals of steps start-1 and start puts the
    # first sustained window at step start
    residual = every_step.residual_inf
    cfg = SolverConfig(
        t_max=cfg.t_max, eps_residual=math.sqrt(residual[start - 1] * residual[start])
    )
    ref = plain_simulate(ss, cfg, dec)
    dt = dynamics._auto_dt(ss, cfg)
    assert ref.t_converge == start * dt
    if where == "across-block-boundary":
        assert start <= block < start + CONVERGENCE_WINDOW
    assert_matches(simulate(ss, cfg, dec), ref)


@pytest.mark.parametrize("dec", [0, 1, 7, 100])
def test_settled_from_the_start(dec):
    cfg = SolverConfig(t_max=2e-6)
    ss = scalar_system(cfg, b=1e-4)
    ref = plain_simulate(ss, cfg, dec)
    assert ref.t_converge == 0.0 and ref.converged
    assert_matches(simulate(ss, cfg, dec), ref)


@pytest.mark.parametrize("dec", [0, 1, 7, 100])
def test_window_met_then_residual_grows(dec):
    # slowly unstable with a tiny input: settled at t = 0, above eps at t_max
    cfg = SolverConfig()
    ss = ideal_system(0.01 * np.eye(2), np.array([1e-5, -1e-5]), cfg)
    ref = plain_simulate(ss, cfg, dec)
    assert ref.t_converge == 0.0
    assert not ref.converged and ref.residual_inf > cfg.eps_residual
    assert ref.diagnostics.startswith("state matrix is unstable")
    assert_matches(simulate(ss, cfg, dec), ref)


def rk4_past_its_limit(neg2x2, b, dt_factor, steps):
    """neg2x2 with input (b, b/2) at dt_factor times the auto step, just past
    RK4's stability limit, so the state grows slowly and overflows."""
    p = LinearProblem(neg2x2.a, [b, b / 2])
    auto = dynamics._auto_dt(build_system(plan(p), SolverConfig()), SolverConfig())
    cfg = SolverConfig(dt=dt_factor * auto, t_max=steps * dt_factor * auto)
    return build_system(plan(p), cfg), cfg


@pytest.mark.parametrize("dec", [0, 1, 7, 100])
@pytest.mark.parametrize("b", [1e-5, 0.45])
def test_unstable_user_dt_overflow_step(neg2x2, dec, b):
    # with a tiny input the window is met at t = 0 and the state overflows
    # thousands of steps later, in the grid stride; with a large one it
    # overflows before any window
    ss, cfg = rk4_past_its_limit(neg2x2, b, 222.0, 20000)
    ref = plain_simulate(ss, cfg, dec)
    assert "exceeded" in ref.diagnostics
    assert (ref.t_converge == 0.0) == (b < cfg.eps_residual)
    res = simulate(ss, cfg, dec)
    assert res.trace.t[-1] == ref.trace.t[-1]  # the overflow step
    assert_matches(res, ref)


@pytest.mark.parametrize(
    "dt_factor, b, steps, dec, overflow_step",
    [
        (222.0, 1e-5, 1850, 100, 1827),  # after the last grid row
        (221.5, 1e-9, 20000, 1800, 6828),  # 1428 steps into a 1800-step stride
    ],
)
def test_overflow_inside_a_skipped_stretch(
    neg2x2, dt_factor, b, steps, dec, overflow_step
):
    ss, cfg = rk4_past_its_limit(neg2x2, b, dt_factor, steps)
    ref = plain_simulate(ss, cfg, dec)
    assert ref.t_converge == 0.0
    assert ref.trace.t[-1] == overflow_step * cfg.dt
    assert ref.trace.t[-2] == overflow_step // dec * dec * cfg.dt
    assert_matches(simulate(ss, cfg, dec), ref)


def test_step_budget_refused_before_any_chain(monkeypatch):
    def no_chain(*args):
        raise AssertionError("a power chain was built")

    monkeypatch.setattr(dynamics, "_power_chain", no_chain)
    cfg = SolverConfig(dt=1e-12, t_max=(dynamics._STEP_BUDGET + 1) * 1e-12)
    ss = scalar_system(cfg)
    with pytest.raises(StepBudgetExceeded, match="step budget"):
        simulate(ss, cfg)
