"""Early exit, the jump to t_max and trace-grid striding in simulate,
against plain stepping.

simulate takes every RK4 step only until the residual window is met, then
jumps x to t_max with composed step maps and, when a trace is asked for,
advances along the trace grid with the dec-step map.  Every stretch that no
overflow certificate covers is block-stepped exactly.  The oracle below is
the literal loop it replaces: one step z <- R z + u at a time over the
whole horizon, every residual kept, the window found afterwards.
"""

import dataclasses
import math
from functools import reduce

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
    StateSpace,
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


def plain_simulate(ss, cfg, trace_decimation=None, stability=None):
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

    trace = None
    if trace_decimation is not None:
        dec = trace_decimation or max(1, n_steps // 4096)
        kept = list(range(0, last + 1, dec))
        if kept[-1] != last:
            kept.append(last)
        trace = Trace(np.array(kept, dtype=float) * dt, main[kept], residual[kept])
    return SolveResult(
        x=main[-1].copy(),
        residual_inf=float(residual[-1]),
        converged=converged,
        t_converge=t_converge,
        stability=report,
        trace=trace,
        diagnostics=diagnostics,
    )


def assert_matches(res, ref):
    assert res.t_converge == ref.t_converge
    assert res.converged == ref.converged
    assert res.fallback == ref.fallback
    assert res.diagnostics == ref.diagnostics
    tol = TOL * max(1.0, float(np.abs(ref.x).max()))
    assert np.abs(res.x - ref.x).max() <= tol
    assert abs(res.residual_inf - ref.residual_inf) <= tol
    assert (res.trace is None) == (ref.trace is None)
    if ref.trace is not None:
        np.testing.assert_array_equal(res.trace.t, ref.trace.t)
        assert np.abs(res.trace.states - ref.trace.states).max() <= tol
        assert np.abs(res.trace.residual_inf - ref.trace.residual_inf).max() <= tol


def assert_untraced_matches(p, cfg, options, ref):
    """The same solve without a trace forms none and matches the oracle."""
    res = solve(p, cfg, dataclasses.replace(options, trace_decimation=None))
    assert res.trace is None
    assert_matches(res, dataclasses.replace(ref, trace=None))


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
        assert_untraced_matches(p, cfg, options, ref)


def test_random_ideal_systems(monkeypatch):
    rng = np.random.default_rng(11)
    for trial in range(8):
        n = int(rng.integers(1, 13))
        p = random_stable(rng, n, sign=-1 if trial % 3 else 1)
        cfg = SolverConfig(mode=Mode.IDEAL, t_max=2e-6)
        options = SolveOptions(trace_decimation=int(rng.choice([0, 1, 7, 100])))
        res, ref = solve_both(monkeypatch, p, cfg, options)
        assert_matches(res, ref)
        assert_untraced_matches(p, cfg, options, ref)
        assert ref.converged


def test_gram_rung(monkeypatch, mixed2x2):
    cfg, options = SolverConfig(t_max=2e-6), SolveOptions(trace_decimation=0)
    res, ref = solve_both(monkeypatch, mixed2x2, cfg, options)
    assert ref.fallback == "gram-negated"
    assert_matches(res, ref)
    assert_untraced_matches(mixed2x2, cfg, options, ref)


def test_no_trace_unless_asked(neg2x2):
    assert solve(neg2x2).trace is None
    cfg = SolverConfig()
    assert simulate(build_system(plan(neg2x2), cfg), cfg).trace is None


def test_x_does_not_depend_on_the_trace(mixed2x2):
    rng = np.random.default_rng(7)
    cases = [
        (random_stable(rng, 6, -1), SolverConfig(), VARIANTS[v]) for v in sorted(VARIANTS)
    ]
    cases.append((random_stable(rng, 5, 1), SolverConfig(mode=Mode.IDEAL), SolveOptions()))
    cases.append((mixed2x2, SolverConfig(), SolveOptions()))
    for p, cfg, options in cases:
        untraced = solve(p, cfg, options)
        assert untraced.trace is None and untraced.converged
        for dec in (0, 7):
            traced = solve(p, cfg, dataclasses.replace(options, trace_decimation=dec))
            np.testing.assert_array_equal(traced.x, untraced.x)
            assert traced.residual_inf == untraced.residual_inf
            assert traced.t_converge == untraced.t_converge
            assert traced.fallback == untraced.fallback
            # the trace ends on that same x
            np.testing.assert_array_equal(traced.trace.states[-1], untraced.x)


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


def transient_system(kappa, rate=1e5):
    """Stable but non-normal: y2' = -a y2 + a and y1' = -a y1 + kappa a (y2 - 1)
    give y1(t) = -kappa a t exp(-a t), a transient peak of kappa / e that
    no eigenvalue shows.  x0 carries the residual and is settled at t = 0,
    so the window is met before the transient peaks."""
    a = rate
    m = np.array([[-a, 0.0, 0.0], [0.0, -a, kappa * a], [0.0, 0.0, -a]])
    f = np.array([0.0, -kappa * a, a])
    return StateSpace(
        m, f, np.ones(3), ("x0", "y1", "y2"), 3, np.diag([1.0, 0.0, 0.0]), np.zeros(3)
    )


@pytest.mark.parametrize("dec", [None, 0, 7])
@pytest.mark.parametrize("kappa, overflows", [(1.36e6, False), (1e7, True)])
def test_jump_certificate_fails_to_the_grid(monkeypatch, dec, kappa, overflows):
    # a·dt = 1e-4: the first block of 1024 steps ends before the transient
    # peaks, so the jump starts where the state is already large
    cfg = SolverConfig(dt=1e-9, t_max=12000e-9)
    ss = transient_system(kappa)
    ref = plain_simulate(ss, cfg, dec)
    assert ref.t_converge == 0.0
    assert ("exceeded" in ref.diagnostics) == overflows
    assert ref.converged != overflows
    jumps, real_jump = [], dynamics._jump

    def recording_jump(factors, z):
        out = real_jump(factors, z)
        jumps.append((out[1], sum(f[0] for f in factors)))
        return out

    monkeypatch.setattr(dynamics, "_jump", recording_jump)
    res = simulate(ss, cfg, dec)
    advanced, asked = jumps[0]
    assert advanced < asked  # the certificate failed: the rest was block-stepped
    assert_matches(res, ref)
    if overflows:
        # past the block that met the window, inside the stretch a jump skips
        every_step = plain_simulate(ss, cfg, 1).trace.t
        assert 1024 < round(every_step[-1] / cfg.dt) < 2048
        assert f"t = {every_step[-1]:.3e} s" in res.diagnostics


@pytest.mark.parametrize("dec", [None, 0, 7])
def test_failed_certificates_step_each_step_once(monkeypatch, dec):
    # after a failed certificate the rest is block-stepped: at most one state
    # per step past the block that met the window, not a fresh block of
    # stride rows after every uncertified grid row
    cfg = SolverConfig(dt=1e-9, t_max=12000e-9)
    ss = transient_system(1.36e6)
    rows, real_advance = [], dynamics._advance

    def counting_advance(deltas, prefix, z, count):
        rows.append(count)
        return real_advance(deltas, prefix, z, count)

    monkeypatch.setattr(dynamics, "_advance", counting_advance)
    res = simulate(ss, cfg, dec)
    assert sum(rows) <= 12000 + dynamics._block_size(3)
    assert_matches(res, plain_simulate(ss, cfg, dec))


@pytest.mark.parametrize("n", [5, 6, 10])
def test_untraced_run_stops_with_the_window_block(monkeypatch, n):
    # nothing reads grid rows without a trace, so stepping ends with the
    # block that met the window, where the jump starts, and does not go on
    # to the next step of the automatic grid
    p = random_stable(np.random.default_rng(n), n, -1)
    cfg = SolverConfig()
    ss = build_system(plan(p), cfg)
    rows, real_advance = [], dynamics._advance

    def counting_advance(deltas, prefix, z, count):
        rows.append(count)
        return real_advance(deltas, prefix, z, count)

    monkeypatch.setattr(dynamics, "_advance", counting_advance)
    res = simulate(ss, cfg)
    dt = dynamics._auto_dt(ss, cfg)
    met = round(res.t_converge / dt) + CONVERGENCE_WINDOW  # the window's last step
    assert res.converged and res.trace is None
    assert sum(rows[:-1]) < met <= sum(rows)
    # that block ends off the automatic grid, so a grid walk would show
    assert sum(rows) % (math.ceil(cfg.t_max / dt) // 4096) != 0
    monkeypatch.undo()
    np.testing.assert_array_equal(simulate(ss, cfg, 0).x, res.x)


@pytest.mark.parametrize("seed", range(7))
def test_factor_bounds_cover_every_state(seed):
    # every skipped state R^j z + sum_{i<j} R^i u must lie inside a factor's
    # bounds; the maps below grow, shrink and are non-normal
    rng = np.random.default_rng(seed)
    dim, length, n = 3, 8, 8 * 13 + 5
    r = np.eye(dim) + rng.normal(0.0, 0.05, (dim, dim))
    r[0, 2] += 0.5 * seed
    if seed == 6:
        # ||R|| = 1.5 but ||R^4|| < 1: a power-of-two norm below 1 must not
        # shrink the bound for the powers before it
        r = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.9]])
    u = rng.normal(0.0, 1.0, dim)
    deltas, prefix = dynamics._power_chain(r - np.eye(dim), u, length)
    factors = dynamics._factors(deltas, prefix, n)
    assert [f[0] for f in factors] == [5, 8, 32, 64]  # n mod L, then bits of 13
    combined = reduce(dynamics._then, factors)
    for steps, d, p, norm_r, norm_p in [*factors, combined]:
        power, offset = np.eye(dim), np.zeros(dim)
        peak_r, peak_p = 1.0, 0.0
        for _ in range(steps):
            power, offset = r @ power, r @ offset + u
            peak_r = max(peak_r, np.abs(power).sum(axis=1).max())
            peak_p = max(peak_p, np.abs(offset).max())
        scale = max(1.0, np.abs(power).max())
        assert np.abs(d + np.eye(dim) - power).max() <= 1e-12 * scale
        assert np.abs(p - offset).max() <= 1e-12 * max(1.0, np.abs(offset).max())
        assert norm_r * (1 + 1e-12) >= peak_r
        assert norm_p * (1 + 1e-12) >= peak_p
