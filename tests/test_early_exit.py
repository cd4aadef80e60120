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
import tracemalloc
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
    StepMapOverflow,
    Trace,
    build_system,
    ideal_system,
    simulate,
    solve,
    stability_report,
)
from ringsolve.netlist import MemristorBank, QuantizerSpec, plan
from ringsolve.problem import LinearProblem, ScalePolicy

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
    block = min(dynamics._BLOCK, every_step.t.size - 1)
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


@pytest.mark.parametrize("dec", [None, 0, 1, 7, 100])
@pytest.mark.parametrize(
    "where", ["doubled-first-block", "recurrence-block", "across-their-boundary"]
)
def test_window_in_each_kind_of_block(dec, where):
    # the first block is doubled from the zero state (its second half from
    # its first half through the L/2-step map); the next ones come from the
    # block before through the L-step map
    cfg = SolverConfig(t_max=1e-6)
    ss = scalar_system(cfg)
    every_step = plain_simulate(ss, cfg, 1).trace
    block = dynamics._BLOCK
    assert every_step.t.size - 1 > 2 * block
    start = {
        "doubled-first-block": block // 2 + 100,
        "recurrence-block": block + block // 2,
        "across-their-boundary": block - 4,
    }[where]
    residual = every_step.residual_inf
    cfg = SolverConfig(
        t_max=cfg.t_max, eps_residual=math.sqrt(residual[start - 1] * residual[start])
    )
    ref = plain_simulate(ss, cfg, dec)
    assert ref.t_converge == start * dynamics._auto_dt(ss, cfg)
    met = start + CONVERGENCE_WINDOW  # the window's last step
    assert (start <= block < met) == (where == "across-their-boundary")
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


def overflow_step(ss, cfg):
    return round(plain_simulate(ss, cfg, 1).trace.t[-1] / cfg.dt)


@pytest.mark.parametrize("dec", [None, 0, 1, 7, 100])
@pytest.mark.parametrize(
    "dt_factor, first, last",
    [
        (223.0, dynamics._BLOCK // 2 + 1, dynamics._BLOCK),  # first block, second half
        (222.2, dynamics._BLOCK + 1, 2 * dynamics._BLOCK),  # a recurrence block
    ],
)
def test_overflow_in_each_kind_of_block(neg2x2, dec, dt_factor, first, last):
    # a state past OVERFLOW_LIMIT feeds later states of its block: the
    # overflow step is still the first one past the limit
    ss, cfg = rk4_past_its_limit(neg2x2, 0.45, dt_factor, 3000)
    assert first <= overflow_step(ss, cfg) <= last
    assert_matches(simulate(ss, cfg, dec), plain_simulate(ss, cfg, dec))


@pytest.mark.parametrize("dec", [None, 0, 1, 7, 100])
def test_block_shortened_for_a_fast_growing_map(neg2x2, dec):
    # ||R|| ~ 10: a 128-step map passes 1e100, so blocks hold 64 states, and
    # a tiny input overflows a few blocks in
    ss, cfg = rk4_past_its_limit(neg2x2, 1e-200, 400.0, 3000)
    # the stepping helpers leave numpy's error state to their caller, as
    # simulate sets it: the 512-step power overflows
    with np.errstate(over="ignore", invalid="ignore"):
        r, s = dynamics._step_operators(ss.m, cfg.dt)
        powers = [(1, r - np.eye(len(r)), s @ ss.f)]
        _, size = dynamics._block_maps(powers, 3000)
    assert size < dynamics._BLOCK and size < overflow_step(ss, cfg)
    ref = plain_simulate(ss, cfg, dec)
    res = simulate(ss, cfg, dec)
    assert_matches(res, ref)
    assert np.isfinite(res.x).all() and np.isfinite(res.residual_inf)
    assert "nan" not in res.diagnostics.lower()


@pytest.mark.parametrize("dt", [1e75, 1e200])
def test_non_finite_step_map_refused(neg2x2, dt):
    cfg = SolverConfig(dt=dt, t_max=20 * dt)
    with pytest.raises(StepMapOverflow, match="not finite"):
        simulate(build_system(plan(neg2x2), cfg), cfg)
    with pytest.raises(StepMapOverflow, match="not finite"):
        solve(neg2x2, cfg)


def test_finite_step_map_overflows_at_its_step(neg2x2):
    # dt = 1e30: R is finite (entries near 1e152), the first state overflows
    cfg = SolverConfig(dt=1e30, t_max=2e31)
    ss = build_system(plan(neg2x2), cfg)
    ref = plain_simulate(ss, cfg, 0)
    assert ref.trace.t[-1] == cfg.dt
    res = simulate(ss, cfg, 0)
    assert_matches(res, ref)
    assert np.isfinite(res.x).all()


def test_untraced_dense_run_stays_small():
    # the block, its product and the step map's powers: no stack of L
    # dim x dim matrices (512 of them would take 6.5 MB at dim 40)
    rng = np.random.default_rng(3)
    ss = build_system(plan(random_stable(rng, 20, -1)), SolverConfig())
    assert ss.m.shape == (40, 40)
    report = stability_report(ss)
    tracemalloc.start()
    try:
        res = simulate(ss, SolverConfig(), stability=report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged and peak < 1_000_000


def test_step_budget_refused_before_any_chain(monkeypatch):
    def no_stepping(*args):
        raise AssertionError("a step map power or block was formed")

    monkeypatch.setattr(dynamics, "_extend", no_stepping)
    monkeypatch.setattr(dynamics, "_factors", no_stepping)
    monkeypatch.setattr(dynamics, "_block", no_stepping)
    cfg = SolverConfig(dt=1e-12, t_max=(dynamics._STEP_BUDGET + 1) * 1e-12)
    ss = scalar_system(cfg)
    with pytest.raises(StepBudgetExceeded, match="step budget"):
        simulate(ss, cfg)


@pytest.mark.parametrize(
    "cfg",
    [
        SolverConfig(dt=5e-324),  # t_max / dt overflows
    ],
)
def test_endless_horizon_refused(cfg):
    ss = scalar_system(cfg)
    with pytest.raises(StepBudgetExceeded, match="^inf RK4 steps"):
        simulate(ss, cfg)


def transient_system(kappa, rate=1e5):
    """Stable but non-normal: y2' = -a y2 + a and y1' = -a y1 + kappa a (y2 - 1)
    give y1(t) = -kappa a t exp(-a t), a transient peak of kappa / e that
    no eigenvalue shows.  x0 carries the residual and is settled at t = 0,
    so the window is met before the transient peaks."""
    a = rate
    m = np.array([[-a, 0.0, 0.0], [0.0, -a, kappa * a], [0.0, 0.0, -a]])
    f = np.array([0.0, -kappa * a, a])
    return StateSpace(m, f, np.ones(3), 3, np.diag([1.0, 0.0, 0.0]), np.zeros(3))


@pytest.mark.parametrize("dec", [None, 0, 7])
@pytest.mark.parametrize("kappa, overflows", [(1.36e6, False), (1e7, True)])
def test_jump_certificate_fails_to_the_grid(monkeypatch, dec, kappa, overflows):
    # a·dt = 1e-4: the first block of 512 steps ends before the transient
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


def count_block_states(monkeypatch):
    """Record how many states (or stride rows) each block product forms."""
    rows, real_block = [], dynamics._block

    def counting_block(maps, start, count):
        out = real_block(maps, start, count)
        rows.append(len(out))
        return out

    monkeypatch.setattr(dynamics, "_block", counting_block)
    return rows


@pytest.mark.parametrize("dec", [None, 0, 7])
def test_failed_certificates_step_each_step_once(monkeypatch, dec):
    # after a failed certificate the rest is block-stepped: at most one state
    # per step past the block that met the window, not a fresh block of
    # stride rows after every uncertified grid row
    cfg = SolverConfig(dt=1e-9, t_max=12000e-9)
    ss = transient_system(1.36e6)
    rows = count_block_states(monkeypatch)
    res = simulate(ss, cfg, dec)
    assert sum(rows) <= 12000 + dynamics._BLOCK
    assert_matches(res, plain_simulate(ss, cfg, dec))


@pytest.mark.parametrize("n", [5, 6, 10])
def test_untraced_run_stops_with_the_window_block(monkeypatch, n):
    # nothing reads grid rows without a trace, so stepping ends with the
    # block that met the window, where the jump starts, and does not go on
    # to the next step of the automatic grid
    p = random_stable(np.random.default_rng(n), n, -1)
    cfg = SolverConfig()
    ss = build_system(plan(p), cfg)
    rows = count_block_states(monkeypatch)
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
    dim, n = 3, 109
    r = np.eye(dim) + rng.normal(0.0, 0.05, (dim, dim))
    r[0, 2] += 0.5 * seed
    if seed == 6:
        # ||R|| = 1.5 but ||R^4|| < 1: a power-of-two norm below 1 must not
        # shrink the bound for the powers before it
        r = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.9]])
    u = rng.normal(0.0, 1.0, dim)
    factors = dynamics._factors([(1, r - np.eye(dim), u)], n)
    assert [f[0] for f in factors] == [1, 4, 8, 32, 64]  # the set bits of 109
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


def old_integrate(ss, cfg, dt, n_steps, trace_decimation, stability):
    """The stepping engine before one walk served both of simulate's loops:
    the step_to closure and the trace-stride loop, kept as the oracle of
    _Run.walk.  It reads the same helpers, so the two must agree bit for bit."""
    r, s = dynamics._step_operators(ss.m, dt)
    u = s @ ss.f
    if not (np.isfinite(r).all() and np.isfinite(u).all()):
        raise StepMapOverflow(
            f"the RK4 step map at dt = {dt:.3e} s is not finite in float64"
        )
    dim = ss.m.shape[0]
    powers = [(1, r - np.eye(dim), u)]
    nm = ss.n_main
    a_hat_t = ss.a_hat.T
    b_hat = ss.b_hat
    eps = cfg.eps_residual

    def residuals(states):
        res = states[:, :nm] @ a_hat_t
        np.subtract(b_hat, res, out=res)
        return dynamics._row_max(np.abs(res, out=res))

    traced = trace_decimation is not None
    start_res = float(np.abs(b_hat).max())
    if traced:
        dec = trace_decimation or max(1, n_steps // 4096)
        grid_end = n_steps - n_steps % dec
        kept = np.zeros((grid_end // dec + 2, nm))
        kept_res = np.empty(len(kept))
        kept_res[0] = start_res

    win = CONVERGENCE_WINDOW + 1
    recent = np.array([start_res <= eps], dtype=int)
    t_converge = None
    overflow_at = None
    settled = None

    def step_to(z, k, end):
        nonlocal recent, t_converge, overflow_at, settled
        maps, size = dynamics._block_maps(powers, end - k)
        states = z
        while k < end:
            states = dynamics._block(maps, states, min(size, end - k))
            take = len(states)
            if not (
                states.max() <= OVERFLOW_LIMIT
                and states.min() >= -OVERFLOW_LIMIT
            ):
                over = ~(dynamics._row_max(np.abs(states)) <= OVERFLOW_LIMIT)
                take = int(np.argmax(over)) + 1
                states = states[:take]
                overflow_at = k + take
            res = residuals(states)
            if t_converge is None:
                below = res <= eps
                flags = np.concatenate((recent, below))
                if below.any():
                    sustained = np.convolve(flags, np.ones(win, int), "valid")
                    hits = np.flatnonzero(sustained == win)
                    if hits.size:
                        t_converge = float((k + 1 - len(recent) + hits[0]) * dt)
                recent = flags[1 - win :]
            if traced:
                skip = -(k + 1) % dec
                row = (k + 1 + skip) // dec
                on_grid = states[skip::dec, :nm]
                kept[row : row + len(on_grid)] = on_grid
                kept_res[row : row + len(on_grid)] = res[skip::dec]
            z = states[-1]
            k += take
            if overflow_at is not None:
                break
            if settled is None and t_converge is not None:
                settled = z, k
                end = min(end, k + -k % dec) if traced else k
        return z, k

    z, k = step_to(np.zeros(dim), 0, n_steps)

    jumped = None
    if overflow_at is None and settled is not None and settled[1] < n_steps:
        left = n_steps - settled[1]
        jumped, steps = dynamics._jump(dynamics._factors(powers, left), settled[0])
        if steps < left:
            jumped = None

    if traced and overflow_at is None and k < grid_end:
        stride = reduce(dynamics._then, dynamics._factors(powers, dec))
        norm_r, norm_p = stride[3:]
        row, last_row = k // dec, grid_end // dec
        maps, size = dynamics._block_maps([stride[:3]], last_row - row)
        states = z
        while row < last_row:
            states = dynamics._block(maps, states, min(size, last_row - row))
            peaks = dynamics._row_max(np.abs(states))
            before = np.concatenate(([np.abs(z).max()], peaks[:-1]))
            safe = norm_r * before + norm_p <= OVERFLOW_LIMIT
            good = len(states) if safe.all() else int(np.argmin(safe))
            kept[row + 1 : row + 1 + good] = states[:good, :nm]
            kept_res[row + 1 : row + 1 + good] = residuals(states[:good])
            row += good
            if good:
                z = states[good - 1]
            if good < len(states):
                break
        k = row * dec

    end = n_steps if jumped is None else grid_end if traced else k
    if overflow_at is None and k < end:
        z, k = step_to(z, k, end)
    if jumped is not None and overflow_at is None:
        z, k = jumped, n_steps

    residual_inf = float(residuals(z[None])[0])
    converged = (
        overflow_at is None
        and t_converge is not None
        and residual_inf <= eps
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
    if traced:
        last = k // dec + (k % dec != 0)
        kept[last] = z[:nm]
        kept_res[last] = residual_inf
        kept_steps = np.arange(last + 1) * dec
        kept_steps[-1] = k
        trace = Trace(
            t=kept_steps.astype(float) * dt,
            states=kept[: last + 1],
            residual_inf=kept_res[: last + 1],
        )
    return SolveResult(
        x=z[:nm].copy(),
        residual_inf=residual_inf,
        converged=bool(converged),
        t_converge=t_converge,
        stability=report,
        trace=trace,
        diagnostics=diagnostics,
    )


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def walk_cases(neg2x2, mixed2x2, dec):
    """(name, run) pairs: each run is one solve or simulate with decimation
    dec, across both modes, scaled, quantized and programmed plans, windows
    met in the first block or never, certificates that fail and overflow."""
    rng = np.random.default_rng(16)
    for i, (n, sign) in enumerate([(3, -1), (8, -1), (5, 1), (12, -1)]):
        p = random_stable(rng, n, sign)
        for name, options in [
            *VARIANTS.items(),
            ("exact", SolveOptions(scale=ScalePolicy.EXACT)),
        ]:
            cfg = SolverConfig(t_max=2e-6)
            options = dataclasses.replace(options, trace_decimation=dec)
            yield f"structural-{i}-{name}", lambda p=p, cfg=cfg, o=options: solve(p, cfg, o)
        ideal = SolverConfig(mode=Mode.IDEAL, t_max=2e-6)
        yield f"ideal-{i}", lambda p=p: solve(p, ideal, SolveOptions(trace_decimation=dec))
    for mode in Mode:
        cfg = SolverConfig(mode=mode, t_max=2e-6)
        yield f"gram-{mode.value}", lambda cfg=cfg: solve(
            mixed2x2, cfg, SolveOptions(trace_decimation=dec)
        )
    cfg = SolverConfig(t_max=2e-6)
    yield "settled-at-start", lambda: simulate(scalar_system(cfg, b=1e-4), cfg, dec)
    never = SolverConfig(t_max=2e-7, eps_residual=1e-12)
    yield "never-settles", lambda: simulate(scalar_system(never), never, dec)
    grows = ideal_system(0.01 * np.eye(2), np.array([1e-5, -1e-5]), SolverConfig())
    yield "settles-then-grows", lambda: simulate(grows, SolverConfig(), dec)
    for kappa in (1.36e6, 1e7):
        cfg = SolverConfig(dt=1e-9, t_max=12000e-9)
        yield f"transient-{kappa:g}", lambda kappa=kappa, cfg=cfg: simulate(
            transient_system(kappa), cfg, dec
        )
    for b, dt_factor, steps in [(0.45, 222.2, 3000), (1e-5, 222.0, 20000), (1e-200, 400.0, 3000)]:
        ss, cfg = rk4_past_its_limit(neg2x2, b, dt_factor, steps)
        yield f"overflow-{b:g}", lambda ss=ss, cfg=cfg: simulate(ss, cfg, dec)


@pytest.mark.parametrize("dec", [None, 0, 1, 7, 100])
def test_one_walk_matches_the_two_loops(monkeypatch, neg2x2, mixed2x2, dec):
    walks, real_walk = [], dynamics._Run.walk

    def recording_walk(run, powers, stride, end, bounds=None):
        before = run.k
        real_walk(run, powers, stride, end, bounds)
        settled_at = None if run.settled is None else run.settled[1]
        walks.append((bounds is not None, before, run.k, end, settled_at))

    jumps, real_jump = [], dynamics._jump

    def recording_jump(factors, z):
        out = real_jump(factors, z)
        jumps.append(out[1] < sum(f[0] for f in factors))
        return out

    monkeypatch.setattr(dynamics._Run, "walk", recording_walk)
    monkeypatch.setattr(dynamics, "_jump", recording_jump)
    seen = set()
    for name, run in walk_cases(neg2x2, mixed2x2, dec):
        res = run()
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_integrate", old_integrate)
            ref = run()
        assert same_bits(res.x, ref.x), name
        assert res.t_converge == ref.t_converge, name
        assert same_bits(res.residual_inf, ref.residual_inf), name
        assert res.converged == ref.converged, name
        assert res.fallback == ref.fallback, name
        assert res.diagnostics == ref.diagnostics, name
        assert (res.trace is None) == (dec is None), name
        if dec is not None:
            for field in ("t", "states", "residual_inf"):
                got, want = getattr(res.trace, field), getattr(ref.trace, field)
                assert got.shape == want.shape and same_bits(got, want), (name, field)
        if ref.t_converge is None:
            seen.add("never settled")
        if "exceeded" in ref.diagnostics:
            seen.add("overflow")
    # the cases reach every way a walk or a jump ends
    seen.update("jump failed" for failed in jumps if failed)
    for certified, before, after, end, settled_at in walks:
        if certified and after < end:
            seen.add("stride certificate failed")
        if before == 0 and settled_at is not None and settled_at <= dynamics._BLOCK:
            seen.add("window met in the first block")
    expected = {"never settled", "overflow", "jump failed", "window met in the first block"}
    if dec is not None:
        expected.add("stride certificate failed")
    assert expected <= seen
