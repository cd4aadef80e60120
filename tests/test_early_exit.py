"""Early exit, the window search, the jump to t_max and trace-grid striding
in simulate, against plain stepping.

simulate forms only every _SAMPLE-th state until a sample is at or below
eps, steps exactly from the sample before it until the residual window is
met, then jumps x to t_max with composed step maps and, when a trace is
asked for, advances along the trace grid with the dec-step map.  It
skips states only when the run's reach bounds every state of the horizon
within OVERFLOW_LIMIT; otherwise it block-steps every step exactly.  The
oracle below is the literal loop it replaces: one step z <- R z + u at a
time over the whole horizon, every residual kept, the window found
afterwards.
"""

import dataclasses
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from conftest import assert_reach_covers, dense_problem, factors
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
    TraceBudgetExceeded,
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


@pytest.mark.parametrize("n, seed", [(12, 1), (16, 0), (20, 5)])
def test_x_does_not_depend_on_the_trace_where_the_search_runs(monkeypatch, n, seed):
    # dense draws at state dimension 24, 32 and 40, so every run searches.
    # Over a 0.4 us horizon the jump's maps do not yet round the settled
    # state away, so x still carries the bits of where the search stopped
    # (it differs from the exact walk's): a trace that moved the search or
    # the window's block would move x
    p = dense_problem(np.random.default_rng(seed), n)
    cfg = SolverConfig(t_max=4e-7)
    assert build_system(plan(p), cfg).m.shape[0] >= dynamics._SEARCH_DIM
    untraced, exact = searched_and_exact(monkeypatch, p, cfg)
    assert untraced.converged and untraced.trace is None
    assert not same_bits(untraced.x, exact.x)
    for dec in (0, 7, 8):
        traced = solve(p, cfg, SolveOptions(trace_decimation=dec))
        assert same_bits(traced.x, untraced.x), dec
        assert traced.t_converge == untraced.t_converge
        assert traced.residual_inf == untraced.residual_inf
        assert same_bits(traced.trace.states[-1], untraced.x)
        assert traced.trace.residual_inf[-1] == untraced.residual_inf


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


@pytest.mark.parametrize("mode", list(Mode))
def test_trace_budget_refused_before_any_row(monkeypatch, mode):
    # a 4x4 uniform draw under exact scaling, every step traced: 27.6e6
    # rows of 7 values, a process peak of 2.15 GB when they were allocated
    def no_stepping(*args):
        raise AssertionError("a step map power or block was formed")

    monkeypatch.setattr(dynamics, "_extend", no_stepping)
    monkeypatch.setattr(dynamics, "_block", no_stepping)
    rng = np.random.default_rng(2)
    a = rng.uniform(-1.0, 1.0, (4, 4))
    a /= np.abs(a).sum(axis=1).max()
    b = rng.uniform(-0.4, 0.4, 4)
    options = SolveOptions(scale=ScalePolicy.EXACT, trace_decimation=1)
    tracemalloc.start()
    try:
        with pytest.raises(TraceBudgetExceeded, match="^a trace of 27644820 rows of 7 values"):
            solve(LinearProblem(a, b), SolverConfig(mode=mode), options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_trace_budget_counts_rows_and_columns(monkeypatch):
    # dec = 1 keeps n_steps + 2 rows of n_main + 3 = 4 values: a budget of
    # 4000 takes 998 steps and refuses 999, unless fewer rows are kept
    monkeypatch.setattr(dynamics, "_TRACE_BUDGET", 4000)
    cfg = SolverConfig(dt=2.0**-30, t_max=998 * 2.0**-30)
    ss = scalar_system(cfg)
    assert len(simulate(ss, cfg, 1).trace.t) == 999
    over = dataclasses.replace(cfg, t_max=999 * 2.0**-30)
    with pytest.raises(TraceBudgetExceeded, match="^a trace of 1001 rows of 4 values"):
        simulate(ss, over, 1)
    assert simulate(ss, over, 2).trace is not None
    assert simulate(ss, over).trace is None


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
    # a·dt = 1e-4: the window is met at the start, long before the transient
    # peaks at kappa / e; even below OVERFLOW_LIMIT (kappa 1.36e6) the
    # reach does not certify it, so the run makes no jump and block-steps
    # the whole horizon
    cfg = SolverConfig(dt=1e-9, t_max=12000e-9)
    ss = transient_system(kappa)
    ref = plain_simulate(ss, cfg, dec)
    assert ref.t_converge == 0.0
    assert ("exceeded" in ref.diagnostics) == overflows
    assert ref.converged != overflows
    jumps, real_jump = [], dynamics._jump

    def recording_jump(factors, z):
        jumps.append(len(factors))
        return real_jump(factors, z)

    monkeypatch.setattr(dynamics, "_jump", recording_jump)
    res = simulate(ss, cfg, dec)
    assert jumps == []  # the reach did not certify: the rest was block-stepped
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


def record_searches(monkeypatch):
    """Record (step before, step after, result) of each window search: each
    walk along the sampled stride.  Wraps whatever _Run.walk is, so it
    stacks on a recording_walk."""
    calls, real_walk = [], dynamics._Run.walk

    def recording_search(run, end, stride=None, search=False):
        before = run.k
        found = real_walk(run, end, stride, search)
        if search:
            calls.append((before, run.k, found))
        return found

    monkeypatch.setattr(dynamics._Run, "walk", recording_search)
    return calls


@pytest.mark.parametrize("seed", [5, 6, 10])
def test_untraced_run_stops_with_the_window_block(monkeypatch, seed):
    # an untraced n = 20 solve forms its samples in blocks and one exact
    # stretch, at most 288 state rows, where stepping every state to the
    # window's block formed 2 048; stepping ends with the stretch that met
    # the window, where the jump starts, not at the next automatic grid step
    p = random_stable(np.random.default_rng(seed), 20, -1)
    cfg = SolverConfig()
    ss = build_system(plan(p), cfg)
    assert ss.m.shape[0] >= dynamics._SEARCH_DIM
    rows = count_block_states(monkeypatch)
    searches = record_searches(monkeypatch)
    res = simulate(ss, cfg)
    dt = dynamics._auto_dt(ss, cfg)
    start = round(res.t_converge / dt)
    assert res.converged and res.trace is None
    # the samples to the window's start, the rest of their block, the stretch
    samples = start // dynamics._SAMPLE + 1
    assert sum(rows) <= samples + dynamics._SAMPLES + dynamics._STRETCH
    assert sum(rows) <= 288
    assert rows[-1] == dynamics._STRETCH
    # the search stopped one sample before the window's first step, and the
    # window's last step lies in the stretch after it
    (_, backed_up, found), = searches
    assert found and backed_up < start <= backed_up + dynamics._SAMPLE
    assert start + CONVERGENCE_WINDOW <= backed_up + dynamics._STRETCH
    monkeypatch.undo()
    np.testing.assert_array_equal(simulate(ss, cfg, 0).x, res.x)


def searched_and_exact(monkeypatch, p, cfg, options=SolveOptions()):
    """solve at the floor, and along the exact walk throughout."""
    searched = solve(p, cfg, options)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_SEARCH_DIM", 10**9)
        exact = solve(p, cfg, options)
    return searched, exact


@pytest.mark.parametrize("index", range(6))
def test_search_matches_the_exact_walk_on_dense_draws(monkeypatch, index):
    # operations 0-5 of structural-dense seed 1 (n = 12, 16, 20, twice):
    # every size searches, and at the default eps the search meets the
    # window on the exact walk's step, with x the same to the bit
    n = (12, 16, 20)[index % 3]
    p = dense_problem(np.random.default_rng([1, 1, index]), n)
    cfg = SolverConfig()
    assert build_system(plan(p), cfg).m.shape[0] >= dynamics._SEARCH_DIM
    searches = record_searches(monkeypatch)
    searched, exact = searched_and_exact(monkeypatch, p, cfg)
    assert len(searches) == 1 and searches[0][2]  # only the floor's run searched
    assert searched.converged and exact.converged
    assert searched.t_converge == exact.t_converge
    assert searched.fallback == exact.fallback == "none"
    assert same_bits(searched.x, exact.x)


@pytest.mark.parametrize("n", [12, 16, 20])
@pytest.mark.parametrize("seed", [0, 1])
def test_search_meets_the_window_a_step_late_within_rounding_of_eps(monkeypatch, seed, n):
    # characterization, not a wish: a sample's state comes from other
    # products than the exact walk's, so its residual differs in the last
    # bits.  With eps set to the exact walk's residual at a grid row where
    # the sample reads higher, the exact walk's window starts on that row
    # and the search's one step later
    p = dense_problem(np.random.default_rng(seed), n)
    cfg, traced = SolverConfig(), SolveOptions(trace_decimation=8)
    assert build_system(plan(p), cfg).m.shape[0] >= dynamics._SEARCH_DIM
    searched, exact = searched_and_exact(monkeypatch, p, cfg, traced)
    dt = exact.trace.t[1] / 8
    rows = min(len(searched.trace.t), len(exact.trace.t))
    np.testing.assert_array_equal(searched.trace.t[:rows], exact.trace.t[:rows])
    sampled, stepped = searched.trace.residual_inf[:rows], exact.trace.residual_inf[:rows]
    higher = np.flatnonzero((sampled > stepped) & (stepped > cfg.eps_residual))
    assert higher.size >= 2
    for k in higher[:2]:
        at = dataclasses.replace(cfg, eps_residual=float(stepped[k]))
        late, on_time = searched_and_exact(monkeypatch, p, at)
        assert round(on_time.t_converge / dt) == 8 * k
        assert round(late.t_converge / dt) == 8 * k + 1


@pytest.fixture
def search_any_dimension(monkeypatch):
    """Let systems below _SEARCH_DIM search, so small ones can exercise it."""
    monkeypatch.setattr(dynamics, "_SEARCH_DIM", 1)


def test_no_search_below_the_dimension_floor(monkeypatch):
    # a small system steps every state to the window, as before the search
    cfg = SolverConfig(t_max=1e-6)
    ss = scalar_system(cfg)
    searches = record_searches(monkeypatch)
    res = simulate(ss, cfg, 7)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_integrate", old_integrate)
        ref = simulate(ss, cfg, 7)
    assert searches == []
    assert same_bits(res.x, ref.x) and res.t_converge == ref.t_converge
    assert same_bits(res.trace.states, ref.trace.states)


def every_residual(ss, cfg):
    return plain_simulate(ss, cfg, 1).trace.residual_inf


def eps_at(cfg, residual, start):
    """cfg with a threshold between the residuals of steps start-1 and start
    of a decaying run: its first sustained window starts at step start."""
    return dataclasses.replace(
        cfg, eps_residual=math.sqrt(residual[start - 1] * residual[start])
    )


@pytest.mark.parametrize("dec", [None, 0, 7])
@pytest.mark.parametrize("after", [1, 7, 8])
@pytest.mark.parametrize(
    "sample", [20, dynamics._SAMPLES], ids=["first-block", "across-blocks"]
)
def test_window_after_a_sample(monkeypatch, search_any_dimension, dec, after, sample):
    # the window starts 1, 7 or 8 steps after a sample: the first sample at
    # or below eps is the next multiple of _SAMPLE, the search backs up to
    # the one before it, and the stretch from there finds the exact step;
    # sample _SAMPLES ends the first block of samples, so the next one
    # comes from the block before through the long map
    cfg = SolverConfig(t_max=1e-6)
    ss = scalar_system(cfg)
    start = sample * dynamics._SAMPLE + after
    cfg = eps_at(cfg, every_residual(ss, cfg), start)
    ref = plain_simulate(ss, cfg, dec)
    assert ref.t_converge == start * dynamics._auto_dt(ss, cfg)
    searches = record_searches(monkeypatch)
    assert_matches(simulate(ss, cfg, dec), ref)
    first_below = -(-start // dynamics._SAMPLE) * dynamics._SAMPLE
    assert searches == [(0, first_below - dynamics._SAMPLE, True)]


def ringing_system(decay=0.004, turn=2 * math.pi / 50, dt=1e-9):
    """x settles on (0.5, 0) along a decaying rotation, 50 steps a turn:
    the residual |0.5 - x0| dips to zero twice a turn and rises again."""
    m = np.array([[-decay, -turn], [turn, -decay]]) / dt
    w = np.array([0.5, 0.0])
    return StateSpace(m, -m @ w, np.ones(2), 2, np.diag([1.0, 0.0]), w)


@pytest.mark.parametrize("dec", [None, 0, 1, 7])
def test_residual_dips_at_a_sample_and_rises(monkeypatch, search_any_dimension, dec):
    # eps is the residual at the lowest early sample, a dip two steps wide:
    # the search stops there, the stretch meets no window and ends above
    # eps, so the search resumes; the window comes hundreds of steps later
    cfg = SolverConfig(dt=1e-9, t_max=4000e-9)
    ss = ringing_system()
    residual = every_residual(ss, cfg)
    sample = dynamics._SAMPLE * (1 + int(np.argmin(residual[8:480:8])))
    cfg = dataclasses.replace(cfg, eps_residual=float(residual[sample]))
    assert (residual[: sample + 1] <= cfg.eps_residual).sum() == 1
    ref = plain_simulate(ss, cfg, dec)
    assert ref.t_converge > (sample + 400) * cfg.dt
    searches = record_searches(monkeypatch)
    assert_matches(simulate(ss, cfg, dec), ref)
    assert searches[0] == (0, sample - dynamics._SAMPLE, True)
    resumed = sample - dynamics._SAMPLE + dynamics._STRETCH
    assert searches[1][0] == resumed and len(searches) >= 2


@pytest.mark.parametrize("dec", [None, 0, 7])
def test_stretch_ending_below_eps_steps_to_the_window(monkeypatch, search_any_dimension, dec):
    # a stretch too short to hold the window ends on a step at or below
    # eps, where windows may still start: the run steps exactly from there
    # instead of searching again
    monkeypatch.setattr(dynamics, "_STRETCH", dynamics._SAMPLE)
    cfg = SolverConfig(t_max=1e-6)
    ss = scalar_system(cfg)
    start = 40 * dynamics._SAMPLE + 3
    cfg = eps_at(cfg, every_residual(ss, cfg), start)
    searches = record_searches(monkeypatch)
    assert_matches(simulate(ss, cfg, dec), plain_simulate(ss, cfg, dec))
    assert searches == [(0, 40 * dynamics._SAMPLE, True)]


def spike_system(phi=math.pi / 6, dt=1e-9, steps=2000):
    """x0 settles slowly on 0.5 (the residual); (x1, x2) turn by pi/4 a step
    and grow by 2 % a step from phase phi, so within a turn of 8 steps
    their peak swings between r / sqrt(2) and r."""
    m = np.zeros((3, 3))
    m[0, 0] = -1e-3 / dt
    m[1:, 1:] = np.array([[0.02, -math.pi / 4], [math.pi / 4, 0.02]]) / dt
    w = np.array([0.0, math.cos(phi), math.sin(phi)])
    f = -m @ w
    f[0] = 0.5e-3 / dt
    ss = StateSpace(m, f, np.ones(3), 3, np.diag([1.0, 0.0, 0.0]), np.array([0.5, 0, 0]))
    return ss, SolverConfig(dt=dt, t_max=steps * dt)


@pytest.mark.parametrize("dec", [None, 0, 1, 7, 100])
def test_overflow_between_two_samples(monkeypatch, search_any_dimension, dec):
    # the first state past OVERFLOW_LIMIT lies between two samples, and the
    # sample after it is back below: the samples alone would miss it, but
    # the reach does not certify the run, so it never searches and exact
    # stepping finds it
    ss, cfg = spike_system()
    r, s = dynamics._step_operators(ss.m, cfg.dt)
    u, z, first = s @ ss.f, np.zeros(3), None
    for k in range(1, 1000):
        z = r @ z + u
        if first is None and np.abs(z).max() > OVERFLOW_LIMIT:
            first = k
        if first is not None and k % dynamics._SAMPLE == 0:
            break
    assert first % dynamics._SAMPLE and np.abs(z).max() < OVERFLOW_LIMIT
    ref = plain_simulate(ss, cfg, dec)
    assert f"t = {first * cfg.dt:.3e} s" in ref.diagnostics
    searches = record_searches(monkeypatch)
    res = simulate(ss, cfg, dec)
    assert_matches(res, ref)
    assert searches == []
    if dec is not None:
        assert res.trace.t[-1] == first * cfg.dt


def transient_run(kappa):
    return transient_system(kappa), SolverConfig(dt=1e-9, t_max=12000e-9)


UNCERTIFIED = {
    "spike": spike_system,
    "transient-1.36e6": lambda: transient_run(1.36e6),
    "transient-1e7": lambda: transient_run(1e7),
}


@pytest.mark.parametrize("dec", [None, 0, 1, 7, 100])
@pytest.mark.parametrize("name", sorted(UNCERTIFIED))
def test_uncertified_run_walks_only_the_exact_stride(
    monkeypatch, search_any_dimension, dec, name
):
    # the reach passes OVERFLOW_LIMIT (the spike and kappa 1e7 overflow,
    # kappa 1.36e6 peaks at 5e5): the run forms every state exactly, with
    # no search, no jump and no grid stride, so the exact scan finds the
    # overflow step and the trace keeps every grid row as stepped
    ss, cfg = UNCERTIFIED[name]()
    walks, real_walk = [], dynamics._Run.walk

    def recording_walk(run, end, stride=None, search=False):
        walks.append((run.reach <= OVERFLOW_LIMIT, stride is not None, search))
        return real_walk(run, end, stride, search)

    def no_jump(factors, z):
        raise AssertionError("an uncertified run jumped")

    monkeypatch.setattr(dynamics._Run, "walk", recording_walk)
    monkeypatch.setattr(dynamics, "_jump", no_jump)
    res = simulate(ss, cfg, dec)
    assert walks and set(walks) == {(False, False, False)}
    ref = plain_simulate(ss, cfg, dec)
    assert ("exceeded" in ref.diagnostics) == (name != "transient-1.36e6")
    assert_matches(res, ref)


@pytest.mark.parametrize("dec", [None, 0, 7])
def test_run_that_never_settles_samples_its_horizon(monkeypatch, search_any_dimension, dec):
    cfg = SolverConfig(t_max=2e-7, eps_residual=1e-12)
    ss = scalar_system(cfg)
    n_steps = math.ceil(cfg.t_max / dynamics._auto_dt(ss, cfg))
    rows = count_block_states(monkeypatch)
    searches = record_searches(monkeypatch)
    ref = plain_simulate(ss, cfg, dec)
    assert ref.t_converge is None
    assert_matches(simulate(ss, cfg, dec), ref)
    last_sample = n_steps - n_steps % dynamics._SAMPLE
    assert searches == [(0, last_sample, False)]
    # the samples, then the last few steps exactly
    assert sum(rows) == n_steps // dynamics._SAMPLE + n_steps % dynamics._SAMPLE


@pytest.mark.parametrize("dec", [1, 3, 5, 7, 8, 12, 16, 100, 4096])
def test_trace_rows_inside_sampled_stretches(monkeypatch, search_any_dimension, dec):
    # grid rows before the window: on a grid that is a multiple of _SAMPLE
    # (8, 16, 4096) every one is a sample, sliced from the block; on any
    # other each is the sample before it, carried the remaining steps
    # through the 1-, 2- and 4-step maps; x is the untraced x.  eps 1e-9
    # keeps the search going past the first row of the 4096 grid
    rng = np.random.default_rng(22)
    p = random_stable(rng, 6, -1)
    cfg = SolverConfig(t_max=2e-6, eps_residual=1e-9 if dec == 4096 else 1e-3)
    options = SolveOptions(trace_decimation=dec)
    searches = record_searches(monkeypatch)
    res, ref = solve_both(monkeypatch, p, cfg, options)
    assert searches and searches[0][1] > min(4 * dec, 4096)
    assert_matches(res, ref)
    untraced = solve(p, cfg, dataclasses.replace(options, trace_decimation=None))
    np.testing.assert_array_equal(res.x, untraced.x)
    assert res.t_converge == untraced.t_converge


@pytest.mark.parametrize("seed", range(7))
def test_factor_bounds_cover_every_state(seed):
    # every state sum_{i<j} R^i u of a run from rest, j up to the horizon,
    # must lie within the run's reach, and each factor (and the stride they
    # compose) must be its exact map; the maps below grow, shrink and are
    # non-normal
    rng = np.random.default_rng(seed)
    dim, n = 3, 109
    r = np.eye(dim) + rng.normal(0.0, 0.05, (dim, dim))
    r[0, 2] += 0.5 * seed
    if seed == 6:
        # ||R|| = 1.5 but ||R^4|| < 1: a power-of-two norm below 1 must not
        # shrink the bound for the powers before it
        r = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.9]])
    u = rng.normal(0.0, 1.0, dim)
    assert_reach_covers(r - np.eye(dim), u, n)
    parts = factors([(1, r - np.eye(dim), u)], n)
    assert [f[0] for f in parts] == [1, 4, 8, 32, 64]  # the set bits of 109
    combined = reduce(dynamics._then, parts)
    for steps, d, p in [*parts, combined]:
        power, offset = np.eye(dim), np.zeros(dim)
        for _ in range(steps):
            power, offset = r @ power, r @ offset + u
        scale = max(1.0, np.abs(power).max())
        assert np.abs(d + np.eye(dim) - power).max() <= 1e-12 * scale
        assert np.abs(p - offset).max() <= 1e-12 * max(1.0, np.abs(offset).max())


def old_integrate(ss, cfg, dt, n_steps, trace_decimation, stability):
    """The stepping engine before one walk served both of simulate's loops:
    the step_to closure and the trace-stride loop, kept as the oracle of
    _Run.walk.  It reads the same helpers, so the two must agree bit for bit.
    It jumps and walks the trace stride only where the run's reach
    certifies the horizon, as simulate decides."""
    r, s = dynamics._step_operators(ss.m, dt)
    u = s @ ss.f
    if not (np.isfinite(r).all() and np.isfinite(u).all()):
        raise StepMapOverflow(
            f"the RK4 step map at dt = {dt:.3e} s is not finite in float64"
        )
    dim = ss.m.shape[0]
    powers = [(1, r - np.eye(dim), u)]
    dynamics._extend(powers, n_steps)
    certified = dynamics._stack(powers)[1] <= OVERFLOW_LIMIT
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
    if certified and overflow_at is None and settled is not None and settled[1] < n_steps:
        left = n_steps - settled[1]
        jumped = dynamics._jump(factors(powers, left), settled[0])

    if traced and jumped is not None and k < grid_end:
        stride = reduce(dynamics._then, factors(powers, dec))
        row, last_row = k // dec, grid_end // dec
        maps, size = dynamics._block_maps([stride], last_row - row)
        states = z
        while row < last_row:
            states = dynamics._block(maps, states, min(size, last_row - row))
            kept[row + 1 : row + 1 + len(states)] = states[:, :nm]
            kept_res[row + 1 : row + 1 + len(states)] = residuals(states)
            row += len(states)
            z = states[-1]
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
    met in the first block or never, runs the reach does not certify and
    runs that overflow."""
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
    # bit for bit wherever the window search accepts no sample; where it
    # does, the exact walk starts from a state reached by another grouping
    # of the same arithmetic, so the run agrees with the loops to the
    # oracle's tolerance, with t_converge exact
    walks, real_walk = [], dynamics._Run.walk

    def recording_walk(run, end, stride=None, search=False):
        before = run.k
        found = real_walk(run, end, stride, search)
        settled_at = None if run.settled is None else run.settled[1]
        certified = run.reach <= OVERFLOW_LIMIT
        if not search:
            walks.append((stride is not None, certified, before, settled_at))
        return found

    monkeypatch.setattr(dynamics._Run, "walk", recording_walk)
    # a floor the n = 12 cases reach and the small ones do not
    monkeypatch.setattr(dynamics, "_SEARCH_DIM", 20)
    searches = record_searches(monkeypatch)
    seen = set()
    for name, run in walk_cases(neg2x2, mixed2x2, dec):
        searches.clear()
        res = run()
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_integrate", old_integrate)
            ref = run()
        assert res.t_converge == ref.t_converge, name
        assert res.converged == ref.converged, name
        assert res.fallback == ref.fallback, name
        assert res.diagnostics == ref.diagnostics, name
        assert (res.trace is None) == (dec is None), name
        if any(found or after > before for before, after, found in searches):
            seen.add("searched")
            assert_matches(res, ref)
        else:
            seen.add("not searched")
            assert same_bits(res.x, ref.x), name
            assert same_bits(res.residual_inf, ref.residual_inf), name
            if dec is not None:
                for field in ("t", "states", "residual_inf"):
                    got, want = getattr(res.trace, field), getattr(ref.trace, field)
                    assert got.shape == want.shape and same_bits(got, want), (name, field)
        if ref.t_converge is None:
            seen.add("never settled")
        if "exceeded" in ref.diagnostics:
            seen.add("overflow")
    # the cases reach every way a walk ends, and both overflow decisions
    for grid, certified, before, settled_at in walks:
        if grid:
            seen.add("grid stride")
        if not certified:
            seen.add("uncertified")
        if before == 0 and settled_at is not None and settled_at <= dynamics._BLOCK:
            seen.add("window met in the first block")
    expected = {
        "never settled", "overflow", "uncertified", "window met in the first block",
        "searched", "not searched",
    }
    if dec is not None:
        expected.add("grid stride")
    assert expected <= seen
