"""Shared fixtures: the worked problem instances used across the suite,
the structural benchmark's draw, the numerical gain probe that checks the
AC formulas, and a memory probe."""

import contextvars
import math
import tracemalloc

import numpy as np
import pytest

from ringsolve import LinearProblem, dynamics


@pytest.fixture
def neg2x2():
    """All-negative 2x2 system; solution is [-0.09, -0.06]."""
    return LinearProblem([[-4.0, -1.5], [-2.0, -1.0]], [0.45, 0.24])


@pytest.fixture
def pos2x2():
    """All-positive 2x2 system; solution is [0.09, 0.06]."""
    return LinearProblem([[4.0, 1.5], [2.0, 1.0]], [0.45, 0.24])


@pytest.fixture
def mixed2x2():
    """Mixed-sign 2x2 system; solution is [-0.09, 0.06]."""
    return LinearProblem([[-4.0, 1.5], [-2.0, 1.0]], [0.45, 0.24])


@pytest.fixture
def neg2x2_small_b():
    """The all-negative matrix with the memristor-demo input [0.07, 0.02]."""
    return LinearProblem([[-4.0, -1.5], [-2.0, -1.0]], [0.07, 0.02])


@pytest.fixture
def mixed8x8():
    """8x8 with 0.5 on the diagonal and -1 elsewhere; x = [0.05, -0.05 x7]."""
    a = -np.ones((8, 8)) + 1.5 * np.eye(8)
    b = np.array([0.375] + [0.225] * 7)
    return LinearProblem(a, b)


def dense_problem(rng, n):
    """perfbench's structural-dense draw: diagonally dominant, 45 % of the
    off-diagonal entries positive, the diagonal -1.25 times the row's
    off-diagonal mass, scaled to ||A||_inf = 10."""
    off = rng.uniform(0.2, 1.0, (n, n))
    np.fill_diagonal(off, 0.0)
    idx = np.flatnonzero(~np.eye(n, dtype=bool))
    sign = -np.ones(n * n)
    sign[rng.permutation(idx)[: int(0.45 * idx.size)]] = 1.0
    a = off * sign.reshape(n, n)
    np.fill_diagonal(a, -1.25 * off.sum(axis=1))
    a *= 10.0 / np.abs(a).sum(axis=1).max()
    return LinearProblem(a, rng.uniform(-0.5, 0.5, n))


@pytest.fixture
def x8_expected():
    return np.array([0.05] + [-0.05] * 7)


def probe_single_path_gain(
    circuit, row, cfg, freq_hz, settle_periods=10.0, measure_periods=4
):
    """Numerically measured gain magnitude of a single-path system.

    Drives the structural state space with b(t) = sin(w t) through an RK4
    integration (the sinusoid rides along as an augmented undamped
    oscillator pair, so the whole run reuses the library's block stepper)
    and fits the steady-state output against the quadrature pair.  This is
    the independent check of ac_response: no transfer-function algebra is
    used.
    """
    ss = dynamics.build_system(circuit, cfg)
    dynamics._single_path(circuit, row)
    dim = ss.m.shape[0]
    omega = 2.0 * math.pi * freq_hz

    drive = np.zeros(dim)
    drive[row] = -cfg.g / ss.gamma[row]  # node coupling of a unit input
    m_aug = np.zeros((dim + 2, dim + 2))
    m_aug[:dim, :dim] = ss.m
    m_aug[:dim, dim + 1] = drive  # input = s(t)
    m_aug[dim, dim + 1] = -omega  # dc/dt = -w s
    m_aug[dim + 1, dim] = omega   # ds/dt =  w c

    pole = abs(float(np.linalg.eigvals(ss.m).real.max()))
    settle_t = settle_periods / pole
    period = 1.0 / freq_hz
    total_t = settle_t + measure_periods * period
    dt = min(0.5 / cfg.g, period / 256.0)  # |eig(m)| <= g keeps RK4 stable
    n_steps = int(math.ceil(total_t / dt))

    z = np.zeros(dim + 2)
    z[dim] = 1.0  # cosine state starts at 1 so s(t) = sin(w t)
    series = np.empty((n_steps, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        r, _ = dynamics._step_operators(m_aug, dt)
        maps, size = dynamics._block_maps(
            [(1, r - np.eye(dim + 2), np.zeros(dim + 2))], n_steps
        )
        states = z
        for k in range(0, n_steps, size):
            states = dynamics._block(maps, states, min(size, n_steps - k))
            series[k : k + len(states)] = states[:, [row, dim, dim + 1]]

    start = int(settle_t / dt)
    x = series[start:, 0]
    c = series[start:, 1]
    s = series[start:, 2]
    basis = np.column_stack([s, c])
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


def factors(powers, n):
    """dynamics._factors of the n-step map, with powers extended as far as
    n needs first, as simulate does once per run."""
    dynamics._extend(powers, n)
    return dynamics._factors(powers, n)


def assert_reach_covers(d, u, n):
    """The reach _stack gives for the step map (R - I, u) = (d, u), with its
    powers extended to a horizon of n steps, bounds ||P_j||_inf for every
    j <= n, where P_j = sum_{i<j} R^i u is the state j steps from rest,
    formed here one step at a time; returns the reach.  A P_j that is not
    finite must leave the reach not finite."""
    powers = [(1, d, u)]
    with np.errstate(over="ignore", invalid="ignore"):
        dynamics._extend(powers, n)
        reach = dynamics._stack(powers)[1]
        r, z, peak = d + np.eye(len(d)), np.zeros(len(u)), 0.0
        for _ in range(n):
            z = r @ z + u
            peak = np.maximum(peak, np.abs(z).max())  # NaN stays NaN
            if not np.isfinite(peak):
                assert not math.isfinite(reach)
                return reach
    assert reach * (1 + 1e-12) >= peak
    return reach


def peak_floats(call, n):
    """The tracemalloc peak of call(), in units of n float64 (8 n bytes).

    call() runs once untraced first, so caches it fills (sfdr's Hann
    window, numpy's FFT plans) are not counted; then the peak above the
    memory traced when the second call starts is read.  Arrays made before
    the call, its inputs among them, do not count; its outputs do.

    Each call runs in a new, empty contextvars.Context.  A context maps its
    variables in a hash trie, and a variable's hash mixes in its address:
    where np.errstate's variable shares its first trie slot with one already
    set in the caller's context (decimal's), setting it takes one more
    64-byte node, so in about 1 process of 30 the same call read 64 bytes
    more.  In an empty context it is the only variable.
    """
    contextvars.Context().run(call)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        contextvars.Context().run(call)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / (8.0 * n)
