"""Shared inverter lags against the per-entry inverter model they replace.

build_system carries one lag state per inverted source column.  The oracle
below is the literal model with one lag state per inverter; both must give
the same trajectories, convergence figures, ladder rung and spectrum.
"""

import numpy as np
import pytest

from ringsolve import dynamics
from ringsolve.dynamics import (
    SolveOptions,
    SolverConfig,
    StateSpace,
    build_system,
    simulate,
    solve,
    stability_report,
)
from ringsolve.netlist import (
    MemristorBank,
    QuantizerSpec,
    negated_plan,
    plan,
    plan_to_dict,
    program_memristors,
    realized_matrix,
)
from ringsolve.problem import LinearProblem

CFG = SolverConfig()
TOL = 1e-12

QUANT8 = QuantizerSpec(bits=8, r_unit=64000.0, r_in=2000.0, r_on=10.0)
NOISY_BANK = MemristorBank(write_noise_sigma=0.02)
# the runs are compared trace row by trace row, so every solve forms one
VARIANTS = {
    "plain": SolveOptions(trace_decimation=0),
    "quantized-8bit": SolveOptions(quantizer=QUANT8, trace_decimation=0),
    "memristor-noisy": SolveOptions(
        memristor=NOISY_BANK, memristor_seed=7, trace_decimation=0
    ),
}


def per_entry_system(circuit, cfg):
    """Oracle: one lag state per inverter, indexed by its (row, col) entry."""
    n = circuit.n
    g = cfg.g
    sign = circuit.sign.tolist()
    weight = circuit.weight.tolist()
    inverters = [(i, j) for i in range(n) for j in range(n) if sign[i][j] > 0]
    inv_index = {pair: n + k for k, pair in enumerate(inverters)}
    dim = n + len(inverters)

    gamma = np.ones(n)
    for i in range(n):
        gamma[i] += sum(weight[i])

    m = np.zeros((dim, dim))
    f = np.zeros(dim)
    for i in range(n):
        coef = -g / gamma[i]
        f[i] = coef * circuit.b_compiled[i]
        for j in range(n):
            if sign[i][j] < 0:
                m[i, j] += coef * weight[i][j]
            elif sign[i][j] > 0:
                m[i, inv_index[(i, j)]] += coef * weight[i][j]
    for (i, j), k in inv_index.items():
        m[k, j] = -g / 2.0
        m[k, k] = -g / 2.0

    a_hat, b_hat = realized_matrix(circuit)
    return StateSpace(m, f, gamma, n, a_hat, b_hat)


def _random_problem(rng, n):
    """Mixed-sign matrix, entries 0.05..1 in magnitude, often with shared
    inverter columns; one draw in three has no dominant diagonal."""
    a = rng.uniform(0.05, 1.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
    kind = rng.integers(3)
    if kind < 2:
        sign = -1.0 if kind == 0 else 1.0
        a[np.arange(n), np.arange(n)] = sign * (
            np.abs(a).sum(axis=1) + rng.uniform(0.5, 1.5)
        )
    return LinearProblem(a, rng.uniform(-0.4, 0.4, n))


def _problems(seed, count):
    rng = np.random.default_rng(seed)
    return [_random_problem(rng, int(rng.integers(2, 6))) for _ in range(count)]


def _assert_same_report(rep, ref):
    assert rep.stable == ref.stable
    assert rep.max_re_eig == pytest.approx(ref.max_re_eig, rel=1e-9)


def _assert_same_run(res, ref):
    np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=TOL)
    np.testing.assert_array_equal(res.trace.t, ref.trace.t)
    np.testing.assert_allclose(res.trace.states, ref.trace.states, rtol=0, atol=TOL)
    np.testing.assert_allclose(
        res.trace.residual_inf, ref.trace.residual_inf, rtol=0, atol=TOL
    )
    assert res.residual_inf == pytest.approx(ref.residual_inf, rel=0, abs=TOL)
    assert res.t_converge == ref.t_converge
    assert res.converged == ref.converged
    _assert_same_report(res.stability, ref.stability)


def _plans(prob, options):
    """The planned orientation and its negation, programmed if requested."""
    circuit = plan(prob, options.r_in, options.quantizer)
    if options.memristor is not None:
        circuit = program_memristors(
            circuit, options.memristor, options.memristor_seed
        )
    return circuit, negated_plan(circuit)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_simulate_matches_per_entry_model(variant):
    options = VARIANTS[variant]
    simulated = converged = shared = 0
    for prob in _problems(101, 8):
        for circuit in _plans(prob, options):
            ss = build_system(circuit, CFG)
            oracle = per_entry_system(circuit, CFG)
            assert ss.m.shape[0] <= 2 * circuit.n
            assert ss.m.shape[0] <= oracle.m.shape[0]
            shared += ss.m.shape[0] < oracle.m.shape[0]
            rep, ref_rep = stability_report(ss), stability_report(oracle)
            _assert_same_report(rep, ref_rep)
            if not ref_rep.stable:
                continue
            res = simulate(ss, CFG, 0, stability=rep)
            _assert_same_run(res, simulate(oracle, CFG, 0, stability=ref_rep))
            simulated += 1
            converged += res.converged
    # the draw exercises shared columns, simulation and convergence
    assert shared >= 4 and simulated >= 4 and converged >= 4


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_solve_ladder_matches_per_entry_model(variant, monkeypatch):
    options = VARIANTS[variant]
    problems = _problems(202, 6)
    results = [solve(p, CFG, options) for p in problems]
    monkeypatch.setattr(dynamics, "build_system", per_entry_system)
    for prob, res in zip(problems, results):
        ref = solve(prob, CFG, options)
        assert res.fallback == ref.fallback
        assert plan_to_dict(res.plan) == plan_to_dict(ref.plan)
        _assert_same_run(res, ref)
    assert {r.fallback for r in results} != {"none"}  # the ladder is walked


def test_merged_modes_kept_in_spectrum(monkeypatch):
    # column 0 feeds the inverters of rows 1 and 2; their difference mode at
    # -g/2 is the slowest mode of the hardware but has no state of its own
    a = [[-9.35, -0.96, -0.46], [0.41, -6.93, -0.9], [0.85, 0.47, -9.07]]
    prob = LinearProblem(a, [0.1, -0.2, 0.3])
    ss = build_system(plan(prob), CFG)
    assert ss.m.shape == (5, 5)  # 3 main states + lags of columns 0 and 1
    assert ss.merged_mode == -CFG.g / 2.0
    # the shared-lag spectrum alone is faster than the hardware's
    assert np.linalg.eigvals(ss.m).real.max() < -CFG.g / 2.0 * 1.05

    res = solve(prob, CFG, VARIANTS["plain"])
    monkeypatch.setattr(dynamics, "build_system", per_entry_system)
    ref = solve(prob, CFG, VARIANTS["plain"])
    assert ref.stability.max_re_eig == pytest.approx(-CFG.g / 2.0, rel=1e-9)
    _assert_same_run(res, ref)
    assert res.fallback == ref.fallback


def test_no_merged_mode_without_shared_column(neg2x2):
    # no inverters at all, and one inverter per column
    assert build_system(plan(neg2x2), CFG).merged_mode is None
    one_each = LinearProblem([[-4.0, 0.5], [0.3, -2.0]], [0.1, 0.1])
    ss = build_system(plan(one_each), CFG)
    assert ss.m.shape == (4, 4)
    assert ss.merged_mode is None


def test_census_stays_per_entry():
    rng = np.random.default_rng(5)
    n = 20
    a = rng.uniform(0.05, 1.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
    a[np.arange(n), np.arange(n)] = -(np.abs(a).sum(axis=1) + 1.0)
    circuit = plan(LinearProblem(a, np.zeros(n)))
    ss = build_system(circuit, CFG)
    assert circuit.inverter_count > n
    assert ss.m.shape[0] == n + np.count_nonzero((circuit.sign > 0).any(axis=0))
    assert ss.m.shape[0] <= 2 * n
    assert per_entry_system(circuit, CFG).m.shape[0] == n + circuit.inverter_count
