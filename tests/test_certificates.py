"""The two certificates that stand in for dense computations, against them.

The nonsingularity gate of an unscaled solve decides row-dominant matrices
without elimination (problem._dominance_certificate), and the stability
ladder simulates a rung whose scaled Gershgorin discs prove it stable
without an eigensolve (dynamics._stable_by_discs), forming its max Re(eig)
when the report is read.  Each must give the verdict of the computation it
replaces: certified means _lu_factor passes, or stability_report says
stable, and everything a solve returns keeps its bits.
"""

import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from ringsolve import dynamics, problem as problem_mod
from ringsolve.dynamics import (
    EigenFailure,
    Mode,
    SolveOptions,
    SolverConfig,
    StabilityReport,
    StateDimensionLimit,
    StateSpace,
    build_system,
    ideal_system,
    solve,
    stability_report,
)
from ringsolve.netlist import MemristorBank, QuantizerSpec, negated_plan, plan
from ringsolve.problem import (
    LinearProblem,
    NormOverflow,
    SingularMatrix,
    _check_nonsingular,
    _dominance_certificate,
    _finite_inf_norm,
    _lu_factor,
)

IDEAL = SolverConfig(mode=Mode.IDEAL)


def same_bits(x, y):
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


def outcome(call):
    """None when call passes, else the refusal's type and text."""
    try:
        call()
    except (SingularMatrix, NormOverflow) as exc:
        return type(exc), str(exc)
    return None


# --- the nonsingularity gate ------------------------------------------------


def dominant(rng, n, ratio):
    """Mixed-sign matrix whose |diagonal| is ratio times its off-diagonal row
    sum (a random nonzero scalar for n = 1)."""
    a = rng.uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(a, 0.0)
    rows = np.abs(a).sum(axis=1) if n > 1 else rng.uniform(0.1, 2.0, 1)
    np.fill_diagonal(a, ratio * rows * rng.choice([-1.0, 1.0], n))
    return a


def gate_matrices(rng):
    """Dominant, barely dominant (about the margin the gate needs), weakly
    dominant, non-dominant, near-singular and zero matrices, n 1-80, each
    also scaled toward 1e308, toward 1e-300 and into the subnormals."""
    sizes = [*range(1, 13), 16, 20, 24, 30, 35, 40, 64, 65, 80]
    for n in sizes:
        for ratio in (1.25, 1.001, 1.0 + 1e-11, 1.0 + 3e-12, 1.0 + 1e-12, 1.0, 0.9):
            yield dominant(rng, n, ratio)
        yield rng.uniform(-1.0, 1.0, (n, n))
        u, v = rng.uniform(-1.0, 1.0, (2, n))
        yield np.outer(u, v) + 1e-14 * rng.uniform(-1.0, 1.0, (n, n))
        yield np.zeros((n, n))
        singular = dominant(rng, n, 1.25)
        singular[-1] = singular[0]
        yield singular


def scaled(a):
    peak = np.abs(a).max()
    if peak == 0.0:
        yield a
        return
    yield a
    yield a / (a.shape[0] * peak) * 1e308  # ||A|| at most 1e308
    yield a * (1e-280 / peak)  # the tolerance still a normal float
    yield a * (1e-300 / peak)
    yield a * (1e-310 / peak)  # subnormal entries


def test_gate_gives_the_elimination_verdict():
    rng = np.random.default_rng(20261019)
    certified = refused = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base in gate_matrices(rng):
            for a in scaled(base):
                want = outcome(lambda: _lu_factor(a))
                assert outcome(lambda: _check_nonsingular(a)) == want
                refused += want is not None
                if _dominance_certificate(a, _finite_inf_norm(a)):
                    certified += 1
                    assert want is None
                    assert a.shape[0] <= problem_mod._DOMINANCE_MAX_N
    assert certified > 120 and refused > 100


def test_gate_certifies_the_dominant_and_refuses_by_name():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 20, 30):
        a = dominant(rng, n, 1.25)
        assert _dominance_certificate(a, _finite_inf_norm(a)), n
    # too large for the growth bound: elimination decides
    a = dominant(rng, 65, 2.0)
    assert not _dominance_certificate(a, _finite_inf_norm(a))
    with pytest.raises(SingularMatrix, match="^zero matrix$"):
        _check_nonsingular(np.zeros((3, 3)))
    with pytest.raises(NormOverflow, match="^\\|\\|A\\|\\|_inf = inf is not finite in float64$"):
        _check_nonsingular(np.array([[1e308, 1e308], [0.0, 1e308]]))
    # a nonzero matrix whose pivot tolerance underflows to 0 is refused as
    # the zero matrix, so it is never certified
    tiny = np.array([[1e-320]])
    assert not _dominance_certificate(tiny, _finite_inf_norm(tiny))
    with pytest.raises(SingularMatrix, match="^zero matrix$"):
        _check_nonsingular(tiny)


def test_unscaled_solve_factors_only_what_the_certificate_leaves(monkeypatch):
    calls, real = [], problem_mod._lu_factor

    def counting(a, rhs=None, a_norm=None):
        calls.append(a_norm)
        return real(a, rhs, a_norm)

    monkeypatch.setattr(problem_mod, "_lu_factor", counting)
    solve(LinearProblem([[-4.0, -1.0], [-1.0, -4.0]], [0.1, -0.2]))
    assert calls == []
    solve(LinearProblem([[-4.0, -1.5], [-2.0, -1.0]], [0.45, 0.24]))
    assert calls == [5.5]  # the norm the gate formed, not formed again


# --- the stability certificate ----------------------------------------------


def mixed_dominant(rng, n, ratio, positive=0.45):
    """Negative diagonal ratio times the off-diagonal row sum; a share of
    the off-diagonal entries positive, so the plan has inverters, several
    of them on one column (merged lags)."""
    off = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(off, 0.0)
    a = off * np.where(rng.random((n, n)) < positive, 1.0, -1.0)
    np.fill_diagonal(a, -ratio * off.sum(axis=1) - (n == 1))
    return a


def rungs(rng):
    """Structural rungs (plain, 8-bit ladder, memristors; both orientations)
    of matrices about the dominance the discs need, and ideal rungs."""
    quantizer = QuantizerSpec(bits=8, r_unit=8000.0)
    for n in [*range(1, 13), 16, 20, 24]:
        for ratio in (0.8, 1.0, 1.05, 1.25, 2.0):
            a = mixed_dominant(rng, n, ratio)
            a *= 10.0 / np.abs(a).sum(axis=1).max()  # inside the memristor range
            p = LinearProblem(a, rng.uniform(-0.5, 0.5, n))
            for circuit in (
                plan(p), plan(p, quantizer=quantizer),
                dynamics.program_memristors(plan(p), MemristorBank(), n),
            ):
                yield build_system(circuit, SolverConfig())
                yield build_system(negated_plan(circuit), SolverConfig())
            yield ideal_system(a, p.b, IDEAL)
            yield ideal_system(-a, -p.b, IDEAL)
            gram = a.T @ a
            yield ideal_system(-gram, p.b, IDEAL)


def near_margin_rungs(rng, count):
    """Rungs whose rows sit within a few certificate margins of the bound,
    on either side, with lag states coupled as the structural ones are."""
    for _ in range(count):
        nm = int(rng.integers(1, 12))
        lags = int(rng.integers(0, nm + 1))
        dim = nm + lags
        scale = 10.0 ** rng.uniform(-3, 9)
        m = rng.uniform(-1.0, 1.0, (dim, dim)) * scale
        m[nm:, nm:] = 0.0
        m[nm:, :nm] = 0.0
        src = rng.integers(0, nm, lags)
        # a lag row's coupling c times its own rate: above 1 it bounds s
        # below 1/c, so the main rows' lower bound can cross it
        coupling = rng.choice([1.0, 1.0 + 1e-8, 1.3, 2.5], lags) * rng.choice([-1.0, 1.0], lags)
        m[nm + np.arange(lags), src] = coupling * scale / 2.0
        m[nm + np.arange(lags), nm + np.arange(lags)] = -scale / 2.0
        inner = np.abs(m[:nm, :nm]).sum(axis=1) - np.abs(m[:nm].diagonal())
        outer = np.abs(m[:nm, nm:]).sum(axis=1)
        # the lag columns weigh 1/s: a little over 1 at the s plain lag rows
        # allow, up to 2 at s = 1/2
        weight = rng.choice([1.0, 1.0 + 1e-8, 1.0 + 1e-7, 1.01, 1.5, 2.5])
        wobble = rng.uniform(-3.0, 3.0, nm) * 2e-9 * dim * scale
        np.fill_diagonal(m[:nm, :nm], -(inner + weight * outer + wobble))
        yield StateSpace(m, np.zeros(dim), np.ones(dim), nm, m[:nm, :nm], np.zeros(nm))


def test_certified_rungs_are_stable_with_the_same_spectrum():
    rng = np.random.default_rng(20261019)
    certified = {"rungs": 0, "near": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, source in (("rungs", rungs(rng)), ("near", near_margin_rungs(rng, 3000))):
            for ss in source:
                if not dynamics._stable_by_discs(ss):
                    continue
                certified[name] += 1
                want = stability_report(ss)
                assert want.stable
                got = StabilityReport._deferred(ss, True)
                assert same_bits(got.max_re_eig, want.max_re_eig) and got == want
    assert certified["rungs"] > 150 and certified["near"] > 500


def test_structural_dominant_rungs_are_certified():
    # lags, merged inverters and all: the benchmark's dense class
    rng = np.random.default_rng(11)
    for n in (2, 12, 16, 20):
        ss = build_system(plan(LinearProblem(mixed_dominant(rng, n, 1.25), np.zeros(n))),
                          SolverConfig())
        assert ss.merged_mode is not None or n == 2
        assert dynamics._stable_by_discs(ss)


@pytest.mark.parametrize("m, nm", [
    ([[-1.0, np.inf], [0.0, -1.0]], 2),
    ([[-np.inf, 0.0], [0.0, -1.0]], 2),
    ([[-1.0, 0.0], [0.0, np.nan]], 2),
    ([[0.0, 0.0], [0.0, -1.0]], 2),
    ([[-1.0, 2.0], [0.0, -1.0]], 2),
    ([[-1.0, 1.0], [1.0, -1.0]], 2),  # on the bound: an eigenvalue at 0
    # inside the bound by less than the margin the eigensolver's error needs
    ([[-1.0, 1.0 - 2.0**-52], [1.0 - 2.0**-52, -1.0]], 2),
    ([[-1.0, 0.0], [np.inf, -1.0]], 2),
    ([[-1.0, 0.0], [np.nan, -1.0]], 2),
    ([[-1.0, 0.0, 0.1], [0.0, -1.0, 0.0], [np.inf, 0.0, -0.5]], 2),
    ([[-1.0, 0.0, 0.1], [0.0, -np.inf, 0.0], [-0.5, 0.0, -0.5]], 2),
    # a second main row that fails at every s: one eigenvalue positive
    ([[-4.0, 0.5, 0.1], [9.0, -1.0, 0.0], [-0.5, 0.0, -0.5]], 2),
    # stable, but only s <= 1/3 fits the lag row: kappa(D) would pass 2
    ([[-1.0, 0.1], [-1.5, -0.5]], 1),
])
def test_rungs_the_discs_do_not_certify(m, nm):
    m = np.array(m)
    dim = len(m)
    ss = StateSpace(m, np.zeros(dim), np.ones(dim), nm, m[:nm, :nm], np.zeros(nm))
    assert not dynamics._stable_by_discs(ss)


def solve_fields(res):
    trace = res.trace
    return (
        res.x.tobytes(), res.residual_inf, res.converged, res.t_converge,
        res.fallback, res.diagnostics, res.scale_factor,
        np.float64(res.stability.max_re_eig).tobytes(), res.stability.stable,
        None if trace is None else (trace.t.tobytes(), trace.states.tobytes(),
                                    trace.residual_inf.tobytes()),
    )


def test_solves_keep_their_bits(monkeypatch):
    rng = np.random.default_rng(5)
    cases = []
    for n in (2, 4, 6, 8, 12):
        a = mixed_dominant(rng, n, 1.5)
        a *= 10.0 / np.abs(a).sum(axis=1).max()
        b = rng.uniform(-0.5, 0.5, n)
        cases.append((LinearProblem(a, b), SolverConfig(), SolveOptions()))
        cases.append((LinearProblem(a, b), SolverConfig(t_max=2e-6), SolveOptions(
            quantizer=QuantizerSpec(bits=8, r_unit=8000.0), trace_decimation=0)))
        cases.append((LinearProblem(a, b), SolverConfig(t_max=2e-6), SolveOptions(
            memristor=MemristorBank(write_noise_sigma=0.02), memristor_seed=n,
            trace_decimation=0)))
        cases.append((LinearProblem(-a, b), SolverConfig(), SolveOptions()))
        cases.append((LinearProblem(a, b), IDEAL, SolveOptions(trace_decimation=7)))
    fired, real = [], dynamics._stable_by_discs
    monkeypatch.setattr(dynamics, "_stable_by_discs", lambda ss: fired.append(real(ss)) or fired[-1])
    got = [solve_fields(solve(*case)) for case in cases]
    monkeypatch.setattr(dynamics, "_stable_by_discs", lambda ss: False)
    want = [solve_fields(solve(*case)) for case in cases]
    assert got == want
    assert fired.count(True) >= 15


def test_state_dimension_cap_comes_before_the_certificate(monkeypatch):
    def refusing(ss):
        raise AssertionError("certificate consulted")

    monkeypatch.setattr(dynamics, "_stable_by_discs", refusing)
    p = LinearProblem(-np.eye(300), np.zeros(300))
    with pytest.raises(StateDimensionLimit, match="^state dimension 300 exceeds 256$"):
        solve(p, IDEAL)


# --- the deferred report ----------------------------------------------------


def count_eigvals(monkeypatch, fail=False):
    calls, real = [], np.linalg.eigvals

    def counting(m):
        calls.append(m.shape[0])
        if fail:
            raise np.linalg.LinAlgError("refused")
        return real(m)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


DOMINANT = LinearProblem([[-4.0, -1.0], [-1.0, -4.0]], [0.1, -0.2])


def test_spectrum_formed_once_when_read(monkeypatch):
    calls = count_eigvals(monkeypatch)
    res = solve(DOMINANT)
    assert res.converged and res.stability.stable and calls == []
    first = res.stability.max_re_eig
    assert calls == [2] and res.stability.max_re_eig == first
    assert calls == [2]
    assert first == stability_report(build_system(plan(DOMINANT), SolverConfig())).max_re_eig


def test_failed_read_raises_and_can_be_read_again(monkeypatch):
    calls = count_eigvals(monkeypatch, fail=True)
    res = solve(DOMINANT)
    with pytest.raises(EigenFailure, match="^refused$"):
        res.stability.max_re_eig
    monkeypatch.undo()
    assert calls == [2] and res.stability.max_re_eig < 0.0


def test_report_keeps_the_dataclass_contract():
    eager = StabilityReport(max_re_eig=-1.5, stable=True)
    assert eager == StabilityReport(-1.5, True) != StabilityReport(-1.5, False)
    assert hash(eager) == hash(StabilityReport(-1.5, True))
    assert repr(eager) == "StabilityReport(max_re_eig=-1.5, stable=True)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        eager.stable = False
    deferred = solve(DOMINANT).stability
    for clone in (copy.copy(deferred), copy.deepcopy(deferred),
                  pickle.loads(pickle.dumps(deferred))):
        assert clone == deferred and hash(clone) == hash(deferred)
    assert deferred != (deferred.max_re_eig, True)
    assert math.isfinite(deferred.max_re_eig)
