"""Per-solve fixed costs, against the code they replace.

Row peaks are taken from a transposed copy, the power-of-two maps are
doubled in one loop with the run's reach computed in one pass, and the
stability ladder skips the eigensolve of a rung whose trace proves it
unstable.  Each must give the same bits (or, for the trace shortcut, the
same verdict) as before; the oracles below are the helpers they replace.
"""

import numpy as np
import pytest

from conftest import assert_reach_covers, factors
from ringsolve import dynamics
from ringsolve.dynamics import (
    Mode,
    SolverConfig,
    StateDimensionLimit,
    StateSpace,
    UnstableSystem,
    build_system,
    ideal_system,
    solve,
    stability_report,
)
from ringsolve.netlist import negated_plan, plan
from ringsolve.problem import LinearProblem

IDEAL = SolverConfig(mode=Mode.IDEAL)


def bits_equal(a, b):
    """Same shape and the same bits, any NaN matching any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    both_nan = np.isnan(a) & np.isnan(b)
    return bool(((a.view(np.int64) == b.view(np.int64)) | both_nan).all())


# --- row peaks -------------------------------------------------------------


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 9), (9, 1), (3, 8), (512, 8), (17, 40), (0, 5)]
)
def test_row_max_is_max_along_rows(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape)
    if a.size:
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0]
        picks = rng.random(shape) < 0.2
        a[picks] = rng.choice(specials, picks.sum())
    assert np.array_equal(dynamics._row_max(a), a.max(axis=1), equal_nan=True)
    assert np.array_equal(dynamics._row_max(np.abs(a)), np.abs(a).max(axis=1), equal_nan=True)


def test_row_max_of_a_view():
    a = np.arange(60.0).reshape(6, 10)[:, 2:7]
    a[3, 4] = np.nan
    assert np.array_equal(dynamics._row_max(a), a.max(axis=1), equal_nan=True)


# --- the power-of-two maps and the reach -----------------------------------


def old_compose(later, earlier):
    (d_a, p_a), (d_b, p_b) = later, earlier
    return d_a + d_b + d_a @ d_b, p_b + d_a @ p_b + p_a


def old_then(first, second):
    n_a, d_a, p_a, r_a, q_a = first
    n_b, d_b, p_b, r_b, q_b = second
    with np.errstate(over="ignore", invalid="ignore"):
        end_r = np.abs(d_a + np.eye(len(d_a))).sum(axis=1).max()
        d, p = old_compose((d_b, p_b), (d_a, p_a))
        norm_r = np.maximum(r_a, r_b * end_r)
        norm_p = np.maximum(q_a, r_b * np.abs(p_a).max() + q_b)
    return n_a + n_b, d, p, norm_r, norm_p


def old_unit(d, p):
    with np.errstate(over="ignore", invalid="ignore"):
        norm_r = np.maximum(1.0, np.abs(d + np.eye(len(d))).sum(axis=1).max())
    return 1, d, p, norm_r, np.abs(p).max()


def old_factors(powers, n):
    while 1 << len(powers) <= n:
        powers.append(old_then(powers[-1], powers[-1]))
    return [powers[b] for b in range(n.bit_length()) if n >> b & 1]


def old_block_maps(powers, count):
    old_factors(powers, min(dynamics._BLOCK, count))
    size = 1
    while size < len(powers) and 1 << size <= min(dynamics._BLOCK, count):
        if not np.abs(powers[size][1]).max() <= 1e100:
            break
        size += 1
    return powers[:size], 1 << (size - 1)


def step_map(kind, dim, seed):
    """(R - I, u) of a stable, an unstable (past 1e100 within 512 steps) or a
    non-finite (powers overflow to inf and NaN) map."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dim)
    if kind == "stable":
        d = -0.01 * np.eye(dim) + 1e-3 * rng.normal(size=(dim, dim))
    elif kind == "unstable":
        d = 2.0 * np.eye(dim) + 0.1 * rng.normal(size=(dim, dim))
    else:
        d = 1e60 * rng.normal(size=(dim, dim))
    return d, u


MAPS = [
    (kind, dim, seed)
    for kind in ("stable", "unstable", "non-finite")
    for dim, seed in ((1, 0), (2, 1), (3, 2), (8, 3), (9, 4), (17, 5), (40, 6), (150, 7))
]


@pytest.mark.parametrize("kind, dim, seed", MAPS)
def test_doubling_and_bounds_match_the_then_chain(kind, dim, seed):
    # the doubled maps keep their bits, and the run's reach is the old
    # chain's offset bound one doubling past the last power
    d, u = step_map(kind, dim, seed)
    old = [old_unit(d, u)]
    new = [(1, d, u)]
    # one shared powers list, extended a little at a time as simulate does
    for n in (1, 2, 3, 109, 512, 513, 5000, (1 << 20) + 77):
        with np.errstate(over="ignore", invalid="ignore"):
            want = old_factors(old, n)
            got = factors(new, n)
            reach = dynamics._stack(new)[1]
            past = old_then(old[-1], old[-1])
        assert [f[0] for f in got] == [f[0] for f in want]
        for g, w in zip(got, want):
            assert all(bits_equal(x, y) for x, y in zip(g[1:], w[1:3])), (n, g[0])
        assert bits_equal(reach, past[4]), n
    assert len(new) == len(old)
    for g, w in zip(new, old):
        assert g[0] == w[0] and bits_equal(g[1], w[1]) and bits_equal(g[2], w[2])
    if kind == "non-finite":
        assert not np.isfinite(new[-1][1]).all()


@pytest.mark.parametrize("kind, dim, seed", MAPS)
def test_stride_bounds_match_the_then_chain(kind, dim, seed):
    # the stride composes its set-bit factors with _then, bit for bit as the
    # old chain composed its maps
    d, u = step_map(kind, dim, seed)
    for dec in (1, 6, 7, 100, 4097):
        with np.errstate(over="ignore", invalid="ignore"):
            want = old_factors([old_unit(d, u)], dec)
            got = factors([(1, d, u)], dec)
            want_stride = want[0]
            got_stride = got[0]
            for w, g in zip(want[1:], got[1:]):
                want_stride = old_then(want_stride, w)
                got_stride = dynamics._then(got_stride, g)
        assert got_stride[0] == want_stride[0]
        assert all(bits_equal(x, y) for x, y in zip(got_stride[1:], want_stride[1:3]))


@pytest.mark.parametrize("kind, dim, seed", MAPS)
def test_reach_covers_every_state_from_rest(kind, dim, seed):
    # brute force: every state of a run from rest, up to the horizon, lies
    # within the reach; a map whose powers overflow is never certified
    d, u = step_map(kind, dim, seed)
    for n in (11, 109, 513):
        reach = assert_reach_covers(d, u, n)
        if kind == "non-finite":
            assert not reach <= dynamics.OVERFLOW_LIMIT


@pytest.mark.parametrize("kind, dim, seed", MAPS)
def test_block_maps_match_the_loop(kind, dim, seed):
    d, u = step_map(kind, dim, seed)
    for count in (1, 2, 3, 100, 512, 3000):
        with np.errstate(over="ignore", invalid="ignore"):
            want, want_size = old_block_maps([old_unit(d, u)], count)
            got, got_size = dynamics._block_maps([(1, d, u)], count)
        assert got_size == want_size and len(got) == len(want)
        for g, w in zip(got, want):
            assert g[0] == w[0] and bits_equal(g[1], w[1]) and bits_equal(g[2], w[2])
    if kind == "unstable":
        assert got_size < dynamics._BLOCK  # the 1e100 cut is exercised


# --- the trace shortcut in the stability ladder -----------------------------


def random_rungs(rng, count):
    """Ideal, Gram and structural rungs, both orientations, n 1-12."""
    for _ in range(count):
        n = int(rng.integers(1, 13))
        a = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-0.5, 0.5, n)
        gram = a.T @ a
        for m_a, m_b in ((a, b), (-a, -b), (gram, a.T @ b), (-gram, -a.T @ b)):
            yield ideal_system(m_a, m_b, IDEAL)
        circuit = plan(LinearProblem(a, b))
        yield build_system(circuit, SolverConfig())
        yield build_system(negated_plan(circuit), SolverConfig())


def near_zero_trace_rungs(rng, count, dims=(1, 20)):
    """Rungs whose trace sits within a few margins of 0, on either side."""
    for _ in range(count):
        dim = int(rng.integers(*dims))
        m = rng.normal(size=(dim, dim)) * 10.0 ** rng.uniform(-3, 8)
        if rng.random() < 0.5:  # strongly non-normal
            m = np.triu(m) * 1e3 + m
        margin = 1e-9 * dim * np.abs(m).max()
        m[0, 0] -= m.trace() - margin * rng.uniform(-3.0, 3.0)
        yield StateSpace(m, np.zeros(dim), np.ones(dim), dim, m, np.zeros(dim))


def test_skipped_rungs_are_unstable():
    rng = np.random.default_rng(20261018)
    skipped = {"random": 0, "near-zero": 0}
    for name, rungs in (
        ("random", random_rungs(rng, 600)),
        ("near-zero", near_zero_trace_rungs(rng, 3000)),
        ("near-zero", near_zero_trace_rungs(rng, 30, (100, 257))),
    ):
        for ss in rungs:
            if dynamics._unstable_by_trace(ss.m):
                skipped[name] += 1
                assert not stability_report(ss).stable
    assert skipped["random"] > 1000 and skipped["near-zero"] > 500


def test_structural_rungs_have_no_positive_trace():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        circuit = plan(LinearProblem(rng.uniform(-1, 1, (n, n)), rng.uniform(-0.5, 0.5, n)))
        for c in (circuit, negated_plan(circuit)):
            ss = build_system(c, SolverConfig())
            assert ss.m.trace() <= 0.0 and not dynamics._unstable_by_trace(ss.m)


def test_non_finite_rung_still_reaches_eigvals():
    m = np.array([[1.0, np.inf], [0.0, 1.0]])
    assert not dynamics._unstable_by_trace(m)
    m = np.array([[np.nan, 0.0], [0.0, 1.0]])
    assert not dynamics._unstable_by_trace(m)


def count_eigvals(monkeypatch):
    calls, real = [], np.linalg.eigvals

    def counting(m):
        calls.append(m.shape[0])
        return real(m)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


@pytest.mark.parametrize(
    "fixture, fallback, eigensolves",
    [("mixed2x2", "gram-negated", 2), ("mixed8x8", "gram-negated", 2), ("pos2x2", "negated", 1)],
)
def test_ideal_ladder_eigensolves(monkeypatch, request, fixture, fallback, eigensolves):
    # one of the two direct rungs and the planned Gram rung have a positive
    # trace; before the shortcut these took 4, 4 and 2 eigensolves
    p = request.getfixturevalue(fixture)
    calls = count_eigvals(monkeypatch)
    res = solve(p, IDEAL)
    assert res.fallback == fallback
    assert len(calls) == eigensolves


def signed_zero_system(rng, n):
    """A uniform system with +0.0 and -0.0 entries in A and b."""
    a = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.integers(-3, 4)
    b = rng.uniform(-0.5, 0.5, n)
    for v in (a, b):
        v[rng.random(v.shape) < 0.2] = 0.0
        v[rng.random(v.shape) < 0.2] = -0.0
    return a, b


def test_negated_ideal_rung_is_the_negated_problem_bit_for_bit():
    rng = np.random.default_rng(20261019)
    for n in range(1, 13):
        for _ in range(20):
            a, b = signed_zero_system(rng, n)
            for m_a, m_b in ((a, b), (a.T @ a, a.T @ b)):
                got = dynamics._negated_ideal(ideal_system(m_a, m_b, IDEAL))
                want = ideal_system(-m_a, -m_b, IDEAL)
                for name in ("m", "f", "gamma", "a_hat", "b_hat"):
                    assert bits_equal(getattr(got, name), getattr(want, name)), name
                assert got.n_main == want.n_main and got.merged_mode is None


@pytest.mark.parametrize(
    "fixture, fallback, builds",
    [("mixed2x2", "gram-negated", 2), ("mixed8x8", "gram-negated", 2),
     ("pos2x2", "negated", 1), ("neg2x2", "none", 1)],
)
def test_ideal_ladder_builds_one_state_space_per_system(
    monkeypatch, request, fixture, fallback, builds
):
    # the negated rung is the planned state space negated; before, every
    # rung was built: 4, 4, 2 and 1 calls
    p = request.getfixturevalue(fixture)
    calls, real = [], dynamics.ideal_system

    def counting(*args):
        calls.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(dynamics, "ideal_system", counting)
    res = solve(p, IDEAL)
    assert res.fallback == fallback
    assert len(calls) == builds


@pytest.mark.parametrize(
    "fixture, fallback, rungs",
    [
        ("neg2x2", "none", 1),
        ("pos2x2", "none", 1),
        ("mixed8x8", "gram", 3),
        ("mixed2x2", "gram-negated", 4),
    ],
)
def test_structural_eigensolve_count_unchanged(monkeypatch, request, fixture, fallback, rungs):
    p = request.getfixturevalue(fixture)
    calls = count_eigvals(monkeypatch)
    res = solve(p)
    assert res.fallback == fallback
    assert len(calls) == rungs


def test_skipped_rung_reported_in_the_unstable_message(monkeypatch):
    # all four rungs are unstable, and the planned rungs of the system and
    # of its Gram system have a positive trace: their reports are formed
    # only for the message, which reads as when every rung was eigensolved,
    # and no rung is eigensolved twice
    p = LinearProblem([[0.5, 1.0], [1.5, 2.99999995]], [0.1, 0.1])
    skipped, real = [], dynamics._unstable_by_trace

    def recording(m):
        skipped.append(real(m))
        return skipped[-1]

    monkeypatch.setattr(dynamics, "_unstable_by_trace", recording)
    calls = count_eigvals(monkeypatch)
    with pytest.raises(UnstableSystem) as info:
        solve(p, IDEAL)
    assert str(info.value) == (
        "no stable orientation found (none: max Re(eig) = 7.119e+07; "
        "negated: max Re(eig) = 2.329e-01; gram: max Re(eig) = 8.777e+07; "
        "gram-negated: max Re(eig) = 0.000e+00)"
    )
    assert skipped == [True, False, True, False]
    assert len(calls) == 4


def test_state_dimension_cap_checked_before_the_trace():
    # the planned rung of a positive diagonal has a positive trace
    n = dynamics._EIG_DIM_LIMIT + 1
    p = LinearProblem(np.eye(n), np.full(n, 0.1))
    assert dynamics.ideal_system(p.a, p.b, IDEAL).m.trace() > 0
    with pytest.raises(StateDimensionLimit, match=f"state dimension {n} exceeds"):
        solve(p, IDEAL)


def test_skipped_rung_spectrum_is_formed_for_the_message(monkeypatch):
    # the gate gives a trace-skipped rung a deferred report: nothing forms
    # its spectrum while the ladder runs, and the message forms the same
    # bits stability_report gives
    p = LinearProblem([[0.5, 1.0], [1.5, 2.99999995]], [0.1, 0.1])
    gated, real_gate = [], dynamics._gate
    formed, real_report = [], dynamics.stability_report

    def recording_gate(ss, direct):
        report = real_gate(ss, direct)
        gated.append((ss, report, len(formed)))
        return report

    def recording_report(ss):
        formed.append(ss)
        return real_report(ss)

    monkeypatch.setattr(dynamics, "_gate", recording_gate)
    monkeypatch.setattr(dynamics, "stability_report", recording_report)
    with pytest.raises(UnstableSystem) as info:
        solve(p, IDEAL)
    skipped = [(ss, report) for ss, report, _ in gated if dynamics._unstable_by_trace(ss.m)]
    assert len(skipped) == 2
    # when the ladder ended, only the two eigensolved rungs had a spectrum
    assert gated[-1][2] == 2 and not any(ss is s for s, _ in skipped for ss in formed[:2])
    assert len(formed) == 4 and all(a is b for a, (b, _) in zip(formed[2:], skipped))
    for ss, report in skipped:
        want = real_report(ss)
        assert bits_equal(report.max_re_eig, want.max_re_eig) and report == want
        assert f"max Re(eig) = {want.max_re_eig:.3e}" in str(info.value)


def test_structural_trace_test_skips_the_scan(monkeypatch):
    # a structural state matrix never has a positive trace, so its trace
    # test never forms |m|; a rung with a positive trace does
    rng = np.random.default_rng(8)
    real_abs = np.abs
    scanned = []

    def guarded_abs(x, *args, **kwargs):
        scanned.append(any(x is m for m in watched))
        return real_abs(x, *args, **kwargs)

    watched = []
    for _ in range(100):
        n = int(rng.integers(1, 10))
        circuit = plan(LinearProblem(rng.uniform(-1, 1, (n, n)), rng.uniform(-0.5, 0.5, n)))
        watched += [build_system(c, SolverConfig()).m for c in (circuit, negated_plan(circuit))]
    monkeypatch.setattr(np, "abs", guarded_abs)
    assert not any(dynamics._unstable_by_trace(m) for m in watched)
    assert not any(scanned)
    watched.append(ideal_system(np.eye(3), np.zeros(3), IDEAL).m)
    assert dynamics._unstable_by_trace(watched[-1])
    assert any(scanned)
