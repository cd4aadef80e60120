"""State-space assembly, stability gating, RK4 simulation, and AC analysis."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from conftest import probe_single_path_gain
from ringsolve import dynamics
from ringsolve.dynamics import (
    Mode,
    MultiPathRow,
    SolveOptions,
    SolverConfig,
    StabilityReport,
    ac_response,
    bandwidth,
    build_system,
    ideal_system,
    simulate,
    solve,
    stability_report,
)
from ringsolve.netlist import MemristorBank, QuantizerSpec, plan
from ringsolve.problem import (
    LinearProblem,
    RangeViolation,
    ScalePolicy,
    SingularMatrix,
    direct_solve_oracle,
    scale_problem,
    solve_dense,
)

CFG = SolverConfig()  # 300 MHz/V, k_pd = 1/pi, eps 1 mV, 10 us horizon


def _diag_dominant(rng, n, sign=-1.0):
    """Random matrix with a dominant diagonal of the given sign: stable."""
    a = rng.uniform(-1, 1, (n, n))
    a[np.arange(n), np.arange(n)] = sign * (np.abs(a).sum(axis=1) + rng.uniform(0.5, 1.5))
    return a


class TestBuildSystem:
    def test_equilibrium_matches_realized_system(self, mixed2x2):
        ss = build_system(plan(mixed2x2), CFG)
        # 2 main states + 1 lag: both inverters are fed by column 1
        assert ss.m.shape == (3, 3)
        assert ss.n_main == 2
        z_eq = solve_dense(ss.m, -ss.f)
        np.testing.assert_allclose(
            ss.a_hat @ z_eq[:2], ss.b_hat, atol=1e-12
        )
        # the inverter lag settles at the negated source column
        np.testing.assert_allclose(z_eq[2:], -z_eq[1], atol=1e-12)

    def test_gamma_is_one_plus_row_weight(self, neg2x2):
        ss = build_system(plan(neg2x2), CFG)
        np.testing.assert_allclose(ss.gamma, [1 + 5.5, 1 + 3.0])

    def test_state_matrix_sign_convention(self, neg2x2):
        # all-negative matrix: state matrix is +g diag(1/gamma) A, stable
        ss = build_system(plan(neg2x2), CFG)
        expected = CFG.g * (neg2x2.a / ss.gamma[:, None])
        np.testing.assert_allclose(ss.m, expected, rtol=1e-12)


class TestStabilityReport:
    def test_negative_fixture_stable(self, neg2x2):
        rep = stability_report(build_system(plan(neg2x2), CFG))
        assert rep.stable
        assert rep.max_re_eig < 0

    def test_identity_unstable(self):
        # dx/dt = -g D (b - x) has state matrix +g D, positive eigenvalues
        ss = ideal_system(np.eye(2), np.zeros(2), CFG)
        rep = stability_report(ss)
        assert not rep.stable
        assert rep.max_re_eig == pytest.approx(CFG.g / 2.0, rel=1e-9)

    def test_mixed_system_reported_numerically(self, mixed2x2):
        rep = stability_report(build_system(plan(mixed2x2), CFG))
        # saddle spectrum: the structural 4-state system is unstable in this
        # orientation; the report just states it
        assert not rep.stable

    def test_dimension_limit(self):
        ss = ideal_system(-np.eye(300), np.zeros(300), CFG)
        with pytest.raises(ValueError):
            stability_report(ss)


class TestSimulate:
    def test_negative_fixture_converges(self, neg2x2):
        res = simulate(build_system(plan(neg2x2), CFG), CFG)
        assert res.converged
        np.testing.assert_allclose(res.x, [-0.09, -0.06], atol=1e-6)
        assert res.t_converge <= 400e-9
        assert res.residual_inf <= CFG.eps_residual

    def test_zero_input_stays_zero(self):
        p = LinearProblem([[-4.0, -1.5], [-2.0, -1.0]], [0.0, 0.0])
        res = simulate(build_system(plan(p), CFG), CFG)
        assert res.converged
        np.testing.assert_array_equal(res.x, [0.0, 0.0])
        assert res.t_converge == 0.0

    def test_unstable_system_reports_divergence(self):
        ss = ideal_system(np.eye(2), np.array([0.1, 0.1]), CFG)
        res = simulate(ss, CFG)
        assert not res.converged
        assert "divergence" in res.diagnostics
        assert not res.stability.stable

    def test_equilibrium_matches_oracle(self):
        # all-negative diagonally dominant matrices keep the planned
        # orientation and are structurally stable, so simulate() needs no gate
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            a = -np.abs(_diag_dominant(rng, n))
            b = rng.uniform(-0.5, 0.5, n)
            p = LinearProblem(a, b)
            res = simulate(build_system(plan(p), CFG), CFG)
            assert res.converged
            assert np.abs(ss_resid(p, res.x)).max() <= CFG.eps_residual
            ref = direct_solve_oracle(p)
            assert np.abs(res.x - ref).max() <= 10 * CFG.eps_residual

    def test_step_halving(self, neg2x2):
        cfg_a = SolverConfig(t_max=1e-6, dt=1.6e-10)
        cfg_b = SolverConfig(t_max=1e-6, dt=0.8e-10)
        ra = simulate(build_system(plan(neg2x2), cfg_a), cfg_a)
        rb = simulate(build_system(plan(neg2x2), cfg_b), cfg_b)
        assert np.abs(ra.x - rb.x).max() <= 1e-8

    def test_trace_format(self, neg2x2, tmp_path):
        res = simulate(build_system(plan(neg2x2), CFG), CFG, trace_decimation=0)
        path = tmp_path / "trace.csv"
        res.trace.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,x0,x1,residual_inf"
        assert lines[1].startswith("0,0,0,")
        assert len(lines) == len(res.trace.t) + 1

    def test_trace_decimation(self, neg2x2):
        res = simulate(build_system(plan(neg2x2), CFG), CFG, trace_decimation=100)
        steps = np.diff(res.trace.t)
        dt = res.trace.t[1] - res.trace.t[0]
        assert np.all(steps[:-1] == pytest.approx(dt))


def ss_resid(p, x):
    return p.b - p.a @ x


class TestSolve:
    def test_negative_fixture(self, neg2x2):
        res = solve(neg2x2, CFG)
        np.testing.assert_allclose(res.x, [-0.09, -0.06], atol=1e-3)
        assert res.fallback == "none"
        assert res.converged

    def test_result_is_simulates_with_four_fields_set(self, neg2x2, monkeypatch):
        # solve sets x (unscaled), fallback, plan and scale_factor and keeps
        # every other field simulate filled, including one it did not expect
        real, seen = dynamics.simulate, []

        def marking(*args, **kwargs):
            res = real(*args, **kwargs)
            seen.append(dataclasses.replace(
                res, stability=StabilityReport(max_re_eig=-1.0, stable=True)
            ))
            return seen[-1]

        monkeypatch.setattr(dynamics, "simulate", marking)
        res = solve(neg2x2, CFG, SolveOptions(scale=ScalePolicy.EXACT, trace_decimation=0))
        (sim,) = seen
        assert res.stability == StabilityReport(max_re_eig=-1.0, stable=True)
        assert res.scale_factor == 6.0 and res.fallback == "none"
        np.testing.assert_array_equal(res.x, sim.x * 6.0)
        assert res.plan is not None
        for field in dataclasses.fields(res):
            if field.name not in ("x", "fallback", "plan", "scale_factor"):
                assert getattr(res, field.name) is getattr(sim, field.name)

    def test_positive_fixture_auto_negates(self, pos2x2):
        res = solve(pos2x2, CFG)
        np.testing.assert_allclose(res.x, [0.09, 0.06], atol=1e-3)
        assert res.fallback == "none"
        assert res.plan.negated
        assert res.plan.inverter_count == 0

    def test_mixed_fixture_uses_gram_ladder(self, mixed2x2):
        res = solve(mixed2x2, SolverConfig(t_max=40e-6))
        np.testing.assert_allclose(res.x, [-0.09, 0.06], atol=1e-3)
        assert res.fallback.startswith("gram")
        assert res.converged

    def test_range_violation(self):
        p = LinearProblem([[-1.0]], [0.6])
        with pytest.raises(RangeViolation):
            solve(p, CFG)

    def test_singular_matrix(self):
        p = LinearProblem([[1.0, 2.0], [2.0, 4.0]], [0.1, 0.2])
        with pytest.raises(SingularMatrix):
            solve(p, CFG)

    @pytest.mark.parametrize("b", [0.5, -0.5, 0.5 + 5e-16, -np.nextafter(0.5, 1.0)])
    def test_one_input_window_rule(self, b):
        # solve with and without scaling and scale_problem accept |b_i| = 0.5
        # and refuse anything above it, with the same message
        p = LinearProblem([[-1.0, 0.2], [0.1, -1.0]], [b, 0.0])
        cfg = SolverConfig(t_max=1e-6)
        calls = [lambda: scale_problem(p)] + [
            lambda scale=scale: solve(p, cfg, SolveOptions(scale=scale))
            for scale in (None, ScalePolicy.EXACT, ScalePolicy.ESTIMATE)
        ]
        for call in calls:
            if abs(b) <= 0.5:
                call()
                continue
            message = f"max |b_i| = {float(abs(b))!r} exceeds 0.5 V"
            with pytest.raises(RangeViolation, match=re.escape(message)):
                call()

    @pytest.mark.parametrize("dec", [-1, -5])
    def test_negative_trace_decimation_refused(self, neg2x2, dec):
        with pytest.raises(ValueError, match="trace_decimation must be nonnegative"):
            SolveOptions(trace_decimation=dec)
        ss = build_system(plan(neg2x2), CFG)
        with pytest.raises(ValueError, match="trace_decimation must be nonnegative"):
            simulate(ss, CFG, trace_decimation=dec)

    @pytest.mark.parametrize("policy", list(ScalePolicy))
    @pytest.mark.parametrize(
        "a", [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 1e-14], [1.0, 1e-14]]]
    )
    def test_singular_matrix_same_error_when_scaled(self, policy, a):
        # scaling factors A itself, so it stands in for the gate
        p = LinearProblem(a, [0.1, 0.2])
        with pytest.raises(SingularMatrix) as plain:
            solve(p, CFG)
        with pytest.raises(SingularMatrix) as scaled:
            solve(p, CFG, SolveOptions(scale=policy))
        assert str(scaled.value) == str(plain.value)

    def test_ideal_structural_agreement_all_negative(self, neg2x2):
        ri = solve(neg2x2, SolverConfig(mode=Mode.IDEAL))
        rs = solve(neg2x2, SolverConfig(mode=Mode.STRUCTURAL))
        assert np.abs(ri.x - rs.x).max() <= 1e-6
        # identical state matrices, gamma divider included
        ss_i = ideal_system(neg2x2.a, neg2x2.b, CFG)
        ss_s = build_system(plan(neg2x2), CFG)
        np.testing.assert_allclose(ss_i.m, ss_s.m, rtol=1e-12)

    def test_linearity(self):
        a = [[-4.0, -1.5], [-2.0, -1.0]]
        x1 = solve(LinearProblem(a, [0.2, 0.1]), CFG).x
        x2 = solve(LinearProblem(a, [0.4, 0.2]), CFG).x
        assert np.abs(x2 - 2.0 * x1).max() <= 1e-9

    def test_converge_time_scales_inversely_with_kvco(self, neg2x2):
        t1 = solve(neg2x2, SolverConfig(k_vco=300e6)).t_converge
        t2 = solve(neg2x2, SolverConfig(k_vco=600e6)).t_converge
        assert abs(t1 / t2 - 2.0) <= 0.2

    def test_scaled_pipeline(self, neg2x2):
        res = solve(neg2x2, CFG, SolveOptions(scale=ScalePolicy.EXACT))
        assert res.scale_factor == pytest.approx(6.0)
        np.testing.assert_allclose(res.x, [-0.09, -0.06], atol=1e-3)

    def test_memristor_pipeline(self, neg2x2_small_b):
        bank = MemristorBank(g_min=1e-4, g_max=2.65e-3, write_noise_sigma=0.0)
        res = solve(neg2x2_small_b, CFG, SolveOptions(memristor=bank))
        np.testing.assert_allclose(res.x, [-0.04, 0.06], atol=1e-3)

    def test_solution_invariant_under_negation(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            a = _diag_dominant(rng, 3)
            b = rng.uniform(-0.4, 0.4, 3)
            x1 = solve(LinearProblem(a, b), CFG).x
            x2 = solve(LinearProblem(-a, -b), CFG).x
            assert np.abs(x1 - x2).max() <= 1e-9


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_vco": math.inf},
            {"k_vco": math.nan},
            {"k_pd": math.inf},
            {"k_vco": 1e200, "k_pd": 1e200},  # g overflows
            {"eps_residual": math.nan},
            {"t_max": math.inf},
            {"t_max": math.nan},
            {"dt": math.nan},
            {"dt": math.inf},
        ],
    )
    def test_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="must be finite"):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "k_vco, k_pd",
        [
            (1e-200, 1e-200),  # g = 0: every rung's spectrum reads 0
            (1e-160, 1e-160),  # g subnormal: the auto step is inf
            (1.0, 5e-324),
        ],
    )
    def test_rejects_underflowing_g(self, k_vco, k_pd):
        with pytest.raises(ValueError, match=r"^k_vco \* k_pd underflows"):
            SolverConfig(k_vco=k_vco, k_pd=k_pd)

    def test_smallest_normal_g_accepted(self):
        assert SolverConfig(k_vco=1.0, k_pd=sys.float_info.min).g == sys.float_info.min


class TestSolveOptions:
    @pytest.mark.parametrize("field", ["r_in", "estimate_c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            SolveOptions(**{field: value})

    @pytest.mark.parametrize("c", [0.0, -5.0])
    def test_rejects_nonpositive_estimate_c_under_estimate(self, c):
        with pytest.raises(ValueError, match="^estimate_c must be positive$"):
            SolveOptions(scale=ScalePolicy.ESTIMATE, estimate_c=c)
        # the other policies do not read it
        SolveOptions(scale=ScalePolicy.EXACT, estimate_c=c)
        SolveOptions(estimate_c=c)

    @pytest.mark.parametrize("r_in", [0.0, -5.0])
    def test_rejects_nonpositive_r_in(self, r_in):
        # r_in = 0 used to fail inside plan(), and ideal mode never read it
        with pytest.raises(ValueError, match=f"^r_in must be positive, got {r_in}$"):
            SolveOptions(r_in=r_in)

    def test_rejects_negative_seed_with_memristors(self):
        with pytest.raises(ValueError, match="^memristor_seed must be nonnegative, got -1$"):
            SolveOptions(memristor=MemristorBank(), memristor_seed=-1)
        SolveOptions(memristor_seed=-1)  # no bank reads it

    def test_nan_field_never_reaches_a_solve(self, neg2x2, monkeypatch):
        # each used to reach the plan or the eigensolve: NaN write-noise
        # codes, NaN resistances, an EigenFailure
        def no_eigensolve(ss):
            raise AssertionError("a rung was eigensolved")

        monkeypatch.setattr(dynamics, "stability_report", no_eigensolve)
        for build in (
            lambda: SolveOptions(memristor=MemristorBank(write_noise_sigma=math.nan)),
            lambda: SolveOptions(memristor=MemristorBank(write_noise_sigma=math.inf)),
            lambda: SolveOptions(quantizer=QuantizerSpec(bits=8, r_on=math.nan)),
            lambda: SolveOptions(r_in=math.nan),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                solve(neg2x2, SolverConfig(), build())


class TestLadderIsLazy:
    """Each rung is built only when the rung before it is unstable."""

    @pytest.fixture
    def events(self, monkeypatch):
        log = []
        real_plan, real_report = dynamics.compile_plan, dynamics.stability_report
        real_gram = dynamics._gram_problem

        def logging_gram(*args, **kwargs):
            log.append("gram")
            return real_gram(*args, **kwargs)

        def logging_plan(*args, **kwargs):
            log.append("plan")
            return real_plan(*args, **kwargs)

        def logging_report(ss):
            rep = real_report(ss)
            log.append("stable" if rep.stable else "unstable")
            return rep

        monkeypatch.setattr(dynamics, "compile_plan", logging_plan)
        monkeypatch.setattr(dynamics, "stability_report", logging_report)
        monkeypatch.setattr(dynamics, "_gram_problem", logging_gram)
        return log

    def test_one_compile_when_first_rung_stable(self, neg2x2, events):
        assert solve(neg2x2, CFG).fallback == "none"
        assert events == ["plan", "stable"]

    def test_negated_rung_is_not_compiled(self, events):
        # positive dominant diagonal in a sign tie: the planned orientation
        # is unstable and its negation is derived, not compiled
        p = LinearProblem([[3.0, -1.0], [-1.0, 3.0]], [0.1, 0.1])
        assert solve(p, CFG).fallback == "negated"
        assert events == ["plan", "unstable", "stable"]

    def test_gram_formed_only_after_both_direct_rungs_fail(self, mixed2x2, events):
        res = solve(mixed2x2, SolverConfig(t_max=40e-6))
        assert res.fallback.startswith("gram")
        assert events[:5] == ["plan", "unstable", "unstable", "gram", "plan"]
        assert events.count("plan") == 2


class TestAcResponse:
    CFG1 = SolverConfig(k_vco=1e9 * math.pi, k_pd=1.0 / math.pi)  # g = 1e9

    def _single_path_plan(self, ratio):
        # feedback over input ratio rho realizes coefficient a = -1/rho
        return plan(LinearProblem([[-1.0 / ratio]], [0.3]))

    def test_dc_gain_and_phase(self):
        c = self._single_path_plan(4.0)
        h = ac_response(c, 0, self.CFG1, 1e-3)
        assert abs(h) == pytest.approx(4.0, rel=1e-9)
        assert math.degrees(math.atan2(h.imag, h.real)) == pytest.approx(180.0, abs=1e-3)

    def test_3db_point(self):
        c = self._single_path_plan(4.0)
        bw = bandwidth(c, 0, self.CFG1)
        assert bw == pytest.approx(2e8, rel=1e-12)  # 1e9 / (1 + 4)
        h = ac_response(c, 0, self.CFG1, bw / (2 * math.pi))
        assert abs(h) == pytest.approx(4.0 / math.sqrt(2.0), abs=1e-6)

    def test_bandwidth_limits(self):
        # rho -> 0 gives the full loop rate; rho = 1 gives half
        near_zero = plan(LinearProblem([[-1e9]], [0.0]))
        assert bandwidth(near_zero, 0, self.CFG1) == pytest.approx(1e9, rel=1e-8)
        unity = self._single_path_plan(1.0)
        assert bandwidth(unity, 0, self.CFG1) == pytest.approx(5e8, rel=1e-12)

    def test_bandwidth_doubles_with_g(self):
        c = self._single_path_plan(4.0)
        cfg2 = SolverConfig(k_vco=2e9 * math.pi, k_pd=1.0 / math.pi)
        assert bandwidth(c, 0, cfg2) == pytest.approx(
            2.0 * bandwidth(c, 0, self.CFG1), rel=1e-12
        )

    def test_multipath_row_rejected(self, neg2x2):
        c = plan(neg2x2)
        with pytest.raises(MultiPathRow):
            ac_response(c, 0, self.CFG1, 1e6)
        with pytest.raises(MultiPathRow):
            bandwidth(c, 1, self.CFG1)

    def test_numeric_probe_agrees_with_formula(self):
        # independent check: RK4 simulation with a sinusoidal drive vs the
        # closed-form response, ten frequencies spanning 0.01 BW to 100 BW
        cfg = SolverConfig(k_vco=300e6)
        c = self._single_path_plan(4.0)
        bw_hz = bandwidth(c, 0, cfg) / (2 * math.pi)
        for mult in np.geomspace(0.01, 100.0, 10):
            f = bw_hz * mult
            measured = probe_single_path_gain(c, 0, cfg, f)
            predicted = abs(ac_response(c, 0, cfg, f))
            assert abs(measured / predicted - 1.0) <= 0.01

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 4.0, 8.0])
    def test_probe_blocks_match_one_step_stepping(self, monkeypatch, ratio):
        # the probe's block products against the one-step map applied one
        # step at a time: the same fit to within rounding
        def one_step_block(maps, start, count):
            _, d, p = maps[0][:3]
            z = start if start.ndim == 1 else start[-1]
            out = np.empty((count, len(z)))
            for i in range(count):
                z = z + d @ z + p
                out[i] = z
            return out

        cfg = SolverConfig(k_vco=300e6)
        c = self._single_path_plan(ratio)
        freqs = bandwidth(c, 0, cfg) / (2 * math.pi) * np.array([0.01, 1.0, 100.0])
        blocked = [probe_single_path_gain(c, 0, cfg, f) for f in freqs]
        monkeypatch.setattr(dynamics, "_block", one_step_block)
        for f, gain in zip(freqs, blocked):
            assert abs(gain - probe_single_path_gain(c, 0, cfg, f)) <= 1e-12 * gain
