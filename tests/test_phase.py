"""Phase accumulation, PWM detection, multiphase spectra, and SFDR."""

import math
import warnings

import numpy as np
import pytest

from ringsolve import phase
from ringsolve.dynamics import SolverConfig, ac_response
from ringsolve.netlist import plan
from ringsolve.phase import (
    _METHOD_DIVIDER,
    _high_taps,
    _periodic_hann,
    _spur_mask,
    _triangle,
    AliasRisk,
    NoFundamental,
    PhaseConfig,
    PhaseMethod,
    dominant_tone,
    effective_kvco,
    measure_kvco,
    multiphase_sum,
    pd_xor,
    sfdr,
    simulate_phase_integrator,
    simulate_phase_lowpass,
    vco_phase_step,
)
from ringsolve.problem import LinearProblem


def _cfg(m=32, f0=5e6, k_vco=3e6, **kw):
    return PhaseConfig(m_phases=m, f0=f0, f_ref=f0, k_vco=k_vco, dt=2.5e-10, **kw)


class TestVcoPhase:
    def test_center_frequency(self):
        cfg = PhaseConfig()
        dt = 1e-10
        theta = vco_phase_step(0.0, cfg.v0, cfg, dt)
        assert theta == pytest.approx(2 * math.pi * cfg.f0 * dt, rel=1e-12)

    def test_pure_integration_of_offset(self):
        cfg = PhaseConfig()
        dt = 1e-11
        delta_v = 0.01
        theta = 0.0
        steps = 500
        acc = 0.0
        for _ in range(steps):
            new = vco_phase_step(theta, cfg.v0 + delta_v, cfg, dt)
            adv = (new - theta) % (2 * math.pi)
            acc += adv
            theta = new
        extra = acc - 2 * math.pi * cfg.f0 * dt * steps
        assert extra == pytest.approx(
            2 * math.pi * cfg.k_vco * delta_v * dt * steps, rel=1e-9
        )

    def test_wraps_to_unit_circle(self):
        cfg = PhaseConfig()
        theta = vco_phase_step(6.2, 1.0, cfg, 1e-8)
        assert 0.0 <= theta < 2 * math.pi

    def test_affine_frequency_sweep(self):
        # the acceptance-grade linearity check: fitted slope == k_vco
        cfg = PhaseConfig(k_vco=320e6)
        slope = measure_kvco(cfg, 0.5, 1.0, points=11)
        assert abs(slope / cfg.k_vco - 1.0) <= 1e-6


class TestPdXor:
    def test_in_phase(self):
        t = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
        assert np.mean(pd_xor(t, t, 1.0)) == 0.0

    def test_quadrature_half_duty(self):
        t = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        avg = np.mean(pd_xor(t + math.pi / 2, t, 1.0))
        assert avg == pytest.approx(0.5, abs=1e-3)

    def test_antiphase_full(self):
        # offset the grid so no sample sits exactly on a zero crossing
        t = np.linspace(0, 2 * math.pi, 1024, endpoint=False) + 1e-3
        assert np.mean(pd_xor(t + math.pi, t, 1.0)) == 1.0

    def test_average_slope_is_vdd_over_pi(self):
        # time-averaged output vs phase error: slope v_dd / pi on (0, pi)
        t = np.linspace(0, 2 * math.pi, 8192, endpoint=False)
        errors = np.linspace(0.2, math.pi - 0.2, 9)
        avgs = [np.mean(pd_xor(t + e, t, 1.0)) for e in errors]
        slope = np.polyfit(errors, avgs, 1)[0]
        assert slope == pytest.approx(1.0 / math.pi, rel=1e-2)


class TestMultiphaseSum:
    def test_all_low(self):
        assert multiphase_sum([0.0, 0.0, 0.0]) == 0.0

    def test_midpoint(self):
        levels = [1.0] * 16 + [0.0] * 16
        assert multiphase_sum(levels) == 0.5

    def test_alphabet_has_m_plus_one_levels(self):
        # a slow full-range duty sweep exercises every output level
        for m in (1, 3, 5, 8):
            cfg = _cfg(m=m, f0=20e6, k_vco=20e6)
            out = simulate_phase_integrator(
                np.full(1 << 15, cfg.v0 + 0.05), cfg, phase0=0.0
            )
            levels = np.unique(out)
            assert len(levels) == m + 1
            np.testing.assert_allclose(levels, np.arange(m + 1) / m, atol=1e-12)


class TestEffectiveKvco:
    def test_division_rules(self):
        base = dict(m_phases=32, f0=320e6, k_vco=320e6)
        direct = effective_kvco(PhaseConfig(**base))
        johnson = effective_kvco(
            PhaseConfig(**base, method=PhaseMethod.JOHNSON_16)
        )
        hybrid = effective_kvco(PhaseConfig(**base, method=PhaseMethod.HYBRID_4X4))
        assert direct.k_vco_hz_per_v == 320e6 and direct.level_shifters == 16
        assert johnson.k_vco_hz_per_v == 20e6 and johnson.level_shifters == 1
        assert hybrid.k_vco_hz_per_v == 80e6 and hybrid.level_shifters == 4

    def test_f_ref_follows_divider(self):
        cfg = PhaseConfig(f0=320e6, method=PhaseMethod.JOHNSON_16)
        assert cfg.f_ref == pytest.approx(20e6)


class TestIntegrator:
    def test_dc_step_ramp_slope(self):
        # open-loop ramp at (2 pi k_vco) * (v_dd / pi) * dV, fitted on one
        # rising segment of the duty law
        cfg = PhaseConfig(m_phases=32, f0=100e6, f_ref=100e6, k_vco=300e6)
        dv = 0.002
        n = 1 << 14
        v = np.full(n, cfg.v0 + dv)
        out = simulate_phase_integrator(v, cfg, phase0=0.1 * math.pi)
        t = np.arange(n) * cfg.dt
        mask = 0.1 * math.pi + 2 * math.pi * cfg.k_vco * dv * t < 0.9 * math.pi
        slope = np.polyfit(t[mask], out[mask], 1)[0]
        expected = 2 * math.pi * cfg.k_vco * (cfg.v_dd / math.pi) * dv
        assert abs(slope / expected - 1.0) <= 0.02

    def test_zero_input_ripple_only(self):
        cfg = _cfg(m=8)
        out = simulate_phase_integrator(np.full(1 << 13, cfg.v0), cfg)
        assert np.abs(out - out.mean()).max() <= 1.0 / 8 + 1e-12
        assert out.std() < 0.2

    def test_spur_at_m_times_f_ref(self):
        n = 1 << 15
        for m in (3, 4, 8, 32):
            cfg = _cfg(m=m)
            out = simulate_phase_integrator(
                np.full(n, cfg.v0), cfg, phase0=0.45 * math.pi
            )
            tone = dominant_tone(out, cfg.dt)
            bin_hz = 1.0 / (n * cfg.dt)
            assert abs(tone - m * cfg.f_ref) <= 2 * bin_hz

    def test_ripple_nonincreasing_in_m(self):
        p2p = []
        for m in (1, 2, 4, 8, 16, 32):
            cfg = PhaseConfig(
                m_phases=m, f0=20e6, f_ref=20e6, k_vco=20e6, dt=1 / (20.5 * 32 * 20e6)
            )
            out = simulate_phase_integrator(
                np.full(1 << 13, cfg.v0), cfg, phase0=0.45 * math.pi
            )
            p2p.append(out.max() - out.min())
        assert all(b <= a + 1e-12 for a, b in zip(p2p, p2p[1:]))

    def test_more_phases_bury_the_spur(self):
        def spur_db(m):
            cfg = PhaseConfig(
                m_phases=m, f0=20e6, f_ref=20e6, k_vco=20e6, dt=1 / (20.5 * 32 * 20e6)
            )
            n = 1 << 15
            t = np.arange(n) * cfg.dt
            f_sig = 16 / (n * cfg.dt)
            v = cfg.v0 + 0.01 * np.sin(2 * math.pi * f_sig * t)
            out = simulate_phase_integrator(v, cfg, phase0=0.45 * math.pi)
            return sfdr(out, f_sig, cfg).sfdr_db

        assert spur_db(32) - spur_db(4) >= 10.0

    def test_alias_warning(self):
        cfg = PhaseConfig(m_phases=32, f0=5e6, f_ref=5e6, k_vco=3e6, dt=5e-9)
        with pytest.warns(AliasRisk):
            simulate_phase_integrator(np.full(4096, cfg.v0), cfg)

    def test_deterministic(self):
        cfg = _cfg(m=8)
        v = np.full(1 << 12, cfg.v0 + 0.01)
        a = simulate_phase_integrator(v, cfg)
        b = simulate_phase_integrator(v, cfg)
        np.testing.assert_array_equal(a, b)


class TestSfdr:
    CFG = PhaseConfig(m_phases=4, f0=20e6, f_ref=20e6, k_vco=20e6, dt=1 / (20.5 * 32 * 20e6))

    def _tone(self, n, bins, amp=1.0):
        t = np.arange(n) * self.CFG.dt
        f = bins / (n * self.CFG.dt)
        return np.sin(2 * math.pi * f * t) * amp, f

    def test_pure_tone_floor(self):
        s, f = self._tone(1 << 14, 32)
        rep = sfdr(s, f, self.CFG)
        assert rep.sfdr_db >= 120.0
        assert rep.fundamental_hz == pytest.approx(f, rel=1e-9)

    def test_synthetic_minus_60dbc_spur(self):
        n = 1 << 14
        s, f1 = self._tone(n, 32)
        spur, f2 = self._tone(n, 113, amp=1e-3)
        rep = sfdr(s + spur, f1, self.CFG)
        assert rep.sfdr_db == pytest.approx(60.0, abs=0.5)
        assert rep.worst_spur_hz == pytest.approx(f2, rel=1e-9)

    def test_harmonics_excluded_from_spurs(self):
        n = 1 << 14
        s, f1 = self._tone(n, 32)
        h3, _ = self._tone(n, 96, amp=0.01)  # 3rd harmonic, not a spur
        spur, f2 = self._tone(n, 250, amp=1e-4)
        rep = sfdr(s + h3 + spur, f1, self.CFG)
        assert rep.worst_spur_hz == pytest.approx(f2, rel=1e-9)
        assert rep.sfdr_db == pytest.approx(80.0, abs=0.5)

    def test_integrator_spur_location_3_phase(self):
        cfg = PhaseConfig(m_phases=3, f0=5e6, f_ref=5e6, k_vco=5e6, dt=2.5e-10)
        n = 1 << 15
        t = np.arange(n) * cfg.dt
        f_sig = 16 / (n * cfg.dt)
        v = cfg.v0 + 0.02 * np.sin(2 * math.pi * f_sig * t)
        out = simulate_phase_integrator(v, cfg, phase0=0.45 * math.pi)
        rep = sfdr(out, f_sig, cfg)
        bin_hz = 1.0 / (n * cfg.dt)
        assert abs(rep.worst_spur_hz - 3 * cfg.f_ref) <= 2 * bin_hz

    def test_length_validation(self):
        s, f = self._tone(1000, 16)
        with pytest.raises(ValueError):
            sfdr(s, f, self.CFG)

    def test_unresolvable_signal(self):
        s, _ = self._tone(1 << 14, 32)
        with pytest.raises(ValueError):
            sfdr(s, 1.0 / ((1 << 14) * self.CFG.dt), self.CFG)  # 1 bin

    def test_no_fundamental(self):
        n = 1 << 14
        rng = np.random.default_rng(0)
        noise = rng.normal(0, 1.0, n)
        f = 500 / (n * self.CFG.dt)
        with pytest.raises(NoFundamental):
            sfdr(noise, f, self.CFG)

    def test_spectrum_csv(self, tmp_path):
        s, f = self._tone(1 << 14, 32)
        rep = sfdr(s, f, self.CFG)
        path = tmp_path / "spectrum.csv"
        rep.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "freq_hz,mag_db"
        assert len(lines) == rep.spectrum_freq_hz.size + 1


class TestPhaseVsBehavioral:
    def test_lowpass_matches_transfer_function(self):
        # closed-loop phase-domain run vs the small-signal response; the
        # phase loop constant is g = (2 pi k_vco) * (v_dd / pi) = 2 v_dd k_vco
        ratio = 2.0
        pcfg = PhaseConfig(
            m_phases=8, f0=200e6, f_ref=200e6, k_vco=100e6, dt=1 / (24 * 8 * 200e6)
        )
        g_phase = 2.0 * pcfg.v_dd * pcfg.k_vco
        dcfg = SolverConfig(k_vco=g_phase, k_pd=1.0)
        single = plan(LinearProblem([[-1.0 / ratio]], [0.1]))
        bw_hz = dcfg.g / (1 + ratio) / (2 * math.pi)
        bias = pcfg.v0 * (1 + 1 / ratio) - pcfg.v_dd / (2 * ratio)
        for mult in (0.1, 1.0):
            f_sig = bw_hz * mult
            n = int(round((4 * (1 + ratio) / dcfg.g + 3 / f_sig) / pcfg.dt))
            t = np.arange(n) * pcfg.dt
            amp = 0.004
            b = bias + amp * np.sin(2 * math.pi * f_sig * t)
            out = simulate_phase_lowpass(b, ratio, pcfg)
            period = int(round(1 / (f_sig * pcfg.dt)))
            win = slice(n - 2 * period, n)
            basis = np.column_stack(
                [
                    np.sin(2 * math.pi * f_sig * t[win]),
                    np.cos(2 * math.pi * f_sig * t[win]),
                    np.ones(win.stop - win.start),
                ]
            )
            coef, *_ = np.linalg.lstsq(basis, out[win], rcond=None)
            measured = math.hypot(coef[0], coef[1]) / amp
            predicted = abs(ac_response(single, 0, dcfg, f_sig))
            assert abs(measured / predicted - 1.0) <= 0.05


def _lowpass_numpy_oracle(b_in, rf_over_rin, cfg, phase0=1.5 * math.pi):
    """The array-per-sample form of the closed loop: numpy duty law, np.mod
    carriers and np.count_nonzero on every sample."""
    def triangle(phase):
        return 1.0 - np.abs(np.mod(phase / math.pi, 2.0) - 1.0)

    f_center = cfg.f0 / _METHOD_DIVIDER[cfg.method]
    k_eff = effective_kvco(cfg).k_vco_hz_per_v
    m = cfg.m_phases
    taps = np.arange(m) / m
    out = np.empty(b_in.size)
    v_out = cfg.v_dd * triangle(phase0)
    phase_err = phase0
    ref_cycles = 0.0
    for k in range(b_in.size):
        v_node = (b_in[k] + v_out / rf_over_rin) / (1.0 + 1.0 / rf_over_rin)
        phase_err += 2.0 * math.pi * (f_center + k_eff * (v_node - cfg.v0) - cfg.f_ref) * cfg.dt
        duty = triangle(phase_err)
        carriers = np.mod(ref_cycles + taps, 1.0)
        v_out = cfg.v_dd * float(np.count_nonzero(carriers < duty)) / m
        ref_cycles += cfg.f_ref * cfg.dt
        out[k] = v_out
    return out


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0, 4.0])
def test_lowpass_scalar_loop_matches_numpy_oracle(m, ratio):
    # bit-identical: float % rounds as np.mod does, so not even the last
    # bit of any sample may move
    rng = np.random.default_rng(int(100 * ratio) + m)
    for method in (PhaseMethod.DIRECT_LEVEL_SHIFT_16, PhaseMethod.JOHNSON_16):
        cfg = PhaseConfig(
            m_phases=m, f0=200e6, f_ref=200e6, k_vco=100e6, method=method,
            dt=1.0 / (24 * m * 200e6),
        )
        bias = cfg.v0 * (1.0 + 1.0 / ratio) - cfg.v_dd / (2.0 * ratio)
        # a step plus noise large enough to sweep the whole duty range
        b = bias + 0.2 / ratio + rng.uniform(-0.6, 0.6, 1500) * rng.uniform(0, 1)
        phase0 = float(rng.uniform(-8.0, 8.0))
        for p0 in (1.5 * math.pi, phase0):
            got = simulate_phase_lowpass(b, ratio, cfg, phase0=p0)
            assert np.array_equal(got, _lowpass_numpy_oracle(b, ratio, cfg, p0))


def test_lowpass_carrier_on_the_duty_counts_low():
    # at phase error 0 with the node pinned at v0 the duty stays exactly 0
    # and the first carrier sits exactly on it: the comparison is strict
    cfg = PhaseConfig(m_phases=4, f0=200e6, k_vco=100e6, dt=1.0 / (24 * 4 * 200e6))
    b = np.full(64, 2.0 * cfg.v0)
    got = simulate_phase_lowpass(b, 1.0, cfg, phase0=0.0)
    assert np.array_equal(got, _lowpass_numpy_oracle(b, 1.0, cfg, 0.0))
    assert got[0] == 0.0


def _integrator_oracle(v_in, cfg, phase0=math.pi / 2):
    """The M x N form of the multiphase integrator: every carrier of every
    sample compared against the duty, the (M, N) levels summed on axis 0."""
    v_in = np.asarray(v_in, dtype=float)
    f_center = cfg.f0 / _METHOD_DIVIDER[cfg.method]
    k_eff = effective_kvco(cfg).k_vco_hz_per_v
    t = np.arange(v_in.size) * cfg.dt
    inst_freq = f_center + k_eff * (v_in - cfg.v0)
    theta = np.empty(v_in.size)
    theta[0] = 0.0
    np.cumsum(2.0 * math.pi * inst_freq[:-1] * cfg.dt, out=theta[1:])
    duty = _triangle(theta - 2.0 * math.pi * cfg.f_ref * t + phase0)
    taps = np.arange(cfg.m_phases)[:, None] / cfg.m_phases
    carriers = np.mod(cfg.f_ref * t[None, :] + taps, 1.0)
    levels = np.where(carriers < duty[None, :], cfg.v_dd, 0.0)
    return levels.sum(axis=0) / cfg.m_phases


def _random_integrator_case(rng, n):
    """A random configuration (aligned or unaligned dt, any method, v_dd
    of 1 and other values) and a noisy tone or flat input of n samples."""
    m = int(rng.integers(1, 65))
    method = list(PhaseMethod)[int(rng.integers(3))]
    f0 = 10.0 ** rng.uniform(5, 8)
    kw = {}
    if rng.random() < 0.5:
        f_ref = f0 / _METHOD_DIVIDER[method] * rng.uniform(0.5, 1.5)
        kw = dict(f_ref=f_ref, dt=rng.uniform(0.2, 1.0) / (20.0 * max(f0, f_ref)))
    v_dd = float(rng.choice([1.0, 1.2, 0.9, 0.1, 3.3, rng.uniform(0.05, 5.0)]))
    cfg = PhaseConfig(
        m_phases=m, f0=f0, k_vco=f0 * rng.uniform(0.01, 3.0), v_dd=v_dd,
        method=method, **kw,
    )
    t = np.arange(n) * cfg.dt
    v = (
        cfg.v0
        + rng.uniform(0.0, 0.3) * np.sin(2 * math.pi * rng.uniform(0, 0.01) * f0 * t)
        + rng.normal(0.0, rng.uniform(0.0, 0.05), n)
    )
    if rng.random() < 0.2:
        v = np.full(n, cfg.v0)
    return cfg, v


class TestIntegratorMatchesCarrierOracle:
    """The closed-form tap count is bit-identical to the M x N form."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_grid(self, seed):
        rng = np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasRisk)
            for _ in range(40):
                n = int(rng.choice([1, 2, 3, 17, 4096, 32768, int(rng.integers(1, 20000))]))
                cfg, v = _random_integrator_case(rng, n)
                p0 = float(rng.choice([math.pi / 2, rng.uniform(-10.0, 10.0)]))
                got = simulate_phase_integrator(v, cfg, p0)
                assert np.array_equal(got, _integrator_oracle(v, cfg, p0)), (cfg, n, p0)

    @pytest.mark.parametrize("phase0", [0.0, math.pi / 2, math.pi])
    @pytest.mark.parametrize("m", [1, 3, 4, 8, 32, 64])
    def test_phase0_on_the_duty_breakpoints(self, phase0, m):
        # flat input at v0: the phase error sits on phase0 and the carriers
        # sweep past a duty of exactly 0, 1/2 or 1
        for v_dd in (1.0, 1.2):
            cfg = PhaseConfig(m_phases=m, f0=5e6, k_vco=10e6, v_dd=v_dd)
            for v in (np.full(4096, cfg.v0), cfg.v0 + 1e-3 * np.sin(np.arange(4096) / 300.0)):
                got = simulate_phase_integrator(v, cfg, phase0)
                assert np.array_equal(got, _integrator_oracle(v, cfg, phase0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 3, 8, 9, 32, 64])
    def test_short_series(self, n, m):
        # one sample is summed pairwise by numpy: the value depends on which
        # taps are high, not only how many
        rng = np.random.default_rng(100 * m + n)
        for v_dd in (1.0, 1.2, 0.9, 0.1, 3.3):
            cfg = PhaseConfig(m_phases=m, f0=5e6, k_vco=10e6, v_dd=v_dd)
            for p0 in rng.uniform(-4.0, 4.0, 25):
                v = cfg.v0 + rng.uniform(-0.5, 0.5, n)
                got = simulate_phase_integrator(v, cfg, float(p0))
                assert np.array_equal(got, _integrator_oracle(v, cfg, float(p0)))

    def test_non_finite_inputs(self):
        cfg = PhaseConfig(m_phases=8, f0=5e6, k_vco=10e6)
        series = [
            [np.nan, 0.75, np.inf, 0.75],
            [0.75, np.inf, 0.75, 0.75, 0.7],
            [0.75, 0.8, -np.inf, 0.75],
            [0.75, 0.76, 0.77, np.nan, 0.75, 0.75],
        ]
        # inf reaches the duty law as an inf phase error: np.mod flags it
        with np.errstate(invalid="ignore"):
            for v in map(np.array, series):
                got = simulate_phase_integrator(v, cfg)
                assert np.array_equal(got, _integrator_oracle(v, cfg)), v
        np.testing.assert_array_equal(
            simulate_phase_integrator(np.array(series[0]), cfg), [0.5, 0.0, 0.0, 0.0]
        )

    def test_empty_series(self):
        out = simulate_phase_integrator(np.array([]), PhaseConfig())
        assert out.shape == (0,) and out.dtype == np.float64


def _carrier_count(a, duty, m):
    return np.count_nonzero(
        np.mod(a[None, :] + np.arange(m)[:, None] / m, 1.0) < duty[None, :], axis=0
    )


class TestHighTaps:
    @pytest.mark.parametrize("m", [1, 3, 7, 32, 64])
    def test_duty_on_and_next_to_a_carrier(self, m):
        # the duty set to a float carrier value or its neighbour, with the
        # reference phase at, next to and between the carrier wraps
        rng = np.random.default_rng(m)
        n = 20000
        j = rng.integers(0, 5000 * m, n)
        a = j / m * rng.choice([1.0, 1.0 + 2**-50, 1.0 - 2**-50], n)
        a[::3] = rng.uniform(0.0, 5000.0, a[::3].size)
        k = rng.integers(0, m, n)
        duty = np.mod(a + k / m, 1.0)
        nudged = np.nextafter(duty, rng.choice([-np.inf, np.inf], n))
        duty = np.where(rng.random(n) < 0.5, nudged, duty)
        duty[::7] = rng.uniform(0.0, 1.0, duty[::7].size)
        duty[::11] = rng.choice([0.0, 1.0, 0.5], duty[::11].size)
        assert np.array_equal(_high_taps(a, duty, m), _carrier_count(a, duty, m))

    def test_nan_duty_counts_no_taps(self):
        a = np.arange(6) * 0.013
        duty = np.array([np.nan, 0.5, np.nan, 1.0, 0.0, np.nan])
        assert np.array_equal(_high_taps(a, duty, 8), _carrier_count(a, duty, 8))

    def test_large_phase_falls_back_in_bounded_blocks(self, monkeypatch):
        # at |a| near 1e14 the margin is above 1/2, so no sample is
        # certified: all of them take the M-carrier comparison, in blocks
        # of at most _FALLBACK_CARRIERS carrier values
        m = 64
        rng = np.random.default_rng(3)
        a = 1e14 + rng.uniform(0.0, 1e6, 5000)
        duty = rng.uniform(0.0, 1.0, a.size)
        shapes = []
        real = phase._carriers_below

        def recording(a_blk, duty_blk, m_blk):
            shapes.append(a_blk.size * m_blk)
            return real(a_blk, duty_blk, m_blk)

        monkeypatch.setattr(phase, "_carriers_below", recording)
        assert np.array_equal(_high_taps(a, duty, m), _carrier_count(a, duty, m))
        assert sum(shapes) == a.size * m
        assert max(shapes) <= phase._FALLBACK_CARRIERS

    def test_benchmark_sized_input_mostly_certified(self, monkeypatch):
        # the closed form carries the bulk: on an M = 32 SFDR input only a
        # few percent of the samples reach the carrier comparison
        cfg = PhaseConfig(m_phases=32, f0=5e6, k_vco=10e6)
        n = 1 << 15
        t = np.arange(n) * cfg.dt
        v = cfg.v0 + 0.003 * np.sin(2 * math.pi * 12 / (n * cfg.dt) * t)
        fell_back = []
        real = phase._carriers_below

        def recording(a_blk, duty_blk, m_blk):
            fell_back.append(a_blk.size)
            return real(a_blk, duty_blk, m_blk)

        monkeypatch.setattr(phase, "_carriers_below", recording)
        got = simulate_phase_integrator(v, cfg)
        assert np.array_equal(got, _integrator_oracle(v, cfg))
        assert sum(fell_back) < 0.1 * n


def _spur_mask_loop(size, k_fund, guard_bins):
    """The per-harmonic form of the spur mask."""
    mask = np.ones(size, dtype=bool)
    mask[: guard_bins + 1] = False
    harmonic = k_fund
    while harmonic < size:
        lo = max(0, harmonic - guard_bins)
        mask[lo : harmonic + guard_bins + 1] = False
        harmonic += k_fund
    return mask


class TestSpurMask:
    @pytest.mark.parametrize("guard_bins", [0, 1, 3, 7])
    def test_matches_harmonic_loop(self, guard_bins):
        # k_fund 2..5 overlaps the skirts for the wider guards; sizes on
        # every residue cover the top edge, where the next harmonic is past
        # the last bin while its lower skirt is not
        for k_fund in (2, 3, 4, 5, 12, 13):
            for size in range(1, 6 * k_fund + 2 * guard_bins + 3):
                expected = _spur_mask_loop(size, k_fund, guard_bins)
                assert np.array_equal(_spur_mask(size, k_fund, guard_bins), expected), (
                    k_fund, size,
                )
        for size in (2049, 16385):
            expected = _spur_mask_loop(size, 12, guard_bins)
            assert np.array_equal(_spur_mask(size, 12, guard_bins), expected)

    def test_top_edge_skirt_is_a_spur(self):
        # harmonic 15 is past the last bin, so bin 13 in its lower skirt
        # stays a spur; harmonics 5 and 10 and DC mask their +-1 bins
        spurs = np.flatnonzero(_spur_mask(14, 5, 1))
        assert spurs.tolist() == [2, 3, 7, 8, 12, 13]

    def test_negative_guard_rejected(self):
        cfg = TestSfdr.CFG
        s = np.sin(2 * math.pi * 32 * np.arange(4096) / 4096)
        with pytest.raises(ValueError):
            sfdr(s, 32 / (4096 * cfg.dt), cfg, guard_bins=-1)


def test_hann_window_cached_read_only():
    w = _periodic_hann(4096)
    assert w is _periodic_hann(4096)
    assert not w.flags.writeable
    n = np.arange(4096)
    assert np.array_equal(w, 0.5 - 0.5 * np.cos(2.0 * np.pi * n / 4096))
