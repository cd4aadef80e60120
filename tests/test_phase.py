"""Phase accumulation, PWM detection, multiphase spectra, and SFDR."""

import math

import numpy as np
import pytest

from ringsolve.dynamics import SolverConfig, ac_response
from ringsolve.netlist import plan
from ringsolve.phase import (
    _METHOD_DIVIDER,
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
