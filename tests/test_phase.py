"""Phase accumulation, PWM detection, multiphase spectra, and SFDR."""

import math
import warnings

import numpy as np
import pytest
from conftest import peak_floats

from ringsolve import phase
from ringsolve.dynamics import SolverConfig, ac_response
from ringsolve.netlist import plan
from ringsolve.phase import (
    _METHOD_DIVIDER,
    _check_finite,
    _high_taps,
    _periodic_hann,
    _spur_mask,
    _stands_above_floor,
    _triangle,
    _worst_spur,
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

    @pytest.mark.parametrize("bins", [2049, 2050, 2051, 4000])
    def test_tone_past_nyquist_refused(self, bins):
        # 2049 and 2050 used to report a fundamental the aliased tone does
        # not have, 2051 on to fail in argmax of an empty slice
        s, _ = self._tone(4096, 100)
        f = bins / (4096 * self.CFG.dt)
        with pytest.raises(ValueError, match=r"Hz is above the Nyquist bin 2048 \("):
            sfdr(s, f, self.CFG)

    def test_tone_at_nyquist_accepted(self):
        n = 4096
        t = np.arange(n) * self.CFG.dt
        f = (n // 2) / (n * self.CFG.dt)
        rep = sfdr(np.cos(2 * math.pi * f * t), f, self.CFG)
        assert rep.fundamental_hz == pytest.approx(f, rel=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_sample_named(self, value):
        s, f = self._tone(1 << 12, 32)
        s[7] = value
        with pytest.raises(ValueError, match=f"^input sample 7 is not finite \\({value}\\)$"):
            sfdr(s, f, self.CFG)

    def test_overflowing_spectrum_refused(self):
        # the DFT of a 1e306 V tone overflows; it used to report NaN dB
        s, f = self._tone(1 << 12, 32, amp=1e306)
        with pytest.raises(ValueError, match="^the spectrum of the series overflows float64$"):
            sfdr(s, f, self.CFG)

    def test_no_fundamental(self):
        n = 1 << 14
        rng = np.random.default_rng(0)
        noise = rng.normal(0, 1.0, n)
        f = 500 / (n * self.CFG.dt)
        with pytest.raises(NoFundamental):
            sfdr(noise, f, self.CFG)

    def test_zero_fundamental(self):
        # 0 < 10 * 0 is false, so an all-zero series used to pass the gate
        # and die dividing by the zero fundamental ("math domain error")
        f = 100 / (4096 * self.CFG.dt)
        with pytest.raises(NoFundamental, match="^bin 98 .* does not stand above the noise floor$"):
            sfdr(np.zeros(4096), f, self.CFG)

    def test_no_spur_bin_refused(self):
        # a tone at bin 5 under a 3-bin guard leaves no spur bin; the DC bin
        # used to be reported as the worst spur (0 Hz)
        s, f = self._tone(4096, 5)
        with pytest.raises(
            ValueError,
            match="^no bin is a spur: every bin is within guard_bins = 3 of DC or "
            "of a harmonic of bin 5$",
        ):
            sfdr(s, f, self.CFG)
        rep = sfdr(s, f, self.CFG, guard_bins=1)
        assert rep.worst_spur_hz > 0.0

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


def _np_mod_triangle(phase):
    """The XOR duty law written with np.mod, the oracles' own remainder."""
    return 1.0 - np.abs(np.mod(phase / math.pi, 2.0) - 1.0)


def _lowpass_numpy_oracle(b_in, rf_over_rin, cfg, phase0=1.5 * math.pi):
    """The array-per-sample form of the closed loop: numpy duty law, np.mod
    carriers and np.count_nonzero on every sample."""
    triangle = _np_mod_triangle
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


def _benchmark_lowpass_cases():
    """The closed-loop step responses of the phase benchmark: M = 8, 8192
    samples, R_f/R_in of 1, 2 and 4, output steps of -+0.2 V."""
    cfg = PhaseConfig(m_phases=8, f0=200e6, f_ref=200e6, k_vco=100e6, dt=1.0 / (24 * 8 * 200e6))
    for ratio in (1.0, 2.0, 4.0):
        bias = cfg.v0 * (1.0 + 1.0 / ratio) - cfg.v_dd / (2.0 * ratio)
        for sign in (1.0, -1.0):
            yield cfg, ratio, np.full(8192, bias + sign * 0.2 / ratio)


def test_lowpass_benchmark_steps_match_numpy_oracle():
    for cfg, ratio, b in _benchmark_lowpass_cases():
        got = simulate_phase_lowpass(b, ratio, cfg)
        assert np.array_equal(got, _lowpass_numpy_oracle(b, ratio, cfg)), ratio


@pytest.mark.parametrize("m", [1, 2, 3, 16, 32, 64])
def test_lowpass_closed_form_matches_numpy_oracle(m):
    # an aligned dt puts every 24th reference wrap on an exact integer (the
    # certificate's fallback); an unaligned one puts none there
    rng = np.random.default_rng(m)
    for samples_per_period in (24.0, 24.37):
        cfg = PhaseConfig(
            m_phases=m, f0=200e6, f_ref=200e6, k_vco=100e6,
            dt=1.0 / (samples_per_period * m * 200e6),
        )
        ratio = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        bias = cfg.v0 * (1.0 + 1.0 / ratio) - cfg.v_dd / (2.0 * ratio)
        b = bias + 0.2 / ratio + rng.uniform(-0.6, 0.6, 1200) * rng.uniform(0, 1)
        for p0 in (0.0, math.pi, 1.5 * math.pi, float(rng.uniform(-20.0, 0.0))):
            got = simulate_phase_lowpass(b, ratio, cfg, phase0=p0)
            assert np.array_equal(got, _lowpass_numpy_oracle(b, ratio, cfg, p0)), (
                samples_per_period, p0,
            )


def _count_carriers_below(ref, duty, taps):
    """The M-carrier comparison of one closed-loop sample, on Python floats:
    how many carriers ``(ref + tap) % 1.0`` lie below ``duty``.  Float ``%``
    is the same fmod-and-sign-fix as np.mod, so this is the integer that
    ``phase._carriers_below`` counts."""
    return sum((ref + tap) % 1.0 < duty for tap in taps)


def _lowpass_per_sample(b_in, rf_over_rin, cfg, phase0=1.5 * math.pi):
    """The closed loop with every sample's node and phase step formed from
    its own input: the Python-float loop before a chunk of equal inputs
    shared its M + 2 phase steps."""
    f_center = cfg.f0 / _METHOD_DIVIDER[cfg.method]
    k_eff = effective_kvco(cfg).k_vco_hz_per_v
    m = cfg.m_phases
    taps = (np.arange(m) / m).tolist()
    two_pi, pi = 2.0 * math.pi, math.pi
    v_dd, v0, f_ref, dt = cfg.v_dd, cfg.v0, cfg.f_ref, cfg.dt
    node_gain = 1.0 + 1.0 / rf_over_rin
    levels = [v_dd * float(high) / m for high in range(m + 1)]
    feedback = [level / rf_over_rin for level in levels]
    ref = np.full(b_in.size, f_ref * dt)
    ref[:1] = 0.0
    np.cumsum(ref, out=ref)
    wrap, tol, _ = phase._wrap_certificate(ref, m)
    counts = []
    v_fb = v_dd * (1.0 - abs((phase0 / pi) % 2.0 - 1.0)) / rf_over_rin
    phase_err = phase0
    for k, (b, w) in enumerate(zip(b_in.tolist(), wrap.tolist())):
        v_node = (b + v_fb) / node_gain
        phase_err += two_pi * (f_center + k_eff * (v_node - v0) - f_ref) * dt
        duty = 1.0 - abs((phase_err / pi) % 2.0 - 1.0)
        y = m * duty - w
        if tol < y % 1.0 < 1.0 - tol:
            high = math.ceil(y)
        else:
            high = _count_carriers_below(float(ref[k]), duty, taps)
        v_fb = feedback[high]
        counts.append(high)
    return np.array(levels)[np.array(counts, dtype=np.intp)]


def _lowpass_inputs(bias, ratio, rng):
    """Steps, noise, inputs that change inside a chunk or on its edge,
    alternating signed zeros, and 1-, 1024- and 1025-sample series."""
    chunk = phase._LOOP_CHUNK
    step = bias + 0.2 / ratio
    pieces = np.full(3 * chunk + 100, step)
    pieces[500:1500] = bias - 0.1 / ratio  # changes inside chunks 0 and 1
    pieces[2 * chunk :] = bias  # changes on the edge of chunk 2
    pieces[-7:] = step  # and inside the last chunk
    return {
        "step": np.full(2 * chunk + 17, step),
        "noise": bias + rng.normal(0.0, 0.05, 2 * chunk + 17),
        "pieces": pieces,
        "signed zeros": np.where(np.arange(2 * chunk + 17) % 2, 0.0, -0.0),
        "zero then step": np.r_[np.full(chunk, -0.0), np.full(chunk, 0.0), np.full(9, step)],
        "one sample": np.array([step]),
        "one chunk": np.full(chunk, step),
        "one chunk and one": np.r_[np.full(chunk, step), [bias]],
        "one noisy chunk and one": bias + rng.normal(0.0, 0.05, chunk + 1),
    }


@pytest.mark.parametrize("m", [1, 8, 32])
def test_lowpass_matches_the_per_sample_loop(m):
    rng = np.random.default_rng(m + 18)
    cfg = PhaseConfig(m_phases=m, f0=200e6, f_ref=200e6, k_vco=100e6, dt=1.0 / (24 * m * 200e6))
    for ratio in (0.5, 2.0):
        bias = cfg.v0 * (1.0 + 1.0 / ratio) - cfg.v_dd / (2.0 * ratio)
        for name, b in _lowpass_inputs(bias, ratio, rng).items():
            for p0 in (1.5 * math.pi, float(rng.uniform(-8.0, 8.0))):
                got = simulate_phase_lowpass(b, ratio, cfg, phase0=p0)
                assert np.array_equal(got, _lowpass_per_sample(b, ratio, cfg, p0)), (
                    name, ratio, p0,
                )


def _recording_fallback(monkeypatch):
    """Record the reference phase of every closed-loop sample that takes the
    M-carrier comparison."""
    fell_back = []
    real = phase._carriers_below

    def recording(a, duty, m):
        fell_back.extend(a.tolist())
        return real(a, duty, m)

    monkeypatch.setattr(phase, "_carriers_below", recording)
    return fell_back


def _reference_phase(cfg, n):
    return np.cumsum(np.r_[0.0, np.full(n - 1, cfg.f_ref * cfg.dt)])


def test_lowpass_closed_form_carries_the_benchmark_steps(monkeypatch):
    # the uncertain (integer) wraps of the benchmark's steps are counted by
    # the one-carrier comparison, so only a duty within the margin of a
    # carrier reaches the M-carrier comparison: a few samples per run
    fell_back = _recording_fallback(monkeypatch)
    for cfg, ratio, b in _benchmark_lowpass_cases():
        fell_back.clear()
        got = simulate_phase_lowpass(b, ratio, cfg)
        assert np.array_equal(got, _lowpass_numpy_oracle(b, ratio, cfg))
        wrap = phase._wrap_certificate(_reference_phase(cfg, b.size), cfg.m_phases)[0]
        uncertain = _reference_phase(cfg, b.size)[np.isnan(wrap)]
        assert uncertain.size and not set(uncertain.tolist()) & set(fell_back)
        assert len(fell_back) < 0.001 * b.size


def test_lowpass_exact_wraps_take_the_one_carrier_comparison(monkeypatch):
    # a dyadic reference step of 2**-6 accumulates without rounding, so with
    # M = 8 every 8th sample's wrap M * ref is an exact integer: none of
    # them reaches the M-carrier comparison
    fell_back = _recording_fallback(monkeypatch)
    cfg = PhaseConfig(m_phases=8, f0=2.0**25, f_ref=2.0**25, k_vco=2.0**24, dt=2.0**-31)
    ratio = 2.0
    b = np.full(8192, cfg.v0 * (1.0 + 1.0 / ratio) - cfg.v_dd / (2.0 * ratio) + 0.1)
    got = simulate_phase_lowpass(b, ratio, cfg)
    assert np.array_equal(got, _lowpass_numpy_oracle(b, ratio, cfg))
    ref = _reference_phase(cfg, b.size)
    assert np.array_equal(ref, np.arange(b.size) / 64.0)
    assert np.isnan(phase._wrap_certificate(ref, 8)[0][::8]).all()
    assert not set(ref[::8].tolist()) & set(fell_back)
    assert len(fell_back) < 0.2 * b.size


@pytest.mark.parametrize("m", [2, 3, 8, 32])
def test_lowpass_integer_wraps_match_the_carrier_comparison(m, monkeypatch):
    # M * ref on an integer, drifting across the margin of one by a few ulps
    # of the step per sample, or neither; the duty pinned (R_f/R_in = 1e300,
    # f_ref = f0) on a carrier grid value j/M, an ulp off one, or between:
    # every count is the one _count_carriers_below gives, and off the grid
    # no integer wrap reaches it
    fell_back = _recording_fallback(monkeypatch)
    rng = np.random.default_rng(m + 19)
    n = 1024
    grid = [j / m for j in sorted(rng.choice(m + 1, min(m + 1, 6), replace=False))]
    near = [math.nextafter(d, side) for d in grid for side in (-math.inf, math.inf)]
    between = rng.uniform(0.0, 1.0, 3).tolist()
    checked = 0
    for drift in (0, 1, 4, 64, 1024):
        step = 2.0**-6 * (1.0 + drift * 2.0**-52)
        cfg = PhaseConfig(m_phases=m, f0=2.0**25, k_vco=2.0**24, dt=step * 2.0**-25)
        ref = _reference_phase(cfg, n)
        on_wrap = set(ref[np.isnan(phase._wrap_certificate(ref, m)[0])].tolist())
        assert on_wrap
        b = np.full(n, cfg.v0)
        for duty in grid + near + between:
            p0 = _phase_with_duty(min(max(duty, 0.0), 1.0))
            if p0 is None:
                continue
            fell_back.clear()
            got = simulate_phase_lowpass(b, 1e300, cfg, phase0=p0)
            reached = set(fell_back)
            assert np.array_equal(got, _lowpass_per_sample(b, 1e300, cfg, p0)), (drift, duty)
            if duty in between:
                assert not reached & on_wrap, (drift, duty)
            checked += 1
    assert checked >= 5 * (len(grid) + 3)


def _phase_with_duty(duty):
    """A phase0 whose float duty law gives exactly ``duty``, or None."""
    for start in (duty * math.pi, (2.0 - duty) * math.pi):
        up = down = start
        for _ in range(64):
            for p in (up, down):
                if 1.0 - abs((p / math.pi) % 2.0 - 1.0) == duty:
                    return p
            up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
    return None


@pytest.mark.parametrize("m", [5, 7, 11])
def test_lowpass_duty_on_a_float_carrier(m):
    # R_f/R_in = 1e300 pins the node at b = v0 and f_ref = f0 holds the phase
    # error at phase0, so the duty stays on the float value of carrier j at
    # sample k: there the rounded closed form can miss by one, and the
    # certificate must send the sample to the carrier comparison
    cfg = PhaseConfig(m_phases=m, f0=2.0**25, k_vco=2.0**24, dt=2.0**-31)
    b = np.full(64, cfg.v0)
    checked = 0
    for k in range(1, 64, 3):
        for j in range(m):
            p0 = _phase_with_duty((k / 64.0 + j / m) % 1.0)
            if p0 is not None:
                got = simulate_phase_lowpass(b, 1e300, cfg, phase0=p0)
                assert np.array_equal(got, _lowpass_numpy_oracle(b, 1e300, cfg, p0)), (k, j)
                checked += 1
    assert checked >= 10 * m


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
    duty = _np_mod_triangle(theta - 2.0 * math.pi * cfg.f_ref * t + phase0)
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
        # a NaN or inf sample has no phase: it is refused by its index, not
        # read as level 0 by the integrator or the closed loop
        cfg = PhaseConfig(m_phases=8, f0=5e6, k_vco=10e6)
        series = [
            [np.nan, 0.75, np.inf, 0.75],
            [0.75, np.inf, 0.75, 0.75, 0.7],
            [0.75, 0.8, -np.inf, 0.75],
            [0.75, 0.76, 0.77, np.nan, 0.75, 0.75],
        ]
        for first, v in enumerate(map(np.array, series)):
            message = f"input sample {first} is not finite"
            with pytest.raises(ValueError, match=message):
                simulate_phase_integrator(v, cfg)
            with pytest.raises(ValueError, match=message):
                simulate_phase_lowpass(v, 1.0, cfg)
        finite = np.array([0.75, 0.76, 0.77, 0.78, 0.75, 0.75])
        assert np.array_equal(
            simulate_phase_integrator(finite, cfg), _integrator_oracle(finite, cfg)
        )

    def test_finite_series_whose_sum_overflows(self):
        # a finite sum proves every sample finite; a sum that overflows is
        # not a refusal by itself, only the scan for a bad sample decides
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _check_finite(np.array([1e308] * 4))
            _check_finite(np.array([1e308, -1e308] * 4))
            for bad, value in ((4, np.inf), (5, np.nan), (2, -np.inf)):
                series = np.full(8, 1e308)
                series[bad] = value
                with pytest.raises(
                    ValueError, match=f"^input sample {bad} is not finite \\({value}\\)$"
                ):
                    _check_finite(series)
        # such a series is finite, and so goes on to the phase refusal
        cfg = PhaseConfig(m_phases=8, f0=5e6, k_vco=10e6)
        with pytest.raises(ValueError, match="^the VCO phase of sample 1 is not finite"):
            simulate_phase_integrator(np.array([1e308] * 4), cfg)
        with pytest.raises(ValueError, match="^the VCO phase of sample 0 is not finite"):
            simulate_phase_lowpass(np.array([1e308] * 4), 1.0, cfg)

    def test_overflowing_phase_refused(self):
        # a 1e308 V input overflows its phase step (v - v0) k_eff: the series
        # used to read level 0 at 4095 of 4096 samples, with numpy warnings
        cfg = PhaseConfig(m_phases=4, f0=5e6, k_vco=10e6)
        with pytest.raises(ValueError, match="^the VCO phase of sample 1 is not finite"):
            simulate_phase_integrator(np.full(4096, 1e308), cfg)
        # each step is finite (6.5e307 rad at dt = 1e288 s), and their sum
        # passes float64 at the third
        cfg = PhaseConfig(m_phases=4, f0=1e-290, k_vco=10e6)
        step = 2.0 * math.pi * (cfg.f0 + 10e6 * 1e12) * cfg.dt
        assert math.isfinite(step) and not math.isfinite(3.0 * step)
        with pytest.raises(ValueError, match="^the VCO phase of sample 3 is not finite"):
            simulate_phase_integrator(np.full(16, cfg.v0 + 1e12), cfg)

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

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8, 32, 64])
    def test_integer_wraps(self, m, monkeypatch):
        # m*a on, within an ulp of, or within the margin of an integer J:
        # carrier k0 = -J mod m sits at the wrap and is compared alone; the
        # duty on and next to every carrier, k0's included, and on the grid
        # j/m.  Off the integer by nearly the margin, a carrier can round
        # across the duty's margin, so the count must take the offset.
        rng = np.random.default_rng(m + 18)
        n = 20000
        whole = rng.integers(0, 5000 * m, n)
        a = whole / m
        a[::4] = whole[::4] * 2.0**-6  # dyadic: m*a exact for m a power of 2
        a[1::4] = np.nextafter(a[1::4], rng.choice([-np.inf, np.inf], a[1::4].size))
        tol = phase._wrap_certificate(a, m)[1]
        a[2::4] = (whole[2::4] + rng.uniform(-1.0, 1.0, a[2::4].size) * tol) / m
        a[a < 0.0] = 0.0
        k = rng.integers(0, m, n)
        k[::3] = np.mod(-np.rint(m * a[::3]), m)  # the carrier at the wrap
        duty = np.mod(a + k / m, 1.0)
        nudged = np.nextafter(duty, rng.choice([-np.inf, np.inf], n))
        duty = np.where(rng.random(n) < 0.5, nudged, duty)
        duty[::5] = rng.uniform(0.0, 1.0, duty[::5].size)
        duty[::7] = rng.integers(0, m + 1, duty[::7].size) / m
        duty[::11] = rng.choice([0.0, 1.0, 0.5], duty[::11].size)
        assert np.count_nonzero(np.isnan(phase._wrap_certificate(a, m)[0])) > 0.5 * n
        assert np.array_equal(_high_taps(a, duty, m), _carrier_count(a, duty, m))
        # with the duty off the carriers, no integer wrap reaches the
        # M-carrier comparison
        compared = []
        real = phase._carriers_below

        def recording(a_blk, duty_blk, m_blk):
            compared.append(a_blk.size)
            return real(a_blk, duty_blk, m_blk)

        monkeypatch.setattr(phase, "_carriers_below", recording)
        duty = rng.uniform(0.0, 1.0, n)
        assert np.array_equal(_high_taps(a, duty, m), _carrier_count(a, duty, m))
        assert compared == []

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
        # few percent of the samples reach the carrier comparison, and of
        # the integer wraps (every 24th sample) only t = 0, whose duty 1/2
        # sits on carrier 16/32
        cfg = PhaseConfig(m_phases=32, f0=5e6, k_vco=10e6)
        n = 1 << 15
        t = np.arange(n) * cfg.dt
        v = cfg.v0 + 0.003 * np.sin(2 * math.pi * 12 / (n * cfg.dt) * t)
        fell_back = []
        real = phase._carriers_below

        def recording(a_blk, duty_blk, m_blk):
            fell_back.append(a_blk.copy())
            return real(a_blk, duty_blk, m_blk)

        monkeypatch.setattr(phase, "_carriers_below", recording)
        got = simulate_phase_integrator(v, cfg)
        assert np.array_equal(got, _integrator_oracle(v, cfg))
        fell_back = np.concatenate(fell_back)
        assert fell_back.size < 0.1 * n
        on_wrap = np.isnan(phase._wrap_certificate(fell_back, 32)[0])
        assert fell_back[on_wrap].tolist() == [0.0]
        assert np.count_nonzero(np.isnan(phase._wrap_certificate(cfg.f_ref * t, 32)[0])) > n / 25


def _edge_values():
    """Signed zeros, subnormals, the smallest normal, values on and next to
    multiples of 1 and 2, the 2**53 integer edge and the largest floats."""
    tiny = 5e-324
    base = np.array([
        0.0, tiny, 3 * tiny, 2.0**-1022, 2.0**-1022 - tiny, 1e-300, 0.5, 1.0,
        np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 2.0, np.nextafter(2.0, 0.0),
        np.nextafter(2.0, 3.0), 3.0, 7.5, 2.0**52 + 0.5, 2.0**53, 2.0**53 + 2.0,
        2.0**60 + 1024.0, 1e300, 1e308, np.finfo(float).max,
    ])
    return np.concatenate([base, -base])


def _every_binade(rng, per_binade=8):
    """Random mantissas in every binade of the finite floats, both signs."""
    exponents = np.repeat(np.arange(-1074, 1024), per_binade)
    mantissa = rng.uniform(1.0, 2.0, exponents.size)
    x = np.ldexp(mantissa, exponents)
    x = x[np.isfinite(x)]
    return np.concatenate([x, -x])


class TestRemainder:
    """``_remainder`` is np.mod, bit for bit, for the divisors 1 and 2."""

    def _bits(self, x):
        return np.asarray(x, dtype=float).view(np.int64)

    def test_unit_divisor_on_edges_and_every_binade(self):
        x = np.concatenate([_edge_values(), _every_binade(np.random.default_rng(0))])
        for scale in (1, 3, 8, 32):
            with np.errstate(over="ignore"):
                xs = scale * x
            xs = xs[np.isfinite(xs)]
            got = phase._remainder(xs.copy(), 1.0)
            assert np.array_equal(self._bits(got), self._bits(np.mod(xs, 1.0))), scale

    def test_divisor_two_differs_only_at_the_smallest_subnormal(self):
        x = np.concatenate([_edge_values(), _every_binade(np.random.default_rng(1))])
        got = phase._remainder(x.copy(), 2.0)
        expected = np.mod(x, 2.0)
        differs = self._bits(got) != self._bits(expected)
        assert differs.any()
        # -2**-1074 halves to -0.0: kept as itself where np.mod gives 2.0
        assert x[differs].tolist() == [-5e-324] * int(differs.sum())
        assert got[differs].tolist() == [-5e-324] * int(differs.sum())
        assert expected[differs].tolist() == [2.0] * int(differs.sum())

    def test_triangle_law_matches_np_mod(self):
        # the one divisor-2 difference maps to the same duty, 0
        for scale in (1.0, math.pi, 3.0 * math.pi):
            edges = np.concatenate([_edge_values(), _every_binade(np.random.default_rng(2))])
            with np.errstate(over="ignore"):
                x = scale * edges
            x = x[np.isfinite(x)]
            expected = _np_mod_triangle(x)
            assert np.array_equal(self._bits(_triangle(x)), self._bits(expected)), scale
        assert np.array_equal(_triangle(np.array([-5e-324])), [0.0])

    def test_triangle_leaves_its_input_alone(self):
        phase_err = np.linspace(-10.0, 10.0, 101)
        before = phase_err.copy()
        _triangle(phase_err)
        assert np.array_equal(phase_err, before)


class TestNonFiniteArguments:
    @pytest.mark.parametrize("field", ["f0", "f_ref", "k_vco", "v0", "v_dd", "dt"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PhaseConfig(**{field: value})

    def test_negative_dt(self):
        with pytest.raises(ValueError, match="dt must be non-negative"):
            PhaseConfig(dt=-1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_loop_arguments(self, value):
        # each used to give all zeros, or a numpy warning and then zeros
        cfg = PhaseConfig(m_phases=8, f0=200e6, k_vco=100e6)
        b = np.full(64, 1.2)
        with pytest.raises(ValueError, match="rf_over_rin must be finite"):
            simulate_phase_lowpass(b, value, cfg)
        with pytest.raises(ValueError, match="phase0 must be finite"):
            simulate_phase_lowpass(b, 1.0, cfg, phase0=value)
        with pytest.raises(ValueError, match="phase0 must be finite"):
            simulate_phase_integrator(np.full(64, cfg.v0), cfg, phase0=value)

    @pytest.mark.parametrize("value", [1e308, 1e300, -1e308])
    def test_overflowing_loop_phase_refused(self, value):
        # the node (b + feedback) / 2 times k_eff overflows the first phase
        # step; the loop used to read level 0 at every sample, silently
        cfg = PhaseConfig(m_phases=8, f0=200e6, k_vco=100e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError,
                match=r"^the VCO phase of sample 0 is not finite: the phase steps up to "
                r"it overflow float64 \(k_eff = 1e\+08 Hz/V, dt = 2\.604e-11 s\)$",
            ):
                simulate_phase_lowpass(np.full(64, value), 1.0, cfg)

    def test_loop_phase_overflowing_later(self):
        # each step is finite (7.5e307 rad at dt = 1.04e288 s), and their
        # sum passes float64 at the third, in a chunk of equal inputs (the
        # M + 2 steps formed once) and in one of unequal inputs
        cfg = PhaseConfig(m_phases=4, f0=1e-290, k_vco=10e6)
        b = 2.3e12
        step = 2.0 * math.pi * 10e6 * (b / 2.0) * cfg.dt
        assert math.isfinite(2.0 * step) and not math.isfinite(3.0 * step)
        for b_in in (np.full(16, b), b * (1.0 + 1e-9 * np.arange(16))):
            with pytest.raises(ValueError, match="^the VCO phase of sample 2 is not finite"):
                simulate_phase_lowpass(b_in, 1.0, cfg)

    def test_overflowing_level_table(self):
        # 32 levels of 1e308 V sum past float64; the series used to be inf
        cfg = PhaseConfig(v_dd=1e308)
        for size in (1, 64):
            with pytest.raises(
                ValueError, match=r"^v_dd = 1e\+308 V overflows the sum of 32 channel levels$"
            ):
                simulate_phase_integrator(np.full(size, cfg.v0), cfg)
        # one channel level sums to itself
        out = simulate_phase_integrator(np.full(64, cfg.v0), PhaseConfig(m_phases=1, v_dd=1e308))
        assert set(out.tolist()) <= {0.0, 1e308}

    def test_empty_lowpass(self):
        out = simulate_phase_lowpass(np.array([]), 1.0, PhaseConfig())
        assert out.shape == (0,) and out.dtype == np.float64


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


def _masked_argmax(mags, k_fund, guard_bins):
    """The spur search over the whole spectrum: argmax of the magnitudes
    with every bin that is not a spur set to 0.0."""
    return int(np.argmax(np.where(_spur_mask(mags.size, k_fund, guard_bins), mags, 0.0)))


class TestWorstSpur:
    def _check(self, mags, k_fund, guard_bins):
        """Compare with the masked argmax; return which case the spectrum was."""
        mask = _spur_mask(mags.size, k_fund, guard_bins)
        if not mask.any():
            with pytest.raises(ValueError, match="^no bin is a spur: "):
                _worst_spur(mags, k_fund, guard_bins)
            return "no spur"
        got = _worst_spur(mags, k_fund, guard_bins)
        if mags[mask].max() > 0.0:
            assert got == _masked_argmax(mags, k_fund, guard_bins), (k_fund, guard_bins, mags.size)
            return "largest"
        # every spur bin is 0.0: the first spur bin, where the masked argmax
        # gives bin 0, which is never a spur
        assert got == np.flatnonzero(mask)[0] and _masked_argmax(mags, k_fund, guard_bins) == 0
        return "all zero"

    def _spectra(self, size, rng):
        ties = rng.integers(0, 3, size).astype(float)
        tail_max = rng.uniform(0.0, 1.0, size)
        tail_max[-1] = 2.0
        return [rng.uniform(0.0, 1.0, size), ties, np.zeros(size), tail_max]

    @pytest.mark.parametrize("guard_bins", [0, 1, 3, 7])
    def test_matches_masked_argmax(self, guard_bins):
        # every size from 1 up to a few periods gives every tail length
        # 1..k_fund; ties, zeros and a maximum in the last bin on each
        rng = np.random.default_rng(guard_bins)
        seen = set()
        for k_fund in (1, 2, 3, 5, 8, 12, 13):
            for size in range(1, 4 * k_fund + 2 * guard_bins + 3):
                for mags in self._spectra(size, rng):
                    seen.add(self._check(mags, k_fund, guard_bins))
        assert seen == {"no spur", "largest", "all zero"}

    @pytest.mark.parametrize("guard_bins", [0, 1, 3])
    def test_fundamental_near_the_top(self, guard_bins):
        rng = np.random.default_rng(10 + guard_bins)
        size = 2049
        for k_fund in range(size - 2 * guard_bins - 4, size):
            for mags in self._spectra(size, rng):
                self._check(mags, k_fund, guard_bins)

    def test_ties_between_periods_and_tail(self):
        # equal maxima in a period and in the tail: the lower bin wins
        mags = np.zeros(30)
        mags[[6, 27]] = 1.0  # k_fund 12, guard 1: 6 is in a period, 27 in the tail
        assert _worst_spur(mags, 12, 1) == 6 == _masked_argmax(mags, 12, 1)
        mags[27] = np.nextafter(1.0, 2.0)
        assert _worst_spur(mags, 12, 1) == 27 == _masked_argmax(mags, 12, 1)

    def test_spurs_of_zero_report_the_first_spur_bin(self):
        # harmonics and DC only: the spur bins are all 0.0
        mags = np.zeros(2049)
        mags[::12] = 1.0
        assert _worst_spur(mags, 12, 3) == 4
        assert _worst_spur(mags, 7, 3) == 2048  # only the top edge is a spur


class TestFloorGate:
    def test_matches_the_exact_median(self, monkeypatch):
        # light and heavy tails, so the mean bound is conclusive for some
        # fundamentals and not for others; fundamentals on and next to ten
        # times the median and 20.5 times the mean
        rng = np.random.default_rng(18)
        real = np.median
        medians = []
        monkeypatch.setattr(phase.np, "median", lambda a: medians.append(a.size) or real(a))
        conclusive = inconclusive = 0
        for size in (2048, 2049, 16384):
            for mags in (
                rng.exponential(1.0, size),
                rng.pareto(1.1, size),
                np.r_[np.zeros(size - 3), 1e6, 1e6, 1e6],
                np.r_[np.zeros(size // 2 - 1), np.ones(size - size // 2 + 1)],  # median ~ 2 mean
                np.zeros(size),
                1e305 * rng.exponential(1.0, size),  # the mean overflows
            ):
                median = float(real(mags))
                with np.errstate(over="ignore"):
                    mean = float(np.mean(mags))
                for f in (
                    0.0, 10.0 * median, 9.9 * median, 20.5 * mean, 1e-300,
                    *rng.uniform(5.0, 40.0, 8) * median, *rng.uniform(0.5, 2.0, 4) * 20.5 * mean,
                ):
                    for f in (np.nextafter(f, 0.0), f, np.nextafter(f, np.inf)):
                        if not math.isfinite(f):
                            continue
                        before = len(medians)
                        exact = f > 0.0 and f >= 10.0 * median
                        assert _stands_above_floor(float(f), mags) == exact, (size, f)
                        if f > 0.0:
                            conclusive += len(medians) == before
                            inconclusive += len(medians) > before
        assert conclusive > 100 and inconclusive > 100


def test_hann_window_cached_read_only():
    w = _periodic_hann(4096)
    assert w is _periodic_hann(4096)
    assert not w.flags.writeable
    n = np.arange(4096)
    assert np.array_equal(w, 0.5 - 0.5 * np.cos(2.0 * np.pi * n / 4096))


def _sfdr_case(m=32, method=PhaseMethod.DIRECT_LEVEL_SHIFT_16, n=1 << 15):
    """A benchmark-shaped SFDR input: a 12-bin tone of 0.75 rad peak phase
    deviation around v0."""
    cfg = PhaseConfig(m_phases=m, f0=5e6, k_vco=10e6, method=method)
    f_sig = 12 / (n * cfg.dt)
    amp = 0.75 * f_sig / effective_kvco(cfg).k_vco_hz_per_v
    v = cfg.v0 + amp * np.sin(2 * math.pi * f_sig * np.arange(n) * cfg.dt)
    return cfg, v, f_sig


class TestInPlace:
    """The full-length passes work in arrays the calls allocate: inputs are
    only read, outputs are new, and the transient memory stays bounded."""

    def _read_only(self, x):
        x = np.array(x, dtype=float)
        x.setflags(write=False)
        return x, x.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 4096, 1 << 15])
    def test_read_only_inputs_left_alone(self, n):
        cfg, v, f_sig = _sfdr_case(n=max(n, 4096))
        v, before = self._read_only(v[:n])
        out = simulate_phase_integrator(v, cfg)
        assert v.tobytes() == before
        assert np.array_equal(out, simulate_phase_integrator(v.copy(), cfg))
        if n >= 4096:
            series, series_bytes = self._read_only(out)
            report = sfdr(series, f_sig, cfg)
            assert series.tobytes() == series_bytes
            again = sfdr(series.copy(), f_sig, cfg)
            for field in ("sfdr_db", "fundamental_hz", "worst_spur_hz"):
                assert getattr(report, field) == getattr(again, field)
            assert np.array_equal(report.spectrum_freq_hz, again.spectrum_freq_hz)
            assert np.array_equal(report.spectrum_mag_db, again.spectrum_mag_db)
        lp_cfg = PhaseConfig(m_phases=8, f0=200e6, k_vco=100e6)
        b, b_bytes = self._read_only(np.full(n, 1.2))
        low = simulate_phase_lowpass(b, 1.0, lp_cfg)
        assert b.tobytes() == b_bytes
        assert np.array_equal(low, simulate_phase_lowpass(b.copy(), 1.0, lp_cfg))

    @pytest.mark.parametrize("n", [1, 2, 4096, 1 << 15])
    def test_outputs_share_no_memory(self, n):
        cfg, v, f_sig = _sfdr_case(n=max(n, 4096))
        v = v[:n]
        out = simulate_phase_integrator(v, cfg)
        assert not np.shares_memory(out, v)
        if n >= 4096:
            report = sfdr(out, f_sig, cfg)
            arrays = [out, _periodic_hann(n), report.spectrum_freq_hz, report.spectrum_mag_db]
            for i, x in enumerate(arrays):
                for y in arrays[i + 1 :]:
                    assert not np.shares_memory(x, y)
        b = np.full(n, 1.2)
        assert not np.shares_memory(simulate_phase_lowpass(b, 1.0, PhaseConfig()), b)

    @pytest.mark.parametrize("m", [3, 4, 32])
    @pytest.mark.parametrize("method", list(PhaseMethod))
    def test_integrator_peak_memory(self, m, method):
        # 9.4 n float64 when every pass made a new array; 5.1-5.3 n in place
        n = 1 << 15
        cfg, v, _ = _sfdr_case(m, method, n)
        assert peak_floats(lambda: simulate_phase_integrator(v, cfg), n) <= 6.0

    def test_sfdr_peak_memory(self):
        # the windowed copy (n float64) and its spectrum (n/2 + 1 complex),
        # and 2 032 bytes of small arrays: the peak before the dB spectrum
        # was formed over the magnitudes, which it must not pass
        n = 1 << 15
        cfg, v, f_sig = _sfdr_case(n=n)
        series = simulate_phase_integrator(v, cfg)
        peak_bytes = 8 * n * peak_floats(lambda: sfdr(series, f_sig, cfg), n)
        assert peak_bytes <= 2 * 8 * n + 2032
