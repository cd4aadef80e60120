"""Phase-domain behavioral model of the ring-oscillator integrator.

A VCO accumulates phase at 2*pi*(f0 + k_vco*(v - v0)) rad/s, an XOR phase
detector turns the phase error against a reference into a PWM level whose
time average is v_dd * tri(error) (slope v_dd/pi on (0, pi)), and averaging
M phase-staggered PWM channels quantizes the output to M+1 levels while
pushing the switching residue up to M times the reference frequency.

The multiphase integrator is modeled with the uniform-carrier equivalent of
the XOR detector: each channel compares the triangular duty law against a
sawtooth carrier at f_ref, staggered by k/M of a carrier period.  This keeps
the detector's average law exactly and places the dominant switching tone at
M * f_ref for every M.  (Sampling M sign-XOR channels directly yields a
carrier at 2 * f_ref, which parks the residue of odd-M banks at 2*M*f_ref;
the equivalent-carrier form matches the multiphase summing behavior this
model is meant to reproduce.)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import IO, Optional, Union

import numpy as np

from ._table import write_table


class NoFundamental(RuntimeError):
    """The requested signal bin is indistinguishable from the noise floor."""


class AliasRisk(UserWarning):
    """Simulation step too coarse for the PWM content it must resolve."""


class PhaseMethod(Enum):
    """How the multiphase taps are generated from the oscillator.

    DIRECT_LEVEL_SHIFT_16 level-shifts every delay stage (16 shifters, full
    K_VCO).  JOHNSON_16 level-shifts one output and divides by 16 in a
    Johnson counter (1 shifter, K_VCO/16).  HYBRID_4X4 level-shifts four
    stages into four 4-stage Johnson counters (4 shifters, K_VCO/4).
    """

    DIRECT_LEVEL_SHIFT_16 = "direct-level-shift-16"
    JOHNSON_16 = "johnson-16"
    HYBRID_4X4 = "hybrid-4x4"


_METHOD_DIVIDER = {
    PhaseMethod.DIRECT_LEVEL_SHIFT_16: 1,
    PhaseMethod.JOHNSON_16: 16,
    PhaseMethod.HYBRID_4X4: 4,
}

_METHOD_LEVEL_SHIFTERS = {
    PhaseMethod.DIRECT_LEVEL_SHIFT_16: 16,
    PhaseMethod.JOHNSON_16: 1,
    PhaseMethod.HYBRID_4X4: 4,
}


@dataclass(frozen=True)
class PhaseConfig:
    """Phase-domain simulation parameters.

    f_ref = 0 resolves to the oscillator's center frequency after the
    method's divider, so the loop sits at zero phase drift for v_in = v0.
    dt = 0 resolves to 1 / (24 * m_phases * max(f0, f_ref)).
    """

    m_phases: int = 32
    f0: float = 100e6
    f_ref: float = 0.0
    v0: float = 0.75
    k_vco: float = 300e6
    v_dd: float = 1.0
    method: PhaseMethod = PhaseMethod.DIRECT_LEVEL_SHIFT_16
    dt: float = 0.0

    def __post_init__(self) -> None:
        if self.m_phases < 1:
            raise ValueError("m_phases must be at least 1")
        if self.f0 <= 0 or self.k_vco <= 0 or self.v_dd <= 0:
            raise ValueError("f0, k_vco, and v_dd must be positive")
        if self.f_ref == 0.0:
            object.__setattr__(
                self, "f_ref", self.f0 / _METHOD_DIVIDER[self.method]
            )
        if self.f_ref <= 0:
            raise ValueError("f_ref must be positive")
        if self.dt == 0.0:
            object.__setattr__(
                self,
                "dt",
                1.0 / (24.0 * self.m_phases * max(self.f0, self.f_ref)),
            )
        if self.dt >= 1.0 / (20.0 * max(self.f0, self.f_ref)):
            raise ValueError(
                "dt must give at least 20 samples per fastest period"
            )


@dataclass(frozen=True)
class EffectiveGain:
    k_vco_hz_per_v: float
    level_shifters: int


@dataclass(frozen=True)
class SpectralReport:
    """SFDR of a series plus its spectrum in dB relative to the fundamental."""

    sfdr_db: float
    fundamental_hz: float
    worst_spur_hz: float
    spectrum_freq_hz: np.ndarray
    spectrum_mag_db: np.ndarray

    def write_csv(self, destination: Union[str, IO[str]]) -> None:
        """Write "freq_hz,mag_db" rows, 9 significant digits, to a path or stream."""
        write_table(
            destination,
            ("freq_hz", "mag_db"),
            (self.spectrum_freq_hz, self.spectrum_mag_db),
        )


def vco_frequency(v_in, cfg: PhaseConfig):
    """Instantaneous oscillator frequency, affine in the input voltage."""
    return cfg.f0 + cfg.k_vco * (np.asarray(v_in, dtype=float) - cfg.v0)


def vco_phase_step(theta: float, v_in: float, cfg: PhaseConfig, dt: float) -> float:
    """Advance the oscillator phase by one step, wrapping modulo 2*pi.

    The wrap is numerical hygiene only; every downstream comparison depends
    on the phase through its sine sign, which the wrap preserves.
    """
    advance = 2.0 * math.pi * (cfg.f0 + cfg.k_vco * (v_in - cfg.v0)) * dt
    return (theta + advance) % (2.0 * math.pi)


def pd_xor(theta_vco, theta_ref, v_dd: float):
    """XOR phase detector level: v_dd where the square waves disagree.

    square(theta) is 1 iff sin(theta) >= 0.  Time-averaged over a cycle the
    output is affine in the phase error with slope v_dd / pi on (0, pi).
    """
    a = np.sin(np.asarray(theta_vco, dtype=float)) >= 0.0
    b = np.sin(np.asarray(theta_ref, dtype=float)) >= 0.0
    out = np.where(a != b, v_dd, 0.0)
    return float(out) if out.ndim == 0 else out


def multiphase_sum(levels) -> float:
    """Equal-resistor summation of M detector outputs: the arithmetic mean.

    For levels in {0, v_dd} the result lands on one of exactly M+1 values.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.size < 1:
        raise ValueError("need at least one phase level")
    return float(levels.sum() / levels.size)


def effective_kvco(cfg: PhaseConfig) -> EffectiveGain:
    """Post-divider VCO gain and the level-shifter count of the method."""
    div = _METHOD_DIVIDER[cfg.method]
    return EffectiveGain(
        k_vco_hz_per_v=cfg.k_vco / div,
        level_shifters=_METHOD_LEVEL_SHIFTERS[cfg.method],
    )


def _triangle(phase):
    """Normalized XOR duty law: 0 at phase 0, 1 at pi, period 2*pi."""
    return 1.0 - np.abs(np.mod(phase / math.pi, 2.0) - 1.0)


def simulate_phase_integrator(
    v_in: np.ndarray, cfg: PhaseConfig, phase0: float = math.pi / 2
) -> np.ndarray:
    """Run the M-phase integrator on an input series sampled at cfg.dt.

    The oscillator phase accumulates per vco_phase_step's law (through the
    method's frequency divider); the phase error against the reference sets
    the per-channel duty via the XOR average law, and M carrier-staggered
    channels are averaged.  phase0 biases the initial phase error; pi/2 sits
    mid-slope so small inputs stay in the linear window.

    The output's low-frequency content integrates the input at
    (2*pi*k_eff) * (v_dd/pi) volts per volt-second; the switching residue
    concentrates at m_phases * f_ref and harmonics.  Warns AliasRisk when
    dt is too coarse to resolve that residue.
    """
    v_in = np.asarray(v_in, dtype=float)
    if v_in.ndim != 1:
        raise ValueError("input series must be one-dimensional")
    if cfg.dt > 1.0 / (20.0 * cfg.m_phases * cfg.f_ref):
        warnings.warn(
            f"dt = {cfg.dt:.3e} s undersamples the {cfg.m_phases}-phase "
            f"residue near {cfg.m_phases * cfg.f_ref:.3e} Hz",
            AliasRisk,
            stacklevel=2,
        )
    gain = effective_kvco(cfg)
    div = _METHOD_DIVIDER[cfg.method]
    f_center = cfg.f0 / div
    k_eff = gain.k_vco_hz_per_v

    t = np.arange(v_in.size) * cfg.dt
    # Cumulative trapezoid-free phase: left-rectangle accumulation matches
    # repeated vco_phase_step calls exactly.
    inst_freq = f_center + k_eff * (v_in - cfg.v0)
    theta = np.empty(v_in.size)
    theta[0] = 0.0
    np.cumsum(2.0 * math.pi * inst_freq[:-1] * cfg.dt, out=theta[1:])
    phase_err = theta - 2.0 * math.pi * cfg.f_ref * t + phase0
    duty = _triangle(phase_err)

    taps = np.arange(cfg.m_phases)[:, None] / cfg.m_phases
    carriers = np.mod(cfg.f_ref * t[None, :] + taps, 1.0)
    levels = np.where(carriers < duty[None, :], cfg.v_dd, 0.0)
    return levels.sum(axis=0) / cfg.m_phases


def simulate_phase_lowpass(
    b_in: np.ndarray,
    rf_over_rin: float,
    cfg: PhaseConfig,
    phase0: float = 1.5 * math.pi,
) -> np.ndarray:
    """Closed single-path loop: the PWM output feeds back through R_f.

    The summing node sees (b + v_out / ratio) / (1 + 1/ratio); the operating
    point sits on the falling duty slope (phase0 = 3*pi/2) where the stage
    inverts, giving the low-pass with DC gain -ratio.  Feed b_in biased so
    the node rests at v0: b = v0 * (1 + 1/ratio) - v_dd / (2 * ratio) plus
    the test signal.

    The loop is sequential (each sample's duty depends on the last output),
    so it runs on Python floats: the duty law and the carrier wrap use
    float ``%``, which rounds exactly as ``np.mod`` does, so the output
    matches the array form of ``_triangle`` bit for bit.
    """
    b_in = np.asarray(b_in, dtype=float)
    if rf_over_rin <= 0:
        raise ValueError("rf_over_rin must be positive")
    gain = effective_kvco(cfg)
    div = _METHOD_DIVIDER[cfg.method]
    f_center = cfg.f0 / div
    k_eff = gain.k_vco_hz_per_v
    m = cfg.m_phases
    taps = (np.arange(m) / m).tolist()
    two_pi = 2.0 * math.pi
    v_dd, v0, f_ref, dt = cfg.v_dd, cfg.v0, cfg.f_ref, cfg.dt
    node_gain = 1.0 + 1.0 / rf_over_rin
    ref_step = f_ref * dt

    out = np.empty(b_in.size)
    v_out = v_dd * float(_triangle(phase0))
    phase_err = phase0
    ref_cycles = 0.0
    for k, b in enumerate(b_in.tolist()):
        v_node = (b + v_out / rf_over_rin) / node_gain
        phase_err += two_pi * (f_center + k_eff * (v_node - v0) - f_ref) * dt
        duty = 1.0 - abs((phase_err / math.pi) % 2.0 - 1.0)
        high = 0
        for tap in taps:
            if (ref_cycles + tap) % 1.0 < duty:
                high += 1
        v_out = v_dd * float(high) / m
        ref_cycles += ref_step
        out[k] = v_out
    return out


def measure_kvco(
    cfg: PhaseConfig,
    v_min: float = 0.5,
    v_max: float = 1.0,
    points: int = 11,
    steps_per_point: int = 200,
) -> float:
    """Fitted frequency-vs-voltage slope, measured through vco_phase_step.

    Runs the phase accumulator at each test voltage, unwraps, and converts
    the accumulated phase back to a frequency; the affine fit's slope is the
    measured VCO gain (before any divider).
    """
    if points < 2:
        raise ValueError("need at least two voltage points")
    volts = np.linspace(v_min, v_max, points)
    # Keep each step's advance below pi so the unwrap is unambiguous.
    dt = min(cfg.dt, 0.25 / float(np.max(np.abs(vco_frequency(volts, cfg)))))
    freqs = np.empty(points)
    for i, v in enumerate(volts):
        theta = 0.0
        wrapped = np.empty(steps_per_point + 1)
        wrapped[0] = theta
        for k in range(steps_per_point):
            theta = vco_phase_step(theta, float(v), cfg, dt)
            wrapped[k + 1] = theta
        total = np.unwrap(wrapped)[-1]
        freqs[i] = total / (2.0 * math.pi * steps_per_point * dt)
    slope, _ = np.polyfit(volts, freqs, 1)
    return float(slope)


def dominant_tone(series: np.ndarray, dt: float, min_bin: int = 4) -> float:
    """Frequency of the strongest non-DC spectral component."""
    series = np.asarray(series, dtype=float)
    window = np.hanning(series.size)
    mags = np.abs(np.fft.rfft((series - series.mean()) * window))
    mags[:min_bin] = 0.0
    return float(np.fft.rfftfreq(series.size, dt)[int(np.argmax(mags))])


def sfdr(
    series: np.ndarray,
    f_signal: float,
    cfg: PhaseConfig,
    guard_bins: int = 3,
) -> SpectralReport:
    """Spurious-free dynamic range of a series sampled at cfg.dt.

    Hann-windowed DFT; the fundamental is the peak within +-2 bins of
    f_signal, spurs are everything except DC, the fundamental's leakage
    region, and harmonics of the fundamental (each excluded with the same
    guard).  Raises NoFundamental when the signal bin does not stand above
    the spectrum's median floor, and ValueError when the series length is
    not a power of two >= 4096 or f_signal is below 4 bins.
    """
    series = np.asarray(series, dtype=float)
    n = series.size
    if n < 4096 or n & (n - 1):
        raise ValueError(f"series length must be a power of two >= 4096, got {n}")
    bin_hz = 1.0 / (n * cfg.dt)
    k0 = int(round(f_signal / bin_hz))
    if k0 < 4:
        raise ValueError(
            f"f_signal = {f_signal:.6g} Hz is below 4 bins ({4 * bin_hz:.6g} Hz)"
        )

    # Periodic Hann: a bin-centered tone then leaks into exactly +-1 bins.
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    mags = np.abs(np.fft.rfft(series * window))
    freqs = np.fft.rfftfreq(n, cfg.dt)

    lo = max(0, k0 - 2)
    hi = min(mags.size, k0 + 3)
    k_fund = lo + int(np.argmax(mags[lo:hi]))
    fundamental = float(mags[k_fund])
    floor = float(np.median(mags[guard_bins + 1 :]))
    if fundamental < 10.0 * floor:
        raise NoFundamental(
            f"bin {k_fund} ({freqs[k_fund]:.6g} Hz) does not stand above the "
            "noise floor"
        )

    spur_mask = np.ones(mags.size, dtype=bool)
    spur_mask[: guard_bins + 1] = False  # DC and its skirt
    harmonic = k_fund
    while harmonic < mags.size:
        lo = max(0, harmonic - guard_bins)
        spur_mask[lo : harmonic + guard_bins + 1] = False
        harmonic += k_fund
    spur_idx = int(np.argmax(np.where(spur_mask, mags, 0.0)))
    worst = float(mags[spur_idx])

    mag_db = 20.0 * np.log10(np.maximum(mags, 1e-300) / fundamental)
    return SpectralReport(
        sfdr_db=20.0 * math.log10(fundamental / max(worst, 1e-300)),
        fundamental_hz=float(freqs[k_fund]),
        worst_spur_hz=float(freqs[spur_idx]),
        spectrum_freq_hz=freqs,
        spectrum_mag_db=mag_db,
    )
