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

The integrator counts the high channels per sample in closed form instead
of comparing all M carriers.  With ``a = f_ref * t`` the carriers
``frac(a + k/M)``, k = 0..M-1, are exactly the points
``(frac(M*a) + j) / M``, j = 0..M-1, so the number of carriers below the
duty ``d`` is ``clip(ceil(M*d - frac(M*a)), 0, M)``.  The float form of
this count is kept only where its rounding is certified; a sample whose
only doubt is an integer wrap counts the M - 1 carriers off the wrap in
closed form and compares the one carrier on it, and every other sample
takes the M-carrier comparison (``_carriers_below``).  One certificate,
with its integer-wrap tier, serves both the open-loop integrator and the
closed loop (see ``_wrap_certificate``).

Every remainder is formed by ``_remainder``, as ``x - p*floor(x/p)`` with
in-place ufuncs, instead of ``np.mod`` (which runs ``fmod`` and a sign fix
and costs over ten times as much).  Both are the exact remainder rounded
once, so they agree bit for bit; for ``x >= 0`` the subtraction is exact
(Sterbenz's lemma).

The hot calls work in place.  A full-length float array of a 2^15-sample
series is 256 KiB, and the C allocator serves an array of that size from
pages it has handed back to the OS since the last call, so each fresh
temporary costs page faults on top of its pass.  So
``simulate_phase_integrator`` forms its series in three arrays of its own
and ``_high_taps``'s two (a peak of about 5.3 n float64, not 9.4 n), and
``sfdr`` forms the dB spectrum over the magnitudes.  Every elementwise
operation keeps its order, so every output has the bits of the form with
fresh arrays.  No work array outlives its call, and no input is written.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import IO, Optional, Union

import numpy as np

from .problem import _require_finite


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
        _require_finite(
            f0=self.f0, f_ref=self.f_ref, k_vco=self.k_vco, v0=self.v0,
            v_dd=self.v_dd, dt=self.dt,
        )
        if self.f0 <= 0 or self.k_vco <= 0 or self.v_dd <= 0:
            raise ValueError("f0, k_vco, and v_dd must be positive")
        if self.dt < 0:
            raise ValueError("dt must be non-negative (0 = auto)")
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
        from ._table import write_table  # deferred: see Trace.write_csv

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


def _remainder(
    x: np.ndarray, p: float, scratch: Optional[np.ndarray] = None
) -> np.ndarray:
    """``np.mod(x, p)`` for p = 1 or 2: overwrites the float array x with
    ``x - p*floor(x/p)`` and returns it, allocating one array on the way,
    or none when ``scratch`` (a float array of x's shape) is given.

    ``x/p`` and ``p*floor(x/p)`` are exact, and the subtraction rounds once:
    the result is the exact remainder rounded once, as np.mod's ``fmod``
    plus sign fix is.  For x >= 0 nothing rounds (Sterbenz's lemma:
    ``p*floor(x/p)`` is 0 or within a factor 2 of x).  The one exception is
    x = -2**-1074 with p = 2, whose half rounds to -0.0: it is kept as x
    where np.mod gives 2.0, and ``_triangle`` maps both to 0.
    """
    if p == 1.0:
        q = np.floor(x, out=scratch)
    else:
        q = np.divide(x, p, out=np.empty_like(x) if scratch is None else scratch)
        np.floor(q, out=q)
        q *= p
    x -= q
    return x


def _triangle(
    phase: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Normalized XOR duty law: 0 at phase 0, 1 at pi, period 2*pi.

    ``1 - |mod(phase/pi, 2) - 1|``, formed in place in one new array, or
    in ``out`` (which may be phase itself) with ``scratch`` as
    ``_remainder``'s, allocating nothing.
    """
    r = _remainder(np.divide(phase, math.pi, out=out), 2.0, scratch)
    r -= 1.0
    np.abs(r, out=r)
    return np.subtract(1.0, r, out=r)


# Carrier values per block of the exact fallback in _high_taps (512 kB of
# float64), so its memory stays bounded when every sample falls back.
_FALLBACK_CARRIERS = 1 << 16


def _carriers_below(a: np.ndarray, duty: np.ndarray, m: int) -> np.ndarray:
    """The M-carrier comparison: (m, n) mask of carrier k below the duty."""
    taps = np.arange(m)[:, None] / m
    return _remainder(a[None, :] + taps, 1.0) < duty[None, :]


def _wrap_certificate(
    a: np.ndarray,
    m: int,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, float, tuple]:
    """The carrier wrap ``frac(m*a)`` per sample, NaN where it is uncertain,
    the margin ``tol`` of the closed-form tap count, and the integer-wrap
    tier of the uncertain samples: ``(idx, off, carrier)``.  The wrap is
    formed in ``out`` and the remainder's floor in ``scratch`` where they
    are given (float arrays of a's shape), in new arrays where not.

    A sample's count of carriers ``frac(a + k/m)`` below a duty d is
    ``ceil(y)`` with ``y = m*d - wrap`` (at most m, and at least 0 for
    d >= 0).  Its float form is certified when the wrap lies in
    ``(tol, 1 - tol)`` (no carrier within rounding of its wrap from 1 to 0)
    and ``frac(y)`` does too (no carrier within rounding of the duty).  A
    NaN wrap makes y NaN, so one test ``tol < frac(y) < 1 - tol`` covers
    both, and a NaN duty as well.  ``_high_taps`` applies the test with
    numpy, the closed loop with float ``%``, which rounds as ``_remainder``
    does.

    An uncertain wrap is within rounding of an integer J = rint(m*a): it
    puts carrier k0 = -J mod m on the wrap and each other carrier within
    rounding of (j + off)/m, j = 1..m-1, where off = m*a - J (exact:
    Sterbenz).  Those m - 1 are counted as ``clip(ceil(y) - 1, 0, m - 1)``
    with ``y = m*duty - off`` under the same margin, and ``carrier``, the
    float carrier k0, is compared with the duty.  ``idx`` lists the
    uncertain samples.  Every sample neither form certifies takes the
    M-carrier comparison.

    The margin, in units of y: each float carrier is within
    ``spacing(max|a| + 1)`` of the exact ``frac(a + k/m)`` (k/m and the sum
    round once each, the remainder of a non-negative float is exact), which
    is m times that in y units; the float y is within
    ``m*spacing(max|a|) + spacing(m)`` of the exact one (the products and
    the difference round once each), and ``frac(y)`` within ``spacing(1)``
    of its own exact value.
    ``tol = 16*m*spacing(max|a| + 2) + 16*spacing(m)`` exceeds their sum
    eight times over.  ``max|a|`` is read as ``max(max a, -min a)``, which
    is the same float (NaN where a holds one) without an array of |a|.
    """
    peak = np.maximum(a.max(), -a.min())
    tol = float(16.0 * m * np.spacing(peak + 2.0) + 16.0 * np.spacing(float(m)))
    wrap = _remainder(np.multiply(m, a, out=out), 1.0, scratch)
    wrap[(wrap <= tol) | (wrap >= 1.0 - tol)] = np.nan
    idx = np.flatnonzero(np.isnan(wrap))
    ma = np.multiply(m, a[idx])
    near = np.rint(ma)
    carrier = _remainder(a[idx] + np.mod(-near, m) / m, 1.0)
    return wrap, tol, (idx, ma - near, carrier)


def _high_taps(
    a: np.ndarray, duty: np.ndarray, m: int, scratch: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per sample, how many of the m carriers ``np.mod(a + k/m, 1.0)`` lie
    below ``duty``: the integer the M-carrier comparison counts.

    The closed form ``clip(ceil(y), 0, m)`` is kept where
    ``_wrap_certificate`` certifies it, or its integer-wrap tier where the
    wrap is uncertain.  The rest are counted by the M-carrier comparison, in
    blocks of at most ``_FALLBACK_CARRIERS`` carrier values.

    The full-length series share three float work arrays, ``scratch`` (a
    float array of a's shape that the call may overwrite; new if None) and
    two new ones: the wrap and then the ceiling in the first; the wrap's
    floor, then y, frac and the count in the second; frac's floor in the
    third, which is freed before the count is formed.  The count is
    returned as an intp view of the second, converted as ``astype``
    converts.  a and duty are only read.
    """
    work = np.empty_like(a) if scratch is None else scratch
    floor = np.empty_like(a)
    wrap, tol, (idx, off, carrier) = _wrap_certificate(a, m, out=work, scratch=floor)
    y = np.multiply(m, duty, out=floor)
    y -= wrap
    ceiling = np.ceil(y, out=wrap)
    frac = _remainder(y, 1.0, np.empty_like(a))
    uncertain = frac > tol
    uncertain &= frac < 1.0 - tol
    uncertain = np.logical_not(uncertain, out=uncertain)
    ceiling[uncertain] = 0.0
    np.clip(ceiling, 0, m, out=ceiling)
    count = floor.view(np.intp)  # frac has been read: the count goes over it
    np.copyto(count, ceiling, casting="unsafe")

    # the integer wraps (every uncertain wrap is an uncertain sample)
    y = np.multiply(m, duty[idx])
    y -= off
    others = np.ceil(y)
    frac = _remainder(y, 1.0)
    sure = (frac > tol) & (frac < 1.0 - tol)
    idx = idx[sure]
    count[idx] = np.clip(others[sure] - 1.0, 0, m - 1).astype(np.intp)
    count[idx] += carrier[sure] < duty[idx]
    uncertain[idx] = False

    fallback = np.flatnonzero(uncertain)
    block = max(1, _FALLBACK_CARRIERS // m)
    for lo in range(0, fallback.size, block):
        idx = fallback[lo : lo + block]
        count[idx] = np.count_nonzero(_carriers_below(a[idx], duty[idx], m), axis=0)
    return count


def _check_finite(series: np.ndarray) -> None:
    """A NaN or inf sample has no phase: refuse it rather than read a level.

    A NaN or inf sample makes the sum NaN or inf, so a finite sum proves
    every sample finite in one reduction; only a sum that is not finite
    (a bad sample, or finite samples whose sum overflows) is scanned for
    the first bad index.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(np.sum(series)):
            return
    bad = np.flatnonzero(~np.isfinite(series))
    if bad.size:
        raise ValueError(f"input sample {bad[0]} is not finite ({series.flat[bad[0]]})")


def _phase_overflow(i: int, k_eff: float, dt: float) -> ValueError:
    """The refusal of a VCO phase that is not finite at sample i."""
    return ValueError(
        f"the VCO phase of sample {i} is not finite: the phase steps up to "
        f"it overflow float64 (k_eff = {k_eff:.6g} Hz/V, dt = {dt:.3e} s)"
    )


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
    dt is too coarse to resolve that residue.  An empty series gives an
    empty output; a non-finite sample raises ValueError naming its index,
    and so does a sample whose accumulated phase is not finite (a phase
    step 2*pi*(f_center + k_eff*(v - v0))*dt, or the sum of the steps
    before it, past float64); a v_dd whose M-level sum overflows float64
    raises ValueError.

    The output is the mean of M channel levels in {0, v_dd}, summed in
    channel order as ``levels.sum(axis=0) / M`` over the (M, N) level
    array would sum them.  For N >= 2 that reduction adds whole rows in
    order, and adding a 0.0 level is exact, so a sample's value depends
    only on how many channels are high: it is read from a table of the
    M + 1 such sums, indexed by the count from ``_high_taps`` (the closed
    form, certified per sample, with the M-carrier comparison on the rest).
    A one-sample series is summed pairwise by numpy (8 accumulators from
    M = 8), where the value depends on which channels are high, so it keeps
    the (M, 1) level array.
    """
    v_in = np.asarray(v_in, dtype=float)
    if v_in.ndim != 1:
        raise ValueError("input series must be one-dimensional")
    _check_finite(v_in)
    _require_finite(phase0=phase0)
    if cfg.dt > 1.0 / (20.0 * cfg.m_phases * cfg.f_ref):
        warnings.warn(
            f"dt = {cfg.dt:.3e} s undersamples the {cfg.m_phases}-phase "
            f"residue near {cfg.m_phases * cfg.f_ref:.3e} Hz",
            AliasRisk,
            stacklevel=2,
        )
    if v_in.size == 0:
        return np.empty(0)
    gain = effective_kvco(cfg)
    div = _METHOD_DIVIDER[cfg.method]
    f_center = cfg.f0 / div
    k_eff = gain.k_vco_hz_per_v
    m = cfg.m_phases

    # Three full-length float arrays carry the run: t (then a), step (the
    # phase steps, the reference phase, then scratch) and phase_err (then
    # the duty); _high_taps adds two.  The output is the one array formed
    # after the work is done, so it lies above the freed work arrays, and
    # the caller's next large arrays (sfdr's) can reuse them.
    t = np.arange(v_in.size, dtype=float)
    t *= cfg.dt
    # Cumulative trapezoid-free phase: left-rectangle accumulation matches
    # repeated vco_phase_step calls exactly.  In place, in the order of
    # 2*pi * (f_center + k_eff*(v - v0)) * dt.  A step or a sum past
    # float64 is refused below, so its overflow is not reported here.
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.subtract(v_in, cfg.v0)
        step *= k_eff
        step += f_center
        step *= 2.0 * math.pi
        step *= cfg.dt
        phase_err = np.empty(v_in.size)
        phase_err[0] = 0.0
        np.cumsum(step[:-1], out=phase_err[1:])
        # theta - 2*pi*f_ref*t + phase0, reusing step for the reference phase
        np.multiply(2.0 * math.pi * cfg.f_ref, t, out=step)
        phase_err -= step
        phase_err += phase0
    finite = np.isfinite(phase_err)
    if not finite.all():
        raise _phase_overflow(int(np.argmin(finite)), k_eff, cfg.dt)
    duty = _triangle(phase_err, out=phase_err, scratch=step)

    a = np.multiply(cfg.f_ref, t, out=t)
    high = np.arange(m)[:, None] < np.arange(m + 1)  # column c: c taps high
    with np.errstate(over="ignore"):
        table = np.where(high, cfg.v_dd, 0.0).sum(axis=0) / m
    if not math.isfinite(table[-1]):
        raise ValueError(
            f"v_dd = {cfg.v_dd:.6g} V overflows the sum of {m} channel levels"
        )
    if v_in.size == 1:
        levels = np.where(_carriers_below(a, duty, m), cfg.v_dd, 0.0)
        return levels.sum(axis=0) / m
    return table[_high_taps(a, duty, m, scratch=step)]


# Samples per pass of the closed loop: the loop walks Python lists of this
# length, not of the whole series.
_LOOP_CHUNK = 1024


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
    so the node, the phase error and the duty run on Python floats: the
    duty law uses float ``%``, which rounds exactly as ``np.mod`` does, so
    it matches the array form of ``_triangle`` bit for bit.  What does not
    depend on the output is formed before the loop with numpy:

    - the reference phase, as one in-order ``np.cumsum`` of ``f_ref * dt``
      from 0.0 (``add.accumulate`` adds in order, so sample k holds the
      same bits as k repeated ``ref += f_ref * dt``);
    - its carrier wrap, the margin and the integer-wrap tier from
      ``_wrap_certificate``, which the open-loop integrator shares.

    Each sample then counts its high channels as ``ceil(M*duty - wrap)``
    (a finite duty lies in [0, 1], so this is already clipped to [0, M])
    where ``tol < frac(M*duty - wrap) < 1 - tol`` certifies it.  Where the
    wrap is within rounding of an integer, the M - 1 carriers off it are
    counted in closed form under the same margin and the one on it by its
    own comparison, as ``_high_taps`` counts them; the rest take the
    M-carrier comparison, ``_carriers_below`` on the one sample (none of the
    samples of the 8192-sample step responses at M = 8, 24 samples per
    carrier period, that the benchmark runs).
    The next feedback ``v_out / ratio`` is read from an (M+1)-entry table,
    and the output is the table of levels indexed by the counts.  A
    non-finite sample, ratio or phase0 raises ValueError naming it, and so
    does a sample whose loop phase is not finite (a phase step, or the sum
    of the steps up to it, past float64), as in the open-loop integrator;
    its duty is NaN, which no margin test certifies, so the check costs the
    certified samples nothing.

    A sample's phase step depends only on its input and the last count, so
    in a chunk whose inputs are all equal the M + 2 possible steps (one per
    count, and one for phase0's feedback, which the first sample sees) are
    formed once, by the same expression, and indexed by the last count.
    Equal inputs are equal floats or opposite zeros; the feedback is never
    -0.0, so ``b + feedback`` has the same bits for either zero.
    """
    b_in = np.asarray(b_in, dtype=float)
    _check_finite(b_in)
    _require_finite(rf_over_rin=rf_over_rin, phase0=phase0)
    if rf_over_rin <= 0:
        raise ValueError("rf_over_rin must be positive")
    if b_in.size == 0:
        return np.empty(0)
    gain = effective_kvco(cfg)
    div = _METHOD_DIVIDER[cfg.method]
    f_center = cfg.f0 / div
    k_eff = gain.k_vco_hz_per_v
    m = cfg.m_phases
    two_pi = 2.0 * math.pi
    pi = math.pi
    v_dd, v0, f_ref, dt = cfg.v_dd, cfg.v0, cfg.f_ref, cfg.dt
    node_gain = 1.0 + 1.0 / rf_over_rin
    levels = [v_dd * float(high) / m for high in range(m + 1)]
    # feedback[high] per count, then phase0's (index m + 1, the first "count")
    feedback = [level / rf_over_rin for level in levels]
    feedback.append(v_dd * (1.0 - abs((phase0 / pi) % 2.0 - 1.0)) / rf_over_rin)

    ref = np.full(b_in.size, f_ref * dt)
    ref[:1] = 0.0
    np.cumsum(ref, out=ref)
    wrap, tol, (on_wrap, off, carrier) = _wrap_certificate(ref, m)
    upper = 1.0 - tol
    # per integer wrap, as _high_taps counts it: off and the carrier on it
    integer_wraps = dict(zip(on_wrap.tolist(), zip(off.tolist(), carrier.tolist())))
    not_on_wrap = (math.nan, 0.0)

    ceil = math.ceil
    m_float = float(m)  # the same product as int m, with no per-sample int coercion
    counts = np.empty(b_in.size, dtype=np.intp)
    high = m + 1
    phase_err = phase0
    for lo in range(0, b_in.size, _LOOP_CHUNK):
        hi = lo + _LOOP_CHUNK
        b_chunk = b_in[lo:hi]
        steps = None
        if (b_chunk == b_chunk[0]).all():
            b = float(b_chunk[0])
            steps = [
                two_pi * (f_center + k_eff * ((b + fb) / node_gain - v0) - f_ref) * dt
                for fb in feedback
            ]
        chunk = []
        append = chunk.append
        for b, w in zip(b_chunk.tolist(), wrap[lo:hi].tolist()):
            if steps:
                phase_err += steps[high]
            else:
                v_node = (b + feedback[high]) / node_gain
                phase_err += two_pi * (f_center + k_eff * (v_node - v0) - f_ref) * dt
            duty = 1.0 - abs((phase_err / pi) % 2.0 - 1.0)
            y = m_float * duty - w
            if tol < y % 1.0 < upper:
                high = ceil(y)
            else:
                i = lo + len(chunk)
                # off is NaN where the wrap is not an integer, failing the test
                off, carrier = integer_wraps.get(i, not_on_wrap)
                y = m_float * duty - off
                if tol < y % 1.0 < upper:
                    high = min(max(ceil(y) - 1, 0), m - 1) + (carrier < duty)
                elif not math.isfinite(phase_err):  # its duty is NaN
                    raise _phase_overflow(i, k_eff, dt)
                else:
                    below = _carriers_below(ref[i : i + 1], np.array([duty]), m)
                    high = int(np.count_nonzero(below))
            append(high)
        counts[lo:hi] = chunk
    return np.array(levels)[counts]


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


@lru_cache(maxsize=4)
def _periodic_hann(n: int) -> np.ndarray:
    """Periodic Hann window of n points, read-only (it is shared).

    Periodic, not symmetric: a bin-centered tone then leaks into exactly
    +-1 bins.
    """
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    window.flags.writeable = False
    return window


def _spur_mask(size: int, k_fund: int, guard_bins: int, start: int = 0) -> np.ndarray:
    """Which of the bins start..size-1 count as spurs: all but those within
    guard_bins of DC or of a harmonic j*k_fund (j >= 1) that is itself a
    bin (< size).

    Only the nearest multiples of k_fund can cover a bin: the one below
    (j = 0 is DC) at distance r = bin % k_fund, and the one above at
    k_fund - r, which counts only when it is below size.
    """
    bins = np.arange(start, size)
    r = bins % k_fund
    return (r > guard_bins) & ((k_fund - r > guard_bins) | (bins - r + k_fund >= size))


def _worst_spur(mags: np.ndarray, k_fund: int, guard_bins: int) -> int:
    """The first spur bin (``_spur_mask``) of the largest magnitude.

    Below the last harmonic that is a bin, whole periods of k_fund bins
    share one spur pattern, the columns guard_bins + 1 .. k_fund -
    guard_bins - 1, so they are searched as one (periods, k_fund) view;
    only the top-edge tail goes through ``_spur_mask``.  Raises ValueError
    when no bin is a spur.
    """
    size = mags.size
    edge = (size - 1) // k_fund * k_fund
    body = mags[:edge].reshape(-1, k_fund)[:, guard_bins + 1 : k_fund - guard_bins]
    tail = edge + np.flatnonzero(_spur_mask(size, k_fund, guard_bins, start=edge))
    worst = None
    if body.size:
        row, col = divmod(int(np.argmax(body)), body.shape[1])
        worst = row * k_fund + guard_bins + 1 + col
    if tail.size:
        top = int(tail[np.argmax(mags[tail])])
        if worst is None or mags[top] > mags[worst]:
            worst = top
    if worst is None:
        raise ValueError(
            f"no bin is a spur: every bin is within guard_bins = {guard_bins} "
            f"of DC or of a harmonic of bin {k_fund}"
        )
    return worst


def _stands_above_floor(fundamental: float, mags: np.ndarray) -> bool:
    """Whether a fundamental magnitude is positive and at least ten times
    the median of the non-negative, finite magnitudes ``mags``.

    At least half of the values are at least their median, so the median is
    at most twice their mean: a fundamental of at least 20.5 times the float
    mean (2.5 % over 20, far above the rounding of the mean and the median)
    passes without the median, which takes a partition.
    """
    if not fundamental > 0.0:
        return False
    with np.errstate(over="ignore"):
        mean = float(np.mean(mags))
    return fundamental >= 20.5 * mean or fundamental >= 10.0 * float(np.median(mags))


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
    guard).  The worst spur is the first spur bin of the largest magnitude,
    so a spectrum whose spur bins are all 0.0 reports the first spur bin.
    Raises NoFundamental when the signal bin is 0.0 or below ten times the
    median of the bins above the DC guard, and ValueError when the series
    length is not a power of two >= 4096, f_signal is below 4 bins or above
    the Nyquist bin n/2, guard_bins is negative, no bin is a spur (the
    guards around DC and the harmonics cover the spectrum), a sample is not
    finite (named by its index) or the spectrum overflows float64.
    """
    series = np.asarray(series, dtype=float)
    n = series.size
    if n < 4096 or n & (n - 1):
        raise ValueError(f"series length must be a power of two >= 4096, got {n}")
    if guard_bins < 0:
        raise ValueError(f"guard_bins must be non-negative, got {guard_bins}")
    bin_hz = 1.0 / (n * cfg.dt)
    k0 = int(round(f_signal / bin_hz))
    if k0 < 4:
        raise ValueError(
            f"f_signal = {f_signal:.6g} Hz is below 4 bins ({4 * bin_hz:.6g} Hz)"
        )
    if k0 > n // 2:
        raise ValueError(
            f"f_signal = {f_signal:.6g} Hz is above the Nyquist bin {n // 2} "
            f"({n // 2 * bin_hz:.6g} Hz)"
        )

    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.abs(np.fft.rfft(series * _periodic_hann(n)))
    if not np.isfinite(mags).all():
        _check_finite(series)  # a non-finite sample spreads to every bin
        raise ValueError("the spectrum of the series overflows float64")
    freqs = np.fft.rfftfreq(n, cfg.dt)

    lo = max(0, k0 - 2)
    hi = min(mags.size, k0 + 3)
    k_fund = lo + int(np.argmax(mags[lo:hi]))
    fundamental = float(mags[k_fund])
    # no spur bin is refused first: that tone cannot be measured at any level
    spur_idx = _worst_spur(mags, k_fund, guard_bins)
    if not _stands_above_floor(fundamental, mags[guard_bins + 1 :]):
        raise NoFundamental(
            f"bin {k_fund} ({freqs[k_fund]:.6g} Hz) does not stand above the "
            "noise floor"
        )
    worst = float(mags[spur_idx])

    # 20 log10(max(mags, 1e-300) / fundamental), formed over mags
    mag_db = np.maximum(mags, 1e-300, out=mags)
    mag_db /= fundamental
    np.log10(mag_db, out=mag_db)
    mag_db *= 20.0
    return SpectralReport(
        sfdr_db=20.0 * math.log10(fundamental / max(worst, 1e-300)),
        fundamental_hz=float(freqs[k_fund]),
        worst_spur_hz=float(freqs[spur_idx]),
        spectrum_freq_hz=freqs,
        spectrum_mag_db=mag_db,
    )
