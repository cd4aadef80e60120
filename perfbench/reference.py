"""Independent references the benchmark holds the program's outputs to.

The realized-system laws below are re-derived from the documented hardware
model (ladder codes, memristor write grid, sign census), not taken from the
program's code, so a change to the program that alters what it realizes is
caught here.  The elimination oracle is ``ringsolve.direct_solve_oracle``,
the reference the acceptance criteria name.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ringsolve.problem import LinearProblem, direct_solve_oracle

# Criterion-10 tolerance on |x - oracle|_inf.
X_TOL = 1e-3

# The program's documented convergence window (dynamics.CONVERGENCE_WINDOW).
CONVERGENCE_WINDOW = 10

# Memristor bank defaults of the command-line front end.
MEM_G_MIN = 1e-6
MEM_G_MAX = 1e-2
MEM_LEVELS = 256


def check_x(x, a, b, what: str = "x") -> Optional[str]:
    """None when x matches direct_solve_oracle's solution of (a, b) within X_TOL."""
    oracle = direct_solve_oracle(LinearProblem(a, b))
    err = float(np.abs(np.asarray(x, dtype=float) - oracle).max())
    if not err <= X_TOL:
        return f"{what}: |x - oracle| = {err:.3e} > {X_TOL:g}"
    return None


def census(a: np.ndarray) -> int:
    """Integrators of the AUTO-oriented plan: n main plus one per inverter.

    The plan negates the system when positive entries outnumber negative
    ones, and every entry that is positive after that needs an inverter.
    """
    positives = int(np.count_nonzero(a > 0))
    negatives = int(np.count_nonzero(a < 0))
    inverters = negatives if positives > negatives else positives
    return a.shape[0] + inverters


def after_reuse_census(n: int) -> int:
    """The after-reuse integrator bound floor(n^2 / 2) + n."""
    return n * n // 2 + n


def ladder_decay_rate(a: np.ndarray, g: float) -> float:
    """Decay rate (1/s) of the slowest mode of the rung an ideal, exactly scaled solve simulates.

    Re-derived from the documented model: exact scaling multiplies A by
    max(||A^-1||_inf, 1); the ideal state matrix of a system W is
    diag(g / (1 + sum_j |w_ij|)) W; the ladder takes the first stable one of
    W, -W, W^T W and -W^T W.  Returns 0.0 when no rung is stable.
    """
    w = a * max(float(np.abs(np.linalg.inv(a)).sum(axis=1).max()), 1.0)
    gram = w.T @ w
    for rung in (w, -w, gram, -gram):
        d = g / (1.0 + np.abs(rung).sum(axis=1))
        abscissa = float(np.linalg.eigvals(d[:, None] * rung).real.max())
        if abscissa < 0.0:
            return -abscissa
    return 0.0


def quantized_matrix(a: np.ndarray, bits: int, r_in: float, r_unit: float) -> np.ndarray:
    """Matrix realized by the ideal-switch binary ladder.

    Magnitudes land on (1 + code) * r_in / r_unit with the code rounded half
    up from |a| / step - 1 and clipped to [0, 2^bits - 1]; signs are kept.
    """
    step = r_in / r_unit
    codes = np.clip(np.floor(np.abs(a) / step - 1.0 + 0.5), 0, (1 << bits) - 1)
    return np.where(a == 0.0, 0.0, np.sign(a) * (1.0 + codes) * step)


def memristor_matrix(a: np.ndarray, r_in: float, sigma: float, seed: int) -> np.ndarray:
    """Matrix realized by memristors programmed with seeded write noise.

    Target conductances |a_ij| / r_in of the nonzero entries, in row-major
    order, get relative gaussian errors of deviation sigma from a generator
    seeded with ``seed`` and snap to the device's linear write grid.
    """
    mask = a != 0.0
    targets = np.abs(a[mask]) / r_in
    noise = np.random.default_rng(seed).standard_normal(targets.size) * sigma
    step = (MEM_G_MAX - MEM_G_MIN) / (MEM_LEVELS - 1)
    codes = np.clip(
        np.floor((targets * (1.0 + noise) - MEM_G_MIN) / step + 0.5), 0, MEM_LEVELS - 1
    )
    realized = np.zeros_like(a)
    realized[mask] = np.sign(a[mask]) * r_in * (MEM_G_MIN + codes * step)
    return realized


def check_pwm_levels(out: np.ndarray, m: int, v_dd: float) -> Optional[str]:
    """None when every output sample sits on one of the M+1 levels k v_dd / M."""
    scaled = np.asarray(out, dtype=float) * m / v_dd
    k = np.rint(scaled)
    off = float(np.abs(scaled - k).max())
    if off > 1e-9 or k.min() < 0 or k.max() > m:
        return f"PWM output off the {m + 1}-level grid (worst offset {off:.2e} levels)"
    return None


def settle_time(out: np.ndarray, period: int, dt: float, band: float) -> tuple[float, float]:
    """(settling time in s, final level) of a closed-loop step response.

    The carrier average, a moving mean over one reference period, removes
    the PWM residue.  The final level is its mean over the last four
    periods; the response has settled once the carrier average stays within
    ``band`` of it.  The averaging window's own length is counted in the time.
    """
    avg = np.convolve(out, np.ones(period) / period, "valid")
    final = float(avg[-4 * period :].mean())
    outside = np.nonzero(np.abs(avg - final) > band)[0]
    first_inside = int(outside[-1]) + 1 if outside.size else 0
    return (first_inside + period) * dt, final


def steps_from_trace(result, ss, cfg) -> tuple[int, int]:
    """(steps integrated, steps needed to detect convergence) of a simulate call.

    dt follows the documented rule (cfg.dt, or 0.1 / (g max gamma) when it
    is 0); the integrated count is the trace's final time over dt, and the
    needed count is the convergence step plus the detection window.
    """
    dt = cfg.dt if cfg.dt > 0 else 0.1 / (cfg.g * float(np.max(ss.gamma)))
    if result.trace is not None and len(result.trace.t):
        steps = int(round(float(result.trace.t[-1]) / dt))
    else:
        steps = int(math.ceil(cfg.t_max / dt))
    if result.t_converge is None:
        return steps, steps
    needed = int(round(result.t_converge / dt)) + CONVERGENCE_WINDOW
    return steps, min(needed, steps)
