"""Operation count, power, energy, and throughput figures for a solve."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .netlist import CircuitPlan
from .problem import _require_finite

DEFAULT_PER_INTEGRATOR_MW = 0.15


@dataclass(frozen=True)
class EnergyReport:
    """Performance figures for one (plan, convergence time) pair.

    All fields keep full precision; table_row() applies the reporting
    round-off (2 significant figures for GOPs/W).
    """

    n_ops: int
    power_mw: float
    t_converge_us: float
    energy_uj: float
    mops_per_s: float
    gops_per_w: float
    integrator_count: Optional[int] = None


def ops_count(n: int) -> int:
    """Equivalent operation count (2/3) n^3, rounded half up."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return int(math.floor(2.0 * n**3 / 3.0 + 0.5))


def power_estimate(
    plan_or_count: Union[CircuitPlan, int],
    per_integrator_mw: float = DEFAULT_PER_INTEGRATOR_MW,
) -> float:
    """Total power in mW: integrator census times per-integrator power."""
    _require_finite(per_integrator_mw=per_integrator_mw)
    if per_integrator_mw <= 0:
        raise ValueError("per_integrator_mw must be positive")
    if isinstance(plan_or_count, CircuitPlan):
        count = plan_or_count.total_integrators
    else:
        count = int(plan_or_count)
    if count < 0:
        raise ValueError("integrator count must be nonnegative")
    return count * per_integrator_mw


def efficiency(
    n_ops: int,
    power_mw: float,
    t_s: float,
    integrator_count: Optional[int] = None,
) -> EnergyReport:
    """Fill an EnergyReport from ops, power (mW), and convergence time (s).

    Raises ValueError, naming the value, for a power or time that is not
    finite and positive and for a figure that overflows float64.
    """
    _require_finite(power_mw=power_mw, t_s=t_s)
    if power_mw <= 0:
        raise ValueError("power_mw must be positive")
    if t_s <= 0:
        raise ValueError("t_s must be positive")
    t_us = t_s * 1e6
    # ops per joule; a product that underflows to 0 J is an infinite figure
    joules = power_mw * 1e-3 * t_s
    report = EnergyReport(
        n_ops=n_ops,
        power_mw=power_mw,
        t_converge_us=t_us,
        energy_uj=power_mw * t_us * 1e-3,
        mops_per_s=n_ops / t_s / 1e6,
        gops_per_w=n_ops / joules / 1e9 if joules else math.inf,
        integrator_count=integrator_count,
    )
    _require_finite(
        t_converge_us=report.t_converge_us, energy_uj=report.energy_uj,
        mops_per_s=report.mops_per_s, gops_per_w=report.gops_per_w,
    )
    return report


def table_row(report: EnergyReport, method: str, matrix_size: str) -> str:
    """One comparison-table row:
    method,matrix_size,time_us,mops_s,gops_w,power_mw,energy_uj.
    """
    return ",".join(
        [
            method,
            matrix_size,
            f"{report.t_converge_us:.4g}",
            f"{report.mops_per_s:.3g}",
            f"{report.gops_per_w:.2g}",
            f"{report.power_mw:.3g}",
            f"{report.energy_uj:.2g}",
        ]
    )
