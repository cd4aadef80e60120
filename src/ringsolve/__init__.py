"""Behavioral simulator for a VCO-integrator analog linear-equation solver.

Pipeline: represent and range-scale a problem (problem), compile it into a
resistive feedback netlist (netlist), integrate the resulting dynamics and
report the solution (dynamics), model the phase-domain integrator and its
spectra (phase), and compute energy/throughput figures (metrics).  The cli
module binds everything behind a command-line front end.
"""

from .problem import (
    LinearProblem,
    NormOverflow,
    RangeViolation,
    ScaledProblem,
    ScalePolicy,
    SingularMatrix,
    direct_solve_oracle,
    inf_norm,
    inv_inf_norm,
    load_problem,
    scale_problem,
    unscale_solution,
)
from .netlist import (
    CircuitPlan,
    CountScheme,
    MemristorBank,
    PathSign,
    QuantizerSpec,
    integrator_count,
    negated_plan,
    plan,
    program_memristors,
    quantize_entry,
    realized_matrix,
)
from .dynamics import (
    Mode,
    SolveOptions,
    SolveResult,
    SolverConfig,
    StabilityReport,
    StateDimensionLimit,
    StateSpace,
    StepBudgetExceeded,
    StepMapOverflow,
    UnstableSystem,
    ac_response,
    bandwidth,
    build_system,
    simulate,
    solve,
    stability_report,
)
from .phase import (
    EffectiveGain,
    PhaseConfig,
    PhaseMethod,
    SpectralReport,
    effective_kvco,
    measure_kvco,
    multiphase_sum,
    pd_xor,
    sfdr,
    simulate_phase_integrator,
    vco_phase_step,
)
from .metrics import EnergyReport, efficiency, ops_count, power_estimate

__version__ = "0.1.0"
