"""Continuous-time dynamics of a compiled plan and the end-to-end solver.

The main integrator at node i is inverting: dx_i/dt = -g * v_node,i with
g = k_vco * k_pd, and the passive summing node divides by
gamma_i = 1 + sum_j w_ij, so

    dx_i/dt = -(g / gamma_i) * (b_i + sum_direct w_ij x_j + sum_inv w_ij y_j)

with each inverter stage a unity-gain inverting lag dy/dt = -g (x_src + y)/2.
All inverters fed by one source column follow the same trajectory from the
zero start, so the simulator carries one lag y_j per inverted column j: the
state dimension is at most 2n, and the 256-state eigenvalue cap binds only
for structural n > 128.  The plan and its census still count one inverter
per positive entry, as the hardware has.
The unique equilibrium of that system solves the realized A_hat x = b_hat.
The inverting convention is the one under which the single-path transfer
function has DC gain -R_f/R_in and under which all-negative matrices settle;
saddle-spectrum systems are stable in neither orientation, so solve() walks a
ladder: planned orientation, negated orientation, then the normal-equations
(Gram) system in both, and reports which rung produced the answer.  The
exact Gram system is stable in one orientation; a realized (quantized or
programmed) one need not be.
The negated rung is the planned circuit with its path signs swapped
(netlist.negated_plan); in ideal mode it is the planned state space negated
(_negated_ideal), which equals ideal_system(-a, -b) bit for bit, so each
system builds one ideal_system.  It is derived only when the planned rung
is unstable; the Gram system is formed only when both direct rungs are,
from the already validated working problem (_gram_problem checks only that
the products are finite).  One gate decides every rung (_gate), with
two certificates before the eigensolve.  A rung whose trace exceeds a
small margin has an eigenvalue in the right half-plane (_unstable_by_trace);
in ideal mode that is one of the two direct rungs and the planned Gram
rung, while a structural state matrix never has a positive trace, which
the test reads first.  A direct rung whose scaled Gershgorin discs all lie
left of a small margin is stable (_stable_by_discs; row-dominant
structural rungs, lags included).  Either way the rung gets one kind of
deferred report, which forms max Re(eig) only when it is read: for a
skipped rung, only by the UnstableSystem message.

Integration is classical fixed-step 4th-order Runge-Kutta.  For a linear
system one RK4 step is the exact affine map z' = R z + u, kept as
(R - I, u); doubling it in one loop gives the 2^b-step maps (R^(2^b) - I,
sum_{i<2^b} R^i u), formed once per run as far as the horizon.  A run
starts from rest, so the state at step j is exactly P_j = sum_{i<j} R^i u,
whichever way it is reached.  One pass over the maps' stack (_stack) gives
each map's norm and the run's reach, a bound on ||P_j||_inf for every step
of the horizon.  A norm bound, not the spectrum: a non-normal R can carry
a state far past its start before it decays.  One loop forms every block
of states, _Run.walk, one state per row: the first block after a state
comes from it by doubling (states h+1..2h from states 1..h through the
h-step map), and each later block from the one before through the L-step
map, Z' = Z + Z (R^L - I)^T + P_L, one matrix product.  The walk advances
the run's explicit state (z, the step, the window flags, the convergence
and overflow steps, the kept trace rows) along one of three strides:

- exact, through the one-step maps, in blocks of up to _BLOCK states: the
  only stride that searches for the window and scans for overflow, so
  both are found at their exact step;
- search, every _SAMPLE-th state through the _SAMPLE-step map and those
  after it, in blocks of _SAMPLES, at state dimension _SEARCH_DIM (24) or
  more, which every structural-dense benchmark solve has: any
  CONVERGENCE_WINDOW + 1 consecutive steps hold a sample, so no window is
  met before a sample is at or below eps, and the search stops on the
  sample before the first such one;
- grid, through the dec-step map composed from the power-of-two maps, one
  trace row per grid step, after the window.

Overflow is decided once per run, from the reach.  When it is within
OVERFLOW_LIMIT no state of the horizon can pass the limit, so a run may
skip states: search, step exactly over _STRETCH steps from where the
search stopped, and search again if they end above eps without the window;
from a stretch that ends at or below eps, or below _SEARCH_DIM from the
start, step exactly to the window.  From the end of the block that met the
window x jumps to t_max: the remaining m steps split into the power-of-two
maps of m's set bits, applied to the state one after another.  A trace
walks the grid from there and ends on the jumped x.  None of these tests a
row.  When the reach passes OVERFLOW_LIMIT (or is NaN), the run forms
every state of the horizon along the exact stride, whose scan reports
divergence at its exact step.  Each walk keeps the trace rows on the grid
it passes with one keeper (_Run._keep): a row the walk formed is sliced
out, and a grid row between two samples is the sample before it carried
the remaining steps through the 1-, 2- and 4-step maps.  A certified run
walks the same way with or without a trace, so its x does not depend on
it.  Row peaks (the overflow scan, the residuals) are reduced from a
transposed copy (_row_max), since numpy reduces short rows one at a time.
An exact block's overflow scan looks at rows only when the whole block's
max or min fails.  simulate holds one numpy error-state context (overflow
and invalid ignored) for its whole run; the stepping helpers
(_step_operators, _extend, _stack, _factors, _then, _block, _jump,
_Run.walk) enter none, so any other caller sets its own.  This regroups
the same arithmetic: results agree with one-step-at-a-time stepping to
rounding and are byte-deterministic; where the horizon does not contract
the rounding of the state a search stopped on, x can differ from stepping
every state in its last bits.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import IO, Optional, Union

import numpy as np

from .netlist import (
    CircuitPlan,
    MemristorBank,
    QuantizerSpec,
    negated_plan,
    plan as compile_plan,
    program_memristors,
    realized_matrix,
)
from .problem import (
    LinearProblem,
    ScalePolicy,
    _check_nonsingular,
    _require_finite,
    check_input_window,
    scale_problem,
)

# States beyond this magnitude are reported as divergence, not a crash.
OVERFLOW_LIMIT = 1e6

# Residual must stay below threshold for this many consecutive steps.
CONVERGENCE_WINDOW = 10

_EIG_DIM_LIMIT = 256

# Longest horizon simulate accepts, in RK4 steps: ten times the longest one
# in use (the saddle system [[-4, 1.5], [-2, 1]] under exact scaling takes
# 9.6e6).  A run that never settles steps all of its horizon, so a longer
# one is refused before stepping rather than run for minutes.
_STEP_BUDGET = 100_000_000

# Most float64 values a trace may hold, counted as its rows times n_main + 3
# (the states, the residual, the step index and the time): 512 MiB.  The
# rows are allocated before stepping, so a longer trace is refused first.
_TRACE_BUDGET = 1 << 26

# States per block: the stepper keeps the last _BLOCK states and forms the
# next _BLOCK from them with one matrix product.  Longer blocks take fewer
# products per step but form more states past the block that meets the
# window; a dense n = 20 solve settles in about 1.4-1.9 k steps.
_BLOCK = 512

# Steps between the states the window search forms (_Run.walk), a power
# of two: any CONVERGENCE_WINDOW + 1 consecutive steps hold a multiple of
# it, so until a sample is at or below eps no window can be met.
_SAMPLE = 8

# Samples per search block: each block after the first comes from the one
# before through the _SAMPLE * _SAMPLES-step power, one matrix product.
# The 1 200 structural-dense benchmark solves (n = 12-20) meet their window
# 1.6-2.8 k steps in, so 128-sample blocks (1 024 steps) reach it in 2-3
# blocks, where 32-sample blocks took 7-11; the samples after the first one
# at or below eps, the rest of its block, go unused.
# tools/search_break_even.py times both lengths against the exact walk
# (README has its table): at state dimension 24-40, exact / search reads
# 1.32-1.74 untraced with 128 and 1.15-1.75 with 32, and 0.96-1.15 at the
# automatic grid with 128 and 0.75-0.97 with 32: each block carries its
# grid rows from the samples in one pass (_Run._keep), so fewer blocks take
# fewer passes.  structural-dense runs 1.07-1.10 times the op rate of
# 32-sample blocks (BENCH_31.json).  Against 32 the samples after the first
# block come from other products, so x and the trace can differ in their
# last bits (README).
_SAMPLES = 128

# Least state dimension at which simulate searches.
# tools/search_break_even.py times both walks, interleaved, on dense
# structural draws of dimension 16-40 (README has its table).  Untraced, the
# search runs 1.29-1.74 times as fast as exact stepping at every one of
# them.  A traced run whose grid is not a multiple of _SAMPLE pays for the
# grid rows carried from the samples (_Run._keep): at the automatic grid it
# runs at 0.90-1.06 of exact stepping at 16 and 20 and 0.96-1.15 from 24
# to 40; at decimation 8, 1.04-1.16 throughout.  At 24 every
# structural-dense solve (n = 12, 16 and 20: dimension 24, 32 and 40)
# searches, while the traced CLI solves of sweep-reuse (12-20, at the
# automatic grid) and the ideal-ladder solves (4-8) step exactly.  A lower
# floor trades their bits for speed: at 2, ideal-ladder ran 1.08 times as
# fast in 3 pairs (BENCH_31.json, trial_runs), but x moved by up to 4.4e-16
# relative on 18 of 800 ideal-ladder solves, and 106 of 192 sweep-reuse
# outputs changed bytes.  The floor reads the state dimension alone, so x
# does not depend on the trace.
_SEARCH_DIM = 24

# Steps stepped exactly from the sample before the first one at or below
# eps: the window starts within _SAMPLE steps of it and, on a settling
# residual, is met CONVERGENCE_WINDOW steps later, inside one block.
_STRETCH = 32


class EigenFailure(RuntimeError):
    """The eigenvalue iteration did not converge."""


class MultiPathRow(ValueError):
    """AC analysis asked for a row with more than one feedback path."""


class UnstableSystem(RuntimeError):
    """No orientation of the system or of its Gram system is stable."""


class StateDimensionLimit(ValueError):
    """The state space exceeds what the dense eigenvalue check accepts."""


class StepBudgetExceeded(ValueError):
    """The horizon t_max / dt asks for more RK4 steps than the simulator takes."""


class TraceBudgetExceeded(ValueError):
    """The trace asked for holds more values than the simulator keeps."""


class StepMapOverflow(ValueError):
    """The RK4 step map at this dt is not finite in float64."""


class TransferOutOfRange(ValueError):
    """A single-path bandwidth or transfer value does not fit float64."""


class Mode(Enum):
    IDEAL = "ideal"          # integrate b - A x directly, no netlist
    STRUCTURAL = "structural"  # full plan with summing nodes and inverters


@dataclass(frozen=True)
class SolverConfig:
    """Loop gains, convergence threshold, and integration horizon.

    k_vco is in Hz/V and k_pd in V per radian-equivalent; their product g is
    the loop rate constant in 1/s.  dt = 0 picks the step automatically as
    0.1 / (g * max_i gamma_i).  Every field is finite; k_vco, k_pd,
    eps_residual and t_max are positive, dt is nonnegative, and g must
    neither overflow nor fall below the smallest normal float.
    """

    k_vco: float = 300e6
    k_pd: float = 1.0 / math.pi
    eps_residual: float = 1e-3
    t_max: float = 10e-6
    dt: float = 0.0
    mode: Mode = Mode.STRUCTURAL

    def __post_init__(self) -> None:
        _require_finite(
            k_vco=self.k_vco, k_pd=self.k_pd, eps_residual=self.eps_residual,
            t_max=self.t_max, dt=self.dt,
        )
        if not math.isfinite(self.g):
            raise ValueError(f"k_vco * k_pd overflows: g must be finite, got {self.g}")
        if self.k_vco <= 0 or self.k_pd <= 0:
            raise ValueError("k_vco and k_pd must be positive")
        # a subnormal or zero g leaves every rung's spectrum at zero and
        # the auto step at inf
        if self.g < sys.float_info.min:
            raise ValueError(
                f"k_vco * k_pd underflows: g must be a normal float, got {self.g}"
            )
        if self.eps_residual <= 0 or self.t_max <= 0:
            raise ValueError("eps_residual and t_max must be positive")
        if self.dt < 0:
            raise ValueError("dt must be nonnegative (0 = auto)")

    @property
    def g(self) -> float:
        """Loop rate constant k_vco * k_pd in 1/s."""
        return self.k_vco * self.k_pd


class StabilityReport:
    """The largest real part of a rung's spectrum (merged inverter modes
    included) and whether it is negative.

    Built as StabilityReport(max_re_eig=..., stable=...), and immutable.
    The report of a rung a certificate decides (_gate) is built by
    _deferred(ss, stable): stable is known, and max_re_eig is formed by
    stability_report(ss) when it is first read, then kept, so a caller that
    never reads it never eigensolves.  An EigenFailure is raised at that
    read.  Equality and hash compare (max_re_eig, stable).
    """

    __slots__ = ("_max_re_eig", "stable", "_ss")

    def __init__(self, max_re_eig: float, stable: bool) -> None:
        object.__setattr__(self, "_max_re_eig", max_re_eig)
        object.__setattr__(self, "stable", stable)
        object.__setattr__(self, "_ss", None)

    @classmethod
    def _deferred(cls, ss: "StateSpace", stable: bool) -> "StabilityReport":
        report = cls(math.nan, stable)
        object.__setattr__(report, "_ss", ss)
        return report

    @property
    def max_re_eig(self) -> float:
        if self._ss is not None:
            object.__setattr__(self, "_max_re_eig", stability_report(self._ss).max_re_eig)
            object.__setattr__(self, "_ss", None)
        return self._max_re_eig

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.max_re_eig, self.stable) == (other.max_re_eig, other.stable)

    def __hash__(self):
        return hash((self.max_re_eig, self.stable))

    def __repr__(self):
        return f"StabilityReport(max_re_eig={self.max_re_eig!r}, stable={self.stable!r})"

    def __reduce__(self):
        return StabilityReport, (self.max_re_eig, self.stable)


@dataclass(frozen=True)
class StateSpace:
    """The linear system dz/dt = m z + f realized by a plan.

    The first n_main states are the solver outputs; the rest are inverter
    lags, one per inverted source column (all inverters fed by one column
    share a lag).  (a_hat, b_hat) is the realized system in the caller's
    orientation, used for residual bookkeeping.  merged_mode is the
    eigenvalue -g/2 of the differences between inverters that share a lag:
    the hardware has those modes but the shared state does not, so
    stability_report counts it in.  None when no column feeds two inverters.
    """

    m: np.ndarray
    f: np.ndarray
    gamma: np.ndarray
    n_main: int
    a_hat: np.ndarray
    b_hat: np.ndarray
    merged_mode: Optional[float] = None


@dataclass(frozen=True)
class Trace:
    """Decimated state trajectory with the residual series."""

    t: np.ndarray
    states: np.ndarray  # main states only, one row per kept step
    residual_inf: np.ndarray

    def write_csv(self, destination: Union[str, IO[str]]) -> None:
        """Write "t_s,x0,...,x{n-1},residual_inf" rows, 9 significant digits.

        ``destination`` is a path (created or truncated) or an open text
        stream (left open).  See ``write_table`` for the row format.
        """
        n = self.states.shape[1]
        header = ["t_s", *(f"x{i}" for i in range(n)), "residual_inf"]
        # imported here: the formatter's tables are built when the first CSV is
        # written, so a process that writes none pays neither their time nor
        # their memory
        from ._table import write_table

        write_table(destination, header, (self.t, self.states, self.residual_inf))


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a dynamic solve.

    ``converged`` means the residual of the simulated (realized) system
    stayed below the threshold for the trailing window and is still below it
    at the end of the run, in which case residual_inf <= eps_residual and
    t_converge <= t_max.  ``fallback`` records which ladder rung produced
    the answer: none, negated, gram, or gram-negated.
    """

    x: np.ndarray
    residual_inf: float
    converged: bool
    t_converge: Optional[float]
    stability: StabilityReport
    trace: Optional[Trace]
    fallback: str = "none"
    diagnostics: str = ""
    plan: Optional[CircuitPlan] = None
    scale_factor: float = 1.0


@dataclass(frozen=True)
class SolveOptions:
    """Pipeline options for solve().  r_in must be finite and positive.
    memristor_seed must be nonnegative when a memristor bank is attached,
    the only case that reads it.  scale None solves the problem as given;
    ScalePolicy.EXACT scales it first (scale_problem).  solve() stops at
    the first stable ladder rung."""

    r_in: float = 2000.0
    quantizer: Optional[QuantizerSpec] = None
    memristor: Optional[MemristorBank] = None
    memristor_seed: int = 0
    scale: Optional[ScalePolicy] = None
    # None forms no trace; 0 keeps about 4096 grid steps, k every k-th step
    trace_decimation: Optional[int] = None

    def __post_init__(self) -> None:
        _require_finite(r_in=self.r_in)
        if self.r_in <= 0:
            raise ValueError(f"r_in must be positive, got {self.r_in}")
        if self.memristor is not None and self.memristor_seed < 0:
            raise ValueError(
                f"memristor_seed must be nonnegative, got {self.memristor_seed}"
            )
        if self.trace_decimation is not None and self.trace_decimation < 0:
            raise ValueError("trace_decimation must be nonnegative (0 = auto)")


def build_system(circuit: CircuitPlan, cfg: SolverConfig) -> StateSpace:
    """Assemble the structural state space of a compiled plan.

    Every inverter fed by source column j obeys dy/dt = -g (x_j + y)/2 from
    the same zero start, so all of them carry the same trajectory and share
    one lag state y_j.  The plan's sign and weight arrays are scattered into
    m in one step: each direct path into its source's x column, each
    inverter path, with its own realized weight, into its source's lag
    column.
    """
    n = circuit.n
    g = cfg.g
    sign, weight = circuit.sign, circuit.weight
    inverted = np.flatnonzero((sign > 0).any(axis=0))
    lags = n + np.arange(inverted.size)
    dim = n + inverted.size

    # summed left to right: a pairwise sum can move gamma, and the auto dt,
    # by an ulp
    gamma = 1.0 + np.cumsum(weight, axis=1)[:, -1]
    coef = -g / gamma

    lag_of = np.arange(n)
    lag_of[inverted] = lags
    rows, cols = np.nonzero(sign)
    m = np.zeros((dim, dim))
    # each (row, state) pair occurs once; += onto zeros keeps +0.0 where a
    # connected weight is zero
    m[rows, np.where(sign[rows, cols] < 0, cols, lag_of[cols])] += (
        coef[rows] * weight[rows, cols]
    )
    m[lags, inverted] = -g / 2.0
    m[lags, lags] = -g / 2.0
    f = np.zeros(dim)
    f[:n] = coef * circuit.b_compiled

    a_hat, b_hat = realized_matrix(circuit)
    merged = -g / 2.0 if circuit.inverter_count > inverted.size else None
    return StateSpace(m, f, gamma, n, a_hat, b_hat, merged)


def ideal_system(
    a: np.ndarray, b: np.ndarray, cfg: SolverConfig
) -> StateSpace:
    """State space of the netlist-free model dx/dt = -g D (b - A x)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gamma = 1.0 + np.abs(a).sum(axis=1)
    d = cfg.g / gamma
    return StateSpace(
        m=d[:, None] * a,
        f=-d * b,
        gamma=gamma,
        n_main=a.shape[0],
        a_hat=a,
        b_hat=b,
    )


def _check_eig_dim(m: np.ndarray) -> None:
    dim = m.shape[0]
    if dim > _EIG_DIM_LIMIT:
        raise StateDimensionLimit(
            f"state dimension {dim} exceeds {_EIG_DIM_LIMIT}"
        )


def stability_report(ss: StateSpace) -> StabilityReport:
    """Largest real part of the spectrum, merged inverter modes included."""
    _check_eig_dim(ss.m)
    try:
        eig = np.linalg.eigvals(ss.m)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    max_re = float(eig.real.max())
    if ss.merged_mode is not None:
        max_re = max(max_re, ss.merged_mode)
    return StabilityReport(max_re_eig=max_re, stable=max_re < 0.0)


def _unstable_by_trace(m: np.ndarray) -> bool:
    """True when trace(m) alone shows that stability_report(m) says unstable.

    The eigenvalues sum to the trace, so trace(m) > 0 puts one in the right
    half-plane.  The computed ones are the exact eigenvalues of m + E, with
    ||E||_F <= p(dim) u ||m||_F for the backward-stable QR algorithm
    (u = 2^-53, p a modest polynomial, about 10 dim), so their real parts
    sum to trace(m) + trace(E), and |trace(E)| <= sqrt(dim) ||E||_F
    <= sqrt(dim) p(dim) u dim max|m_ij|, about 1e-15 dim^2.5 max|m_ij|.
    The margin 1e-9 dim max|m_ij| is over 200 times that for every dim up
    to the 256-state cap, so past it the computed real parts still sum
    above 0, their largest is above 0 and the report is unstable.  A
    non-finite m gives a non-finite margin, which no trace exceeds: such a
    rung still reaches eigvals.  The margin is never negative, so a trace
    that is not positive (every structural rung's) decides without the
    scan for max|m_ij|.  The caller checks the state-dimension cap first
    (_gate does).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        trace = m.trace()
        return bool(trace > 0.0 and trace > 1e-9 * len(m) * np.abs(m).max())


def _stable_by_discs(ss: StateSpace) -> bool:
    """True when scaled Gershgorin discs show that stability_report(ss)
    says stable; False proves nothing.

    The counterpart of _unstable_by_trace.  With D = diag(1 on the n_main
    states, s on the lag states), s in [1/2, 1], m and D m D^-1 have the
    same spectrum, and every eigenvalue lies in a disc of D m D^-1, so it is
    certified when each row satisfies
    m_ii + sum_{j != i} |m_ij| d_i / d_j <= -margin.  The computed
    eigenvalues are those of m + E, the discs of D (m + E) D^-1 are those of
    D m D^-1 widened by at most kappa(D) sqrt(dim) ||E||_F + |E_ii|, and
    kappa(D) <= 2, so the margin 2e-9 dim max|m_ij|, twice the trace
    shortcut's, keeps every computed real part below 0 (the merged
    inverter mode, -g/2, is negative).  A main row bounds s from below
    (its lag columns weigh 1/s), a lag row from above (its main columns
    weigh s), in closed form; the rung is certified when the largest lower
    bound, at least 1/2, is at most the smallest upper bound, at most 1.
    The rounding of these sums and ratios moves a row by about
    dim u max|m_ij|, far inside the margin.  A row that fails at s = 1
    (where lag columns weigh least) or a diagonal entry that is not
    negative rejects the rung first, the first row alone in Python floats
    before any numpy reduction: that is every ideal rung that is not row
    dominant, and most of them fail on that first row.  A non-finite m is
    never certified.  The caller checks the state-dimension cap first
    (_gate does).
    """
    m, nm = ss.m, ss.n_main
    first = m[0].tolist()
    if not sum(map(abs, first)) < -2.0 * first[0]:
        return False
    dim = len(m)
    diag = m.diagonal()
    if not diag.max() < 0.0:
        return False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        absm = np.abs(m)
        # inf or NaN when m is not finite, which fails every test below
        margin = 2e-9 * dim * absm.max()
        if nm == dim:
            return bool((absm.sum(axis=1) + 2.0 * diag <= -margin).all())
        # per row, the sums over the main and over the lag columns; a row's
        # own group holds its diagonal entry, so own + 2 m_ii = m_ii + off_i
        inner, outer = np.add.reduceat(absm, (0, nm), axis=1).T
        room = -margin - np.concatenate((inner[:nm], outer[nm:])) - 2.0 * diag
        if not (outer[:nm] <= room[:nm]).all():  # main rows at s = 1
            return False
        # fmax and fmin skip the 0/0 of a row with nothing to scale and no room
        low = max(0.5, float(np.fmax.reduce(outer[:nm] / room[:nm])))
        high = min(1.0, float(np.fmin.reduce(room[nm:] / inner[nm:])))
        return low <= high


def _gate(ss: StateSpace, direct: bool) -> StabilityReport:
    """The stability report of one ladder rung: the state-dimension cap,
    then the trace test, then (direct rungs only) the discs, then the
    eigensolve.  A rung either certificate decides gets a deferred report,
    whose max Re(eig) is formed only when it is read.  A Gram rung is rarely
    row dominant, so its discs would cost more than the eigensolves they
    save."""
    _check_eig_dim(ss.m)
    if _unstable_by_trace(ss.m):
        return StabilityReport._deferred(ss, False)
    if direct and _stable_by_discs(ss):
        return StabilityReport._deferred(ss, True)
    return stability_report(ss)


def _step_operators(m: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 on dz/dt = m z + f collapses to z' = R z + S f.
    The caller sets numpy's error state, as for every stepping helper."""
    dim = m.shape[0]
    eye = np.eye(dim)
    hm = dt * m
    hm2 = hm @ hm
    hm3 = hm2 @ hm
    r = eye + hm + hm2 / 2.0 + hm3 / 6.0 + (hm3 @ hm) / 24.0
    s = dt * (eye + hm / 2.0 + hm2 / 6.0 + hm3 / 24.0)
    return r, s


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=1) without numpy's per-row cost on short rows: the
    transposed copy is reduced along its long axis.  max is exact, so the
    order of reduction changes no bit; a NaN in a row gives NaN."""
    return np.ascontiguousarray(a.T).max(axis=0)


def _nan_max(a: float, b: float) -> float:
    """np.maximum of two floats: NaN when either is NaN."""
    return a if a >= b or a != a else b


def _then(first, second):
    """The factor `second` after `first`, both as (steps, R^steps - I,
    sum_{i<steps} R^i u)."""
    (n_a, d_a, p_a), (n_b, d_b, p_b) = first, second
    return n_a + n_b, d_b + d_a + d_b @ d_a, p_a + d_b @ p_a + p_b


def _extend(powers, n):
    """Extend powers, the 1, 2, 4, ... step maps (steps, R^steps - I,
    sum_{i<steps} R^i u) of one map, as far as n steps need: each entry is
    the one before after itself, in _then's order of operations.
    Doubling in the R^j - I form (R^j itself is never squared) keeps the
    small part of a near-identity step exact: plain doubling of R^j loses
    about ten times the accuracy of one-step-at-a-time products, which long
    slow runs accumulate."""
    while 1 << len(powers) <= n:
        steps, d, p = powers[-1]
        d2 = d + d
        d2 += d @ d
        p2 = d @ p
        p2 += p
        p2 += p
        powers.append((steps + steps, d2, p2))


def _norms(powers):
    """||R^steps||_inf of each power, as a list: one pass over their
    stacked maps."""
    count, dim = len(powers), len(powers[0][1])
    ends = np.array([d for _, d, _ in powers])
    ends.reshape(count, -1)[:, :: dim + 1] += 1.0  # R^steps of each power
    return _row_max(np.abs(ends, out=ends).sum(axis=2)).tolist()


def _stack(powers):
    """The norms ||R^steps||_inf of every power in powers (see _extend),
    which _block_maps reads, and the run's reach, from one pass over their
    stacked maps.

    A run from rest is at P_j = sum_{i<j} R^i u after j steps, and the
    reach bounds ||P_j||_inf for every j <= 2^len(powers), so for every
    step of the horizon the powers were extended to.  The pair (max(1, ||R||),
    ||u||) bounds (||R^j||_inf, ||P_j||_inf) for j <= 1.  A pair (r, q) for
    j <= h = 2^b doubles through the h-step power to one for j <= 2h, since
    R^(h+i) = R^i R^h and P_(h+i) = R^i P_h + P_i:
    (max(r, r ||R^h||), max(q, r ||P_h|| + q)), in Python floats, so a
    power whose norm is below 1 never shrinks the bound for the powers
    before it.  The reach is q one doubling past the last power; a NaN or
    inf reach certifies nothing.
    """
    end_r = _norms(powers)
    peak_p = _row_max(np.abs(np.array([p for _, _, p in powers]))).tolist()
    norm_r, reach = _nan_max(1.0, end_r[0]), peak_p[0]
    for e, q in zip(end_r, peak_p):
        norm_r, reach = _nan_max(norm_r, norm_r * e), _nan_max(reach, norm_r * q + reach)
    return end_r, reach


def _factors(powers, n):
    """The n-step map as binary factors, smallest first, one per set bit of
    n: (steps, R^steps - I, sum_{i<steps} R^i u), read from powers (see
    _extend), already extended as far as n needs."""
    return [powers[b] for b in range(n.bit_length()) if n >> b & 1]


def _block_maps(powers, count, norms=None):
    """The maps a block of states needs: powers up to the L-step map,
    L = min(_BLOCK, count) rounded down to a power of two, halved while a
    map up to it has an entry past 1e100 (strongly unstable maps), so a
    state within OVERFLOW_LIMIT never feeds an overflowing product.  An
    entry of R^steps - I is at most ||R^steps||_inf + 1, so only a map
    whose norm (as _stack gives them, formed here when not given) is past
    1e99 or NaN has its entries read.  Returns (maps, L)."""
    top = min(_BLOCK, count)
    _extend(powers, top)
    size = top.bit_length()
    if norms is None and size > 1:
        norms = _norms(powers[:size])
    for i in range(1, size):
        if not norms[i] <= 1e99 and not np.abs(powers[i][1]).max() <= 1e100:
            size = i
            break
    return powers[:size], 1 << (size - 1)


def _block(maps, start, count):
    """The next count states, one per row (count <= L = 2^(len(maps) - 1)).

    start is a state z: the block comes from z by doubling, state 1 through
    the one-step map, then states h+1..2h from states 1..h through the
    h-step map, about log2(count) products.  Or start is the last full
    block of L states: the next L come from it through the L-step map,
    Z' = Z + Z (R^L - I)^T + P_L, one product.  States after one past
    OVERFLOW_LIMIT may be inf or NaN; the caller keeps none of them.
    """
    if start.ndim == 2:
        return _through(maps[-1], start[:count])
    out = np.empty((count, len(start)))
    out[:1] = _through(maps[0], start[None])
    for b, factor in enumerate(maps[: (count - 1).bit_length()]):
        h = 1 << b
        out[h : 2 * h] = _through(factor, out[: min(h, count - h)])
    return out


def _through(factor, states):
    """Each row of states carried through the factor's map."""
    out = states @ factor[1].T
    out += states
    out += factor[2]
    return out


def _jump(factors, z):
    """The state the factors' steps after z: z carried through each
    factor's map in turn."""
    for _, d, p in factors:
        z = z + d @ z + p
    return z


def _auto_dt(ss: StateSpace, cfg: SolverConfig) -> float:
    """cfg.dt, or 0.1 / (g max gamma); 0 when that rate overflows, which
    simulate refuses as an endless horizon.  g is a normal float
    (SolverConfig) and gamma >= 1, so the rate cannot underflow to 0."""
    if cfg.dt > 0:
        return cfg.dt
    return 0.1 / (cfg.g * float(np.max(ss.gamma)))


def simulate(
    ss: StateSpace,
    cfg: SolverConfig,
    trace_decimation: Optional[int] = None,
    stability: Optional[StabilityReport] = None,
) -> SolveResult:
    """Integrate from the zero state and report the settled solution.

    Convergence is declared at the first time the residual
    ||b_hat - A_hat x||_inf stays at or below cfg.eps_residual for
    CONVERGENCE_WINDOW consecutive steps.  Every state the run forms comes
    from one block loop, _Run.walk, along one of three strides (see the
    module docstring).  Whether the run may skip states is decided once,
    before stepping: from rest the state at step j is sum_{i<j} R^i u, and
    when the run's reach (_stack), a norm bound on every such state of the
    horizon, is within OVERFLOW_LIMIT, none can pass it.  Then, at state
    dimension _SEARCH_DIM or more, the search stride forms only every
    _SAMPLE-th state until one is at or below eps, and the run steps
    exactly from the sample before it, where no window has been met, over
    _STRETCH steps and then searching again, or to the window; below
    _SEARCH_DIM it steps exactly from the start.  So t_converge is the first
    window's start, as when every step is taken, except where a sampled
    residual lies within rounding of eps: a sample's state comes from other
    products than the exact walk's, so its residual can read just above
    eps where the exact walk's is at it, and the window is then met one
    step later.  From the end of the block that met the window, x jumps
    straight to t_max through one power-of-two map per set bit of the
    remaining steps, so the cost follows the convergence time, not t_max.
    When the reach passes OVERFLOW_LIMIT (or
    is NaN) the whole horizon is stepped exactly instead.  Either way the
    exact stride's overflow scan keeps the overflow step exact.  The
    returned x is the state at t_max, which has settled further than the
    detection instant, unless a state magnitude exceeds OVERFLOW_LIMIT (or
    is not finite) first: the run then stops at that step and reports
    divergence.

    trace_decimation None forms no trace (result.trace is None); 0 keeps
    about 4096 evenly spaced steps and k > 0 every k-th step, plus the last
    step reached; a negative value raises ValueError.  x does not depend on
    it unless the reach passes OVERFLOW_LIMIT: the search and its stretches
    run the same way with or without a trace (whether the run searches
    reads the state dimension alone), and the grid stride walks the trace
    grid after the window.  A searched trace whose grid is not a multiple
    of _SAMPLE, such as the automatic one, carries each grid row before the
    window from the sample before it (_Run._keep), which can cost more than
    the samples save.  Raises, before stepping,
    StepBudgetExceeded when t_max / dt asks for more than _STEP_BUDGET
    steps or is not finite (a dt that underflows, or an auto step whose
    g * max gamma overflows to dt = 0), TraceBudgetExceeded when the
    trace's rows times (n_main + 3) pass _TRACE_BUDGET values, and
    StepMapOverflow when the RK4 step map R or its offset S f is not finite
    at this dt.  The stepping runs in one numpy error state, overflow and
    invalid ignored.
    """
    if trace_decimation is not None and trace_decimation < 0:
        raise ValueError("trace_decimation must be nonnegative (0 = auto)")
    dt = _auto_dt(ss, cfg)
    # inf when dt is 0 or t_max / dt overflows: no finite horizon fits
    horizon = float(np.ceil(cfg.t_max / dt)) if dt > 0 else math.inf
    if not horizon <= _STEP_BUDGET:
        raise StepBudgetExceeded(
            f"{horizon:.3g} RK4 steps (t_max / dt) exceed the step budget "
            f"of {_STEP_BUDGET:.0e}"
        )
    n_steps = max(CONVERGENCE_WINDOW + 1, int(horizon))
    dec = trace_decimation
    if dec is not None:
        dec = dec or max(1, n_steps // 4096)
        rows = n_steps // dec + 2  # the grid, its start and the last step
        if rows * (ss.n_main + 3) > _TRACE_BUDGET:
            raise TraceBudgetExceeded(
                f"a trace of {rows} rows of {ss.n_main + 3} values exceeds the "
                f"trace budget of {_TRACE_BUDGET} values; a larger "
                "trace_decimation keeps fewer rows"
            )
    with np.errstate(over="ignore", invalid="ignore"):
        return _integrate(ss, cfg, dt, n_steps, dec, stability)


class _Run:
    """The state of one simulate run: z at step k, the last
    CONVERGENCE_WINDOW residual flags, the convergence and overflow steps,
    settled = (z, k) at the end of the block that met the window, and a
    trace's kept rows, on the grid 0, dec, 2 dec, ... up to grid_end.
    Without a trace (dec None), kept is None, dec is 1 and grid_end 0.
    powers are the step map's power-of-two maps, extended to the horizon;
    norms are theirs and reach the run's, from one _stack pass."""

    def __init__(self, ss, eps, dt, n_steps, dec, powers):
        self.nm, self.a_hat_t, self.b_hat = ss.n_main, ss.a_hat.T, ss.b_hat
        self.eps, self.dt = eps, dt
        self.powers = powers
        self.norms, self.reach = _stack(powers)
        self.z, self.k = np.zeros(ss.m.shape[0]), 0
        start_res = float(np.abs(self.b_hat).max())
        self.recent = np.array([start_res <= eps], dtype=int)
        self.t_converge = self.overflow_at = self.settled = None
        self.kept, self.dec, self.grid_end = None, dec or 1, 0
        if dec is not None:
            self.grid_end = n_steps - n_steps % self.dec
            self.kept = np.zeros((self.grid_end // self.dec + 2, self.nm))
            self.kept_res = np.empty(len(self.kept))
            self.kept_res[0] = start_res

    def residuals(self, states):
        res = states[:, : self.nm] @ self.a_hat_t
        np.subtract(self.b_hat, res, out=res)
        return _row_max(np.abs(res, out=res))

    def walk(self, end, stride=None, search=False):
        """Advance (z, k) toward step end, one state per row, in blocks,
        along one of three strides: exactly, through the one-step powers;
        searching, every _SAMPLE-th state through the _SAMPLE-step power and
        those after it, in blocks of _SAMPLES; or along the trace grid,
        through the stride factor (steps, R^steps - I, P).  Only exact rows
        are scanned for overflow: the walk stops at the first state past
        OVERFLOW_LIMIT (a non-finite peak counts as past it), which records
        divergence.  The other two strides are walked only when the run's
        reach certifies every state of the horizon (_integrate), so they
        test no row.  The window is searched row by row only while stepping
        exactly; once it is first met the walk ends with that block or,
        traced, at the next grid step.  A search stops before its first row
        at or below eps and leaves recent = [0]: every window before it
        holds a sample above eps, so none is met, and the exact walk on from
        it finds the first one.  True when it stopped there; the caller
        ensures that the flag at k is above eps.  Every walk keeps the trace
        rows on the grid (_keep)."""
        powers, norms, cap = self.powers, self.norms, _BLOCK
        if search:
            first = _SAMPLE.bit_length() - 1  # the _SAMPLE-step power's index
            powers, norms, cap = powers[first:], norms[first:], _SAMPLES
        elif stride is not None:
            powers, norms = [stride], None
        exact = stride is None and not search
        step = powers[0][0]
        if self.overflow_at is not None or self.k + step > end:
            return False
        maps, size = _block_maps(powers, min(cap, (end - self.k) // step), norms)
        z, k, found = self.z, self.k, False
        states = z
        while k + step <= end:
            block = _block(maps, states, min(size, (end - k) // step))
            take = len(block)
            # a row past the limit, or NaN (which fails both comparisons)
            if exact and not (
                block.max() <= OVERFLOW_LIMIT and block.min() >= -OVERFLOW_LIMIT
            ):
                over = ~(_row_max(np.abs(block)) <= OVERFLOW_LIMIT)
                take = int(np.argmax(over)) + 1
                self.overflow_at = k + take * step
            states = block[:take]
            res = self.residuals(states)
            if search:
                below = np.flatnonzero(res <= self.eps)
                found = below.size > 0
                if found:
                    take = int(below[0])
                    states, res = states[:take], res[:take]
            elif self.t_converge is None:
                below = res <= self.eps
                flags = np.concatenate((self.recent, below))
                # every window ends in this block: none is met without a
                # flag in it
                if below.any():
                    win = CONVERGENCE_WINDOW + 1
                    sustained = np.convolve(flags, np.ones(win, int), "valid")
                    hits = np.flatnonzero(sustained == win)
                    if hits.size:
                        met = k + 1 - len(self.recent) + hits[0]
                        self.t_converge = float(met * self.dt)
                self.recent = flags[-CONVERGENCE_WINDOW:]
            if self.kept is not None:
                self._keep(z, k, step, states, res)
            if take:
                z = states[take - 1]
            k += take * step
            if self.overflow_at is not None or take < len(block):
                break
            if self.settled is None and self.t_converge is not None:
                self.settled = z, k
                end = min(end, k + -k % self.dec)
        self.z, self.k = z, k
        if search:
            self.recent = np.zeros(1, dtype=int)
        return found

    def _keep(self, z, k, step, states, res):
        """Keep the trace's grid rows in (k, k + len(states) step]: states
        are the rows step, 2 step, ... steps after z at step k, and res
        their residuals.  Where every grid row is one of them (step divides
        dec and k) they are taken with their residuals by basic slicing, so
        a block builds no index array.  Otherwise (a search's samples on a
        grid that is not a multiple of _SAMPLE) each is the row before it,
        z for the first, carried the remaining steps through the 1-, 2- and
        4-step maps, and its residual is formed."""
        dec = self.dec
        first, last = k - k % dec + dec, k + len(states) * step
        if first > last:
            return
        if dec % step == 0 == k % step:
            rows = slice(first // dec, last // dec + 1)
            on_grid = slice((first - k) // step - 1, None, dec // step)
            self.kept[rows] = states[on_grid, : self.nm]
            self.kept_res[rows] = res[on_grid]
            return
        steps = np.arange(first, last + 1, dec)
        off = steps - k
        rows = np.concatenate((z[None], states))[off // step]
        for b in range(step.bit_length() - 1):
            carried = np.flatnonzero(off >> b & 1)
            if carried.size:
                rows[carried] = _through(self.powers[b], rows[carried])
        self.kept[steps // dec] = rows[:, : self.nm]
        self.kept_res[steps // dec] = self.residuals(rows)


def _integrate(ss, cfg, dt, n_steps, dec, stability):
    """simulate past its argument checks, run in simulate's error state;
    dec is the trace's resolved decimation, or None for no trace."""
    r, s = _step_operators(ss.m, dt)
    u = s @ ss.f
    if not (np.isfinite(r).all() and np.isfinite(u).all()):
        raise StepMapOverflow(
            f"the RK4 step map at dt = {dt:.3e} s is not finite in float64"
        )
    powers = [(1, r - np.eye(len(r)), u)]  # the 1, 2, 4, ... step maps
    _extend(powers, n_steps)
    run = _Run(ss, cfg.eps_residual, dt, n_steps, dec, powers)

    # The run's one overflow decision.  From rest the state at step j is
    # P_j, and the reach bounds ||P_j||_inf for every step of the horizon:
    # within OVERFLOW_LIMIT, no state can pass it, so the search, the jump
    # and the grid stride skip states and test none.  Otherwise (or NaN)
    # every step is stepped exactly, and the exact stride's scan reports
    # divergence at its step.
    certified = run.reach <= OVERFLOW_LIMIT

    # To the window: from state dimension _SEARCH_DIM, sample every
    # _SAMPLE-th state while the flag at the run's step is above eps, step
    # exactly over _STRETCH steps from the sample before each one at or
    # below eps, and step exactly to the window from wherever the search
    # cannot go on (below _SEARCH_DIM, from the start).  The search and the
    # stretches do not depend on the trace, so neither does where the
    # window's block ends.
    while (
        certified
        and len(r) >= _SEARCH_DIM
        and run.t_converge is None
        and not run.recent[-1]
        and run.walk(n_steps, search=True)
    ):
        run.walk(min(run.k + _STRETCH, n_steps))
    # a stretch that met the window ends a trace's walk at its next grid step
    run.walk(n_steps if run.settled is None else min(n_steps, run.k + -run.k % run.dec))

    # Settled: x jumps from the window's block to t_max, and a trace walks
    # the grid stride from where the walk ended, one row per grid step.  The
    # jump starts where the window's block ends, whatever the grid, so x is
    # the same with or without a trace.  Uncertified, the rest of the
    # horizon is stepped exactly.
    if certified and run.overflow_at is None and run.settled is not None:
        z, k = run.settled
        jumped = _jump(_factors(powers, n_steps - k), z)
        if run.k < run.grid_end:
            run.walk(run.grid_end, reduce(_then, _factors(powers, run.dec)))
        run.z, run.k = jumped, n_steps
    else:
        run.walk(n_steps)

    z, k, nm = run.z, run.k, run.nm
    residual_inf = float(run.residuals(z[None])[0])
    converged = (
        run.overflow_at is None
        and run.t_converge is not None
        and residual_inf <= cfg.eps_residual
    )
    report = stability if stability is not None else stability_report(ss)
    diagnostics = ""
    if run.overflow_at is not None:
        diagnostics = (
            f"state magnitude exceeded {OVERFLOW_LIMIT:.0e} at "
            f"t = {run.overflow_at * dt:.3e} s; run truncated and reported as "
            "divergence"
        )
    elif not converged and not report.stable:
        diagnostics = (
            f"state matrix is unstable (max Re eig = {report.max_re_eig:.3e}); "
            "residual did not settle"
        )

    trace = None
    if run.kept is not None:
        dec = run.dec
        last = k // dec + (k % dec != 0)  # the last step reached is always kept
        run.kept[last] = z[:nm]
        run.kept_res[last] = residual_inf
        kept_steps = np.arange(last + 1) * dec
        kept_steps[-1] = k
        trace = Trace(
            t=kept_steps.astype(float) * dt,
            states=run.kept[: last + 1],
            residual_inf=run.kept_res[: last + 1],
        )
    return SolveResult(
        x=z[:nm].copy(),
        residual_inf=residual_inf,
        converged=bool(converged),
        t_converge=run.t_converge,
        stability=report,
        trace=trace,
        diagnostics=diagnostics,
    )


def _negated_ideal(ss: StateSpace) -> StateSpace:
    """ideal_system(-a, -b) from ss = ideal_system(a, b), bit for bit:
    gamma reads |a| alone, and m = d a and f = -d b are single products,
    whose rounding commutes with negation (signed zeros included)."""
    return StateSpace(-ss.m, -ss.f, ss.gamma, ss.n_main, -ss.a_hat, -ss.b_hat)


def _rungs(work, cfg, options):
    """Yield (tag, state space, plan or None) for each ladder rung in turn,
    each built only when the one before it is asked for: the working
    system's planned and negated rungs, then its Gram system's.  The
    negated rung is the planned circuit with its path signs swapped (in
    ideal mode, the planned state space negated)."""
    for system, negated in (("none", "negated"), ("gram", "gram-negated")):
        prob = work if system == "none" else _gram_problem(work)
        if cfg.mode is Mode.IDEAL:
            ss = ideal_system(prob.a, prob.b, cfg)
            yield system, ss, None
            yield negated, _negated_ideal(ss), None
            continue
        circuit = compile_plan(prob, options.r_in, options.quantizer)
        if options.memristor is not None:
            circuit = program_memristors(
                circuit, options.memristor, options.memristor_seed
            )
        yield system, build_system(circuit, cfg), circuit
        flipped = negated_plan(circuit)
        yield negated, build_system(flipped, cfg), flipped


def _gram_problem(p: LinearProblem) -> LinearProblem:
    """The normal equations A^T A x = A^T b of a validated problem.

    An internal fallback system: its right-hand side is synthetic and is
    deliberately not held to the hardware input window.  Only finiteness
    can fail: the products of finite entries may overflow, which raises
    ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = p.a.T @ p.a, p.a.T @ p.b
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("the normal equations A^T A x = A^T b overflow float64")
    return LinearProblem._unchecked(a, b)


def solve(
    p: LinearProblem,
    cfg: Optional[SolverConfig] = None,
    options: Optional[SolveOptions] = None,
) -> SolveResult:
    """Full pipeline: scale (optional), plan, stability gate, simulate, unscale.

    Walks the stability ladder (planned orientation, negated orientation,
    then the Gram system A^T A x = A^T b under the same two orientations)
    and simulates the first stable rung.  Each rung is built only when the
    one before it is unstable: the negated rung is the planned circuit with
    its path signs swapped (in ideal mode, the planned state space negated),
    and the Gram system is formed and compiled only after both direct rungs
    fail.  The scaled working problem and the Gram system come from arrays
    already validated, so neither is validated again.  The Gram rungs exist
    because saddle-spectrum matrices are stable in neither direct
    orientation; the exact normal equations admit a stable one, though a
    realized (quantized or programmed) Gram plan need not.  One gate
    decides each rung (_gate): a rung whose trace proves it unstable
    (_unstable_by_trace) is not eigensolved, nor is a direct rung whose
    scaled Gershgorin discs prove it stable (_stable_by_discs); either
    report forms max_re_eig when it is first read, by the result's reader
    or by the UnstableSystem message.  The Gram rungs' discs are not tried:
    a Gram system is reached only when both direct rungs are unstable, and
    its negated form is rarely row dominant (13 of 1 000 ideal-ladder draws
    at n 4 and 8).  Without scaling, the nonsingularity gate is
    _lu_factor's pivot test, decided without elimination for a row-dominant A
    (problem._dominance_certificate); it raises SingularMatrix and
    NormOverflow as _lu_factor does.  Raises UnstableSystem when every rung
    is unstable.
    """
    cfg = cfg or SolverConfig()
    options = options or SolveOptions()
    factor = 1.0
    work = p
    if options.scale is None:
        check_input_window(p.b)
        _check_nonsingular(p.a)
    else:
        # scaling checks the window and factors A for ||A^-1||_inf with the
        # same gate and tolerance
        sp = scale_problem(p)
        factor = sp.factor_scale
        work = LinearProblem._unchecked(sp.scaled_a, p.b)

    primary_plan: Optional[CircuitPlan] = None
    tried: list[tuple[str, StabilityReport]] = []
    for tag, ss, circuit in _rungs(work, cfg, options):
        if not tried:
            primary_plan = circuit
        report = _gate(ss, direct=not tag.startswith("gram"))
        tried.append((tag, report))
        if report.stable:
            res = simulate(ss, cfg, options.trace_decimation, stability=report)
            return dataclasses.replace(
                res, x=res.x * factor, fallback=tag, plan=primary_plan,
                scale_factor=factor,
            )

    summary = "; ".join(f"{tag}: max Re(eig) = {rep.max_re_eig:.3e}" for tag, rep in tried)
    raise UnstableSystem(f"no stable orientation found ({summary})")


def _single_path(circuit: CircuitPlan, row: int) -> tuple[float, float]:
    """(R_in, R_f) of a row's only feedback path."""
    (cols,) = np.nonzero(circuit.sign[row])
    if cols.size != 1:
        raise MultiPathRow(
            f"row {row} has {cols.size} feedback paths; AC analysis needs 1"
        )
    return float(circuit.r_in[row]), float(circuit.r_feedback[row, cols[0]])


def _exact(*values):
    """Each float as an exact Fraction.  fractions is imported here: it
    loads decimal, about 0.3 MB that a process which never asks for a
    transfer value need not hold."""
    from fractions import Fraction

    return [Fraction(v) for v in values]


def _to_float(value, what: str) -> float:
    """value rounded to float64, or TransferOutOfRange past its range."""
    try:
        return float(value)
    except OverflowError:
        raise TransferOutOfRange(f"{what} overflows float64") from None


def ac_response(
    circuit: CircuitPlan, row: int, cfg: SolverConfig, freq_hz: float
) -> complex:
    """Single-path transfer H(jw) = -(R_f/R_in) / (1 + jw (1 + R_f/R_in) / g).

    Formed in exact rationals from the floats g, 2 pi, freq_hz, R_in and
    R_f, and rounded once per part, so no product or ratio on the way can
    overflow; raises TransferOutOfRange when a part of H itself is past
    float64 (a DC gain R_f/R_in past 1.8e308), and ValueError for a
    frequency that is not finite.
    """
    _require_finite(freq_hz=freq_hz)
    g, two_pi, f, r_in, r_f = _exact(
        cfg.g, 2.0 * math.pi, freq_hz, *_single_path(circuit, row)
    )
    ratio = r_f / r_in
    x = two_pi * f * (1 + ratio) / g
    scale = ratio / (1 + x * x)
    what = f"the transfer of row {row} at {freq_hz:g} Hz"
    return complex(_to_float(-scale, what), _to_float(scale * x, what))


def bandwidth(circuit: CircuitPlan, row: int, cfg: SolverConfig) -> float:
    """3-dB bandwidth g R_in / (R_in + R_f) of a single-path row, in rad/s.

    Formed in exact rationals and rounded once, so R_f / R_in is never
    formed as a float, and the result is at most g.  Raises
    TransferOutOfRange when it falls below the smallest normal float64
    (a weight R_in/R_f below about 2e-308 / g).
    """
    r_in, r_f = _single_path(circuit, row)
    g, exact_in, exact_f = _exact(cfg.g, r_in, r_f)
    rad_s = float(g * exact_in / (exact_in + exact_f))
    if rad_s < sys.float_info.min:
        raise TransferOutOfRange(
            f"the single-path bandwidth of row {row} underflows float64 "
            f"(R_in = {r_in:.3e}, R_f = {r_f:.3e} ohm)"
        )
    return rad_s
