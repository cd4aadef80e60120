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
the products are finite).  A rung whose trace exceeds a small margin has
an eigenvalue in the right half-plane, so the ladder skips its eigensolve
(_unstable_by_trace); in ideal mode that is one of the two direct rungs and
the planned Gram rung, while a structural state matrix never has a positive
trace.  The report of a skipped rung is formed only for the UnstableSystem
message.

Integration is classical fixed-step 4th-order Runge-Kutta.  For a linear
system one RK4 step is the exact affine map z' = R z + u, kept as
(R - I, u); doubling it in one loop gives the 2^b-step maps (R^(2^b) - I,
sum_{i<2^b} R^i u).  Norm bounds on every state along a map are formed only
where a certificate reads them (the jump and the trace stride), for all the
maps in one pass over their stack.  The engine steps in blocks of L states,
one per row: the first block after a state comes from it by doubling
(states h+1..2h from states 1..h through the h-step map), and each later
block from the one before through the L-step map,
Z' = Z + Z (R^L - I)^T + P_L, one matrix product.  simulate
takes every step, in blocks, only until the residual window is met.  From
the end of that block x jumps to t_max: the remaining m steps split into
the power-of-two maps of m's set bits, applied to the state one after
another.  A factor is applied only when its bound certifies that no state
along it passes OVERFLOW_LIMIT.  A trace, when asked for, takes its rows
from the trace grid with the dec-step map composed from the same maps,
in blocks of its own, under the same kind of certificate per row, and ends
on the jumped x, so x does not depend on the trace.  Every stretch no
certificate covers (the rest of the horizon when the jump fails, the rest
of the grid after the first uncertified row) is block-stepped exactly, as
before the window, so divergence is still reported at the exact step.
One loop forms every block, _Run.walk: it advances the run's explicit
state (z, the step, the window flags, the convergence and overflow steps,
the kept trace rows) through the one-step map or the dec-step map, so a
run is a walk to the window, the jump, a walk along the grid and an exact
walk over whatever no certificate covered.  Row peaks (the overflow scan,
the residuals, the stride certificate) are reduced from a transposed copy
(_row_max), since numpy reduces short rows one at a time; a block's
overflow scan looks at rows only when the whole block's max or min fails.
simulate holds one numpy error-state context (overflow and invalid
ignored) for its whole run; the stepping helpers (_step_operators, _extend,
_factors, _then, _block, _jump, _Run.walk) enter none, so any other caller
sets its own.  This regroups the same arithmetic: results
agree with one-step-at-a-time stepping to rounding and are
byte-deterministic.
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
    _lu_factor,
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

# States per block: the stepper keeps the last _BLOCK states and forms the
# next _BLOCK from them with one matrix product.  Longer blocks take fewer
# products per step but form more states past the block that meets the
# window; a dense n = 20 solve settles in about 1.4-1.9 k steps.
_BLOCK = 512


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


class StepMapOverflow(ValueError):
    """The RK4 step map at this dt is not finite in float64."""


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


@dataclass(frozen=True)
class StabilityReport:
    max_re_eig: float
    stable: bool


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
    """Pipeline options for solve().  r_in and estimate_c must be finite,
    r_in positive, and estimate_c positive under the ESTIMATE policy, the
    only one that reads it.  memristor_seed must be nonnegative when a
    memristor bank is attached, the only case that reads it.  solve()
    always walks all four ladder rungs."""

    r_in: float = 2000.0
    quantizer: Optional[QuantizerSpec] = None
    memristor: Optional[MemristorBank] = None
    memristor_seed: int = 0
    scale: Optional[ScalePolicy] = None
    estimate_c: float = 1e3
    # None forms no trace; 0 keeps about 4096 grid steps, k every k-th step
    trace_decimation: Optional[int] = None

    def __post_init__(self) -> None:
        _require_finite(r_in=self.r_in, estimate_c=self.estimate_c)
        if self.r_in <= 0:
            raise ValueError(f"r_in must be positive, got {self.r_in}")
        if self.memristor is not None and self.memristor_seed < 0:
            raise ValueError(
                f"memristor_seed must be nonnegative, got {self.memristor_seed}"
            )
        if self.scale is ScalePolicy.ESTIMATE and self.estimate_c <= 0:
            raise ValueError("estimate_c must be positive")
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
    rung still reaches eigvals.  The state-dimension cap is checked first,
    as stability_report does.
    """
    _check_eig_dim(m)
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(m.trace() > 1e-9 * len(m) * np.abs(m).max())


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


def _compose(later, earlier):
    """The affine map `later` after `earlier`, both as (R - I, offset)."""
    (d_a, p_a), (d_b, p_b) = later, earlier
    return d_a + d_b + d_a @ d_b, p_b + d_a @ p_b + p_a


def _then(first, second):
    """The factor `second` after `first`, with bounds for every state along
    both.  A state j <= n_b steps into `second` is R^j (R^(n_a) z + P_a) + P_j,
    so the exact end map of `first` (||R^(n_a)||, ||P_a||) carries into the
    bounds of `second`: norm_r = max(r_a, r_b ||R^(n_a)||) and
    norm_p = max(q_a, r_b ||P_a|| + q_b).  np.maximum keeps a NaN bound."""
    n_a, d_a, p_a, r_a, q_a = first
    n_b, d_b, p_b, r_b, q_b = second
    end_r = np.abs(d_a + np.eye(len(d_a))).sum(axis=1).max()
    d, p = _compose((d_b, p_b), (d_a, p_a))
    norm_r = np.maximum(r_a, r_b * end_r)
    norm_p = np.maximum(q_a, r_b * np.abs(p_a).max() + q_b)
    return n_a + n_b, d, p, norm_r, norm_p


def _extend(powers, n):
    """Extend powers, the 1, 2, 4, ... step maps (steps, R^steps - I,
    sum_{i<steps} R^i u) of one map, as far as n steps need: each entry is
    the one before after itself, in _compose's order of operations.
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


def _nan_max(a: float, b: float) -> float:
    """np.maximum of two floats: NaN when either is NaN."""
    return a if a >= b or a != a else b


def _factors(powers, n):
    """The n-step map as binary factors, smallest first, one per set bit of n.

    powers holds the 1, 2, 4, ... step maps of one map (see _extend) and is
    extended here as far as n needs.  Each factor is (steps, R^steps - I,
    sum_{i<steps} R^i u, norm_r, norm_p) with norm_r >= ||R^j||_inf and
    norm_p >= ||sum_{i<j} R^i u||_inf for every j <= steps, so no state
    along a factor applied to z exceeds norm_r ||z||_inf + norm_p.  The
    bounds are those of the one-step factor, (max(1, ||R||), ||u||), each
    doubled as _then doubles a factor with itself: ||R^steps|| and ||P|| of
    every power come from one pass over the stacked maps, then the scalar
    recurrence runs in Python floats (the same IEEE products and sums as
    _then, _nan_max for np.maximum).  Non-finite bounds fail every
    certificate.
    """
    _extend(powers, n)
    count = n.bit_length()
    maps = powers[:count]
    dim = len(maps[0][1])
    ends = np.array([d for _, d, _ in maps])
    ends.reshape(count, -1)[:, :: dim + 1] += 1.0  # R^steps of each power
    end_r = _row_max(np.abs(ends, out=ends).sum(axis=2)).tolist()
    peak_p = _row_max(np.abs(np.array([p for _, _, p in maps]))).tolist()
    norm_r, norm_p = _nan_max(1.0, end_r[0]), peak_p[0]
    bounds = [(norm_r, norm_p)]
    for e, q in zip(end_r[:-1], peak_p[:-1]):
        norm_r, norm_p = (
            _nan_max(norm_r, norm_r * e), _nan_max(norm_p, norm_r * q + norm_p)
        )
        bounds.append((norm_r, norm_p))
    return [(*maps[b], *bounds[b]) for b in range(count) if n >> b & 1]


def _block_maps(powers, count):
    """The maps a block of states needs: powers up to the L-step map,
    L = min(_BLOCK, count) rounded down to a power of two, halved while a
    map up to it has an entry past 1e100 (strongly unstable maps), so a
    state within OVERFLOW_LIMIT never feeds an overflowing product.
    Returns (maps, L)."""
    top = min(_BLOCK, count)
    _extend(powers, top)
    size = top.bit_length()
    if size > 1:
        peaks = _row_max(
            np.abs(np.array([d for _, d, _ in powers[1:size]])).reshape(size - 1, -1)
        )
        over = ~(peaks <= 1e100)
        if over.any():
            size = 1 + int(np.argmax(over))
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
    """Apply the factors to z in turn, each only when its bounds certify on
    the running state that no state along it passes OVERFLOW_LIMIT; stop at
    the first that fails: (z, steps advanced)."""
    steps = 0
    for count, d, p, norm_r, norm_p in factors:
        if not norm_r * np.abs(z).max() + norm_p <= OVERFLOW_LIMIT:
            break
        z = z + d @ z + p
        steps += count
    return z, steps


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
    CONVERGENCE_WINDOW consecutive steps.  Every step is taken until then,
    in blocks of up to _BLOCK states (each formed from the block before
    with one product, by _Run.walk; see the module docstring).  A block's
    residuals are row peaks taken with _row_max, and its window search runs
    only when one of them is at or below eps; its overflow scan looks at rows only
    when the block's max or min is past +-OVERFLOW_LIMIT or NaN, so the
    overflow step stays exact.  The power-of-two maps carry no bounds while
    stepping: _factors forms them, in one pass, for the jump and the trace
    stride, the only certificates that read them.  From the end of the
    block that met the window, x jumps straight to t_max through one
    power-of-two map per set bit of the remaining steps, so the cost
    follows the convergence time, not t_max.  Where the jump's overflow
    certificate fails, the rest of the horizon is block-stepped exactly
    instead.  The returned x is the state at t_max, which has settled
    further than the detection instant, unless a state magnitude exceeds
    OVERFLOW_LIMIT (or is not finite) first: the run then stops at that
    step and reports divergence.

    trace_decimation None forms no trace (result.trace is None); 0 keeps
    about 4096 evenly spaced steps and k > 0 every k-th step, plus the last
    step reached; a negative value raises ValueError.  x does not depend on
    it unless the jump's overflow certificate fails.  Raises, before
    stepping, StepBudgetExceeded when t_max / dt asks for more than
    _STEP_BUDGET steps or is not finite (a dt that underflows, or an auto
    step whose g * max gamma overflows to dt = 0), and StepMapOverflow when
    the RK4 step map R or its offset S f is not finite at this dt.  The
    stepping runs in one numpy error state, overflow and invalid ignored.
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
    with np.errstate(over="ignore", invalid="ignore"):
        return _integrate(ss, cfg, dt, n_steps, trace_decimation, stability)


class _Run:
    """The state of one simulate run: z at step k, the last
    CONVERGENCE_WINDOW residual flags, the convergence and overflow steps,
    settled = (z, k) at the end of the block that met the window, and a
    trace's kept rows, on the grid 0, dec, 2 dec, ... up to grid_end.
    Without a trace, kept is None, dec is 1 and grid_end 0."""

    def __init__(self, ss, eps, dt, n_steps, trace_decimation):
        self.nm, self.a_hat_t, self.b_hat = ss.n_main, ss.a_hat.T, ss.b_hat
        self.eps, self.dt = eps, dt
        self.z, self.k = np.zeros(ss.m.shape[0]), 0
        start_res = float(np.abs(self.b_hat).max())
        self.recent = np.array([start_res <= eps], dtype=int)
        self.t_converge = self.overflow_at = self.settled = None
        self.kept, self.dec, self.grid_end = None, 1, 0
        if trace_decimation is not None:
            self.dec = trace_decimation or max(1, n_steps // 4096)
            self.grid_end = n_steps - n_steps % self.dec
            self.kept = np.zeros((self.grid_end // self.dec + 2, self.nm))
            self.kept_res = np.empty(len(self.kept))
            self.kept_res[0] = start_res

    def residuals(self, states):
        res = states[:, : self.nm] @ self.a_hat_t
        np.subtract(self.b_hat, res, out=res)
        return _row_max(np.abs(res, out=res))

    def walk(self, powers, stride, end, bounds=None):
        """Advance (z, k) toward step end, one state per row, through the
        stride-step map whose 1, 2, 4, ... powers are given, in blocks;
        keep the trace rows on the grid.  Rows stop at the first state past
        OVERFLOW_LIMIT (a non-finite peak counts as past it), which records
        divergence; or, with the map's bounds (norm_r, norm_p), before the
        first row they do not certify.  The window is searched row by row,
        so only while stepping exactly (stride 1); once it is first met the
        walk ends with that block, or traced, at the next grid step."""
        if self.overflow_at is not None or self.k >= end:
            return
        maps, size = _block_maps(powers, (end - self.k) // stride)
        z, k, dec = self.z, self.k, self.dec
        states = z
        while k < end:
            block = _block(maps, states, min(size, (end - k) // stride))
            take = len(block)
            if bounds is not None:
                peaks = _row_max(np.abs(block))
                before = np.concatenate(([np.abs(z).max()], peaks[:-1]))
                safe = bounds[0] * before + bounds[1] <= OVERFLOW_LIMIT
                take = take if safe.all() else int(np.argmin(safe))
            # a row past the limit, or NaN (which fails both comparisons)
            elif not (
                block.max() <= OVERFLOW_LIMIT and block.min() >= -OVERFLOW_LIMIT
            ):
                over = ~(_row_max(np.abs(block)) <= OVERFLOW_LIMIT)
                take = int(np.argmax(over)) + 1
                self.overflow_at = k + take * stride
            states = block[:take]
            res = self.residuals(states)
            if self.t_converge is None:
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
                first = -(k + stride) % dec // stride  # the block's first grid row
                row = (k + stride * (first + 1)) // dec
                on_grid = states[first :: dec // stride, : self.nm]
                self.kept[row : row + len(on_grid)] = on_grid
                self.kept_res[row : row + len(on_grid)] = res[first :: dec // stride]
            if take:
                z = states[-1]
            k += take * stride
            if self.overflow_at is not None or take < len(block):
                break
            if self.settled is None and self.t_converge is not None:
                self.settled = z, k
                end = min(end, k + -k % dec)
        self.z, self.k = z, k


def _integrate(ss, cfg, dt, n_steps, trace_decimation, stability):
    """simulate past its argument checks, run in simulate's error state."""
    r, s = _step_operators(ss.m, dt)
    u = s @ ss.f
    if not (np.isfinite(r).all() and np.isfinite(u).all()):
        raise StepMapOverflow(
            f"the RK4 step map at dt = {dt:.3e} s is not finite in float64"
        )
    powers = [(1, r - np.eye(len(r)), u)]  # the 1, 2, 4, ... step maps
    run = _Run(ss, cfg.eps_residual, dt, n_steps, trace_decimation)
    run.walk(powers, 1, n_steps)

    # Settled: x jumps from the window's block to t_max, certified factor by
    # factor.  The start does not depend on the grid, so x is the same with
    # or without a trace.
    jumped = None
    if run.overflow_at is None and run.settled is not None and run.settled[1] < n_steps:
        left = n_steps - run.settled[1]
        jumped, steps = _jump(_factors(powers, left), run.settled[0])
        if steps < left:
            jumped = None

    # Trace rows: the dec-step map, one row per grid step, as far as its
    # certificate says no state along it can pass OVERFLOW_LIMIT.
    if run.overflow_at is None and run.k < run.grid_end:
        stride = reduce(_then, _factors(powers, run.dec))
        run.walk([stride[:3]], run.dec, run.grid_end, stride[3:])

    # Whatever no certificate covered is stepped exactly: the rest of the
    # horizon when the jump failed, the rest of the grid when the stride
    # walk stopped early.
    run.walk(powers, 1, n_steps if jumped is None else run.grid_end)
    if jumped is not None and run.overflow_at is None:
        run.z, run.k = jumped, n_steps

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


def _structural_attempts(prob, cfg, options):
    """Yield (tag_suffix, state space, plan): the planned circuit, then the
    same circuit with its path signs swapped, derived only on request."""
    circuit = compile_plan(prob, options.r_in, options.quantizer)
    if options.memristor is not None:
        circuit = program_memristors(
            circuit, options.memristor, options.memristor_seed
        )
    yield "", build_system(circuit, cfg), circuit
    flipped = negated_plan(circuit)
    yield "negated", build_system(flipped, cfg), flipped


def _negated_ideal(ss: StateSpace) -> StateSpace:
    """ideal_system(-a, -b) from ss = ideal_system(a, b), bit for bit:
    gamma reads |a| alone, and m = d a and f = -d b are single products,
    whose rounding commutes with negation (signed zeros included)."""
    return StateSpace(-ss.m, -ss.f, ss.gamma, ss.n_main, -ss.a_hat, -ss.b_hat)


def _ideal_attempts(prob, cfg, _options):
    """Yield (tag_suffix, state space, None): the ideal system, then the
    same state space negated, derived only on request."""
    ss = ideal_system(prob.a, prob.b, cfg)
    yield "", ss, None
    yield "negated", _negated_ideal(ss), None


def _gram_problem(p: LinearProblem) -> LinearProblem:
    """The normal equations A^T A x = A^T b of a validated problem.

    An internal fallback system: its right-hand side is synthetic and is
    deliberately not held to the hardware input window.  Only finiteness
    can fail: the products of finite entries may overflow, which raises
    ValueError.  A.T @ A is symmetric bit for bit, as numpy forms it by a
    symmetric rank-k update.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = p.a.T @ p.a, p.a.T @ p.b
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("the normal equations A^T A x = A^T b overflow float64")
    return LinearProblem._unchecked(a, b, symmetric=True)


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
    realized (quantized or programmed) Gram plan need not.  A rung whose
    trace proves it unstable is not eigensolved (_unstable_by_trace).
    Raises UnstableSystem when every rung is unstable.
    """
    cfg = cfg or SolverConfig()
    options = options or SolveOptions()
    factor = 1.0
    work = p
    if options.scale is None:
        check_input_window(p.b)
        _lu_factor(p.a)  # nonsingularity gate; raises SingularMatrix
    else:
        # scaling checks the window and factors A for ||A^-1||_inf with the
        # same gate and tolerance
        sp = scale_problem(p, options.scale, options.estimate_c)
        factor = sp.factor_scale
        work = LinearProblem._unchecked(sp.scaled_a, p.b, p.symmetric)

    attempts = _structural_attempts if cfg.mode is Mode.STRUCTURAL else _ideal_attempts

    def systems():
        yield "", work
        yield "gram", _gram_problem(work)

    primary_plan: Optional[CircuitPlan] = None
    # (tag, state space, report); None where the trace showed the rung unstable
    tried: list[tuple[str, StateSpace, Optional[StabilityReport]]] = []
    for system_tag, prob in systems():
        for orient_tag, ss, circuit in attempts(prob, cfg, options):
            tag = "-".join(t for t in (system_tag, orient_tag) if t) or "none"
            if primary_plan is None and circuit is not None:
                primary_plan = circuit
            report = None if _unstable_by_trace(ss.m) else stability_report(ss)
            tried.append((tag, ss, report))
            if report is None or not report.stable:
                continue
            res = simulate(ss, cfg, options.trace_decimation, stability=report)
            return dataclasses.replace(
                res, x=res.x * factor, fallback=tag, plan=primary_plan,
                scale_factor=factor,
            )

    summary = "; ".join(
        f"{tag}: max Re(eig) = {(rep or stability_report(ss)).max_re_eig:.3e}"
        for tag, ss, rep in tried
    )
    raise UnstableSystem(f"no stable orientation found ({summary})")


def _single_path(circuit: CircuitPlan, row: int) -> float:
    """R_f / R_in of a row's only feedback path."""
    (cols,) = np.nonzero(circuit.sign[row])
    if cols.size != 1:
        raise MultiPathRow(
            f"row {row} has {cols.size} feedback paths; AC analysis needs 1"
        )
    return circuit.r_feedback[row, cols[0]] / circuit.r_in[row]


def ac_response(
    circuit: CircuitPlan, row: int, cfg: SolverConfig, freq_hz: float
) -> complex:
    """Single-path transfer H(jw) = -(R_f/R_in) / (1 + jw (1 + R_f/R_in) / g)."""
    ratio = _single_path(circuit, row)
    omega = 2.0 * math.pi * freq_hz
    return -ratio / (1.0 + 1j * omega * (1.0 + ratio) / cfg.g)


def bandwidth(circuit: CircuitPlan, row: int, cfg: SolverConfig) -> float:
    """3-dB bandwidth g / (1 + R_f/R_in) of a single-path row, in rad/s."""
    ratio = _single_path(circuit, row)
    return cfg.g / (1.0 + ratio)
