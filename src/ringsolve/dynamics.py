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
ladder: planned orientation, negated orientation, then the always-stable
normal-equations (Gram) system, and reports which rung produced the answer.
The negated rung is the planned circuit with its path signs swapped
(netlist.negated_plan), derived only when the planned rung is unstable; the
Gram system is formed only when both direct rungs are.

Integration is classical fixed-step 4th-order Runge-Kutta.  For a linear
system one RK4 step is the exact affine map z' = R z + u, so the engine
stacks powers of that map (built by doubling) and advances a block of
steps with one product.  simulate takes every step, in blocks, only until
the residual window is met.  From the end of that block x jumps to t_max:
the remaining m steps split into binary factors (a chain entry, then the
chain-length map doubled once per bit, about log2 m products), applied to
the state one after another.  A factor is applied only when a norm bound
certifies that no state along it passes OVERFLOW_LIMIT.  A trace, when
asked for, takes its rows from the trace grid with the dec-step map
(R^dec, sum_{i<dec} R^i u), one row per grid step, under the same kind of
certificate, and ends on the jumped x, so x does not depend on the trace.
Every stretch no certificate covers (the rest of the horizon when the jump
fails, the rest of the grid after the first uncertified row) is
block-stepped exactly, as before the window, so divergence is still
reported at the exact step.  This regroups the same arithmetic: results
agree with one-step-at-a-time stepping to rounding and are
byte-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import IO, Optional, Union

import numpy as np

from .netlist import (
    CircuitPlan,
    MemristorBank,
    PathSign,
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


class EigenFailure(RuntimeError):
    """The eigenvalue iteration did not converge."""


class MultiPathRow(ValueError):
    """AC analysis asked for a row with more than one feedback path."""


class UnstableSystem(RuntimeError):
    """No orientation (nor the Gram fallback, if enabled) is stable."""


class StateDimensionLimit(ValueError):
    """The state space exceeds what the dense eigenvalue check accepts."""


class StepBudgetExceeded(ValueError):
    """The horizon t_max / dt asks for more RK4 steps than the simulator takes."""


class Mode(Enum):
    IDEAL = "ideal"          # integrate b - A x directly, no netlist
    STRUCTURAL = "structural"  # full plan with summing nodes and inverters


@dataclass(frozen=True)
class SolverConfig:
    """Loop gains, convergence threshold, and integration horizon.

    k_vco is in Hz/V and k_pd in V per radian-equivalent; their product g is
    the loop rate constant in 1/s.  dt = 0 picks the step automatically as
    0.1 / (g * max_i gamma_i).
    """

    k_vco: float = 300e6
    k_pd: float = 1.0 / math.pi
    eps_residual: float = 1e-3
    t_max: float = 10e-6
    dt: float = 0.0
    mode: Mode = Mode.STRUCTURAL

    def __post_init__(self) -> None:
        for name in ("k_vco", "k_pd", "g", "eps_residual", "t_max", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.k_vco <= 0 or self.k_pd <= 0:
            raise ValueError("k_vco and k_pd must be positive")
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
    eig_method: str = "dense (numpy.linalg.eigvals)"


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
    state_labels: tuple[str, ...]
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
    """Pipeline options for solve()."""

    r_in: float = 2000.0
    quantizer: Optional[QuantizerSpec] = None
    memristor: Optional[MemristorBank] = None
    memristor_seed: int = 0
    scale: Optional[ScalePolicy] = None
    estimate_c: float = 1e3
    gram_fallback: bool = True
    # None forms no trace; 0 keeps about 4096 grid steps, k every k-th step
    trace_decimation: Optional[int] = None

    def __post_init__(self) -> None:
        if self.trace_decimation is not None and self.trace_decimation < 0:
            raise ValueError("trace_decimation must be nonnegative (0 = auto)")


def build_system(circuit: CircuitPlan, cfg: SolverConfig) -> StateSpace:
    """Assemble the structural state space of a compiled plan.

    Every inverter fed by source column j obeys dy/dt = -g (x_j + y)/2 from
    the same zero start, so all of them carry the same trajectory and share
    one lag state y_j; each row couples to it with its own realized weight.
    """
    n = circuit.n
    g = cfg.g
    sources = [
        path.col
        for row in circuit.paths
        for path in row
        if path.sign is PathSign.VIA_INVERTER
    ]
    inverted = sorted(set(sources))
    lag = {j: n + k for k, j in enumerate(inverted)}
    dim = n + len(inverted)

    gamma = np.ones(n)
    for i, row in enumerate(circuit.paths):
        gamma[i] += sum(path.realized_weight for path in row)

    m = np.zeros((dim, dim))
    f = np.zeros(dim)
    for i, row in enumerate(circuit.paths):
        coef = -g / gamma[i]
        f[i] = coef * circuit.b_compiled[i]
        for path in row:
            if path.sign is PathSign.DIRECT:
                m[i, path.col] += coef * path.realized_weight
            elif path.sign is PathSign.VIA_INVERTER:
                m[i, lag[path.col]] += coef * path.realized_weight
    for j, k in lag.items():
        m[k, j] = -g / 2.0
        m[k, k] = -g / 2.0

    labels = tuple(f"x{i}" for i in range(n)) + tuple(
        f"inv_col{j}" for j in inverted
    )
    a_hat, b_hat = realized_matrix(circuit)
    merged = -g / 2.0 if len(sources) > len(inverted) else None
    return StateSpace(m, f, gamma, labels, n, a_hat, b_hat, merged)


def ideal_system(
    a: np.ndarray, b: np.ndarray, cfg: SolverConfig
) -> StateSpace:
    """State space of the netlist-free model dx/dt = -g D (b - A x)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    gamma = 1.0 + np.abs(a).sum(axis=1)
    d = cfg.g / gamma
    return StateSpace(
        m=d[:, None] * a,
        f=-d * b,
        gamma=gamma,
        state_labels=tuple(f"x{i}" for i in range(n)),
        n_main=n,
        a_hat=a,
        b_hat=b,
    )


def stability_report(ss: StateSpace) -> StabilityReport:
    """Largest real part of the spectrum, merged inverter modes included."""
    dim = ss.m.shape[0]
    if dim > _EIG_DIM_LIMIT:
        raise StateDimensionLimit(
            f"state dimension {dim} exceeds {_EIG_DIM_LIMIT}"
        )
    try:
        eig = np.linalg.eigvals(ss.m)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    max_re = float(eig.real.max())
    if ss.merged_mode is not None:
        max_re = max(max_re, ss.merged_mode)
    return StabilityReport(max_re_eig=max_re, stable=max_re < 0.0)


def _step_operators(m: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 on dz/dt = m z + f collapses to z' = R z + S f."""
    dim = m.shape[0]
    eye = np.eye(dim)
    hm = dt * m
    hm2 = hm @ hm
    hm3 = hm2 @ hm
    r = eye + hm + hm2 / 2.0 + hm3 / 6.0 + (hm3 @ hm) / 24.0
    s = dt * (eye + hm / 2.0 + hm2 / 6.0 + hm3 / 24.0)
    return r, s


def _power_chain(d, u, length):
    """Stacked powers of the affine map z -> (I + d) z + u, for block stepping.

    deltas[j] = (I + d)^(j+1) - I and prefix[j] = sum_{i<=j} (I + d)^i u, so
    the next j+1 states after z are z + deltas[:j+1] @ z + prefix[:j+1], one
    stacked product.  Built by doubling: the first L entries give the next L
    through (I + d_L)(I + d_j) = I + d_L + d_j + d_L d_j and
    prefix[L+j] = prefix[L-1] + deltas[j] prefix[L-1] + prefix[j], about
    log2(length) stacked products.  Carrying R^j - I rather than R^j keeps
    the small part of a near-identity step exact: plain doubling of R^j
    loses about ten times the accuracy of one-step-at-a-time products,
    which long slow runs accumulate.  The chain ends at its first entry past
    1e100 (strongly unstable maps), so no product overflows and the caller
    steps in shorter blocks.
    """
    dim = d.shape[0]
    deltas = np.empty((length, dim, dim))
    prefix = np.empty((length, dim))
    deltas[0] = d
    prefix[0] = u
    have = 1
    while have < length and np.abs(deltas[have - 1]).max() <= 1e100:
        new = min(have, length - have)
        fresh = deltas[have : have + new]
        np.matmul(deltas[have - 1], deltas[:new], out=fresh)
        fresh += deltas[:new]
        fresh += deltas[have - 1]
        fresh_p = prefix[have : have + new]
        np.matmul(deltas[:new], prefix[have - 1], out=fresh_p)
        fresh_p += prefix[have - 1]
        fresh_p += prefix[:new]
        peak = np.maximum(fresh.max(axis=(1, 2)), -fresh.min(axis=(1, 2)))
        over = np.flatnonzero(peak > 1e100)
        have += int(over[0]) + 1 if over.size else new
        if over.size:
            break
    return deltas[:have], prefix[:have]


def _advance(deltas, prefix, z, count):
    """The next count states after z from a chain: one matrix-vector product
    over the stacked powers (count <= chain length)."""
    dim = len(z)
    step = (deltas[:count].reshape(-1, dim) @ z).reshape(count, dim)
    return z + step + prefix[:count]


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


def _factors(deltas, prefix, n):
    """The n-step map of a chain as binary factors, smallest first.

    Each factor is (steps, R^steps - I, sum_{i<steps} R^i u, norm_r, norm_p)
    with norm_r >= ||R^j||_inf and norm_p >= ||sum_{i<j} R^i u||_inf for
    every j <= steps, so no state along a factor applied to z exceeds
    norm_r ||z||_inf + norm_p.  The factors are the (n mod L)-step chain
    entry, then the L-step entry doubled with _compose (the R^j - I form the
    chain is built in; R^j itself is never squared) once per bit of n // L:
    about log2(n / L) products.  A chain entry's norm_r is the product of
    max(1, ||R^(2^b)||_inf) over the chain's power-of-two entries 2^b <= j,
    which bounds every power up to j without a pass over the whole chain.
    Non-finite bounds fail every certificate.
    """
    length = len(deltas)
    with np.errstate(over="ignore", invalid="ignore"):
        pow2 = np.abs(
            deltas[(1 << np.arange(length.bit_length())) - 1] + np.eye(deltas.shape[1])
        ).sum(axis=2).max(axis=1)
        pow2 = np.maximum(pow2, 1.0)

        def entry(j):
            norm_r = np.prod(pow2[: j.bit_length()])
            norm_p = np.abs(prefix[:j]).max()
            return j, deltas[j - 1].copy(), prefix[j - 1].copy(), norm_r, norm_p

        whole, rest = divmod(n, length)
        factors = [entry(rest)] if rest else []
        factor = entry(length) if whole else None
        while whole:
            if whole & 1:
                factors.append(factor)
            whole >>= 1
            if whole:
                factor = _then(factor, factor)
    return factors


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


def _block_size(dim: int) -> int:
    return max(8, min(1024, (1 << 18) // (dim * dim)))


def _auto_dt(ss: StateSpace, cfg: SolverConfig) -> float:
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
    CONVERGENCE_WINDOW consecutive steps.  Every step is taken until then;
    from the end of the block that met the window, x jumps straight to t_max
    through about log2 of the remaining steps composed maps (see the module
    docstring), so the cost follows the convergence time, not t_max.  Where
    the jump's overflow certificate fails, the rest of the horizon is
    block-stepped exactly instead.  The returned x is the state at t_max,
    which has settled further than the detection instant, unless a state
    magnitude exceeds OVERFLOW_LIMIT first: the run then stops there and
    reports divergence.

    trace_decimation None forms no trace (result.trace is None); 0 keeps
    about 4096 evenly spaced steps and k > 0 every k-th step, plus the last
    step reached; a negative value raises ValueError.  x does not depend on
    it unless the jump's overflow certificate fails.  Raises
    StepBudgetExceeded, before stepping, when t_max / dt asks for more than
    _STEP_BUDGET steps.
    """
    if trace_decimation is not None and trace_decimation < 0:
        raise ValueError("trace_decimation must be nonnegative (0 = auto)")
    dt = _auto_dt(ss, cfg)
    n_steps = max(CONVERGENCE_WINDOW + 1, int(math.ceil(cfg.t_max / dt)))
    if n_steps > _STEP_BUDGET:
        raise StepBudgetExceeded(
            f"{n_steps:.3g} RK4 steps (t_max / dt) exceed the step budget "
            f"of {_STEP_BUDGET:.0e}"
        )
    r, s = _step_operators(ss.m, dt)
    step_map = r - np.eye(len(r)), s @ ss.f
    dim = ss.m.shape[0]
    nm = ss.n_main
    a_hat_t = ss.a_hat.T
    b_hat = ss.b_hat
    eps = cfg.eps_residual

    def residuals(states):
        return np.abs(b_hat - states[:, :nm] @ a_hat_t).max(axis=1)

    # A trace keeps steps 0, dec, 2 dec, ... (the grid), then the last step.
    traced = trace_decimation is not None
    start_res = float(np.abs(b_hat).max())
    if traced:
        dec = trace_decimation or max(1, n_steps // 4096)
        grid_end = n_steps - n_steps % dec
        kept = np.zeros((grid_end // dec + 2, nm))
        kept_res = np.empty(len(kept))
        kept_res[0] = start_res

    chain = _power_chain(*step_map, min(_block_size(dim), n_steps))
    win = CONVERGENCE_WINDOW + 1
    recent = np.array([start_res <= eps], dtype=int)  # last win-1 flags
    t_converge: Optional[float] = None
    overflow_at: Optional[int] = None
    settled = None  # (z, k) at the end of the block that met the window

    def step_to(z, k, end):
        """Every step from (z, k) to end, in blocks of the step chain, keeping
        the grid rows of a trace.  Stops at the first state past
        OVERFLOW_LIMIT and, once the window is first met, at the end of that
        block (traced: at the next grid step)."""
        nonlocal recent, t_converge, overflow_at, settled
        deltas, prefix = chain
        while k < end:
            take = min(len(deltas), end - k)
            states = _advance(deltas, prefix, z, take)
            peaks = np.abs(states).max(axis=1)
            if peaks.max() > OVERFLOW_LIMIT:
                take = int(np.argmax(peaks > OVERFLOW_LIMIT)) + 1
                states = states[:take]
                overflow_at = k + take
            res = residuals(states)
            if t_converge is None:
                flags = np.concatenate((recent, res <= eps))
                sustained = np.convolve(flags, np.ones(win, int), "valid")
                hits = np.flatnonzero(sustained == win)
                if hits.size:
                    t_converge = float((k + 1 - len(recent) + hits[0]) * dt)
                recent = flags[1 - win :]
            if traced:
                skip = -(k + 1) % dec  # states[skip] is the block's first grid step
                row = (k + 1 + skip) // dec
                on_grid = states[skip::dec, :nm]
                kept[row : row + len(on_grid)] = on_grid
                kept_res[row : row + len(on_grid)] = res[skip::dec]
            z = states[-1]
            k += take
            if overflow_at is not None:
                break
            if settled is None and t_converge is not None:
                settled = z, k
                end = min(end, k + -k % dec) if traced else k
        return z, k

    z, k = step_to(np.zeros(dim), 0, n_steps)

    # Settled: x jumps from the window's block to t_max, certified factor by
    # factor.  The start does not depend on the grid, so x is the same with
    # or without a trace.
    jumped = None
    if overflow_at is None and settled is not None and settled[1] < n_steps:
        left = n_steps - settled[1]
        jumped, steps = _jump(_factors(*chain, left), settled[0])
        if steps < left:
            jumped = None

    if traced and overflow_at is None and k < grid_end:
        # Trace rows: the dec-step map gives one row per stacked product, as
        # far as its certificate says no state along it can pass
        # OVERFLOW_LIMIT.
        with np.errstate(over="ignore", invalid="ignore"):
            _, stride_d, stride_p, norm_r, norm_p = reduce(
                _then, _factors(*chain, dec)
            )
        row, last_row = k // dec, grid_end // dec
        chain = None  # one chain alive at a time
        deltas, prefix = _power_chain(
            stride_d, stride_p, min(_block_size(dim), last_row - row)
        )
        while row < last_row:
            take = min(len(deltas), last_row - row)
            states = _advance(deltas, prefix, z, take)
            peaks = np.abs(states).max(axis=1)
            before = np.concatenate(([np.abs(z).max()], peaks[:-1]))
            safe = norm_r * before + norm_p <= OVERFLOW_LIMIT
            good = take if safe.all() else int(np.argmin(safe))
            kept[row + 1 : row + 1 + good] = states[:good, :nm]
            kept_res[row + 1 : row + 1 + good] = residuals(states[:good])
            row += good
            if good:
                z = states[good - 1]
            if good < take:
                break
        del deltas, prefix
        k = row * dec

    # Whatever no certificate covered is stepped exactly: the rest of the
    # horizon when the jump failed, the rest of the grid when the stride
    # walk stopped early.
    end = n_steps if jumped is None else grid_end if traced else k
    if overflow_at is None and k < end:
        if chain is None:  # the stride chain replaced it
            chain = _power_chain(*step_map, min(_block_size(dim), end - k))
        z, k = step_to(z, k, end)
    if jumped is not None and overflow_at is None:
        z, k = jumped, n_steps

    residual_inf = float(residuals(z[None])[0])
    converged = (
        overflow_at is None
        and t_converge is not None
        and residual_inf <= eps
    )
    report = stability if stability is not None else stability_report(ss)
    diagnostics = ""
    if overflow_at is not None:
        diagnostics = (
            f"state magnitude exceeded {OVERFLOW_LIMIT:.0e} at "
            f"t = {overflow_at * dt:.3e} s; run truncated and reported as "
            "divergence"
        )
    elif not converged and not report.stable:
        diagnostics = (
            f"state matrix is unstable (max Re eig = {report.max_re_eig:.3e}); "
            "residual did not settle"
        )

    trace = None
    if traced:
        last = k // dec + (k % dec != 0)  # the last step reached is always kept
        kept[last] = z[:nm]
        kept_res[last] = residual_inf
        kept_steps = np.arange(last + 1) * dec
        kept_steps[-1] = k
        trace = Trace(
            t=kept_steps.astype(float) * dt,
            states=kept[: last + 1],
            residual_inf=kept_res[: last + 1],
        )
    return SolveResult(
        x=z[:nm].copy(),
        residual_inf=residual_inf,
        converged=bool(converged),
        t_converge=t_converge,
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


def _ideal_attempts(prob, cfg, _options):
    yield "", ideal_system(prob.a, prob.b, cfg), None
    yield "negated", ideal_system(-prob.a, -prob.b, cfg), None


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
    its path signs swapped, and the Gram system is formed and compiled only
    after both direct rungs fail.  The Gram rungs exist because
    saddle-spectrum matrices are stable in neither direct orientation; the
    normal equations always admit a stable one.  Raises UnstableSystem when
    every permitted rung is unstable.
    """
    cfg = cfg or SolverConfig()
    options = options or SolveOptions()
    check_input_window(p.b)
    factor = 1.0
    work = p
    if options.scale is None:
        _lu_factor(p.a)  # nonsingularity gate; raises SingularMatrix
    else:
        # scaling factors A for ||A^-1||_inf with the same gate and tolerance
        sp = scale_problem(p, options.scale, options.estimate_c)
        factor = sp.factor_scale
        work = LinearProblem(sp.scaled_a, p.b, symmetric=p.symmetric)

    attempts = _structural_attempts if cfg.mode is Mode.STRUCTURAL else _ideal_attempts

    def systems():
        yield "", work
        if options.gram_fallback:
            # Internal fallback system; its right-hand side is synthetic and
            # is deliberately not held to the hardware input window.
            yield "gram", LinearProblem(
                work.a.T @ work.a, work.a.T @ work.b, symmetric=True
            )

    primary_plan: Optional[CircuitPlan] = None
    reports: list[tuple[str, StabilityReport]] = []
    for system_tag, prob in systems():
        for orient_tag, ss, circuit in attempts(prob, cfg, options):
            tag = "-".join(t for t in (system_tag, orient_tag) if t) or "none"
            if primary_plan is None and circuit is not None:
                primary_plan = circuit
            report = stability_report(ss)
            reports.append((tag, report))
            if not report.stable:
                continue
            res = simulate(ss, cfg, options.trace_decimation, stability=report)
            return SolveResult(
                x=res.x * factor,
                residual_inf=res.residual_inf,
                converged=res.converged,
                t_converge=res.t_converge,
                stability=report,
                trace=res.trace,
                fallback=tag,
                diagnostics=res.diagnostics,
                plan=primary_plan,
                scale_factor=factor,
            )

    summary = "; ".join(
        f"{tag}: max Re(eig) = {rep.max_re_eig:.3e}" for tag, rep in reports
    )
    raise UnstableSystem(f"no stable orientation found ({summary})")


def _single_path(circuit: CircuitPlan, row: int):
    paths = [
        path
        for path in circuit.paths[row]
        if path.sign is not PathSign.DISCONNECTED
    ]
    if len(paths) != 1:
        raise MultiPathRow(
            f"row {row} has {len(paths)} feedback paths; AC analysis needs 1"
        )
    return paths[0]


def ac_response(
    circuit: CircuitPlan, row: int, cfg: SolverConfig, freq_hz: float
) -> complex:
    """Single-path transfer H(jw) = -(R_f/R_in) / (1 + jw (1 + R_f/R_in) / g)."""
    path = _single_path(circuit, row)
    ratio = path.r_feedback / circuit.r_in[row]
    omega = 2.0 * math.pi * freq_hz
    return -ratio / (1.0 + 1j * omega * (1.0 + ratio) / cfg.g)


def bandwidth(circuit: CircuitPlan, row: int, cfg: SolverConfig) -> float:
    """3-dB bandwidth g / (1 + R_f/R_in) of a single-path row, in rad/s."""
    path = _single_path(circuit, row)
    ratio = path.r_feedback / circuit.r_in[row]
    return cfg.g / (1.0 + ratio)


def probe_single_path_gain(
    circuit: CircuitPlan,
    row: int,
    cfg: SolverConfig,
    freq_hz: float,
    settle_periods: float = 10.0,
    measure_periods: int = 4,
) -> float:
    """Numerically measured gain magnitude of a single-path system.

    Drives the structural state space with b(t) = sin(w t) through an RK4
    integration (the sinusoid rides along as an augmented undamped
    oscillator pair, so the whole run reuses the linear stepper) and fits
    the steady-state output against the quadrature pair.  This is the
    independent check of ac_response: no transfer-function algebra is used.
    """
    ss = build_system(circuit, cfg)
    _single_path(circuit, row)
    dim = ss.m.shape[0]
    omega = 2.0 * math.pi * freq_hz

    drive = np.zeros(dim)
    drive[row] = -cfg.g / ss.gamma[row]  # node coupling of a unit input
    m_aug = np.zeros((dim + 2, dim + 2))
    m_aug[:dim, :dim] = ss.m
    m_aug[:dim, dim + 1] = drive  # input = s(t)
    m_aug[dim, dim + 1] = -omega  # dc/dt = -w s
    m_aug[dim + 1, dim] = omega   # ds/dt =  w c

    pole = abs(float(np.linalg.eigvals(ss.m).real.max()))
    settle_t = settle_periods / pole
    period = 1.0 / freq_hz
    total_t = settle_t + measure_periods * period
    dt = min(0.5 / cfg.g, period / 256.0)  # |eig(m)| <= g keeps RK4 stable
    n_steps = int(math.ceil(total_t / dt))

    z = np.zeros(dim + 2)
    z[dim] = 1.0  # cosine state starts at 1 so s(t) = sin(w t)
    r, _ = _step_operators(m_aug, dt)
    deltas, prefix = _power_chain(
        r - np.eye(dim + 2), np.zeros(dim + 2), min(_block_size(dim + 2), n_steps)
    )
    series = np.empty((n_steps, 3))
    for k in range(0, n_steps, len(deltas)):
        states = _advance(deltas, prefix, z, min(len(deltas), n_steps - k))
        series[k : k + len(states)] = states[:, [row, dim, dim + 1]]
        z = states[-1]

    start = int(settle_t / dt)
    x = series[start:, 0]
    c = series[start:, 1]
    s = series[start:, 2]
    basis = np.column_stack([s, c])
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return float(np.hypot(coef[0], coef[1]))
