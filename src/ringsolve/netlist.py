"""Compile a linear problem into the integrator feedback network.

Each matrix coefficient becomes one feedback resistor from an integrator
output back to a summing node: a negative coefficient a < 0 is a direct path
with R_f = -R_in / a, a positive one routes through an inverting stage with
R_f = R_in / a, and a zero coefficient leaves the path disconnected.  When
positive entries outnumber negative ones the whole system (matrix and input)
is negated first so the cheaper direct paths dominate; the solution is
unchanged.  Optional stages model the binary-weighted programmable resistor
ladder (with switch on-resistance) and memristive replacements with a seeded
write-noise model.

A plan is n x n arrays, one entry per coefficient: the path sign, the
realized weight R_in / R_f, R_f and the ladder or memristor code.  Compiling,
negating, programming and reading back a plan are whole-array expressions.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .problem import LinearProblem, _require_finite

DEFAULT_R_IN = 2000.0
DEFAULT_R_UNIT = 1000.0

# Memristor write resolution: devices settle on a 256-level conductance grid.
MEMRISTOR_LEVELS = 256


class NonFiniteEntry(ValueError):
    """A coefficient handed to the compiler is NaN or infinite."""


class OutOfRange(ValueError):
    """A target coefficient exceeds what the resistor ladder can realize."""


class TargetOutOfDeviceRange(ValueError):
    """A target conductance falls outside the memristor device window."""


class PathSign(Enum):
    DIRECT = "direct"            # realizes a negative coefficient
    VIA_INVERTER = "via-inverter"  # realizes a positive coefficient
    DISCONNECTED = "disconnected"  # zero coefficient, no branch


# the plan document's name for each value of CircuitPlan.sign
_PATH_SIGNS = {-1: PathSign.DIRECT, 1: PathSign.VIA_INVERTER, 0: PathSign.DISCONNECTED}


class CountScheme(Enum):
    BEFORE_REUSE = "before-reuse"
    AFTER_REUSE = "after-reuse"
    MIMO_SYMMETRIC = "mimo-symmetric"


@dataclass(frozen=True)
class QuantizerSpec:
    """Binary-weighted poly-resistor ladder parameters.

    The always-on branch has resistance r_unit; bit k adds a branch of
    r_unit / 2^k.  With ideal switches the realizable magnitudes are
    (1 + code) * r_in / r_unit for code in [0, 2^bits - 1]; a nonzero switch
    on-resistance r_on lowers every realized magnitude.  The step and the
    top magnitude 2^bits * step must be finite.
    """

    bits: int
    r_unit: float = DEFAULT_R_UNIT
    r_in: float = DEFAULT_R_IN
    r_on: float = 0.0

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 16:
            raise ValueError(f"bits must be in [1, 16], got {self.bits}")
        _require_finite(r_in=self.r_in, r_unit=self.r_unit, r_on=self.r_on)
        if self.r_in <= 0 or self.r_unit <= 0:
            raise ValueError("r_in and r_unit must be positive")
        if self.r_on < 0:
            raise ValueError("r_on must be nonnegative")
        # a subnormal r_unit is finite and positive, but its ladder is not
        if not math.isfinite((1 << self.bits) * self.step):
            raise ValueError(
                f"r_in / r_unit = {self.r_in:g} / {self.r_unit:g} overflows "
                f"the {self.bits}-bit ladder"
            )

    @property
    def step(self) -> float:
        """Ideal magnitude step r_in / r_unit between adjacent codes."""
        return self.r_in / self.r_unit


@dataclass(frozen=True)
class MemristorBank:
    """Programmable-conductance devices standing in for feedback resistors.

    Devices accept conductances in [g_min, g_max] siemens; a write lands on
    a MEMRISTOR_LEVELS-point linear grid over that window after a relative
    gaussian error of standard deviation write_noise_sigma.  A programmed
    plan holds each path's state as its grid code: g_min + code * step.
    """

    g_min: float = 1e-6
    g_max: float = 1e-2
    write_noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(
            g_min=self.g_min, g_max=self.g_max,
            write_noise_sigma=self.write_noise_sigma,
        )
        if not 0 <= self.g_min < self.g_max:
            raise ValueError("need 0 <= g_min < g_max")
        if self.write_noise_sigma < 0:
            raise ValueError("write_noise_sigma must be nonnegative")

    @property
    def step(self) -> float:
        return (self.g_max - self.g_min) / (MEMRISTOR_LEVELS - 1)


@dataclass(frozen=True)
class CircuitPlan:
    """A compiled netlist: resistances, sign paths, and the integrator census.

    The plan is n x n arrays, one entry per matrix coefficient, all
    read-only: ``sign`` is -1 for a direct path, +1 for a path through an
    inverter and 0 when disconnected; ``weight`` is the realized R_in / R_f
    (0 where disconnected); ``r_feedback`` is R_f in ohms (inf where
    disconnected); ``code`` is the ladder or memristor grid code (-1 where
    there is none).  ``b_compiled`` is the input vector actually applied
    (negated along with the matrix when ``negated`` is set, so the solution
    is unchanged).  The after-reuse bound inverter_count <= floor(n^2 / 2)
    holds for compiled plans; the derived negated plan may exceed it.
    """

    n: int
    r_in: np.ndarray
    sign: np.ndarray
    weight: np.ndarray
    r_feedback: np.ndarray
    code: np.ndarray
    b_compiled: np.ndarray
    negated: bool
    quantizer: Optional[QuantizerSpec] = None
    memristors: Optional[MemristorBank] = None

    def __post_init__(self) -> None:
        for name, dtype in (
            ("r_in", float), ("sign", np.int8), ("weight", float),
            ("r_feedback", float), ("code", np.int64), ("b_compiled", float),
        ):
            value = np.array(getattr(self, name), dtype=dtype)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def inverter_count(self) -> int:
        """Paths through an inverter: one per positive compiled entry."""
        return int(np.count_nonzero(self.sign > 0))

    @property
    def main_integrators(self) -> int:
        return self.n

    @property
    def total_integrators(self) -> int:
        return self.n + self.inverter_count


def integrator_count(n: int, scheme: CountScheme) -> int:
    """Integrators needed for an n x n system under the given scheme."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if scheme is CountScheme.BEFORE_REUSE:
        return n * n + n
    if scheme is CountScheme.AFTER_REUSE:
        return n * n // 2 + n
    if scheme is CountScheme.MIMO_SYMMETRIC:
        return (n * n + n) // 4 + n
    raise ValueError(f"unknown scheme {scheme!r}")  # pragma: no cover


def _ladder(
    magnitude: np.ndarray, q: QuantizerSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The ladder law on an array of magnitudes: (codes, realized magnitudes).

    Each magnitude is rounded (half up) to the nearest code.  With ideal
    switches code k realizes (1 + k) * step; with r_on > 0 the realized
    magnitude is r_in * sum(1 / (R_branch + r_on)) over the always-on branch
    and the set bits, added in bit order, and is strictly below the ideal
    value.  Raises OutOfRange, naming the first such entry in row-major
    order, when a magnitude exceeds the top code's ideal magnitude by more
    than half a step.
    """
    step = q.step
    top = (1 << q.bits) * step
    over = np.flatnonzero(magnitude > top + step / 2)
    if over.size:
        raise OutOfRange(
            f"|target| = {magnitude.flat[over[0]]:.6g} exceeds ladder maximum "
            f"{top:.6g} (bits={q.bits}, step={step:.6g})"
        )
    code = np.clip(
        np.floor(magnitude / step - 1.0 + 0.5), 0, (1 << q.bits) - 1
    ).astype(np.int64)
    if q.r_on == 0.0:
        return code, (1 + code) * step
    conductance = np.full(magnitude.shape, 1.0 / (q.r_unit + q.r_on))  # always-on
    for bit in range(q.bits):
        branch = 1.0 / (q.r_unit / (1 << bit) + q.r_on)
        conductance += np.where(code >> bit & 1, branch, 0.0)
    return code, q.r_in * conductance


def quantize_entry(
    target: float, q: QuantizerSpec
) -> tuple[Optional[int], float]:
    """Map a coefficient onto the ladder, returning (code, realized value).

    A zero target means a disconnected path: (None, 0.0).  Otherwise the
    code and magnitude follow the ladder law ``plan`` applies, and the
    realized value carries the target's sign.  Raises OutOfRange when
    |target| exceeds the top code's ideal magnitude by more than half a step.
    """
    if not np.isfinite(target):
        raise NonFiniteEntry(f"target {target!r} is not finite")
    if target == 0.0:
        return None, 0.0
    code, realized = _ladder(np.array([abs(target)], dtype=float), q)
    return int(code[0]), math.copysign(float(realized[0]), target)


def plan(
    p: LinearProblem,
    r_in_default: float = DEFAULT_R_IN,
    quantizer: Optional[QuantizerSpec] = None,
) -> CircuitPlan:
    """Compile a problem into a circuit plan.

    Sign census first: the system is negated whenever positive entries
    strictly outnumber negative ones (ties keep the caller's orientation),
    which keeps the inverter count at min(p+, p-).  Each compiled entry's
    sign picks its path, and its magnitude (on the ladder, if a quantizer is
    attached) is the realized weight; with no quantizer the realized
    coefficients equal the compiled matrix exactly.
    """
    if r_in_default <= 0:
        raise ValueError("r_in_default must be positive")
    if quantizer is not None and quantizer.r_in != r_in_default:
        raise ValueError(
            f"quantizer r_in ({quantizer.r_in}) must match the plan input "
            f"resistance ({r_in_default})"
        )

    positives = int(np.count_nonzero(p.a > 0))
    negatives = int(np.count_nonzero(p.a < 0))
    negated = positives > negatives
    compiled = -p.a if negated else p.a
    connected = compiled != 0.0
    weight = np.abs(compiled)
    code = np.full(weight.shape, -1)
    if quantizer is not None:
        ladder_code, ladder_weight = _ladder(weight, quantizer)
        code = np.where(connected, ladder_code, -1)
        weight = np.where(connected, ladder_weight, 0.0)
    # a subnormal weight makes R_f overflow to inf: the state space reads
    # only the weights, and plan_to_dict refuses such a path
    with np.errstate(over="ignore"):
        r_feedback = np.divide(
            float(r_in_default), weight, out=np.full(weight.shape, np.inf),
            where=connected,
        )
    return CircuitPlan(
        n=p.n,
        r_in=np.full(p.n, float(r_in_default)),
        sign=np.sign(compiled),
        weight=weight,
        r_feedback=r_feedback,
        code=code,
        b_compiled=-p.b if negated else p.b,
        negated=negated,
        quantizer=quantizer,
    )


def negated_plan(circuit: CircuitPlan) -> CircuitPlan:
    """The same circuit in the opposite orientation.

    Negating the whole system only swaps which connected paths run through
    an inverter: resistances, ladder codes and realized weights depend on
    |entry| alone, and memristor writes are drawn from 1/R_f in row-major
    order over the same paths.  So the result equals compiling the negated
    problem (and programming it with the same bank and seed).
    """
    return dataclasses.replace(
        circuit,
        sign=-circuit.sign,
        b_compiled=-circuit.b_compiled,
        negated=not circuit.negated,
    )


def program_memristors(
    circuit: CircuitPlan, bank: MemristorBank, rng_seed: int
) -> CircuitPlan:
    """Replace feedback resistors with programmed memristors.

    Target conductances 1/R_f get a seeded relative write error of standard
    deviation bank.write_noise_sigma (drawn in row-major path order, so runs
    with the same seed reproduce bit-exactly), then snap to the device's
    write grid.  Returns a new plan; the input plan is untouched.
    """
    connected = circuit.sign != 0
    # an R_f that underflowed to 0 (or is subnormal) asks for an infinite
    # conductance, which the range check below refuses
    with np.errstate(divide="ignore", over="ignore"):
        targets = 1.0 / circuit.r_feedback[connected]  # row-major
    if targets.size and (targets.min() < bank.g_min or targets.max() > bank.g_max):
        raise TargetOutOfDeviceRange(
            f"target conductances span [{targets.min():.3e}, "
            f"{targets.max():.3e}] S but devices accept "
            f"[{bank.g_min:.3e}, {bank.g_max:.3e}] S"
        )

    rng = np.random.default_rng(rng_seed)
    # a write noise near the float64 limit overflows to an infinite write,
    # whose code saturates at an end of the grid
    with np.errstate(over="ignore"):
        noise = rng.standard_normal(targets.size) * bank.write_noise_sigma
        written = targets * (1.0 + noise)
        codes = np.clip(
            np.floor((written - bank.g_min) / bank.step + 0.5),
            0,
            MEMRISTOR_LEVELS - 1,
        ).astype(int)

    grid = np.full((circuit.n, circuit.n), np.nan)
    grid[connected] = bank.g_min + codes * bank.step
    code = np.full((circuit.n, circuit.n), -1)
    code[connected] = codes
    return dataclasses.replace(
        circuit,
        weight=np.where(connected, circuit.r_in[:, None] * grid, 0.0),
        r_feedback=np.where(connected, 1.0 / grid, np.inf),
        code=code,
        memristors=bank,
    )


def realized_matrix(circuit: CircuitPlan) -> tuple[np.ndarray, np.ndarray]:
    """Recover the (matrix, input) pair the plan actually realizes.

    Direct paths contribute -weight, inverter paths +weight; the global
    negation is undone so the result is in the caller's orientation.  With
    no quantizer or memristors attached this round-trips the compiled
    problem exactly.
    """
    a_hat = circuit.sign * circuit.weight
    if circuit.negated:
        return -a_hat, -circuit.b_compiled
    return a_hat, np.array(circuit.b_compiled)


def plan_to_dict(circuit: CircuitPlan) -> dict:
    """JSON-ready plan dump for the command-line front end.  Raises
    ValueError, naming the first such path in row-major order, when a
    connected path's R_f is not finite (a subnormal coefficient)."""
    bad = np.argwhere((circuit.sign != 0) & ~np.isfinite(circuit.r_feedback))
    if bad.size:
        i, j = bad[0].tolist()
        raise ValueError(
            f"path ({i}, {j}): R_f = {circuit.r_in[i]:g} ohm / "
            f"{circuit.weight[i, j]:.6g} overflows float64"
        )
    paths = [
        {
            "row": i,
            "col": j,
            "sign": _PATH_SIGNS[s].value,
            "r_feedback_ohms": r if s else None,
            "code": c if c >= 0 else None,
            "realized_weight": w,
        }
        for i, row in enumerate(zip(
            circuit.sign.tolist(), circuit.r_feedback.tolist(),
            circuit.code.tolist(), circuit.weight.tolist(),
        ))
        for j, (s, r, c, w) in enumerate(zip(*row))
    ]
    return {
        "n": circuit.n,
        "negated": circuit.negated,
        "r_in_ohms": circuit.r_in.tolist(),
        "paths": paths,
        "census": {
            "main_integrators": circuit.main_integrators,
            "inverters": circuit.inverter_count,
            "total_integrators": circuit.total_integrators,
        },
        "quantizer_bits": circuit.quantizer.bits if circuit.quantizer else None,
        "memristor": circuit.memristors is not None,
    }
