"""Linear problem representation, range-safety scaling, and a direct solver.

The analog solver accepts input voltages only inside [-0.5, 0.5] V, and its
node outputs must stay inside the same window.  Scaling the system matrix by
a factor no smaller than the infinity norm of its inverse guarantees the
outputs respect the window whenever the inputs do; this module computes the
norms, the condition number, and the scaled problem, and provides an exact
partial-pivot elimination solver used everywhere as the verification oracle.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import IO, Optional, Union

import numpy as np

# Hardware input/output window, volts.
RANGE_LIMIT = 0.5

# A pivot below PIVOT_RTOL * ||A||_inf is treated as singular.  The solver
# dynamics have no equilibrium for singular systems, so this is a hard error.
PIVOT_RTOL = 1e-12

# Default heuristic condition-number budget for ScalePolicy.ESTIMATE.
DEFAULT_ESTIMATE_C = 1e3


class SingularMatrix(Exception):
    """Elimination met a pivot below the singularity tolerance."""


class NormOverflow(ValueError):
    """||A||_inf is not finite in float64, so no pivot tolerance exists, or
    ||A^-1||_inf is not."""


class RangeViolation(ValueError):
    """An input vector entry falls outside the [-0.5, 0.5] V window."""


def _require_finite(**values: float) -> None:
    """Refuse a NaN or infinite scalar argument by its name."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class ScalePolicy(Enum):
    """How the scaling factor is chosen.

    EXACT uses max(||A^-1||_inf, 1), which provably keeps the solution inside
    the output window.  ESTIMATE uses C / ||A||_inf, trusting a
    condition-number budget C that holds for typical well-conditioned
    matrices.  scale_problem forms the exact inverse under both, for the
    reported norms and condition number.
    """

    EXACT = "exact"
    ESTIMATE = "estimate"


@dataclass(frozen=True)
class LinearProblem:
    """A dense square system A x = b.

    ``a`` is dimensionless, ``b`` is in volts.  Arrays are copied and frozen
    so problems can be shared freely across threads.
    """

    a: np.ndarray
    b: np.ndarray
    symmetric: bool = False

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float).reshape(-1)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("dimension must be at least 1")
        if b.shape[0] != a.shape[0]:
            raise ValueError(
                f"right-hand side has length {b.shape[0]}, expected {a.shape[0]}"
            )
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("matrix and right-hand side entries must be finite")
        if self.symmetric and not np.array_equal(a, a.T):
            raise ValueError("symmetric flag set but matrix is not symmetric")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def _unchecked(
        cls, a: np.ndarray, b: np.ndarray, symmetric: bool = False
    ) -> "LinearProblem":
        """A problem from float arrays its caller has already checked: a
        square and finite, b finite and of matching length, a symmetric if
        the flag says so.  No copy is made and __post_init__ does not run;
        the arrays are frozen in place."""
        a.setflags(write=False)
        b.setflags(write=False)
        p = object.__new__(cls)
        object.__setattr__(p, "a", a)
        object.__setattr__(p, "b", b)
        object.__setattr__(p, "symmetric", symmetric)
        return p

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class ScaledProblem:
    """A problem together with its range-safe scaling.

    Built by scale_problem, which freezes ``scaled_a`` in place.
    ``scaled_a = original.a * factor_scale``; solving ``scaled_a @ y = b``
    and multiplying y by ``factor_scale`` recovers the original solution.
    Under ScalePolicy.EXACT the factor satisfies
    ``factor_scale >= a_inv_inf_norm`` so that max|y| <= 0.5 whenever
    max|b| <= 0.5; under ESTIMATE that guarantee holds only when the true
    condition number stays below the configured budget.
    """

    original: LinearProblem
    scaled_a: np.ndarray
    factor_scale: float
    a_inf_norm: float
    a_inv_inf_norm: float
    kappa_inf: float


def inf_norm(a: np.ndarray) -> float:
    """Maximum absolute row sum.  O(n^2)."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return float(np.abs(a).sum(axis=1).max())


def _finite_inf_norm(a: np.ndarray) -> float:
    """inf_norm(a), raising NormOverflow when the row sums overflow."""
    with np.errstate(over="ignore"):
        norm = inf_norm(a)
    if not np.isfinite(norm):
        raise NormOverflow(f"||A||_inf = {norm} is not finite in float64")
    return norm


def _lu_factor(
    a: np.ndarray, rhs: Optional[np.ndarray] = None, a_norm: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray]:
    """LU factorization with partial pivoting, carrying right-hand sides.

    Returns (lu, perm) where lu[:, :n] packs the unit-lower and upper
    factors and perm maps logical rows to original rows.  The columns of
    rhs (a vector or an n-row matrix), if given, ride along as lu[:, n:]:
    every row swap and multiplier is applied to them too, so they leave as
    L^-1 P rhs, the forward substitution done, and _back_substitute
    finishes the solve.  The pivot search and its tolerance read A's
    columns only.  Raises SingularMatrix when the best available pivot
    falls below PIVOT_RTOL * ||A||_inf, and NormOverflow when ||A||_inf is
    not finite.  a_norm, if given, is ||A||_inf as _finite_inf_norm formed
    it, and is not formed again.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    tol = PIVOT_RTOL * (_finite_inf_norm(a) if a_norm is None else a_norm)
    if tol == 0.0:
        raise SingularMatrix("zero matrix")
    if rhs is None:
        lu = a.copy()
    else:
        lu = np.concatenate((a, np.asarray(rhs, dtype=float).reshape(n, -1)), axis=1)
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) < tol:
            raise SingularMatrix(
                f"pivot {lu[p, k]:.3e} below tolerance {tol:.3e} at column {k}"
            )
        if p != k:
            row = lu[k].copy()
            lu[k] = lu[p]
            lu[p] = row
            perm[k], perm[p] = perm[p], perm[k]
        lu[k + 1 :, k] /= lu[k, k]
        if k + 1 < n:
            lu[k + 1 :, k + 1 :] -= lu[k + 1 :, k, None] * lu[k, k + 1 :]
    return lu, perm


# Largest n the dominance certificate tries: its growth bound 2^(n-1) keeps
# it from passing long before this (about n = 35), and 2.0**(n - 1) stays
# finite.
_DOMINANCE_MAX_N = 64


def _dominance_certificate(a: np.ndarray, a_norm: float) -> bool:
    """True when row dominance proves that _lu_factor(a, a_norm=a_norm)
    passes its pivot gate; False when it cannot, proving nothing.

    a is finite and a_norm = ||A||_inf as _finite_inf_norm formed it.  The
    computed partial factorization after k steps is exact for P(A + dA),
    with the computed Schur complement S_k as the trailing block and
    |dA| <= gamma_n (|L||U| + |S_k|) plus one underflow unit per product
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, Thm 9.3).
    Partial pivoting keeps |L| <= 1 and the entries within 2^(n-1) max|a_ij|,
    so ||dA||_inf <= beta = 2 gamma_n n^2 2^(n-1) max|a_ij| + n^2 2^-1074.
    S_k^-1 is a block of (P(A + dA))^-1, so the pivot, the largest entry of
    S_k's first column, is at least 1/||(A + dA)^-1||_inf, and Varah's bound
    (Linear Algebra Appl. 11, 1975) puts that at or above mu - beta, where
    mu = min_i(|a_ii| - off_i) is A's dominance margin.  mu is formed from
    off_i = rowsum_i - |a_ii| (no 2|a_ii| to overflow) and lowered by the
    row sums' rounding, 2 gamma_n rowsum_i.  The pivot test compares with
    PIVOT_RTOL a_norm; asking for 1.01 times that covers the rounding of
    the comparison itself, and a tolerance below the smallest normal float
    (a zero matrix among them, which _lu_factor refuses by name) is never
    certified, so underflow in the bounds cannot eat that slack.
    """
    n = a.shape[0]
    tol = PIVOT_RTOL * a_norm  # as _lu_factor forms it
    if n > _DOMINANCE_MAX_N or not tol >= sys.float_info.min:
        return False
    absa = np.abs(a)
    rows = absa.sum(axis=1)
    diag = absa.diagonal()
    unit = 2.0**-53
    gamma = n * unit / (1.0 - n * unit)
    margin = float((diag - (rows - diag) - 2.0 * gamma * rows).min())
    if not margin > 0.0:
        return False
    # Python floats: an overflowing bound is inf, with no warning
    beta = 2.0 * gamma * n * n * 2.0 ** (n - 1) * float(absa.max()) + n * n * 2.0**-1074
    return margin - beta > 1.01 * tol


def _check_nonsingular(a: np.ndarray) -> None:
    """The nonsingularity gate: raises what _lu_factor(a) raises
    (NormOverflow, SingularMatrix with the same text) and nothing else.
    ||A||_inf is formed first, so NormOverflow comes first as before; A is
    factored only when _dominance_certificate cannot decide."""
    a_norm = _finite_inf_norm(a)
    if not _dominance_certificate(a, a_norm):
        _lu_factor(a, a_norm=a_norm)


def _back_substitute(lu: np.ndarray) -> np.ndarray:
    """The solution columns of a factorization that carried right-hand
    sides: back-substitution through the upper factor, in place."""
    n = lu.shape[0]
    x = lu[:, n:]
    for k in range(n - 1, -1, -1):
        x[k] /= lu[k, k]
        if k > 0:
            x[:k] -= lu[:k, k, None] * x[k]
    return x


def solve_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partial-pivot elimination solve of a raw (a, b) pair."""
    b = np.asarray(b, dtype=float)
    lu, _ = _lu_factor(a, b)
    x = _back_substitute(lu)
    return x[:, 0] if b.ndim == 1 else x


def matrix_inverse(a: np.ndarray, a_norm: Optional[float] = None) -> np.ndarray:
    """Explicit inverse via elimination.  Intended for desk scale (n <= 64).
    a_norm, if given, is ||A||_inf (see _lu_factor)."""
    a = np.asarray(a, dtype=float)
    lu, _ = _lu_factor(a, np.eye(a.shape[0]), a_norm)
    return _back_substitute(lu)


def inv_inf_norm(a: np.ndarray, a_norm: Optional[float] = None) -> float:
    """||A^-1||_inf from the explicit inverse.

    The O(n^3) inversion is irrelevant at desk scale; the norm evaluation
    itself stays O(n^2).  a_norm, if given, is ||A||_inf (see _lu_factor).
    Raises SingularMatrix for singular input, and NormOverflow when the
    inverse or its norm is not finite in float64 (a nonsingular A near the
    underflow range, such as [[1e-310]]).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = inf_norm(matrix_inverse(a, a_norm))
    if not math.isfinite(norm):
        raise NormOverflow(f"||A^-1||_inf = {norm} is not finite in float64")
    return norm


def direct_solve_oracle(p: LinearProblem) -> np.ndarray:
    """Exact reference solution of p, used to verify the dynamic solver."""
    return solve_dense(p.a, p.b)


def check_input_window(b: np.ndarray) -> None:
    """Raise RangeViolation when any |b_i| > RANGE_LIMIT (0.5 V exactly is
    accepted).  The message prints the offending value in full."""
    peak = float(np.abs(b).max())
    if peak > RANGE_LIMIT:
        raise RangeViolation(f"max |b_i| = {peak!r} exceeds {RANGE_LIMIT} V")


def scale_problem(
    p: LinearProblem,
    policy: ScalePolicy = ScalePolicy.EXACT,
    estimate_c: float = DEFAULT_ESTIMATE_C,
) -> ScaledProblem:
    """Scale the matrix so the solution respects the output window.

    EXACT uses factor = max(||A^-1||_inf, 1); the floor of 1 avoids shrinking
    the matrix (and hence the loop bandwidth) when no scaling is needed.
    ESTIMATE uses factor = estimate_c / ||A||_inf.  Both policies record the
    exact norms and condition number for reporting.

    Raises ValueError for an estimate_c that is not finite (under either
    policy) or, under ESTIMATE, not positive (both before the O(n^3)
    inverse), RangeViolation when any |b_i| > 0.5, NormOverflow when
    ||A||_inf is not finite, SingularMatrix for a singular matrix, and
    ValueError for a scaled matrix that overflows float64.  ||A||_inf is
    formed once, for the factor and the pivot tolerance alike.
    """
    _require_finite(estimate_c=estimate_c)
    check_input_window(p.b)
    if policy is ScalePolicy.ESTIMATE and estimate_c <= 0:
        raise ValueError("estimate_c must be positive")
    a_norm = _finite_inf_norm(p.a)
    inv_norm = inv_inf_norm(p.a, a_norm)
    if policy is ScalePolicy.EXACT:
        factor = max(inv_norm, 1.0)
    elif policy is ScalePolicy.ESTIMATE:
        factor = estimate_c / a_norm
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown policy {policy!r}")
    with np.errstate(over="ignore"):
        scaled = p.a * factor
    if not np.isfinite(scaled).all():
        raise ValueError(
            f"the matrix scaled by {factor:.3e} is not finite in float64"
        )
    scaled.setflags(write=False)
    return ScaledProblem(
        original=p,
        scaled_a=scaled,
        factor_scale=factor,
        a_inf_norm=a_norm,
        a_inv_inf_norm=inv_norm,
        kappa_inf=a_norm * inv_norm,
    )


def unscale_solution(sp: ScaledProblem, y: np.ndarray) -> np.ndarray:
    """Map a solution of the scaled system back to the original one."""
    y = np.asarray(y, dtype=float)
    if y.shape != (sp.original.n,):
        raise ValueError(f"expected shape ({sp.original.n},), got {y.shape}")
    return y * sp.factor_scale


def problem_from_dict(doc: dict) -> LinearProblem:
    """Build a problem from the documented JSON structure."""
    if "a" not in doc or "b" not in doc:
        raise ValueError('problem document must contain keys "a" and "b"')
    return LinearProblem(
        a=np.array(doc["a"], dtype=float),
        b=np.array(doc["b"], dtype=float),
        symmetric=bool(doc.get("symmetric", False)),
    )


def load_problem(source: Union[str, IO[str]]) -> LinearProblem:
    """Load a problem from a JSON file path or open text stream."""
    if hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    return problem_from_dict(doc)
