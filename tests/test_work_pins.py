"""Work pins: the work a few fixed benchmark-class solves do, counted.

Each solve counts the state rows carried through a block map
(dynamics._through, the states formed), the eigensolves
(np.linalg.eigvals) and the LU factorizations (problem._lu_factor).  The
inputs are drawn as perfbench/workloads.py draws them, for operations 0-5
of seed 1: dense_problem for structural-dense, and the first
uniform_problem draw of each ideal-ladder operation under its
criterion-10 settings.  (ideal-ladder redraws operation 4, whose slowest
mode decays by less than exp(-20) over the horizon; the first draw is kept
here as the slowest-settling case.)  A change in any of these counts shows
as a diff here, even when the benchmark's op rate stays in its noise.
"""

import math

import numpy as np
import pytest

from conftest import dense_problem
from ringsolve import dynamics, problem as problem_mod
from ringsolve.dynamics import Mode, SolveOptions, SolverConfig
from ringsolve.problem import LinearProblem, ScalePolicy

SEED = 1


def _rng(index):
    return np.random.default_rng([SEED, 1, index])


def uniform_problem(rng, n, kappa_max=25.0):
    """perfbench's ideal-ladder draw: uniform in [-1, 1], kappa_inf <= 25."""
    while True:
        a = rng.uniform(-1.0, 1.0, (n, n))
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            continue
        kappa = np.abs(a).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
        if kappa <= kappa_max:
            return LinearProblem(a, rng.uniform(-0.5, 0.5, n))


# criterion-10 settings: eps 1e-6, 40 us, dt = 0.5 / g, exact scaling
IDEAL_CFG = SolverConfig(
    k_vco=300e6, eps_residual=1e-6, t_max=40e-6, dt=0.5 / (300e6 / math.pi), mode=Mode.IDEAL
)
IDEAL_OPTIONS = SolveOptions(scale=ScalePolicy.EXACT)


@pytest.fixture
def work(monkeypatch):
    """Counters of rows through a block map, eigensolves and factorizations."""
    counts = {"rows": 0, "eigensolves": 0, "factorizations": 0}
    through, eigvals, lu_factor = dynamics._through, np.linalg.eigvals, problem_mod._lu_factor

    def counting_through(factor, states):
        counts["rows"] += len(states)
        return through(factor, states)

    def counting_eigvals(m):
        counts["eigensolves"] += 1
        return eigvals(m)

    def counting_lu_factor(*args, **kwargs):
        counts["factorizations"] += 1
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_through", counting_through)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    monkeypatch.setattr(problem_mod, "_lu_factor", counting_lu_factor)
    return counts


@pytest.mark.parametrize(
    "index, n, rows",
    [(0, 12, 320), (1, 16, 320), (2, 20, 288), (3, 12, 288), (4, 16, 288), (5, 20, 288)],
)
def test_structural_dense_work(work, index, n, rows):
    # row dominant: the discs certify the planned rung and the gate needs no
    # factorization; from n = 12 (state dimension 24) the search strides
    res = dynamics.solve(dense_problem(_rng(index), n))
    assert res.converged and res.fallback == "none"
    assert work == {"rows": rows, "eigensolves": 0, "factorizations": 0}


@pytest.mark.parametrize(
    "index, n, rows",
    [(0, 4, 1536), (1, 8, 2048), (2, 4, 1024), (3, 8, 1536), (4, 4, 5632), (5, 8, 1536)],
)
def test_ideal_ladder_work(work, index, n, rows):
    # scaling factors A once, for ||A^-1||_inf; of the four rungs, the trace
    # refuses two and the other two are eigensolved
    res = dynamics.solve(uniform_problem(_rng(index), n), IDEAL_CFG, IDEAL_OPTIONS)
    assert res.converged and res.fallback == "gram-negated"
    assert work == {"rows": rows, "eigensolves": 2, "factorizations": 1}
