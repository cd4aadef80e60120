"""Norms, scaling, the elimination oracle, and the problem file format."""

import dataclasses
import io
import json
import math
import sys

import numpy as np
import pytest

from ringsolve import dynamics, problem as problem_mod
from ringsolve.problem import (
    PIVOT_RTOL,
    LinearProblem,
    NormOverflow,
    RangeViolation,
    ScalePolicy,
    SingularMatrix,
    _lu_factor,
    direct_solve_oracle,
    inf_norm,
    inv_inf_norm,
    load_problem,
    matrix_inverse,
    problem_from_dict,
    scale_problem,
    solve_dense,
    unscale_solution,
)


class TestLinearProblem:
    def test_basic_construction(self, neg2x2):
        assert neg2x2.n == 2
        assert not neg2x2.a.flags.writeable

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            LinearProblem([[1.0, 2.0]], [1.0])

    def test_rejects_bad_rhs_length(self):
        with pytest.raises(ValueError):
            LinearProblem([[1.0, 0.0], [0.0, 1.0]], [1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LinearProblem([[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0])

    def test_symmetric_flag_is_exact(self):
        with pytest.raises(ValueError):
            LinearProblem([[1.0, 2.0], [2.0 + 1e-15, 1.0]], [0.0, 0.0], symmetric=True)
        LinearProblem([[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0], symmetric=True)


class TestInfNorm:
    def test_hand_example(self):
        # |−4|+|−1.5| = 5.5 beats |−2|+|−1| = 3
        assert inf_norm(np.array([[-4.0, -1.5], [-2.0, -1.0]])) == 5.5

    def test_identity(self):
        assert inf_norm(np.eye(2)) == 1.0

    def test_zero(self):
        assert inf_norm(np.zeros((3, 3))) == 0.0

    def test_invariant_under_row_permutation_and_sign_flips(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-3, 3, (n, n))
            perm = rng.permutation(n)
            signs = rng.choice([-1.0, 1.0], (n, n))
            assert inf_norm(a[perm]) == pytest.approx(inf_norm(a), rel=1e-15)
            assert inf_norm(a * signs) == pytest.approx(inf_norm(a), rel=1e-15)


class TestInverseNorm:
    def test_hand_example(self):
        # det = (-4)(-1) - (-1.5)(-2) = 1, inverse = [[-1, 1.5], [2, -4]],
        # row sums 2.5 and 6.0
        a = np.array([[-4.0, -1.5], [-2.0, -1.0]])
        inv = matrix_inverse(a)
        np.testing.assert_allclose(inv, [[-1.0, 1.5], [2.0, -4.0]], atol=1e-12)
        assert inv_inf_norm(a) == pytest.approx(6.0, abs=1e-12)

    def test_identity(self):
        assert inv_inf_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        # diag(2, 4) inverts to diag(0.5, 0.25); max row sum 0.5
        assert inv_inf_norm(np.diag([2.0, 4.0])) == pytest.approx(0.5)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            inv_inf_norm(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            inv_inf_norm(np.zeros((2, 2)))

    def test_condition_number_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = rng.uniform(-2, 2, (n, n))
            try:
                kappa = inf_norm(a) * inv_inf_norm(a)
            except SingularMatrix:
                continue
            assert kappa >= 1.0 - 1e-12


class TestOracle:
    def test_worked_instances(self, neg2x2, neg2x2_small_b, mixed8x8, x8_expected):
        np.testing.assert_allclose(
            direct_solve_oracle(neg2x2), [-0.09, -0.06], atol=1e-12
        )
        np.testing.assert_allclose(
            direct_solve_oracle(neg2x2_small_b), [-0.04, 0.06], atol=1e-12
        )
        np.testing.assert_allclose(direct_solve_oracle(mixed8x8), x8_expected, atol=1e-12)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            a = rng.uniform(-5, 5, (n, n))
            b = rng.uniform(-5, 5, n)
            try:
                x = solve_dense(a, b)
            except SingularMatrix:
                continue
            resid = np.abs(a @ x - b).max()
            assert resid <= 1e-10 * (1.0 + inf_norm(a) * np.abs(x).max())


class TestScaling:
    def test_exact_policy_hand_example(self, neg2x2):
        sp = scale_problem(neg2x2, ScalePolicy.EXACT)
        assert sp.factor_scale == pytest.approx(6.0, abs=1e-12)
        assert sp.a_inf_norm == pytest.approx(5.5)
        assert sp.a_inv_inf_norm == pytest.approx(6.0)
        assert sp.kappa_inf == pytest.approx(33.0)
        # the scaled system's inverse norm is 1, so max|y| <= 0.5
        assert inv_inf_norm(sp.scaled_a) == pytest.approx(1.0, rel=1e-12)

    def test_exact_policy_identity_floor(self):
        p = LinearProblem(np.eye(2), [0.5, -0.5])
        sp = scale_problem(p)
        assert sp.factor_scale == 1.0
        np.testing.assert_array_equal(sp.scaled_a, np.eye(2))

    def test_estimate_policy(self, neg2x2):
        sp = scale_problem(neg2x2, ScalePolicy.ESTIMATE, estimate_c=1e3)
        assert sp.factor_scale == pytest.approx(1e3 / 5.5, rel=1e-12)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_estimate_c_must_be_finite(self, neg2x2, monkeypatch, c):
        # refused by name before the O(n^3) inverse is formed
        def no_inverse(a):
            raise AssertionError("inverse formed")

        monkeypatch.setattr(problem_mod, "inv_inf_norm", no_inverse)
        with pytest.raises(ValueError, match="estimate_c must be finite"):
            scale_problem(neg2x2, ScalePolicy.ESTIMATE, c)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_estimate_c_must_be_finite_under_exact_too(self, neg2x2, c):
        with pytest.raises(ValueError, match="estimate_c must be finite"):
            scale_problem(neg2x2, ScalePolicy.EXACT, c)

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_estimate_c_must_be_positive(self, neg2x2, c):
        with pytest.raises(ValueError, match="estimate_c must be positive"):
            scale_problem(neg2x2, ScalePolicy.ESTIMATE, c)

    def test_scaled_matrix_overflow_named(self):
        # c / ||A|| is finite but rounds up: times |a| it passes the largest
        # double
        p = LinearProblem([[-3.0]], [0.1])
        with pytest.raises(ValueError, match="is not finite in float64"):
            scale_problem(p, ScalePolicy.ESTIMATE, sys.float_info.max)

    def test_range_violation(self):
        p = LinearProblem(np.eye(2), [0.6, 0.0])
        with pytest.raises(RangeViolation):
            scale_problem(p)

    def test_exact_policy_output_window(self):
        # scaled solutions stay inside [-0.5, 0.5] for random systems
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = rng.uniform(-1, 1, (n, n))
            b = rng.uniform(-0.5, 0.5, n)
            try:
                sp = scale_problem(LinearProblem(a, b))
            except SingularMatrix:
                continue
            y = solve_dense(sp.scaled_a, b)
            assert np.abs(y).max() <= 0.5 + 1e-12
            assert sp.factor_scale >= sp.a_inv_inf_norm - 1e-12

    def test_roundtrip_against_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            a = rng.uniform(-1, 1, (n, n))
            b = rng.uniform(-0.5, 0.5, n)
            p = LinearProblem(a, b)
            try:
                sp = scale_problem(p)
            except SingularMatrix:
                continue
            y = solve_dense(sp.scaled_a, b)
            x = unscale_solution(sp, y)
            ref = direct_solve_oracle(p)
            scale = max(np.abs(ref).max(), 1e-30)
            assert np.abs(x - ref).max() <= 1e-8 * scale


class TestUnscale:
    def test_hand_example(self, neg2x2):
        sp = scale_problem(neg2x2)
        np.testing.assert_allclose(
            unscale_solution(sp, np.array([-0.015, -0.01])), [-0.09, -0.06], atol=1e-15
        )

    def test_identity_factor(self):
        p = LinearProblem(np.eye(2), [0.1, 0.2])
        sp = scale_problem(p)
        y = np.array([0.1, 0.2])
        np.testing.assert_array_equal(unscale_solution(sp, y), y)

    def test_zero_vector(self, neg2x2):
        sp = scale_problem(neg2x2)
        np.testing.assert_array_equal(unscale_solution(sp, np.zeros(2)), np.zeros(2))

    def test_dimension_mismatch(self, neg2x2):
        sp = scale_problem(neg2x2)
        with pytest.raises(ValueError):
            unscale_solution(sp, np.zeros(3))


class TestProblemFile:
    def test_load_roundtrip(self, tmp_path):
        doc = {"a": [[-4, -1.5], [-2, -1]], "b": [0.45, 0.24], "symmetric": False}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        p = load_problem(str(path))
        np.testing.assert_array_equal(p.a, [[-4, -1.5], [-2, -1]])
        np.testing.assert_array_equal(p.b, [0.45, 0.24])

    def test_load_from_stream(self):
        p = load_problem(io.StringIO('{"a": [[1]], "b": [0.5]}'))
        assert p.n == 1

    def test_missing_keys(self):
        with pytest.raises(ValueError):
            problem_from_dict({"a": [[1]]})


def old_lu_factor(a):
    """The elimination loop before broadcasting: np.outer and fancy swaps."""
    lu = np.array(a, dtype=float)
    n = lu.shape[0]
    perm = np.arange(n)
    tol = PIVOT_RTOL * inf_norm(lu)
    if tol == 0.0:
        raise SingularMatrix("zero matrix")
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) < tol:
            raise SingularMatrix(
                f"pivot {lu[p, k]:.3e} below tolerance {tol:.3e} at column {k}"
            )
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        lu[k + 1 :, k] /= lu[k, k]
        if k + 1 < n:
            lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, perm


def old_lu_solve(lu, perm, rhs):
    n = lu.shape[0]
    x = np.array(rhs, dtype=float)
    one_d = x.ndim == 1
    if one_d:
        x = x.reshape(-1, 1)
    x = x[perm]
    for k in range(n):
        x[k + 1 :] -= np.outer(lu[k + 1 :, k], x[k])
    for k in range(n - 1, -1, -1):
        x[k] /= lu[k, k]
        if k > 0:
            x[:k] -= np.outer(lu[:k, k], x[k])
    return x[:, 0] if one_d else x


def outcome(factor, a):
    try:
        return factor(a)
    except SingularMatrix as exc:
        return str(exc)


class TestEliminationAgainstTheOuterLoop:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_same_bits(self, n):
        rng = np.random.default_rng(n)
        for a in (
            rng.uniform(-1.0, 1.0, (n, n)),
            rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4, (n, 1)),
            np.triu(rng.normal(size=(n, n))) + 1e-3 * np.eye(n),
        ):
            lu, perm = _lu_factor(a)
            want_lu, want_perm = old_lu_factor(a)
            assert lu.tobytes() == want_lu.tobytes()
            assert perm.tobytes() == want_perm.tobytes()
            inv = matrix_inverse(a)
            assert inv.tobytes() == old_lu_solve(want_lu, want_perm, np.eye(n)).tobytes()
            b = rng.uniform(-0.5, 0.5, n)
            assert solve_dense(a, b).tobytes() == old_lu_solve(want_lu, want_perm, b).tobytes()

    @pytest.mark.parametrize("n", range(1, 21))
    def test_same_singular_message(self, n):
        rng = np.random.default_rng(100 + n)
        low_rank = rng.normal(size=(n, 1)) @ rng.normal(size=(1, n))
        tiny_pivot = np.eye(n)
        tiny_pivot[-1, -1] = 1e-13
        for a in (np.zeros((n, n)), low_rank, tiny_pivot):
            want = outcome(old_lu_factor, a)
            got = outcome(_lu_factor, a)
            if isinstance(want, str):
                assert got == want
            else:
                assert got[0].tobytes() == want[0].tobytes()


def tie_and_swap_matrices(rng, n):
    """Matrices whose elimination swaps rows at every step, or meets exact
    ties between pivot candidates (argmax keeps the first)."""
    perm = rng.permutation(n)
    swapping = np.tril(rng.uniform(-1.0, 1.0, (n, n)), -1) * 0.5 + np.diag(
        rng.choice([-1.0, 1.0], n)
    )
    yield swapping[perm]  # the largest entry of each column is off its row
    yield rng.integers(-2, 3, (n, n)).astype(float) + 4.0 * np.eye(n)[perm]
    # every candidate ties in the first column, and again (entries 0 and
    # +-2) in the next; a singular draw is skipped by the caller
    yield rng.choice([-1.0, 1.0], (n, n))


class TestCarriedRightHandSides:
    """matrix_inverse, solve_dense and inv_inf_norm carry their right-hand
    sides through the one elimination.  The oracle is the two-pass form they
    replace: factor, then forward and backward substitution on P rhs
    (old_lu_factor and old_lu_solve above)."""

    @pytest.mark.parametrize("n", range(1, 25))
    def test_same_bits_as_two_passes(self, n):
        rng = np.random.default_rng(1000 + n)
        draws = [
            rng.uniform(-1.0, 1.0, (n, n)),
            rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4, (n, 1)),
            *tie_and_swap_matrices(rng, n),
        ]
        for a in draws:
            try:
                want_lu, want_perm = old_lu_factor(a)
            except SingularMatrix:
                continue
            want_inv = old_lu_solve(want_lu, want_perm, np.eye(n))
            inv = matrix_inverse(a)
            assert np.array_equal(inv, want_inv)
            assert inv.tobytes() == want_inv.tobytes()
            assert inv_inf_norm(a) == inf_norm(want_inv)
            b = rng.uniform(-0.5, 0.5, n)
            b[rng.random(n) < 0.3] = 0.0
            b[rng.random(n) < 0.3] = -0.0
            for rhs in (b, -b, np.zeros(n), rng.uniform(-1.0, 1.0, (n, 3))):
                got = solve_dense(a, rhs)
                want = old_lu_solve(want_lu, want_perm, rhs)
                assert np.array_equal(got, want)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 24])
    def test_same_singular_message(self, n):
        rng = np.random.default_rng(2000 + n)
        low_rank = rng.normal(size=(n, 1)) @ rng.normal(size=(1, n))
        tiny_pivot = np.eye(n)
        tiny_pivot[-1, -1] = 1e-13
        for a in (np.zeros((n, n)), low_rank, tiny_pivot):
            want = outcome(old_lu_factor, a)
            if not isinstance(want, str):
                continue
            for call in (matrix_inverse, inv_inf_norm, lambda m: solve_dense(m, np.ones(n))):
                with pytest.raises(SingularMatrix) as info:
                    call(a)
                assert str(info.value) == want

    def test_same_norm_overflow_message(self):
        a = np.array([[1e308, 1e308], [1e308, -1e308]])
        for call in (matrix_inverse, inv_inf_norm, lambda m: solve_dense(m, np.ones(2))):
            with pytest.raises(NormOverflow) as info:
                call(a)
            assert str(info.value) == "||A||_inf = inf is not finite in float64"


class TestNormOverflow:
    A = [[1e308, 1e308], [1e308, -1e308]]

    def test_factor_names_the_overflow(self):
        with pytest.raises(NormOverflow, match="not finite"):
            _lu_factor(np.array(self.A))

    @pytest.mark.parametrize("policy", list(ScalePolicy))
    def test_scale_names_the_overflow(self, policy):
        with pytest.raises(NormOverflow, match="not finite"):
            scale_problem(LinearProblem(self.A, [0.1, 0.2]), policy)

    def test_largest_finite_norm_still_factors(self):
        lu, _ = _lu_factor(np.array([[8e307, 8e307], [8e307, -8e307]]))
        assert np.isfinite(lu).all()


class TestOnePassPerScaledSolve:
    """A scaled solve forms ||A||_inf once, does not copy the scaled matrix
    again and checks the input window once."""

    @pytest.mark.parametrize("policy", list(ScalePolicy))
    def test_norm_formed_once(self, neg2x2, monkeypatch, policy):
        calls, real = [], problem_mod._finite_inf_norm

        def counting(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(problem_mod, "_finite_inf_norm", counting)
        sp = scale_problem(neg2x2, policy)
        assert len(calls) == 1 and sp.a_inf_norm == 5.5

    def test_scaled_matrix_kept_as_built(self, neg2x2):
        sp = scale_problem(neg2x2)
        assert not sp.scaled_a.flags.writeable
        scaled = np.array(sp.scaled_a)
        assert dataclasses.replace(sp, scaled_a=scaled).scaled_a is scaled

    @pytest.mark.parametrize("scale", [None, *ScalePolicy])
    def test_window_checked_once_per_solve(self, neg2x2, monkeypatch, scale):
        calls, real = [], problem_mod.check_input_window

        def counting(b):
            calls.append(b)
            return real(b)

        monkeypatch.setattr(problem_mod, "check_input_window", counting)
        monkeypatch.setattr(dynamics, "check_input_window", counting)
        res = dynamics.solve(neg2x2, options=dynamics.SolveOptions(scale=scale))
        assert res.converged and len(calls) == 1
