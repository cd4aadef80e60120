"""Plan compilation, integrator census, quantizer ladder, and memristors."""

import math

import numpy as np
import pytest

from ringsolve.netlist import (
    MEMRISTOR_LEVELS,
    CountScheme,
    MemristorBank,
    OutOfRange,
    PathSign,
    QuantizerSpec,
    TargetOutOfDeviceRange,
    integrator_count,
    negated_plan,
    plan,
    plan_to_dict,
    program_memristors,
    quantize_entry,
    realized_matrix,
)
from ringsolve.problem import LinearProblem


class TestPlan:
    def test_negative_matrix(self, neg2x2):
        c = plan(neg2x2, r_in_default=2000.0)
        assert not c.negated
        assert c.inverter_count == 0
        assert c.total_integrators == 2
        np.testing.assert_allclose(
            c.r_feedback, [[500.0, 2000.0 / 1.5], [1000.0, 2000.0]], rtol=1e-15
        )
        assert (c.sign == -1).all()  # every path direct

    def test_positive_matrix_negates(self, pos2x2):
        c = plan(pos2x2)
        assert c.negated
        assert c.inverter_count == 0
        np.testing.assert_array_equal(c.b_compiled, [-0.45, -0.24])
        a_hat, b_hat = realized_matrix(c)
        np.testing.assert_allclose(a_hat, pos2x2.a, rtol=1e-15)
        np.testing.assert_array_equal(b_hat, pos2x2.b)

    def test_mixed_matrix_tie_keeps_orientation(self, mixed2x2):
        c = plan(mixed2x2)
        assert not c.negated
        # both positive entries sit in column 1 and run through inverters
        np.testing.assert_array_equal(c.sign, [[-1, 1], [-1, 1]])
        assert c.inverter_count == 2
        assert c.total_integrators == 4

    def test_zero_entries_disconnected(self):
        p = LinearProblem([[-1.0, 0.0], [0.0, -2.0]], [0.1, 0.1])
        c = plan(p)
        assert c.sign[0, 1] == 0
        assert c.r_feedback[0, 1] == math.inf
        assert c.weight[0, 1] == 0.0
        assert c.code[0, 1] == -1
        (path,) = [q for q in plan_to_dict(c)["paths"] if (q["row"], q["col"]) == (0, 1)]
        assert path["sign"] == PathSign.DISCONNECTED.value
        assert path["r_feedback_ohms"] is None and path["code"] is None

    def test_forced_orientation(self, neg2x2):
        c = negated_plan(plan(neg2x2))
        assert c.negated
        assert c.inverter_count == 4
        assert (c.sign == 1).all()  # every path through an inverter
        np.testing.assert_array_equal(c.b_compiled, [-0.45, -0.24])
        a_hat, b_hat = realized_matrix(c)
        np.testing.assert_allclose(a_hat, neg2x2.a, rtol=1e-15)
        np.testing.assert_array_equal(b_hat, neg2x2.b)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-8, 8, (n, n))
            a[rng.uniform(size=(n, n)) < 0.2] = 0.0  # exercise disconnected paths
            b = rng.uniform(-0.5, 0.5, n)
            p = LinearProblem(a, b)
            a_hat, b_hat = realized_matrix(plan(p))
            np.testing.assert_array_equal(a_hat, a)
            np.testing.assert_array_equal(b_hat, b)

    def test_negation_safety(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            a = rng.uniform(-4, 4, (n, n))
            b = rng.uniform(-0.5, 0.5, n)
            c1 = plan(LinearProblem(a, b))
            c2 = plan(LinearProblem(-a, -b))
            r1 = realized_matrix(c1)
            r2 = realized_matrix(c2)
            np.testing.assert_array_equal(r1[0], -r2[0])
            np.testing.assert_array_equal(r1[1], -r2[1])

    def test_inverter_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            a = rng.uniform(-1, 1, (n, n))
            c = plan(LinearProblem(a, np.zeros(n)))
            assert c.inverter_count <= n * n // 2
            positives = int(np.count_nonzero(a > 0))
            negatives = int(np.count_nonzero(a < 0))
            assert c.inverter_count == min(positives, negatives) or (
                positives <= negatives and c.inverter_count == positives
            )


class TestIntegratorCount:
    def test_table_values_n8(self):
        assert integrator_count(8, CountScheme.BEFORE_REUSE) == 72
        assert integrator_count(8, CountScheme.AFTER_REUSE) == 40
        assert integrator_count(8, CountScheme.MIMO_SYMMETRIC) == 26
        saving = integrator_count(8, CountScheme.BEFORE_REUSE) - integrator_count(
            8, CountScheme.AFTER_REUSE
        )
        assert saving == 32

    def test_n1(self):
        assert integrator_count(1, CountScheme.BEFORE_REUSE) == 2
        assert integrator_count(1, CountScheme.AFTER_REUSE) == 1
        assert integrator_count(1, CountScheme.MIMO_SYMMETRIC) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            integrator_count(0, CountScheme.AFTER_REUSE)


class TestQuantizer:
    Q3 = QuantizerSpec(bits=3, r_unit=1000.0, r_in=2000.0, r_on=0.0)

    @pytest.mark.parametrize("field", ["r_unit", "r_in", "r_on"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        # a NaN r_on used to end in an EigenFailure inside a solve
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            QuantizerSpec(bits=8, **{field: value})

    @pytest.mark.parametrize(
        "bits, bad, good",
        [(1, 5e-324, 1e-300), (8, 1e-310, 1e-300), (8, 1e-303, 1e-300), (16, 5e-301, 1e-300)],
    )
    def test_rejects_a_ladder_that_overflows(self, bits, bad, good):
        # r_unit is finite and positive, but the step r_in / r_unit or the
        # top magnitude 2^bits * step is not: the plan would hold inf weights
        with pytest.raises(ValueError, match=f"overflows the {bits}-bit ladder$"):
            QuantizerSpec(bits=bits, r_unit=bad)
        assert math.isfinite(QuantizerSpec(bits=bits, r_unit=good).step * (1 << bits))

    def test_three_bit_table(self):
        # codes 0..7 realize -(1..8) * r_in / r_unit
        step = 2000.0 / 1000.0
        for code in range(8):
            target = -(code + 1) * step
            got_code, realized = quantize_entry(target, self.Q3)
            assert got_code == code
            assert realized == pytest.approx(target, rel=1e-15)

    def test_named_rows(self):
        assert quantize_entry(-12.0, self.Q3) == (5, pytest.approx(-12.0))
        assert quantize_entry(-2.0, self.Q3) == (0, pytest.approx(-2.0))

    def test_zero_disconnects(self):
        assert quantize_entry(0.0, self.Q3) == (None, 0.0)

    def test_switch_resistance_lowers_magnitude(self):
        q = QuantizerSpec(bits=3, r_unit=1000.0, r_in=2000.0, r_on=10.0)
        code, realized = quantize_entry(-16.0, q)
        assert code == 7
        # branch sum oracle: always-on 1010, bit0 1010, bit1 510, bit2 260
        expected = -2000.0 * (1 / 1010 + 1 / 1010 + 1 / 510 + 1 / 260)
        assert realized == pytest.approx(expected, rel=1e-12)
        assert abs(realized) < 16.0

    def test_positive_targets_same_magnitude_rule(self):
        code_n, real_n = quantize_entry(-6.0, self.Q3)
        code_p, real_p = quantize_entry(6.0, self.Q3)
        assert code_p == code_n
        assert real_p == -real_n

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            quantize_entry(-(8 * 2.0 + 1.01), self.Q3)
        # exactly top + half step still clamps to the top code
        code, realized = quantize_entry(-(8 * 2.0 + 0.99), self.Q3)
        assert code == 7

    @pytest.mark.parametrize("r_on", [0.0, 10.0])
    def test_negated_target_same_code(self, r_on):
        # the fact negated_plan rests on: the code depends on |target| only
        # and the realized value is exactly the negation
        q = QuantizerSpec(bits=8, r_unit=64000.0, r_in=2000.0, r_on=r_on)
        rng = np.random.default_rng(37)
        top = (1 << q.bits) * q.step
        ties = (np.arange(0, 256, 17) + 0.5) * q.step  # half-up rounding ties
        for target in [*rng.uniform(-top, top, 300), *ties, *-ties]:
            code, realized = quantize_entry(target, q)
            assert quantize_entry(-target, q) == (code, -realized)

    def test_monotone_in_code_ideal_switches(self):
        # Strict monotonicity holds for ideal switches.  With r_on > 0 the
        # binary ladder has genuine major-transition non-monotonicity (one
        # heavy branch conducts less than the lighter branches it replaces),
        # so the property is only claimed at r_on = 0.
        q = QuantizerSpec(bits=8, r_unit=1000.0, r_in=2000.0, r_on=0.0)
        mags = []
        for code in range(256):
            target = -(code + 1) * q.step
            got, realized = quantize_entry(target, q)
            assert got == code
            mags.append(abs(realized))
        assert all(b > a for a, b in zip(mags, mags[1:]))

    def test_monotone_r_on_degradation(self):
        prev = None
        for r_on in (0.0, 1.0, 10.0, 100.0):
            q = QuantizerSpec(bits=3, r_unit=1000.0, r_in=2000.0, r_on=r_on)
            _, realized = quantize_entry(-10.0, q)
            if prev is not None:
                assert abs(realized) < prev
            prev = abs(realized)

    def test_quantized_plan_error_bound(self):
        # entries inside the ladder's representable band quantize to within
        # half a step
        q = QuantizerSpec(bits=8, r_unit=16000.0, r_in=2000.0)
        rng = np.random.default_rng(31)
        a = -rng.uniform(0.5, 8.0, (3, 3))  # band is [0.125, 32]
        p = LinearProblem(a, np.zeros(3))
        c = plan(p, r_in_default=q.r_in, quantizer=q)
        a_hat, _ = realized_matrix(c)
        assert np.abs(a_hat - a).max() <= q.step / 2 + 1e-12


class TestMemristors:
    @pytest.mark.parametrize("field", ["g_min", "g_max", "write_noise_sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        # a NaN write noise used to be cast to integer codes, an inf one to
        # converge on garbage
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            MemristorBank(**{field: value})

    def test_zero_noise_snaps_to_grid(self, neg2x2_small_b):
        bank = MemristorBank(g_min=1e-4, g_max=2.65e-3, write_noise_sigma=0.0)
        c = program_memristors(plan(neg2x2_small_b), bank, rng_seed=1)
        # conductance targets 1/500, 1/1333.3, 1/1000, 1/2000 all sit on the
        # 10 uS write grid of this bank, so realization is exact
        a_hat, _ = realized_matrix(c)
        np.testing.assert_allclose(a_hat, neg2x2_small_b.a, rtol=1e-12)
        assert c.memristors == bank
        assert (c.code >= 0).all()  # every path programmed

    def test_quantize_to_grid_with_offgrid_targets(self):
        p = LinearProblem([[-3.3333]], [0.1])
        bank = MemristorBank(g_min=1e-6, g_max=1e-2)
        c = program_memristors(plan(p), bank, rng_seed=0)
        g = 1.0 / c.r_feedback[0, 0]
        k = round((g - bank.g_min) / bank.step)
        assert k == c.code[0, 0]
        assert g == pytest.approx(bank.g_min + k * bank.step, rel=1e-12)

    def test_seeded_noise_reproducible(self, neg2x2):
        bank = MemristorBank(write_noise_sigma=0.01)
        c1 = program_memristors(plan(neg2x2), bank, rng_seed=99)
        c2 = program_memristors(plan(neg2x2), bank, rng_seed=99)
        np.testing.assert_array_equal(c1.code, c2.code)
        a1, _ = realized_matrix(c1)
        a2, _ = realized_matrix(c2)
        np.testing.assert_array_equal(a1, a2)
        c3 = program_memristors(plan(neg2x2), bank, rng_seed=100)
        assert not np.array_equal(c1.code, c3.code)

    def test_huge_write_noise_saturates_without_warning(self, neg2x2):
        # an overflowing write lands on an end of the grid; it used to do so
        # with a RuntimeWarning on stderr
        bank = MemristorBank(write_noise_sigma=1e308)
        c = program_memristors(plan(neg2x2), bank, rng_seed=0)
        assert set(c.code.ravel().tolist()) == {0, MEMRISTOR_LEVELS - 1}

    def test_target_out_of_range(self, neg2x2):
        bank = MemristorBank(g_min=1e-6, g_max=1e-4)  # R_f = 500 ohm needs 2 mS
        with pytest.raises(TargetOutOfDeviceRange):
            program_memristors(plan(neg2x2), bank, rng_seed=0)

    def test_original_plan_untouched(self, neg2x2):
        base = plan(neg2x2)
        program_memristors(base, MemristorBank(), rng_seed=0)
        assert base.memristors is None
        assert base.code[0, 0] == -1


def _random_plans(seed, count, quantizer=None):
    """Random mixed-sign problems with disconnected entries, compiled."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 8))
        a = rng.uniform(0.2, 6.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
        a[rng.uniform(size=(n, n)) < 0.2] = 0.0
        p = LinearProblem(a, rng.uniform(-0.5, 0.5, n))
        yield p, plan(p, quantizer=quantizer)


class TestNegatedPlan:
    Q8 = QuantizerSpec(bits=8, r_unit=64000.0, r_in=2000.0, r_on=10.0)

    @pytest.mark.parametrize("quantized", [False, True])
    def test_swaps_every_connected_path(self, quantized):
        for p, c in _random_plans(41, 60, self.Q8 if quantized else None):
            d = negated_plan(c)
            # the flipped plan compiles the opposite orientation's matrix
            compiled = -p.a if d.negated else p.a
            np.testing.assert_array_equal(d.sign, np.sign(compiled))
            for name in ("r_feedback", "code", "weight"):
                np.testing.assert_array_equal(getattr(d, name), getattr(c, name))
            connected = int(np.count_nonzero(p.a))
            assert d.inverter_count == connected - c.inverter_count
            assert d.inverter_count == int(np.count_nonzero(compiled > 0))
            assert d.negated is not c.negated
            assert d.quantizer == c.quantizer
            np.testing.assert_array_equal(d.b_compiled, -c.b_compiled)
            # same realized system in the caller's orientation, exactly
            for got, want in zip(realized_matrix(d), realized_matrix(c)):
                np.testing.assert_array_equal(got, want)
            # an involution
            again = negated_plan(d)
            assert plan_to_dict(again) == plan_to_dict(c)
            np.testing.assert_array_equal(again.b_compiled, c.b_compiled)

    def test_tie_matches_compiling_the_negated_problem(self):
        # with as many positive as negative entries plan() keeps the
        # caller's orientation, so plan(-p) compiles the flipped matrix
        p = LinearProblem([[-4.0, 1.5], [-2.0, 1.0]], [0.45, 0.24])
        d = negated_plan(plan(p))
        ref = plan(LinearProblem(-p.a, -p.b))
        for name in ("sign", "r_feedback", "code", "weight"):
            np.testing.assert_array_equal(getattr(d, name), getattr(ref, name))
        assert d.inverter_count == ref.inverter_count
        np.testing.assert_array_equal(d.b_compiled, ref.b_compiled)

    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    def test_commutes_with_memristor_programming(self, sigma):
        bank = MemristorBank(write_noise_sigma=sigma)
        for k, (_, c) in enumerate(_random_plans(43, 40)):
            one = negated_plan(program_memristors(c, bank, rng_seed=k))
            two = program_memristors(negated_plan(c), bank, rng_seed=k)
            assert plan_to_dict(one) == plan_to_dict(two)
            for name in ("sign", "r_feedback", "code", "weight", "b_compiled"):
                np.testing.assert_array_equal(getattr(one, name), getattr(two, name))
            assert one.memristors == two.memristors
