"""Operation count, power census, and the efficiency report."""

import math

import numpy as np
import pytest

from ringsolve.metrics import (
    EnergyReport,
    efficiency,
    ops_count,
    power_estimate,
    table_row,
)
from ringsolve.netlist import CountScheme, integrator_count, plan
from ringsolve.problem import LinearProblem


class TestOpsCount:
    def test_n8(self):
        assert ops_count(8) == 341  # 2/3 * 512 = 341.33 rounds to 341

    def test_n1_round_half_up(self):
        assert ops_count(1) == 1  # 0.667 rounds up

    def test_n16(self):
        assert ops_count(16) == 2731  # 2 * 4096 / 3 = 2730.67

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ops_count(0)


class TestPowerEstimate:
    def test_forty_integrators(self):
        assert power_estimate(40) == pytest.approx(6.0)

    def test_from_plan(self, neg2x2):
        assert power_estimate(plan(neg2x2)) == pytest.approx(0.3)

    def test_override_per_integrator(self):
        assert power_estimate(40, per_integrator_mw=0.2) == pytest.approx(8.0)

    def test_census_coupling_at_the_reuse_bound(self):
        # a sign pattern with exactly floor(n^2/2) positives saturates the
        # after-reuse census
        n = 4
        a = np.ones((n, n))
        a.flat[: n * n // 2] = -1.0
        a = -a  # 8 positives, 8 negatives: tie keeps orientation
        c = plan(LinearProblem(a, np.zeros(n)))
        assert power_estimate(c) == pytest.approx(
            0.15 * integrator_count(n, CountScheme.AFTER_REUSE)
        )


class TestEfficiency:
    def test_comparison_table_row(self):
        rep = efficiency(341, 6.0, 10e-6, integrator_count=40)
        assert rep.gops_per_w == pytest.approx(341 / (6e-3 * 1e-5) / 1e9)
        assert f"{rep.gops_per_w:.2g}" == "5.7"
        assert f"{rep.mops_per_s:.3g}" == "34.1"
        assert rep.energy_uj == pytest.approx(0.06)
        assert rep.power_mw == 6.0
        row = table_row(rep, "this-work", "8x8")
        assert row == "this-work,8x8,10,34.1,5.7,6,0.06"

    def test_fast_convergence_case(self):
        rep = efficiency(341, 6.0, 0.4e-6)
        assert rep.gops_per_w == pytest.approx(142, rel=0.005)

    def test_power_doubling_halves_eta(self):
        a = efficiency(341, 6.0, 10e-6)
        b = efficiency(341, 12.0, 10e-6)
        assert a.gops_per_w == pytest.approx(2.0 * b.gops_per_w, rel=1e-12)

    def test_dimensional_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n_ops = int(rng.integers(1, 10**6))
            p_mw = float(rng.uniform(0.1, 100))
            t_s = float(rng.uniform(1e-8, 1e-3))
            rep = efficiency(n_ops, p_mw, t_s)
            lhs = rep.gops_per_w * (p_mw * 1e-3) * t_s
            assert lhs == pytest.approx(n_ops * 1e-9, rel=1e-12)
            assert rep.energy_uj == pytest.approx(p_mw * t_s * 1e3, rel=1e-12)
            assert rep.mops_per_s / p_mw == pytest.approx(
                rep.gops_per_w, rel=1e-12
            )

    def test_monotone_in_time(self):
        etas = [efficiency(341, 6.0, t).gops_per_w for t in (1e-6, 2e-6, 4e-6)]
        assert etas[0] > etas[1] > etas[2]

    @pytest.mark.parametrize(
        "power_mw, t_s, name",
        [
            (math.nan, 1e-6, "power_mw"),
            (math.inf, 1e-6, "power_mw"),
            (6.0, math.nan, "t_s"),
            (6.0, math.inf, "t_s"),
            (6.0, 1e-306, "mops_per_s"),
            (6.0, 1e-305, "gops_per_w"),  # 6e-308 J: ops per joule overflow
            (1e-200, 1e-200, "gops_per_w"),  # 0 J after underflow
            (4e301, 1e294, "energy_uj"),
            (6.0, 1e303, "t_converge_us"),
        ],
    )
    def test_non_finite_input_or_figure_named(self, power_mw, t_s, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            efficiency(341, power_mw, t_s)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_power_estimate_non_finite(self, value):
        with pytest.raises(ValueError, match="^per_integrator_mw must be finite"):
            power_estimate(40, per_integrator_mw=value)

    def test_validation(self):
        with pytest.raises(ValueError):
            efficiency(341, 0.0, 1e-6)
        with pytest.raises(ValueError):
            efficiency(341, 6.0, 0.0)
        with pytest.raises(ValueError):
            power_estimate(40, per_integrator_mw=0.0)
