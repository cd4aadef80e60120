"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import probe_single_path_gain
from ringsolve.cli import EXIT_OK, run as cli_run
from ringsolve.dynamics import (
    Mode,
    SolveOptions,
    SolverConfig,
    ac_response,
    bandwidth,
    solve,
)
from ringsolve.metrics import efficiency, ops_count, table_row
from ringsolve.netlist import (
    CountScheme,
    MemristorBank,
    QuantizerSpec,
    integrator_count,
    plan,
    quantize_entry,
)
from ringsolve.phase import (
    PhaseConfig,
    dominant_tone,
    measure_kvco,
    sfdr,
    simulate_phase_integrator,
)
from ringsolve.problem import (
    LinearProblem,
    ScalePolicy,
    SingularMatrix,
    direct_solve_oracle,
    inf_norm,
    inv_inf_norm,
    scale_problem,
    solve_dense,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_negative_2x2(neg2x2):
    start = time.perf_counter()
    res = solve(neg2x2, SolverConfig(k_vco=300e6))
    elapsed = time.perf_counter() - start
    err = float(np.abs(res.x - np.array([-0.09, -0.06])).max())
    ok = (
        err <= 1e-3
        and res.converged
        and res.t_converge is not None
        and res.t_converge <= 400e-9
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"negative 2x2: |x - x_ref| = {err:.2e} (<= 1e-3), "
        f"t_converge = {res.t_converge * 1e9:.0f} ns (<= 400 ns), "
        f"runtime {elapsed * 1e3:.0f} ms (< 1 s)",
    )


def test_criterion_02_positive_2x2(pos2x2):
    res = solve(pos2x2, SolverConfig(k_vco=300e6))
    err = float(np.abs(res.x - np.array([0.09, 0.06])).max())
    ok = (
        err <= 1e-3
        and res.plan is not None
        and res.plan.negated
        and res.plan.inverter_count == 0
    )
    _report(
        2,
        ok,
        f"positive 2x2: |x - x_ref| = {err:.2e} (<= 1e-3), "
        f"plan negated = {res.plan.negated}, inverters = {res.plan.inverter_count}",
    )


def test_criterion_03_mixed_2x2_via_ladder(mixed2x2, tmp_path):
    res = solve(mixed2x2, SolverConfig(k_vco=300e6, t_max=40e-6))
    err = float(np.abs(res.x - np.array([-0.09, 0.06])).max())
    # the result document must state which rung produced the answer
    prob_file = tmp_path / "mixed.json"
    prob_file.write_text(
        json.dumps({"a": mixed2x2.a.tolist(), "b": mixed2x2.b.tolist()})
    )
    out_file = tmp_path / "result.json"
    code = cli_run(
        ["solve", str(prob_file), "--tmax", "40e-6", "--out", str(out_file)]
    )
    doc = json.loads(out_file.read_text())
    documented = doc["stability"]["fallback_mode"]
    ok = (
        err <= 1e-3
        and res.fallback.startswith("gram")
        and code == EXIT_OK
        and documented == res.fallback
    )
    _report(
        3,
        ok,
        f"mixed 2x2: |x - x_ref| = {err:.2e} (<= 1e-3), "
        f"ladder rung = {res.fallback}, documented as '{documented}'",
    )


def test_criterion_04_memristor_programming(neg2x2_small_b):
    # device window sized to the fixture's conductance targets (0.5-2 mS),
    # write grid step 10 uS; zero write noise
    bank = MemristorBank(g_min=1e-4, g_max=2.65e-3, write_noise_sigma=0.0)
    res = solve(
        neg2x2_small_b,
        SolverConfig(k_vco=300e6),
        SolveOptions(memristor=bank, memristor_seed=0),
    )
    err = float(np.abs(res.x - np.array([-0.04, 0.06])).max())
    ok = err <= 1e-3 and res.converged
    _report(
        4,
        ok,
        f"memristor 2x2 (zero noise): |x - x_ref| = {err:.2e} (<= 1e-3), "
        f"converged = {res.converged}",
    )


def test_criterion_05_mixed_8x8(mixed8x8, x8_expected):
    res_fast = solve(mixed8x8, SolverConfig(k_vco=300e6, t_max=4e-6))
    err_fast = float(np.abs(res_fast.x - x8_expected).max())
    res_slow = solve(mixed8x8, SolverConfig(k_vco=20e6, t_max=60e-6))
    err_slow = float(np.abs(res_slow.x - x8_expected).max())

    ok = err_fast <= 1e-3 and err_slow <= 1e-3 and res_fast.converged and res_slow.converged
    notes = [f"|x - x_ref| = {err_fast:.2e} / {err_slow:.2e} (<= 1e-3)"]
    direct_rungs = ("none", "negated")
    if res_fast.fallback in direct_rungs:
        ok = ok and res_fast.t_converge <= 800e-9
        notes.append(f"300 MHz t = {res_fast.t_converge * 1e9:.0f} ns (<= 800 ns)")
    else:
        notes.append(
            f"300 MHz solved via {res_fast.fallback} (no stable direct "
            "orientation; timing bound not applicable)"
        )
    if res_slow.fallback in direct_rungs:
        ok = ok and res_slow.t_converge <= 10e-6
        notes.append(f"20 MHz t = {res_slow.t_converge * 1e6:.1f} us (<= 10 us)")
    else:
        notes.append(f"20 MHz solved via {res_slow.fallback}")
    _report(5, ok, "mixed 8x8: " + ", ".join(notes))


def test_criterion_06_integrator_census():
    before = integrator_count(8, CountScheme.BEFORE_REUSE)
    after = integrator_count(8, CountScheme.AFTER_REUSE)
    mimo = integrator_count(8, CountScheme.MIMO_SYMMETRIC)
    ok = (before, after, mimo) == (72, 40, 26) and before - after == 32
    _report(
        6,
        ok,
        f"integrator census n=8: before/after/mimo = {before}/{after}/{mimo} "
        f"(= 72/40/26), saving = {before - after} (= 32)",
    )


def test_criterion_07_resistor_ladder():
    q3 = QuantizerSpec(bits=3, r_unit=1000.0, r_in=2000.0, r_on=0.0)
    step = q3.step
    three_bit_exact = all(
        quantize_entry(-(c + 1) * step, q3) == (c, -(c + 1) * step)
        for c in range(8)
    )
    q8 = QuantizerSpec(bits=8, r_unit=1000.0, r_in=2000.0, r_on=0.0)
    mags = [abs(quantize_entry(-(c + 1) * q8.step, q8)[1]) for c in range(256)]
    increasing = all(b > a for a, b in zip(mags, mags[1:]))
    ok = three_bit_exact and len(mags) == 256 and increasing
    _report(
        7,
        ok,
        f"ladder: 3-bit codes exact = {three_bit_exact}, 8-bit magnitudes "
        f"strictly increasing over {len(mags)} codes = {increasing}",
    )


def test_criterion_08_efficiency_row():
    rep = efficiency(341, 6.0, 10e-6, integrator_count=40)
    row = table_row(rep, "this-work", "8x8")
    checks = {
        "gops": f"{rep.gops_per_w:.2g}" == "5.7",
        "mops": f"{rep.mops_per_s:.3g}" == "34.1",
        "energy": f"{rep.energy_uj:.2g}" == "0.06",
        "power": f"{rep.power_mw:.3g}" == "6",
        "ops": ops_count(8) == 341,
        "exact_energy": rep.energy_uj == rep.power_mw * rep.t_converge_us * 1e-3,
    }
    ok = all(checks.values())
    _report(
        8,
        ok,
        f"efficiency(341 ops, 6 mW, 10 us): row = '{row}' "
        f"(34.1 MOPs/s, 5.7 GOPs/W, 6 mW, 0.06 uJ); checks = {checks}",
    )


def test_criterion_09_bandwidth_probe():
    cfg = SolverConfig(k_vco=300e6)
    results = []
    ok = True
    for ratio in (0.5, 1.0, 4.0, 8.0):
        circuit = plan(LinearProblem([[-1.0 / ratio]], [0.3]))
        predicted = bandwidth(circuit, 0, cfg)  # rad/s
        target = ratio / math.sqrt(2.0)
        lo, hi = predicted / 5.0, predicted * 5.0  # bracket, rad/s
        for _ in range(30):
            mid = math.sqrt(lo * hi)
            gain = probe_single_path_gain(circuit, 0, cfg, mid / (2 * math.pi))
            if gain > target:
                lo = mid
            else:
                hi = mid
        measured = math.sqrt(lo * hi)
        rel = abs(measured / predicted - 1.0)
        ok = ok and rel <= 0.05
        results.append(f"ratio {ratio}: {rel * 100:.2f}%")
    _report(9, ok, "probed 3-dB vs formula (<= 5%): " + ", ".join(results))


def test_criterion_10_appendix_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260808)
    cfg = SolverConfig(
        k_vco=300e6,
        eps_residual=1e-6,
        t_max=40e-6,
        dt=0.5 / (300e6 / math.pi),
        mode=Mode.IDEAL,
    )
    options = SolveOptions(scale=ScalePolicy.EXACT)
    worst_y = 0.0
    worst_err = 0.0
    count = 0
    while count < 200:
        n = 4 if count % 2 == 0 else 8
        a = rng.uniform(-1, 1, (n, n))
        try:
            kappa = inf_norm(a) * inv_inf_norm(a)
        except SingularMatrix:
            continue
        if kappa > 25.0:  # keep the dynamics horizon bounded
            continue
        b = rng.uniform(-0.5, 0.5, n)
        p = LinearProblem(a, b)
        sp = scale_problem(p)
        y = solve_dense(sp.scaled_a, b)
        worst_y = max(worst_y, float(np.abs(y).max()))
        res = solve(p, cfg, options)
        err = float(np.abs(res.x - direct_solve_oracle(p)).max())
        worst_err = max(worst_err, err)
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst_y <= 0.5 + 1e-12 and worst_err <= 1e-3 and elapsed < 30.0
    _report(
        10,
        ok,
        f"appendix suite (200 systems): max|y| = {worst_y:.6f} (<= 0.5 + 1e-12), "
        f"worst |x - oracle| = {worst_err:.2e} (<= 1e-3), "
        f"runtime {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_11_spectral_properties():
    notes = []
    # (a) dominant spur within +-2 bins of M * f_ref
    n = 1 << 15
    spur_ok = True
    for m in (3, 4, 32):
        cfg = PhaseConfig(m_phases=m, f0=5e6, f_ref=5e6, k_vco=3e6, dt=2.5e-10)
        out = simulate_phase_integrator(
            np.full(n, cfg.v0), cfg, phase0=0.45 * math.pi
        )
        tone = dominant_tone(out, cfg.dt)
        bin_hz = 1.0 / (n * cfg.dt)
        off = abs(tone - m * cfg.f_ref) / bin_hz
        spur_ok = spur_ok and off <= 2.0
        notes.append(f"M={m} spur off {off:.2f} bins")

    # (b) SFDR(M=32) - SFDR(M=4) >= 10 dB on the same DC-plus-tone input
    def integrator_sfdr(m):
        cfg = PhaseConfig(
            m_phases=m, f0=20e6, f_ref=20e6, k_vco=20e6, dt=1 / (20.5 * 32 * 20e6)
        )
        t = np.arange(n) * cfg.dt
        f_sig = 16 / (n * cfg.dt)
        v = cfg.v0 + 0.01 * np.sin(2 * math.pi * f_sig * t)
        out = simulate_phase_integrator(v, cfg, phase0=0.45 * math.pi)
        return sfdr(out, f_sig, cfg).sfdr_db

    delta = integrator_sfdr(32) - integrator_sfdr(4)
    notes.append(f"SFDR(32) - SFDR(4) = {delta:.1f} dB (>= 10)")

    # (c) synthetic -60 dBc spur measured as 60 +- 0.5 dB
    cfg = PhaseConfig(m_phases=4, f0=20e6, f_ref=20e6, k_vco=20e6, dt=1 / (20.5 * 32 * 20e6))
    n2 = 1 << 14
    t = np.arange(n2) * cfg.dt
    f1 = 32 / (n2 * cfg.dt)
    f2 = 113 / (n2 * cfg.dt)
    series = np.sin(2 * math.pi * f1 * t) + 1e-3 * np.sin(2 * math.pi * f2 * t)
    measured = sfdr(series, f1, cfg).sfdr_db
    notes.append(f"synthetic spur {measured:.3f} dB (60 +- 0.5)")

    ok = spur_ok and delta >= 10.0 and abs(measured - 60.0) <= 0.5
    _report(11, ok, "; ".join(notes))


def test_criterion_12_kvco_linearity():
    cfg = PhaseConfig(k_vco=320e6)
    slope = measure_kvco(cfg, 0.5, 1.0, points=11)
    rel = abs(slope / cfg.k_vco - 1.0)
    ok = rel <= 1e-6
    _report(
        12,
        ok,
        f"K_VCO linearity over [0.5, 1] V: fitted slope rel err = {rel:.2e} (<= 1e-6)",
    )
