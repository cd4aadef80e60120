"""The array-backed plan against the per-object compiler it replaces.

The oracle below is the compiler as one path record per coefficient: the
scalar ladder law, the per-entry plan, the sign swap, memristor programming,
the realized matrix, the plan document and state-space assembly, each a
Python walk over the paths.  The array plan's sign, r_feedback, code and
weight must equal the records field by field, and its census, plan document
and state space must equal the oracle's, bit for bit, on plain, quantized
and noisy-memristor plans in both orientations.
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from ringsolve import cli, dynamics
from ringsolve.dynamics import (
    SolveOptions,
    SolverConfig,
    StateSpace,
    build_system,
    solve,
)
from ringsolve.netlist import (
    MEMRISTOR_LEVELS,
    MemristorBank,
    OutOfRange,
    PathSign,
    QuantizerSpec,
    TargetOutOfDeviceRange,
    negated_plan,
    plan,
    plan_to_dict,
    program_memristors,
    quantize_entry,
    realized_matrix,
)
from ringsolve.problem import LinearProblem

CFG = SolverConfig()


# ---------------------------------------------------------------- the oracle


@dataclass(frozen=True)
class PathRecord:
    """One compiled matrix coefficient."""

    row: int
    col: int
    sign: PathSign
    r_feedback: Optional[float]  # ohms; None when disconnected
    code: Optional[int]          # quantizer / memristor grid code, if any
    realized_weight: float       # dimensionless R_in / R_f, >= 0


# the array plan's value of ``sign`` for each path kind
SIGN_OF = {PathSign.DIRECT: -1, PathSign.VIA_INVERTER: 1, PathSign.DISCONNECTED: 0}


@dataclass(frozen=True)
class ObjectPlan:
    """A plan held as n^2 PathRecord objects.  ``conductances`` is the
    programmed memristor grid (NaN where disconnected), once programmed."""

    n: int
    r_in: np.ndarray
    paths: tuple
    b_compiled: np.ndarray
    negated: bool
    inverter_count: int
    quantizer: Optional[QuantizerSpec] = None
    memristors: Optional[MemristorBank] = None
    conductances: Optional[np.ndarray] = None

    @property
    def main_integrators(self) -> int:
        return self.n

    @property
    def total_integrators(self) -> int:
        return self.n + self.inverter_count


def scalar_quantize(target, q):
    """The ladder law one coefficient at a time: (code, signed realized)."""
    if target == 0.0:
        return None, 0.0
    magnitude = abs(target)
    step = q.step
    top = (1 << q.bits) * step
    if magnitude > top + step / 2:
        raise OutOfRange(
            f"|target| = {magnitude:.6g} exceeds ladder maximum {top:.6g} "
            f"(bits={q.bits}, step={step:.6g})"
        )
    code = int(math.floor(magnitude / step - 1.0 + 0.5))
    code = min(max(code, 0), (1 << q.bits) - 1)
    if q.r_on == 0.0:
        realized = (1 + code) * step
    else:
        conductance = 1.0 / (q.r_unit + q.r_on)
        for bit in range(q.bits):
            if code >> bit & 1:
                conductance += 1.0 / (q.r_unit / (1 << bit) + q.r_on)
        realized = q.r_in * conductance
    return code, math.copysign(realized, target)


def object_plan(p, r_in_default=2000.0, quantizer=None):
    positives = int(np.count_nonzero(p.a > 0))
    negatives = int(np.count_nonzero(p.a < 0))
    negated = positives > negatives
    compiled = -p.a if negated else p.a
    rows = []
    inverter_count = 0
    for i in range(p.n):
        row_paths = []
        for j in range(p.n):
            entry = compiled[i, j]
            if entry == 0.0:
                row_paths.append(
                    PathRecord(i, j, PathSign.DISCONNECTED, None, None, 0.0)
                )
                continue
            sign = PathSign.DIRECT if entry < 0 else PathSign.VIA_INVERTER
            if sign is PathSign.VIA_INVERTER:
                inverter_count += 1
            if quantizer is None:
                weight = abs(entry)
                code = None
            else:
                code, realized = scalar_quantize(entry, quantizer)
                weight = abs(realized)
            row_paths.append(
                PathRecord(i, j, sign, r_in_default / weight, code, weight)
            )
        rows.append(tuple(row_paths))
    return ObjectPlan(
        n=p.n,
        r_in=np.full(p.n, float(r_in_default)),
        paths=tuple(rows),
        b_compiled=-p.b if negated else p.b,
        negated=negated,
        inverter_count=inverter_count,
        quantizer=quantizer,
    )


def object_negated_plan(circuit):
    swap = {
        PathSign.DIRECT: PathSign.VIA_INVERTER,
        PathSign.VIA_INVERTER: PathSign.DIRECT,
    }
    rows = tuple(
        tuple(
            dataclasses.replace(p, sign=swap.get(p.sign, p.sign)) for p in row
        )
        for row in circuit.paths
    )
    connected = sum(p.sign in swap for row in rows for p in row)
    return dataclasses.replace(
        circuit,
        paths=rows,
        b_compiled=-circuit.b_compiled,
        negated=not circuit.negated,
        inverter_count=connected - circuit.inverter_count,
    )


def object_program_memristors(circuit, bank, rng_seed):
    targets = np.array([
        1.0 / path.r_feedback
        for row in circuit.paths
        for path in row
        if path.sign is not PathSign.DISCONNECTED
    ])
    if targets.size and (targets.min() < bank.g_min or targets.max() > bank.g_max):
        raise TargetOutOfDeviceRange("target conductances out of range")
    rng = np.random.default_rng(rng_seed)
    noise = rng.standard_normal(targets.size) * bank.write_noise_sigma
    written = targets * (1.0 + noise)
    codes = np.clip(
        np.floor((written - bank.g_min) / bank.step + 0.5), 0, MEMRISTOR_LEVELS - 1
    ).astype(int)
    programmed = bank.g_min + codes * bank.step

    grid = np.full((circuit.n, circuit.n), np.nan)
    rows = []
    idx = 0
    for i, row in enumerate(circuit.paths):
        new_row = []
        for path in row:
            if path.sign is PathSign.DISCONNECTED:
                new_row.append(path)
                continue
            g = programmed[idx]
            grid[i, path.col] = g
            new_row.append(
                dataclasses.replace(
                    path,
                    r_feedback=1.0 / g,
                    code=int(codes[idx]),
                    realized_weight=float(circuit.r_in[i] * g),
                )
            )
            idx += 1
        rows.append(tuple(new_row))
    return dataclasses.replace(
        circuit,
        paths=tuple(rows),
        memristors=bank,
        conductances=grid,
    )


def object_realized_matrix(circuit):
    a_hat = np.zeros((circuit.n, circuit.n))
    for row in circuit.paths:
        for path in row:
            if path.sign is PathSign.DIRECT:
                a_hat[path.row, path.col] = -path.realized_weight
            elif path.sign is PathSign.VIA_INVERTER:
                a_hat[path.row, path.col] = path.realized_weight
    if circuit.negated:
        return -a_hat, -np.array(circuit.b_compiled)
    return a_hat, np.array(circuit.b_compiled)


def object_plan_to_dict(circuit):
    paths = [
        {
            "row": path.row,
            "col": path.col,
            "sign": path.sign.value,
            "r_feedback_ohms": path.r_feedback,
            "code": path.code,
            "realized_weight": path.realized_weight,
        }
        for row in circuit.paths
        for path in row
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


def object_build_system(circuit, cfg):
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
        row_sum = 0.0  # left to right, on every Python version
        for path in row:
            row_sum += path.realized_weight
        gamma[i] += row_sum

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

    a_hat, b_hat = object_realized_matrix(circuit)
    merged = -g / 2.0 if len(sources) > len(inverted) else None
    return StateSpace(m, f, gamma, n, a_hat, b_hat, merged)


# ------------------------------------------------------- differential tests

Q8_IDEAL = QuantizerSpec(bits=8, r_unit=64000.0, r_in=2000.0, r_on=0.0)
Q8_R_ON = QuantizerSpec(bits=8, r_unit=64000.0, r_in=2000.0, r_on=10.0)


def _random_problems(seed, count):
    """Mixed-sign problems, n 1..12, with zero entries; magnitudes inside
    the 8-bit ladder and the default memristor window."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 13))
        a = rng.uniform(0.2, 6.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
        a[rng.uniform(size=(n, n)) < 0.2] = 0.0
        yield LinearProblem(a, rng.uniform(-0.5, 0.5, n))


def _both_orientations(p, quantizer=None, bank=None, seed=0):
    """(array plan, object plan) pairs: the planned and the negated circuit."""
    new = plan(p, quantizer=quantizer)
    old = object_plan(p, quantizer=quantizer)
    if bank is not None:
        new = program_memristors(new, bank, seed)
        old = object_program_memristors(old, bank, seed)
    yield new, old
    yield negated_plan(new), object_negated_plan(old)


def _object_arrays(circuit):
    """The object plan's records as the array plan's sign, r_feedback, code
    and weight, after checking that they run row by row."""
    records = [path for row in circuit.paths for path in row]
    n = circuit.n
    assert [(p.row, p.col) for p in records] == [(i, j) for i in range(n) for j in range(n)]
    fields = {
        "sign": [SIGN_OF[p.sign] for p in records],
        "r_feedback": [math.inf if p.r_feedback is None else p.r_feedback for p in records],
        "code": [-1 if p.code is None else p.code for p in records],
        "weight": [p.realized_weight for p in records],
    }
    return {name: np.array(values).reshape(n, n) for name, values in fields.items()}


def _assert_same(new, old):
    for name, want in _object_arrays(old).items():
        np.testing.assert_array_equal(getattr(new, name), want, err_msg=name)
    assert new.inverter_count == old.inverter_count
    assert new.negated == old.negated
    np.testing.assert_array_equal(new.b_compiled, old.b_compiled)
    assert json.dumps(plan_to_dict(new)) == json.dumps(object_plan_to_dict(old))
    for got, want in zip(realized_matrix(new), object_realized_matrix(old)):
        np.testing.assert_array_equal(got, want)
    ss, ref = build_system(new, CFG), object_build_system(old, CFG)
    for field in ("m", "f", "gamma", "a_hat", "b_hat"):
        np.testing.assert_array_equal(getattr(ss, field), getattr(ref, field))
    assert ss.n_main == ref.n_main
    assert ss.merged_mode == ref.merged_mode
    assert new.memristors == old.memristors
    if old.conductances is not None:
        # the programmed grid is the codes on the bank's write grid
        bank = new.memristors
        np.testing.assert_array_equal(
            np.where(new.sign != 0, bank.g_min + new.code * bank.step, np.nan),
            old.conductances,
        )


@pytest.mark.parametrize(
    "quantizer", [None, Q8_IDEAL, Q8_R_ON], ids=["plain", "8bit-r_on-0", "8bit-r_on-10"]
)
def test_plan_matches_object_compiler(quantizer):
    for p in _random_problems(61, 40):
        for new, old in _both_orientations(p, quantizer):
            _assert_same(new, old)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noisy_memristors_match_object_compiler(seed):
    bank = MemristorBank(write_noise_sigma=0.02)
    for p in _random_problems(67 + seed, 30):
        for new, old in _both_orientations(p, bank=bank, seed=seed):
            _assert_same(new, old)


def test_quantize_entry_matches_scalar_law():
    rng = np.random.default_rng(71)
    for q in (Q8_IDEAL, Q8_R_ON, QuantizerSpec(bits=3, r_on=100.0)):
        top = (1 << q.bits) * q.step
        ties = (np.arange(0, 1 << q.bits, 5) + 0.5) * q.step
        for target in [*rng.uniform(-top, top, 200), *ties, *-ties, 0.0]:
            assert quantize_entry(target, q) == scalar_quantize(target, q)


def test_first_out_of_range_entry_named():
    # (0, 2) and (2, 1) are both past the 3-bit ladder's 17.0 limit; the
    # per-entry compiler stopped at the first of them in row-major order
    q = QuantizerSpec(bits=3, r_unit=1000.0, r_in=2000.0)
    p = LinearProblem(
        [[-4.0, -1.0, -20.0], [-1.0, -5.0, -1.0], [-1.0, -30.0, -6.0]],
        [0.1, 0.1, 0.1],
    )
    with pytest.raises(OutOfRange) as got:
        plan(p, quantizer=q)
    assert str(got.value) == (
        "|target| = 20 exceeds ladder maximum 16 (bits=3, step=2)"
    )
    with pytest.raises(OutOfRange) as want:
        object_plan(p, quantizer=q)
    assert str(got.value) == str(want.value)


# ------------------------------------------------ the array plan end to end
#
# A plan has no per-coefficient objects to form: these solves, the CLI run
# and the single-path rows read the arrays alone.


STRUCTURAL_OPTIONS = {
    "plain": SolveOptions(),
    # a 0.125 step: the Gram rung's 20.0 entry stays on the ladder
    "8bit": SolveOptions(quantizer=QuantizerSpec(bits=8, r_unit=16000.0, r_on=1.0)),
    "memristor": SolveOptions(
        memristor=MemristorBank(write_noise_sigma=0.02), memristor_seed=3
    ),
}


@pytest.mark.parametrize("variant", sorted(STRUCTURAL_OPTIONS))
def test_solve_forms_no_path_objects(variant, mixed2x2):
    # the mixed 2x2 walks the ladder to a Gram rung, so both orientations of
    # two plans are compiled and assembled
    res = solve(mixed2x2, CFG, STRUCTURAL_OPTIONS[variant])
    assert res.fallback.startswith("gram")
    assert build_system(res.plan, CFG).n_main == 2


def test_cli_solve_forms_no_path_objects(tmp_path, capsys):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"a": [[-4.0, 1.5], [-2.0, -1.0]], "b": [0.4, 0.2]}))
    code = cli.run(["solve", str(problem), "--quantize-bits", "8", "--r-unit", "64000"])
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["plan_summary"]["inverters"] == 1


def test_single_path_rows_form_no_path_objects():
    p = LinearProblem([[-2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [-1.0, 0.0, -4.0]], [0.1] * 3)
    c = plan(p)
    assert dynamics.bandwidth(c, 0, CFG) == pytest.approx(CFG.g / 1.5, rel=1e-15)
    assert dynamics.ac_response(c, 1, CFG, 0.0) == pytest.approx(-1.0 / 3.0, rel=1e-15)
    with pytest.raises(dynamics.MultiPathRow, match="row 2 has 2 feedback paths"):
        dynamics.bandwidth(c, 2, CFG)
