"""Command-line front end for the solver pipeline.

Subcommands: solve, plan, scale, sfdr, metrics, sweep.  Each command
builds the library's objects straight from the parsed flags, and each flag
is checked by the object that uses it; an error raised while they are built
names the flag, not the field (_flag_terms).  Every JSON document embeds
its settings (for solve and plan, the parsed flags themselves), so identical
invocations produce byte-identical files.  Exit codes: 0 success, 2
validation error (a refused flag or an overflowing ||A||_inf among them),
3 solver divergence / no stable orientation / state dimension, step count
or trace size over the simulator's limit / an eigensolve that fails (a
state matrix that is not finite) / an SFDR tone that does not stand above
the noise floor, 4 singular matrix.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import sys
from typing import Iterator, Optional, Union

import numpy as np

from . import metrics as metrics_mod
from . import phase as phase_mod
from .dynamics import (
    EigenFailure,
    Mode,
    MultiPathRow,
    SolveOptions,
    SolveResult,
    SolverConfig,
    StateDimensionLimit,
    StepBudgetExceeded,
    StepMapOverflow,
    TraceBudgetExceeded,
    UnstableSystem,
    bandwidth,
    solve,
)
from .netlist import (
    CountScheme,
    MemristorBank,
    QuantizerSpec,
    integrator_count,
    plan as compile_plan,
    plan_to_dict,
    program_memristors,
)
from .problem import (
    LinearProblem,
    ScalePolicy,
    SingularMatrix,
    load_problem,
    scale_problem,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_SINGULAR = 4

# Most samples sfdr takes: simulate_phase_integrator peaks near 5.3 n
# float64 and the spectrum adds 2 n, so 2^20 samples hold about 61 MB.
_SFDR_MAX_SAMPLES = 2**20

# The flag that sets each library field or argument the commands fill.
_FLAG_OF = {
    "k_vco": "--kvco", "k_pd": "--kpd", "eps_residual": "--eps", "t_max": "--tmax",
    "dt": "--dt", "bits": "--quantize-bits", "r_in": "--r-in", "r_unit": "--r-unit",
    "r_on": "--r-on", "write_noise_sigma": "--write-noise",
    "trace_decimation": "--decimation", "m_phases": "--m-phases", "f0": "--f0",
    "f_ref": "--f-ref", "v_dd": "--vdd", "per_integrator_mw": "--per-integrator-mw",
    "t_s": "--time-us", "memristor_seed": "--seed",
}
_FIELD_NAME = re.compile(r"\b(?:%s)\b" % "|".join(_FLAG_OF))


@contextlib.contextmanager
def _flag_terms() -> Iterator[None]:
    """Reword a ValueError raised while library objects are built from the
    flags so that it names the flag instead of the field.  Only plain
    ValueErrors are reworded: the named subclasses (RangeViolation,
    NormOverflow, ...) speak about the data, not a flag."""
    try:
        yield
    except ValueError as exc:
        if type(exc) is not ValueError:
            raise
        raise ValueError(_FIELD_NAME.sub(lambda m: _FLAG_OF[m[0]], str(exc))) from exc


def _add_kvco_flag(sp: argparse.ArgumentParser) -> None:
    # dests are the config block's keys; metavars keep the usage text
    sp.add_argument(
        "--kvco", dest="k_vco", metavar="KVCO", type=float, default=300e6,
        help="VCO gain, Hz/V",
    )


def _add_circuit_flags(sp: argparse.ArgumentParser) -> None:
    """The flags that set the circuit and the phase-detector gain: with
    --kvco, all that plan reads."""
    sp.add_argument(
        "--kpd",
        dest="k_pd",
        metavar="KPD",
        type=float,
        default=1.0 / math.pi,
        help="phase-detector gain (default v_dd/pi with v_dd = 1 V)",
    )
    sp.add_argument("--quantize-bits", type=int, default=None)
    sp.add_argument("--r-in", type=float, default=2000.0, help="input resistance, ohm")
    sp.add_argument("--r-unit", type=float, default=1000.0, help="ladder unit, ohm")
    sp.add_argument("--r-on", type=float, default=0.0, help="switch on-resistance, ohm")
    sp.add_argument("--memristor", action="store_true", help="program memristors")
    sp.add_argument("--write-noise", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=0)


def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    """The flags that set a simulation, which solve and sweep read besides
    the circuit's."""
    sp.add_argument("--mode", choices=["structural", "ideal"], default="structural")
    sp.add_argument("--eps", type=float, default=1e-3, help="residual threshold, V")
    sp.add_argument(
        "--tmax", dest="t_max", metavar="TMAX", type=float, default=10e-6, help="horizon, s"
    )
    sp.add_argument("--dt", type=float, default=0.0, help="step, s (0 = auto)")
    sp.add_argument("--scale", choices=["off", "exact"], default="off")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every argument spelled as a negative
    float (-1e-6, -.5, -inf, -nan) as a value, as it reads one joined to
    its flag (--tmax=-1e-6): argparse takes only -1 and -1.5 for numbers
    and anything else after a minus sign for an unknown option, which ends
    in a usage message instead of the flag's own refusal.  No ringsolve
    option looks like a number, so none is shadowed."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(?:\.?\d|inf|nan)", re.I)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ringsolve argument parser, built once per process and shared.

    Parsing leaves the parser unchanged and returns a fresh Namespace, so
    every ``run`` reuses it; ``build_parser.__wrapped__()`` builds a new one.
    Its subcommand parsers are _Parsers too, so a flag's negative value is
    refused by the object that reads it, in one line, with or without the
    ``=``.
    """
    parser = _Parser(
        prog="ringsolve",
        description="Analog linear-equation solver: planner, simulator, and reports",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file dynamically")
    p_solve.add_argument("input_path", metavar="input", help="problem JSON file")
    p_solve.add_argument("--out", default=None)
    _add_kvco_flag(p_solve)
    _add_circuit_flags(p_solve)
    _add_run_flags(p_solve)
    p_solve.add_argument("--trace", dest="trace_path", default=None, help="trace CSV path")
    p_solve.add_argument("--decimation", type=int, default=0)

    p_plan = sub.add_parser("plan", help="compile and dump the netlist plan")
    p_plan.add_argument("input_path", metavar="input")
    p_plan.add_argument("--out", default=None)
    _add_kvco_flag(p_plan)
    _add_circuit_flags(p_plan)

    p_scale = sub.add_parser("scale", help="report norms and the scaling factor")
    p_scale.add_argument("input")
    p_scale.add_argument("--out", default=None)

    p_sfdr = sub.add_parser("sfdr", help="phase-domain integrator spectral report")
    p_sfdr.add_argument("--out", default=None)
    p_sfdr.add_argument("--m-phases", type=int, default=32)
    p_sfdr.add_argument("--f0", type=float, default=5e6, help="VCO center, Hz")
    p_sfdr.add_argument("--f-ref", type=float, default=0.0, help="reference, Hz (0 = f0 after divider)")
    p_sfdr.add_argument("--kvco", type=float, default=10e6)
    p_sfdr.add_argument("--vdd", type=float, default=1.0)
    p_sfdr.add_argument(
        "--method",
        choices=[m.value for m in phase_mod.PhaseMethod],
        default=phase_mod.PhaseMethod.DIRECT_LEVEL_SHIFT_16.value,
    )
    p_sfdr.add_argument("--dt", type=float, default=0.0)
    p_sfdr.add_argument("--samples", type=int, default=32768)
    p_sfdr.add_argument("--tone-bin", type=int, default=12, help="tone frequency in DFT bins")
    p_sfdr.add_argument("--tone-amp", type=float, default=0.02, help="tone amplitude, V")
    p_sfdr.add_argument("--spectrum", default=None, help="spectrum CSV path")

    p_metrics = sub.add_parser("metrics", help="energy/throughput report row")
    p_metrics.add_argument("--out", default=None)
    p_metrics.add_argument("--n", type=int, default=8, help="matrix dimension")
    p_metrics.add_argument("--input", default=None, help="problem file; census from its plan")
    p_metrics.add_argument("--time-us", type=float, required=True, help="convergence time, us")
    p_metrics.add_argument("--per-integrator-mw", type=float, default=0.15)
    p_metrics.add_argument(
        "--phase-method",
        choices=[m.value for m in phase_mod.PhaseMethod],
        default=None,
        help="also report the method's level-shifter relative cost",
    )
    p_metrics.add_argument("--method-label", default="this-work")

    # no abbreviations: --kvco is refused, not read as --kvco-list
    p_sweep = sub.add_parser(
        "sweep", help="repeat solve over a list of k_vco values", allow_abbrev=False
    )
    p_sweep.add_argument("input_path", metavar="input")
    p_sweep.add_argument("--kvco-list", required=True, help="comma-separated Hz/V values")
    p_sweep.add_argument("--out", default=None)
    _add_circuit_flags(p_sweep)
    _add_run_flags(p_sweep)

    return parser


def _solver_objects(args: argparse.Namespace) -> tuple[SolverConfig, SolveOptions]:
    """The solver's settings, built from the flags of solve, plan and sweep.

    A setting whose flag the command does not take keeps its library
    default: plan sets only the circuit and its loop gain, and sweep sets
    k_vco per point.  The quantizer and the memristor bank are built on
    every run and attached only when asked for, so that their own objects
    check the flags a run leaves unused: those still land in the config
    block, which can hold no NaN.
    """
    bits = args.quantize_bits
    with _flag_terms():
        cfg = SolverConfig(
            k_vco=getattr(args, "k_vco", SolverConfig.k_vco),
            k_pd=args.k_pd,
            eps_residual=getattr(args, "eps", SolverConfig.eps_residual),
            t_max=getattr(args, "t_max", SolverConfig.t_max),
            dt=getattr(args, "dt", SolverConfig.dt),
            mode=Mode(getattr(args, "mode", SolverConfig.mode)),
        )
        quantizer = QuantizerSpec(
            bits=1 if bits is None else bits,
            r_unit=args.r_unit,
            r_in=args.r_in,
            r_on=args.r_on,
        )
        bank = MemristorBank(write_noise_sigma=args.write_noise)
        options = SolveOptions(
            r_in=args.r_in,
            quantizer=None if bits is None else quantizer,
            memristor=bank if args.memristor else None,
            memristor_seed=args.seed,
            scale=None if getattr(args, "scale", "off") == "off" else ScalePolicy(args.scale),
            trace_decimation=getattr(args, "decimation", None),
        )
    return cfg, options


def _config_block(args: argparse.Namespace) -> dict:
    """The parsed flags; where the document lands does not affect it."""
    return {key: value for key, value in vars(args).items() if key != "out"}


def _emit(
    doc: Union[dict, str], out_path: Optional[str], side_file: Optional[str] = None
) -> None:
    """Write a JSON document (sorted keys) or plain text to out_path or stdout.

    ``side_file`` names a file already written for this document (a trace or
    spectrum CSV).  It is removed if the document cannot be written, so a
    run that fails on either file leaves neither behind.
    """
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True) + "\n"
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError:
        if side_file:
            with contextlib.suppress(OSError):
                os.remove(side_file)
        raise


def _result_document(result: SolveResult, problem: LinearProblem, config: dict) -> dict:
    residual_original = float(np.abs(problem.b - problem.a @ result.x).max())
    doc = {
        "x": result.x.tolist(),
        "residual_inf": result.residual_inf,
        "residual_original_inf": residual_original,
        "converged": result.converged,
        "t_converge_s": result.t_converge,
        "stability": {
            "max_re_eig": result.stability.max_re_eig,
            "stable": result.stability.stable,
            "fallback_mode": result.fallback,
        },
        "scale_factor": result.scale_factor,
        "diagnostics": result.diagnostics,
        "plan_summary": {
            "main_integrators": result.plan.main_integrators,
            "inverters": result.plan.inverter_count,
            "total_integrators": result.plan.total_integrators,
            "negated": result.plan.negated,
        } if result.plan else None,
        "config": config,
    }
    return doc


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg, options = _solver_objects(args)
    if args.trace_path is None:  # a trace is formed only for a trace file
        options = dataclasses.replace(options, trace_decimation=None)
    problem = load_problem(args.input_path)
    result = solve(problem, cfg, options)
    # the document is built first, as it reads the spectrum, whose eigensolve
    # can still fail; then the side file, so a failed trace write leaves no
    # result document
    doc = _result_document(result, problem, _config_block(args))
    if result.trace is not None:
        result.trace.write_csv(args.trace_path)
    _emit(doc, args.out, args.trace_path)
    if not result.converged:
        print(f"solver did not converge: {result.diagnostics or 'residual above threshold'}", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def _cmd_plan(args: argparse.Namespace) -> int:
    cfg, options = _solver_objects(args)
    problem = load_problem(args.input_path)
    circuit = compile_plan(problem, options.r_in, options.quantizer)
    if options.memristor is not None:
        circuit = program_memristors(circuit, options.memristor, options.memristor_seed)
    doc = plan_to_dict(circuit)
    doc["scheme_counts"] = {
        "before_reuse": integrator_count(problem.n, CountScheme.BEFORE_REUSE),
        "after_reuse": integrator_count(problem.n, CountScheme.AFTER_REUSE),
        "mimo_symmetric": integrator_count(problem.n, CountScheme.MIMO_SYMMETRIC),
    }
    # loop bandwidth is defined for rows with a single feedback path;
    # reported in both angular and cyclic units
    bandwidths = {}
    for i in range(problem.n):
        try:
            rad_s = bandwidth(circuit, i, cfg)
        except MultiPathRow:
            continue
        bandwidths[str(i)] = {"rad_per_s": rad_s, "hz": rad_s / (2.0 * math.pi)}
    doc["single_path_bandwidth"] = bandwidths
    doc["config"] = _config_block(args)
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_scale(args: argparse.Namespace) -> int:
    problem = load_problem(args.input)
    sp = scale_problem(problem)
    doc = {
        "n": problem.n,
        "a_inf_norm": sp.a_inf_norm,
        "a_inv_inf_norm": sp.a_inv_inf_norm,
        "kappa_inf": sp.kappa_inf,
        "factor_scale": sp.factor_scale,
        "scaled_a": sp.scaled_a.tolist(),
        "config": {},
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_sfdr(args: argparse.Namespace) -> int:
    with _flag_terms():
        cfg = phase_mod.PhaseConfig(
            m_phases=args.m_phases,
            f0=args.f0,
            f_ref=args.f_ref,
            k_vco=args.kvco,
            v_dd=args.vdd,
            method=phase_mod.PhaseMethod(args.method),
            dt=args.dt,
        )
    # the tone is formed here, so its flags are checked here
    if not math.isfinite(args.tone_amp):
        raise ValueError("--tone-amp must be finite")
    n = args.samples
    if n < 4096 or n & (n - 1):
        raise ValueError("--samples must be a power of two >= 4096")
    if n > _SFDR_MAX_SAMPLES:
        raise ValueError(f"--samples {n} is above the limit of {_SFDR_MAX_SAMPLES}")
    # a subnormal f0 gives a dt near the float64 limit: the sample times
    # would overflow
    if not math.isfinite(n * cfg.dt):
        raise ValueError(
            f"--samples {n} at dt = {cfg.dt:.3e} s: the sample times overflow float64"
        )
    t = np.arange(n) * cfg.dt
    f_sig = args.tone_bin / (n * cfg.dt)
    v_in = cfg.v0 + args.tone_amp * np.sin(2.0 * math.pi * f_sig * t)
    out = phase_mod.simulate_phase_integrator(v_in, cfg)
    report = phase_mod.sfdr(out, f_sig, cfg)
    doc = {
        "sfdr_db": report.sfdr_db,
        "fundamental_hz": report.fundamental_hz,
        "worst_spur_hz": report.worst_spur_hz,
        "config": {
            "m_phases": cfg.m_phases,
            "f0_hz": cfg.f0,
            "f_ref_hz": cfg.f_ref,
            "k_vco_hz_per_v": cfg.k_vco,
            "v_dd": cfg.v_dd,
            "method": cfg.method.value,
            "dt_s": cfg.dt,
            "samples": n,
            "tone_hz": f_sig,
            "tone_amp_v": args.tone_amp,
        },
    }
    # side file first: a failed spectrum write leaves no report document
    if args.spectrum:
        report.write_csv(args.spectrum)
    _emit(doc, args.out, args.spectrum)
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.input:
        problem = load_problem(args.input)
        n = problem.n
        census = compile_plan(problem).total_integrators
        census_source = "plan"
    else:
        n = args.n
        census = integrator_count(n, CountScheme.AFTER_REUSE)
        census_source = "after-reuse-bound"
    with _flag_terms():
        power = metrics_mod.power_estimate(census, args.per_integrator_mw)
        report = metrics_mod.efficiency(
            metrics_mod.ops_count(n), power, args.time_us * 1e-6, integrator_count=census
        )
    row = metrics_mod.table_row(report, args.method_label, f"{n}x{n}")
    doc = {
        "n_ops": report.n_ops,
        "power_mw": report.power_mw,
        "t_converge_us": report.t_converge_us,
        "energy_uj": report.energy_uj,
        "mops_per_s": report.mops_per_s,
        "gops_per_w": report.gops_per_w,
        "integrator_count": report.integrator_count,
        "census_source": census_source,
        "table_row": row,
        "config": {
            "n": n,
            "time_us": args.time_us,
            "per_integrator_mw": args.per_integrator_mw,
            "method_label": args.method_label,
        },
    }
    if args.phase_method:
        gain = phase_mod.effective_kvco(
            phase_mod.PhaseConfig(method=phase_mod.PhaseMethod(args.phase_method))
        )
        doc["level_shifter_relative_cost"] = gain.level_shifters
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg, options = _solver_objects(args)
    problem = load_problem(args.input_path)
    try:
        kvcos = [float(v) for v in args.kvco_list.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --kvco-list: {exc}") from exc
    if not kvcos:
        raise ValueError("--kvco-list is empty")
    if not all(math.isfinite(v) for v in kvcos):
        raise ValueError("--kvco-list values must be finite")
    points = []  # every point is built before any is solved
    for kvco in kvcos:
        try:
            points.append(dataclasses.replace(cfg, k_vco=kvco))
        except ValueError as exc:
            raise ValueError(f"bad --kvco-list value {kvco:g}: {exc}") from exc

    header = "k_vco_hz,converged,fallback,t_converge_s,residual_inf," + ",".join(
        f"x{i}" for i in range(problem.n)
    )
    lines = [header]
    failed = None  # the first point that did not converge, and why
    for point in points:  # fixed input order; points are independent
        result = solve(problem, point, options)
        if not result.converged and failed is None:
            failed = point.k_vco, result.diagnostics or "residual above threshold"
        lines.append(
            ",".join(
                [
                    f"{point.k_vco:.9g}",
                    str(result.converged).lower(),
                    result.fallback,
                    "" if result.t_converge is None else f"{result.t_converge:.9g}",
                    f"{result.residual_inf:.9g}",
                ]
                + [f"{v:.9g}" for v in result.x]
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    if failed is not None:
        print(
            f"solver did not converge: at k_vco = {failed[0]:.9g} Hz/V: {failed[1]}",
            file=sys.stderr,
        )
        return EXIT_DIVERGENCE
    return EXIT_OK


_DISPATCH = {
    "solve": _cmd_solve,
    "plan": _cmd_plan,
    "scale": _cmd_scale,
    "sfdr": _cmd_sfdr,
    "metrics": _cmd_metrics,
    "sweep": _cmd_sweep,
}


def run(argv: Optional[list[str]] = None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes.

    Every call in a process parses with the one shared ``build_parser()``.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return _DISPATCH[args.subcommand](args)
    except SingularMatrix as exc:
        print(f"singular matrix: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except UnstableSystem as exc:
        print(f"unstable system: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (
        StateDimensionLimit, StepBudgetExceeded, StepMapOverflow, TraceBudgetExceeded,
    ) as exc:
        print(f"simulator limit: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except EigenFailure as exc:
        print(f"eigensolve failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except phase_mod.NoFundamental as exc:
        print(f"no fundamental: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    # every refusal of the input or a flag is a ValueError (json's
    # JSONDecodeError and the named RangeViolation, NormOverflow, ... too)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
