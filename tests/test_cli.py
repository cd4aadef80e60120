"""End-to-end command-line tests: documents, exit codes, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ringsolve import cli
from ringsolve.cli import (
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_SINGULAR,
    EXIT_VALIDATION,
    run,
)


@pytest.fixture
def neg_file(tmp_path):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"a": [[-4, -1.5], [-2, -1]], "b": [0.45, 0.24]}))
    return str(path)


@pytest.fixture
def mixed8_file(tmp_path):
    a = (-np.ones((8, 8)) + 1.5 * np.eye(8)).tolist()
    b = [0.375] + [0.225] * 7
    path = tmp_path / "m8.json"
    path.write_text(json.dumps({"a": a, "b": b, "symmetric": True}))
    return str(path)


@pytest.fixture
def saddle_file(tmp_path):
    path = tmp_path / "saddle.json"
    path.write_text(json.dumps({"a": [[-4, 1.5], [-2, 1]], "b": [0.45, 0.24]}))
    return str(path)


class TestSolveCommand:
    def test_negative_fixture(self, neg_file, tmp_path):
        out = tmp_path / "result.json"
        trace = tmp_path / "trace.csv"
        code = run(
            ["solve", neg_file, "--kvco", "300e6", "--out", str(out), "--trace", str(trace)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        np.testing.assert_allclose(doc["x"], [-0.09, -0.06], atol=1e-3)
        assert doc["converged"] is True
        assert doc["stability"]["fallback_mode"] == "none"
        assert doc["config"]["k_vco"] == 300e6
        assert doc["config"]["mode"] == "structural"
        header = trace.read_text().splitlines()[0]
        assert header == "t_s,x0,x1,residual_inf"

    @pytest.mark.parametrize(
        "argv, decimation",
        [
            (["solve", "NEG"], [None]),
            (["solve", "NEG", "--decimation", "7"], [None]),
            (["solve", "NEG", "--trace", "T"], [0]),
            (["solve", "NEG", "--trace", "T", "--decimation", "7"], [7]),
            (["sweep", "NEG", "--kvco-list", "1e8,3e8", "--trace", "T"], [None, None]),
        ],
    )
    def test_trace_formed_only_for_trace_file(
        self, neg_file, tmp_path, monkeypatch, argv, decimation
    ):
        seen, real_solve = [], cli.solve

        def recording_solve(problem, cfg, options):
            seen.append(options.trace_decimation)
            return real_solve(problem, cfg, options)

        monkeypatch.setattr(cli, "solve", recording_solve)
        trace = tmp_path / "t.csv"
        argv = [{"NEG": neg_file, "T": str(trace)}.get(a, a) for a in argv]
        assert run([*argv, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert seen == decimation
        assert trace.exists() == (argv[0] == "solve" and "--trace" in argv)

    def test_defaults_resolved_in_config(self, neg_file, tmp_path):
        out = tmp_path / "r.json"
        assert run(["solve", neg_file, "--out", str(out)]) == EXIT_OK
        cfg = json.loads(out.read_text())["config"]
        assert cfg["k_pd"] == pytest.approx(1.0 / math.pi)
        assert cfg["eps"] == 1e-3
        assert cfg["scale"] == "off"

    def test_determinism_byte_identical(self, neg_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["solve", neg_file, "--memristor", "--write-noise", "0.01", "--seed", "5"]
        assert run(args + ["--out", str(out1)]) == EXIT_OK
        assert run(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_converging_trace_run_writes_nothing_to_stderr(self, neg_file, tmp_path):
        # the trace starts at the zero state, so the CSV writer meets zeros:
        # none of its numpy steps may warn into the command's stderr
        out, trace = tmp_path / "r.json", tmp_path / "t.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "ringsolve.cli", "solve", neg_file,
             "--out", str(out), "--trace", str(trace)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        assert json.loads(out.read_text())["converged"] is True
        rows = trace.read_text().splitlines()
        assert rows[1] == "0,0,0,0.45"

    def test_singular_exit_code(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"a": [[1, 1], [1, 1]], "b": [0.1, 0.1]}))
        assert run(["solve", str(path)]) == EXIT_SINGULAR

    @pytest.mark.parametrize("scale", ["exact", "estimate"])
    def test_singular_exit_code_when_scaled(self, tmp_path, capsys, scale):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"a": [[1, 1], [1, 1]], "b": [0.1, 0.1]}))
        assert run(["solve", str(path)]) == EXIT_SINGULAR
        plain = capsys.readouterr().err
        assert run(["solve", str(path), "--scale", scale]) == EXIT_SINGULAR
        assert capsys.readouterr().err == plain
        assert plain.startswith("singular matrix: pivot")

    def test_range_violation_exit_code(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"a": [[-1]], "b": [0.7]}))
        assert run(["solve", str(path)]) == EXIT_VALIDATION

    def test_bad_flag_exit_code(self, neg_file):
        assert run(["solve", neg_file, "--eps", "-1"]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--kvco", "inf"], "--kvco"),
            (["--kvco", "nan"], "--kvco"),
            (["--kpd", "inf"], "--kpd"),
            (["--kvco", "1e200", "--kpd", "1e200"], "--kvco * --kpd"),
            (["--tmax", "inf"], "--tmax"),
            (["--tmax", "nan"], "--tmax"),
            (["--eps", "nan"], "--eps"),
            (["--write-noise", "nan", "--memristor"], "--write-noise"),
            (["--dt", "nan"], "--dt"),
            (["--r-in", "inf"], "--r-in"),
        ],
    )
    def test_non_finite_flag_named(self, neg_file, tmp_path, capsys, argv, flag):
        out = tmp_path / "r.json"
        assert run(["solve", neg_file, *argv, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {flag} " in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_file(self):
        assert run(["solve", "no-such-file.json"]) == EXIT_VALIDATION

    def test_divergence_exit_code(self, tmp_path):
        # a saddle system with too short a horizon reports divergence
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"a": [[-4, 1.5], [-2, 1]], "b": [0.45, 0.24]}))
        out = tmp_path / "r.json"
        code = run(["solve", str(path), "--tmax", "1e-7", "--out", str(out)])
        assert code == EXIT_DIVERGENCE
        doc = json.loads(out.read_text())  # document still written
        assert doc["converged"] is False

    def test_state_dimension_limit_exit_code(self, tmp_path, capsys):
        # a simulator limit, not bad input: exit 3 with the limit named
        n = 257
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"a": (-np.eye(n)).tolist(), "b": [0.0] * n}))
        assert run(["solve", str(path), "--mode", "ideal"]) == EXIT_DIVERGENCE
        assert "state dimension 257 exceeds 256" in capsys.readouterr().err


    @pytest.mark.parametrize("fixture", ["mixed8_file", "saddle_file"])
    def test_step_budget_exit_code(self, request, fixture, capsys):
        # estimate scaling puts the Gram rung's horizon at 7.2e9 and 8.8e9
        # RK4 steps: refused up front as a simulator limit, not stepped
        start = time.perf_counter()
        code = run(["solve", request.getfixturevalue(fixture), "--scale", "estimate"])
        assert code == EXIT_DIVERGENCE
        assert time.perf_counter() - start < 30.0
        err = capsys.readouterr().err
        assert err.startswith("simulator limit: ") and "step budget" in err
        assert "Traceback" not in err


class TestSideFileFailure:
    """A run that cannot write its side file or its document leaves neither."""

    @staticmethod
    def _argv(command, neg_file, side):
        return {
            "solve": ["solve", neg_file, "--trace", str(side)],
            "sfdr": ["sfdr", "--samples", "4096", "--spectrum", str(side)],
        }[command]

    @pytest.mark.parametrize("with_out", [True, False])
    @pytest.mark.parametrize("command", ["solve", "sfdr"])
    def test_unwritable_side_file_writes_no_document(
        self, neg_file, tmp_path, capsys, command, with_out
    ):
        out = tmp_path / "res.json"
        argv = self._argv(command, neg_file, tmp_path / "missing" / "side.csv")
        if with_out:
            argv += ["--out", str(out)]
        assert run(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sfdr"])
    def test_unwritable_document_removes_side_file(self, neg_file, tmp_path, capsys, command):
        side = tmp_path / "side.csv"
        argv = self._argv(command, neg_file, side) + ["--out", str(tmp_path / "missing" / "r.json")]
        assert run(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")
        assert not side.exists()

    def test_non_converged_run_still_writes_trace(self, saddle_file, tmp_path):
        out, trace = tmp_path / "r.json", tmp_path / "t.csv"
        argv = ["solve", saddle_file, "--tmax", "1e-7", "--out", str(out), "--trace", str(trace)]
        assert run(argv) == EXIT_DIVERGENCE
        assert json.loads(out.read_text())["converged"] is False
        assert trace.read_text().startswith("t_s,x0,x1,residual_inf\n")



class TestSharedParser:
    """run() parses every invocation with one parser built per process."""

    @staticmethod
    def _run_sequence(neg_file, tmp_path):
        """Run a mixed sequence of commands; return each exit code and the
        bytes of every file it wrote."""
        trace, out = tmp_path / "t.csv", tmp_path / "r.json"
        sweep = tmp_path / "sweep.csv"
        noisy = [
            "solve", neg_file, "--memristor", "--write-noise", "0.02", "--seed", "4",
            "--quantize-bits", "8", "--trace", str(trace), "--out", str(out),
        ]
        sequence = [
            noisy,
            ["solve", neg_file, "--out", str(out)],
            ["solve", neg_file, "--no-such-flag"],
            ["sweep", neg_file, "--kvco-list", "1e8,3e8", "--out", str(sweep)],
            noisy,
        ]
        record = []
        for argv in sequence:
            for path in (trace, out, sweep):
                path.unlink(missing_ok=True)
            code = run(argv)
            files = {p.name: p.read_bytes() for p in (trace, out, sweep) if p.exists()}
            record.append((code, files))
        return record

    def test_shared_parser_matches_fresh_parsers(self, neg_file, tmp_path, monkeypatch):
        shared = self._run_sequence(neg_file, tmp_path)
        assert [code for code, _ in shared] == [
            EXIT_OK, EXIT_OK, EXIT_VALIDATION, EXIT_OK, EXIT_OK
        ]
        assert shared[0] == shared[4]
        assert set(shared[0][1]) == {"t.csv", "r.json"}
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert self._run_sequence(neg_file, tmp_path) == shared

    def test_run_does_not_rebuild_the_parser(self, neg_file, monkeypatch):
        cli.build_parser.cache_clear()
        assert run(["solve", neg_file]) == EXIT_OK
        assert run(["plan", neg_file]) == EXIT_OK
        assert run(["solve", neg_file, "--bad"]) == EXIT_VALIDATION
        assert cli.build_parser.cache_info().misses == 1

        def refuse(*args, **kwargs):
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", refuse)
        assert run(["solve", neg_file]) == EXIT_OK


class TestPlanCommand:
    def test_plan_document(self, mixed8_file, tmp_path):
        out = tmp_path / "plan.json"
        assert run(["plan", mixed8_file, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["census"]["main_integrators"] == 8
        # this fixture has 8 positive diagonal entries; no negation
        assert doc["negated"] is False
        assert doc["census"]["inverters"] == 8
        assert doc["census"]["total_integrators"] == 16
        assert doc["scheme_counts"] == {
            "before_reuse": 72,
            "after_reuse": 40,
            "mimo_symmetric": 26,
        }
        assert len(doc["paths"]) == 64

    def test_single_path_bandwidth_both_units(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"a": [[-4.0]], "b": [0.3]}))
        out = tmp_path / "plan.json"
        assert run(["plan", str(path), "--kvco", "300e6", "--out", str(out)]) == EXIT_OK
        bw = json.loads(out.read_text())["single_path_bandwidth"]["0"]
        # rho = Rf/Rin = 0.25, so BW = g / 1.25
        g = 300e6 / math.pi
        assert bw["rad_per_s"] == pytest.approx(g / 1.25, rel=1e-12)
        assert bw["hz"] == pytest.approx(g / 1.25 / (2 * math.pi), rel=1e-12)

    def test_multipath_rows_have_no_bandwidth(self, neg_file, tmp_path):
        out = tmp_path / "plan.json"
        assert run(["plan", neg_file, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["single_path_bandwidth"] == {}

    def test_quantized_plan(self, neg_file, tmp_path):
        out = tmp_path / "plan.json"
        code = run(
            ["plan", neg_file, "--quantize-bits", "8", "--r-unit", "16000", "--out", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        codes = [p["code"] for p in doc["paths"]]
        assert all(c is not None for c in codes)


class TestScaleCommand:
    def test_scale_document(self, neg_file, tmp_path):
        out = tmp_path / "scale.json"
        assert run(["scale", neg_file, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["factor_scale"] == pytest.approx(6.0)
        assert doc["kappa_inf"] == pytest.approx(33.0)

    def test_identity_factor_one(self, tmp_path):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"a": [[1, 0], [0, 1]], "b": [0.5, -0.5]}))
        out = tmp_path / "scale.json"
        assert run(["scale", str(path), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["factor_scale"] == 1.0

    def test_estimate_policy(self, neg_file, tmp_path):
        out = tmp_path / "scale.json"
        code = run(["scale", neg_file, "--policy", "estimate", "--scale-c", "1e3", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["factor_scale"] == pytest.approx(1e3 / 5.5)


class TestSfdrCommand:
    @pytest.mark.parametrize(
        "flags", [[], ["--m-phases", "3", "--method", "johnson-16", "--vdd", "1.2"]]
    )
    def test_writes_nothing_to_stderr(self, tmp_path, flags):
        # no numpy warning from the tap count or the spectrum may reach stderr
        out = tmp_path / "sfdr.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ringsolve.cli", "sfdr", "--out", str(out), *flags],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        assert math.isfinite(json.loads(out.read_text())["sfdr_db"])

    def test_report_and_spectrum(self, tmp_path):
        out = tmp_path / "sfdr.json"
        spectrum = tmp_path / "spectrum.csv"
        code = run(["sfdr", "--m-phases", "32", "--out", str(out), "--spectrum", str(spectrum)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["sfdr_db"] > 0
        assert doc["config"]["m_phases"] == 32
        assert spectrum.read_text().splitlines()[0] == "freq_hz,mag_db"

    def test_bad_samples(self):
        assert run(["sfdr", "--samples", "1000"]) == EXIT_VALIDATION


class TestMetricsCommand:
    def test_table_row_from_dimension(self, tmp_path):
        out = tmp_path / "m.json"
        code = run(["metrics", "--n", "8", "--time-us", "10", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["table_row"] == "this-work,8x8,10,34.1,5.7,6,0.06"
        assert doc["integrator_count"] == 40
        assert doc["census_source"] == "after-reuse-bound"

    def test_census_from_problem(self, neg_file, tmp_path):
        out = tmp_path / "m.json"
        code = run(["metrics", "--input", neg_file, "--time-us", "0.4", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["integrator_count"] == 2
        assert doc["power_mw"] == pytest.approx(0.3)

    def test_level_shifter_cost(self, tmp_path):
        out = tmp_path / "m.json"
        code = run(
            ["metrics", "--n", "8", "--time-us", "10", "--phase-method", "johnson-16", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["level_shifter_relative_cost"] == 1


class TestSweepCommand:
    def test_summary_rows_in_input_order(self, neg_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", neg_file, "--kvco-list", "300e6,100e6,600e6", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("k_vco_hz,converged,fallback,t_converge_s")
        assert [row.split(",")[0] for row in lines[1:]] == ["300000000", "100000000", "600000000"]
        t_vals = [float(row.split(",")[3]) for row in lines[1:]]
        assert t_vals[1] > t_vals[0] > t_vals[2]  # slower VCO converges later

    def test_sweep_deterministic(self, neg_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sweep", neg_file, "--kvco-list", "1e8,3e8", "--out", str(a)])
        run(["sweep", neg_file, "--kvco-list", "1e8,3e8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_list(self, neg_file):
        assert run(["sweep", neg_file, "--kvco-list", "abc"]) == EXIT_VALIDATION

    def test_non_finite_list_value(self, neg_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", neg_file, "--kvco-list", "3e8,inf", "--out", str(out)]
        assert run(argv) == EXIT_VALIDATION
        assert "error: --kvco-list values must be finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["scale", "NEG", "--scale-c", "nan"], "--scale-c"),
        (["scale", "NEG", "--policy", "estimate", "--scale-c", "inf"], "--scale-c"),
        (["metrics", "--time-us", "nan"], "--time-us"),
        (["metrics", "--time-us", "inf"], "--time-us"),
        (["metrics", "--time-us", "1", "--per-integrator-mw", "nan"], "--per-integrator-mw"),
        (["sfdr", "--f0", "inf"], "--f0"),
        (["sfdr", "--f-ref", "nan"], "--f-ref"),
        (["sfdr", "--kvco", "nan"], "--kvco"),
        (["sfdr", "--vdd", "inf"], "--vdd"),
        (["sfdr", "--dt", "nan"], "--dt"),
        (["sfdr", "--tone-amp", "nan"], "--tone-amp"),
    ],
)
def test_non_finite_report_flag_named(neg_file, tmp_path, capsys, argv, flag):
    # a NaN would otherwise reach the JSON document, which cannot hold one
    out = tmp_path / "r.json"
    argv = [neg_file if a == "NEG" else a for a in argv]
    assert run([*argv, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"error: {flag} must be finite" in err and "Traceback" not in err
    assert not out.exists()
