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

    @pytest.mark.parametrize(
        "argv", [["solve"], ["scale"], ["solve", "--scale", "exact"]]
    )
    def test_overflowing_norm_is_not_singular(self, tmp_path, capsys, argv):
        # ||A||_inf = inf leaves no pivot tolerance: a named validation
        # error, not "pivot 1.000e+308 below tolerance inf" (exit 4) after a
        # numpy overflow warning
        path = tmp_path / "o.json"
        path.write_text(
            json.dumps({"a": [[1e308, 1e308], [1e308, -1e308]], "b": [0.1, 0.2]})
        )
        out = tmp_path / "r.json"
        assert run([argv[0], str(path), *argv[1:], "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: ||A||_inf = inf is not finite in float64\n"
        assert not out.exists()

    def test_quantized_gram_rung_can_be_unstable(self, saddle_file, capsys):
        # a realized (quantized) Gram rung need not be stable in either
        # orientation: all four rungs are refused
        argv = ["solve", saddle_file, "--quantize-bits", "8", "--r-unit", "16000", "--r-on", "10"]
        assert run(argv) == EXIT_DIVERGENCE
        assert capsys.readouterr().err == (
            "unstable system: no stable orientation found (none: max Re(eig) = 6.839e+06; "
            "negated: max Re(eig) = 2.440e+07; gram: max Re(eig) = 6.172e+07; "
            "gram-negated: max Re(eig) = 2.938e+05)\n"
        )

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


    @pytest.mark.parametrize(
        "a, argv",
        [
            # g * max gamma overflows, so the auto step is 0
            ([[-1e307, 0], [0, -1e307]], []),
            ([[-1e307, 0], [0, -1e307]], ["--mode", "ideal"]),
            # estimate scaling makes the same overflow from a benign matrix
            ([[-2.0, 0.5], [0.3, -1.0]], ["--scale", "estimate", "--scale-c", "1e308"]),
            # t_max / dt overflows
            ([[-2.0, 0.5], [0.3, -1.0]], ["--dt", "5e-324"]),
        ],
    )
    def test_endless_horizon_is_a_step_budget_limit(self, tmp_path, capsys, a, argv):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"a": a, "b": [0.1, -0.2]}))
        out = tmp_path / "r.json"
        assert run(["solve", str(path), *argv, "--out", str(out)]) == EXIT_DIVERGENCE
        assert capsys.readouterr().err == (
            "simulator limit: inf RK4 steps (t_max / dt) exceed the step budget of 1e+08\n"
        )
        assert not out.exists()


    def test_failed_eigensolve_exit_code(self, neg_file, tmp_path, capsys, monkeypatch):
        # a state matrix the eigensolver refuses is one line and exit 3,
        # never a traceback
        def refusing(m):
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")

        monkeypatch.setattr(np.linalg, "eigvals", refusing)
        out = tmp_path / "r.json"
        assert run(["solve", neg_file, "--out", str(out)]) == EXIT_DIVERGENCE
        assert capsys.readouterr().err == (
            "eigensolve failed: Array must not contain infs or NaNs\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_overflowing_normal_equations(self, tmp_path, capsys, command):
        # every entry is finite and both direct rungs are unstable, but
        # A^T A overflows: one line that says so, and no numpy warning
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "a": [[0, 1e300, 1e300], [1e-300, 0.5, 1e300], [1e300, 1, 1e300]],
            "b": [-0.1, 0, 0],
        }))
        argv = [command, str(path), "--out", str(tmp_path / "r.out")]
        if command == "sweep":
            argv += ["--kvco-list", "1e8,3e8"]
        assert run(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: the normal equations A^T A x = A^T b overflow float64\n"
        )
        assert not (tmp_path / "r.out").exists()

class TestFlagRejections:
    """Every solver flag is checked, also where the run leaves it unused
    (a bad value would still land in the config block): exit 2, one line
    naming the flag, no document."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kvco", "0"], "--kvco and --kpd must be positive"),
            (["--kpd=-1"], "--kvco and --kpd must be positive"),
            (["--kpd", "nan"], "--kpd must be finite"),
            (["--eps", "0"], "--eps and --tmax must be positive"),
            (["--eps", "inf"], "--eps must be finite"),
            (["--tmax=-1"], "--eps and --tmax must be positive"),
            (["--dt=-1"], "--dt must be nonnegative (0 = auto)"),
            (["--dt", "inf"], "--dt must be finite"),
            (["--r-in", "0"], "--r-in and --r-unit must be positive"),
            (["--r-in", "nan"], "--r-in must be finite"),
            (["--quantize-bits", "0"], "--quantize-bits must be in [1, 16]"),
            (["--quantize-bits", "17"], "--quantize-bits must be in [1, 16]"),
            (["--r-unit=-1", "--quantize-bits", "8"], "--r-in and --r-unit must be positive"),
            (["--r-on=-1", "--quantize-bits", "8"], "--r-on must be nonnegative"),
            (["--write-noise=-1", "--memristor"], "--write-noise must be nonnegative"),
            (["--scale-c", "inf", "--scale", "estimate"], "--scale-c must be finite"),
            # unused by the run: no --quantize-bits, --memristor, --trace or --scale
            (["--r-unit", "0"], "--r-in and --r-unit must be positive"),
            (["--r-unit", "nan"], "--r-unit must be finite"),
            (["--r-on=-1"], "--r-on must be nonnegative"),
            (["--r-on", "inf"], "--r-on must be finite"),
            (["--write-noise=-0.1"], "--write-noise must be nonnegative"),
            (["--write-noise", "inf"], "--write-noise must be finite"),
            (["--decimation=-1"], "--decimation must be nonnegative (0 = auto)"),
            (["--scale-c", "nan"], "--scale-c must be finite"),
            (["--scale-c", "inf", "--scale", "off"], "--scale-c must be finite"),
            (["--scale-c=-5", "--scale", "estimate"], "--scale-c must be positive"),
            # finite and positive, but the ladder's step or top magnitude is not
            (
                ["--r-unit", "5e-324", "--quantize-bits", "8"],
                "--r-in / --r-unit = 2000 / 4.94066e-324 overflows the 8-bit ladder",
            ),
            (
                ["--r-unit", "5e-301", "--quantize-bits", "16"],
                "--r-in / --r-unit = 2000 / 5e-301 overflows the 16-bit ladder",
            ),
            (["--r-unit", "1e-310"], "--r-in / --r-unit = 2000 / 1e-310 overflows the 1-bit ladder"),
            (["--r-in=-5"], "--r-in and --r-unit must be positive"),
            # numpy's seed check used to answer, naming no flag
            (["--seed=-1", "--memristor"], "--seed must be nonnegative, got -1"),
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "plan", "sweep"])
    def test_rejected_flag_named(self, neg_file, tmp_path, capsys, command, argv, message):
        out = tmp_path / "r.out"
        if command == "sweep":
            argv = [*argv, "--kvco-list", "1e8,3e8"]
        assert run([command, neg_file, *argv, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # used to exit 3 with all four rungs at max Re(eig) = -0.000e+00
            ["--kvco", "1e-200", "--kpd", "1e-200"],
            # used to exit 3 with an RK4 step map at dt = inf
            ["--kvco", "1e-160", "--kpd", "1e-160", "--mode", "ideal"],
        ],
    )
    def test_underflowing_loop_gain_named(self, neg_file, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        assert run(["solve", neg_file, *argv, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: --kvco * --kpd underflows") and err.count("\n") == 1
        assert not out.exists()

    def test_rejected_decimation_writes_no_trace(self, neg_file, tmp_path, capsys):
        out, trace = tmp_path / "r.json", tmp_path / "t.csv"
        argv = ["solve", neg_file, "--decimation=-1", "--trace", str(trace), "--out", str(out)]
        assert run(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: --decimation must be nonnegative")
        assert not out.exists() and not trace.exists()

    @pytest.mark.parametrize("command", ["solve", "plan"])
    def test_config_block_is_the_parsed_flags(self, neg_file, tmp_path, command):
        out = tmp_path / "r.json"
        argv = [
            command, neg_file, "--mode", "ideal", "--quantize-bits", "8",
            "--r-unit", "16000", "--r-on", "10", "--memristor", "--write-noise", "0.02",
            "--seed", "5", "--scale", "estimate", "--scale-c", "500", "--decimation", "7",
        ]
        assert run([*argv, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["config"] == {
            "subcommand": command,
            "input_path": neg_file,
            "mode": "ideal",
            "k_vco": 300e6,
            "k_pd": 1.0 / math.pi,
            "eps": 1e-3,
            "t_max": 10e-6,
            "dt": 0.0,
            "quantize_bits": 8,
            "r_in": 2000.0,
            "r_unit": 16000.0,
            "r_on": 10.0,
            "memristor": True,
            "write_noise": 0.02,
            "seed": 5,
            "scale": "estimate",
            "scale_c": 500.0,
            "trace_path": None,
            "decimation": 7,
        }

    def test_overflowing_write_noise_warns_nothing(self, neg_file, tmp_path):
        # the overflowing writes saturate on the grid; numpy's overflow
        # warning used to reach stderr
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ringsolve.cli", "solve", neg_file,
             "--memristor", "--write-noise", "1e308", "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        assert out.exists()


class TestStepMapOverflow:
    """A user dt at which the RK4 step map is not finite in float64 is a
    simulator limit: exit 3, one named line on stderr, no document."""

    @pytest.mark.parametrize("dt", [1e75, 1e200])
    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("fixture", ["neg_file", "saddle_file"])
    def test_exit_code(self, request, tmp_path, capsys, fixture, command, dt):
        # the saddle's Gram rung meets inf * 0 in S f: no warning either
        out = tmp_path / "r.out"
        argv = [command, request.getfixturevalue(fixture), "--dt", repr(dt), "--tmax", repr(20 * dt)]
        if command == "sweep":
            argv += ["--kvco-list", "3e8,1e8"]
        assert run([*argv, "--out", str(out)]) == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err == f"simulator limit: the RK4 step map at dt = {dt:.3e} s is not finite in float64\n"
        assert not out.exists()

    def test_nothing_else_reaches_stderr(self, neg_file, tmp_path):
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ringsolve.cli", "solve", neg_file,
             "--dt", "1e75", "--tmax", "2e76", "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == EXIT_DIVERGENCE
        assert proc.stderr.startswith("simulator limit: ")
        assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr
        assert not out.exists()

    def test_finite_map_still_overflows_at_its_step(self, neg_file, tmp_path, capsys):
        # dt = 1e30: the map is finite, the first state passes OVERFLOW_LIMIT
        out = tmp_path / "r.json"
        argv = ["solve", neg_file, "--dt", "1e30", "--tmax", "2e31", "--out", str(out)]
        assert run(argv) == EXIT_DIVERGENCE
        text = out.read_text()
        assert "NaN" not in text and "Infinity" not in text
        doc = json.loads(text)
        assert doc["diagnostics"].startswith("state magnitude exceeded 1e+06 at t = 1.000e+30 s")
        np.testing.assert_allclose(
            doc["x"], [1.3096559370230844e149, 1.152076107934349e149], rtol=1e-12
        )
        assert "Warning" not in capsys.readouterr().err


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

    def test_negative_scale_c_named_as_solve_names_it(self, neg_file, capsys):
        argv = {
            "scale": ["scale", neg_file, "--policy", "estimate", "--scale-c=-5"],
            "solve": ["solve", neg_file, "--scale", "estimate", "--scale-c=-5"],
        }
        errors = []
        for command in ("scale", "solve"):
            assert run(argv[command]) == EXIT_VALIDATION
            errors.append(capsys.readouterr().err)
        assert errors == ["error: --scale-c must be positive\n"] * 2


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

    @pytest.mark.parametrize("tone_bin", ["2049", "2050", "2051"])
    def test_tone_past_nyquist_named(self, tmp_path, capsys, tone_bin):
        out = tmp_path / "sfdr.json"
        argv = ["sfdr", "--samples", "4096", "--tone-bin", tone_bin, "--out", str(out)]
        assert run(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: f_signal = ") and err.count("\n") == 1
        assert "is above the Nyquist bin 2048 (" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "vdd, message",
        [
            ("1e306", "error: the spectrum of the series overflows float64\n"),
            ("1e308", "error: v_dd = 1e+308 V overflows the sum of 32 channel levels\n"),
        ],
    )
    def test_overflowing_vdd_named(self, tmp_path, vdd, message):
        # both used to exit 0 with "sfdr_db": NaN and numpy warnings
        out = tmp_path / "sfdr.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ringsolve.cli", "sfdr", "--vdd", vdd, "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == EXIT_VALIDATION
        assert proc.stderr == message
        assert not out.exists()

    def test_negative_dt_is_a_validation_error(self, tmp_path, capsys):
        # it used to report a negative spur frequency and an SFDR below 0 dB
        out = tmp_path / "sfdr.json"
        assert run(["sfdr", "--dt=-1e-12", "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --dt must be non-negative (0 = auto)\n"
        assert not out.exists()

    @pytest.mark.parametrize("m", ["4", "32"])
    @pytest.mark.parametrize("amp", ["1e-4", "1e-5", "1e-9"])
    def test_no_fundamental_exit_code(self, tmp_path, capsys, m, amp):
        # the run completes but the tone does not stand above the floor: one
        # line on stderr, no traceback, and neither file written
        out = tmp_path / "sfdr.json"
        spectrum = tmp_path / "spectrum.csv"
        argv = ["sfdr", "--m-phases", m, "--tone-amp", amp, "--out", str(out),
                "--spectrum", str(spectrum)]
        assert run(argv) == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("no fundamental: bin ") and err.count("\n") == 1
        assert not out.exists() and not spectrum.exists()


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the first two used to write "Infinity", which is not JSON
            (["--time-us", "1e-300"], "mops_per_s must be finite, got inf"),
            (["--time-us", "1e300", "--per-integrator-mw", "1e300"],
             "energy_uj must be finite, got inf"),
            # used to end in a ZeroDivisionError traceback
            (["--time-us", "1e-150", "--per-integrator-mw", "1e-200"],
             "gops_per_w must be finite, got inf"),
            (["--time-us=-1"], "--time-us must be positive"),
            (["--time-us", "1e-320"], "--time-us must be positive"),  # 0 s
            (["--time-us", "1", "--per-integrator-mw", "0"],
             "--per-integrator-mw must be positive"),
        ],
    )
    def test_figures_refused_by_name(self, tmp_path, capsys, argv, message):
        out = tmp_path / "m.json"
        assert run(["metrics", *argv, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    def test_rejected_list_value_solves_no_point(
        self, neg_file, tmp_path, capsys, monkeypatch
    ):
        solved = []
        monkeypatch.setattr(cli, "solve", lambda *args: solved.append(args))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", neg_file, "--kvco-list=3e8,-1e8", "--out", str(out)]
        assert run(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: bad --kvco-list value -1e+08: k_vco and k_pd must be positive\n"
        )
        assert solved == [] and not out.exists()

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
