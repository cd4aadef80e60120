"""The command line's contract, checked in process on fixed inputs.

Every run of plan, solve, scale, metrics --input, sweep and sfdr exits 0,
2, 3 or 4; a run that exits nonzero prints exactly one line on stderr, and
one that exits 0 prints none; exit 2 or 4 writes no document, and sfdr
writes no spectrum on exit 2 or 3; every document written is JSON (the
sweep's and the spectrum, CSV) that holds no NaN or Infinity, and every
connected path of a plan has a positive, finite R_f; and the same argv run
twice gives the same exit code, stderr and bytes.  The inputs are the CLI
test fixtures and small systems drawn with a fixed seed from a value set of
zeros, in-window values, magnitudes near the float64 limits and
subnormals; sfdr draws its tone amplitude, supply, gain and center
frequency from the same set.  The pyproject warning filters turn a numpy
RuntimeWarning into a test error.
"""

import json
import math
import random

import pytest

from ringsolve.cli import run

VALUES = [0.0, -0.0, 0.5, -0.5, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 1e-310]

FIXTURES = {
    "neg": {"a": [[-4, -1.5], [-2, -1]], "b": [0.45, 0.24]},
    "mixed8": {
        "a": [[0.5 if i == j else -1.0 for j in range(8)] for i in range(8)],
        "b": [0.375] + [0.225] * 7,
        "symmetric": True,
    },
    "saddle": {"a": [[-4, 1.5], [-2, 1]], "b": [0.45, 0.24]},
}


def documents():
    docs = dict(FIXTURES)
    for i, v in enumerate(VALUES):
        docs[f"1x1[{i}]"] = {"a": [[v]], "b": [0.25]}
        docs[f"diag[{i}]"] = {"a": [[v, 0.0], [0.0, -0.5]], "b": [0.1, v]}
    rng = random.Random(20)
    for k in range(24):
        n = rng.choice([1, 2, 3])
        docs[f"draw[{k}]"] = {
            "a": [[rng.choice(VALUES) for _ in range(n)] for _ in range(n)],
            "b": [rng.choice(VALUES) for _ in range(n)],
        }
    return docs


DOCUMENTS = documents()

COMMANDS = {
    "plan": lambda path: ["plan", path],
    "solve": lambda path: ["solve", path],
    "scale": lambda path: ["scale", path],
    "metrics": lambda path: ["metrics", "--input", path, "--time-us", "1"],
    "sweep": lambda path: ["sweep", path, "--kvco-list", "1e8,3e8"],
}


SFDR_FLAGS = ("--tone-amp", "--vdd", "--kvco", "--f0")


def sfdr_cases():
    """sfdr argv at 4096 samples: the defaults, then each flag drawn from
    VALUES or left at its default."""
    rng = random.Random(23)
    cases = {"defaults": []}
    for k in range(32):
        cases[f"draw[{k}]"] = [
            f"{flag}={rng.choice(VALUES)!r}" for flag in SFDR_FLAGS if rng.random() < 0.5
        ]
    return cases


SFDR_CASES = sfdr_cases()


def _refuse_constant(name):
    raise ValueError(f"{name} in a JSON document")


def _run_once(capsys, argv, out, *side):
    """Run argv with --out; the exit code, the captured streams, and the
    bytes of the document and of each side file (None where not written)."""
    for path in (out, *side):
        if path.exists():
            path.unlink()
    code = run([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured, [p.read_bytes() if p.exists() else None for p in (out, *side)]


def _check_csv(written):
    fields = written.decode().replace("\n", ",").split(",")
    assert not {"nan", "inf", "-inf"} & set(fields)


def _check_contract(capsys, argv, out, *side):
    """The contract of one argv, run twice; returns the exit code and the
    bytes written."""
    code, captured, written = _run_once(capsys, argv, out, *side)
    assert code in (0, 2, 3, 4)
    assert captured.out == ""
    if code == 0:
        assert captured.err == ""
    else:
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    if code in (2, 4):
        assert written[0] is None
    again, captured_again, written_again = _run_once(capsys, argv, out, *side)
    assert (again, captured_again.err, written_again) == (code, captured.err, written)
    return code, written


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_cli_contract(tmp_path, capsys, command, name):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(DOCUMENTS[name]))
    argv = COMMANDS[command](str(path))
    _, (written,) = _check_contract(capsys, argv, tmp_path / "out.json")
    if written is not None and command == "sweep":
        _check_csv(written)
    elif written is not None:
        doc = json.loads(written, parse_constant=_refuse_constant)
        if command == "plan":
            r_f = [q["r_feedback_ohms"] for q in doc["paths"] if q["sign"] != "disconnected"]
            assert all(0.0 < r < math.inf for r in r_f)


@pytest.mark.parametrize("name", sorted(SFDR_CASES))
def test_sfdr_contract(tmp_path, capsys, name):
    spectrum = tmp_path / "spectrum.csv"
    argv = ["sfdr", "--samples", "4096", *SFDR_CASES[name], "--spectrum", str(spectrum)]
    code, (written, csv) = _check_contract(capsys, argv, tmp_path / "out.json", spectrum)
    if code in (2, 3):
        assert csv is None
    if written is not None:
        json.loads(written, parse_constant=_refuse_constant)
    if csv is not None:
        _check_csv(csv)
