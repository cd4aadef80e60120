"""The command line's contract, checked in process on fixed inputs.

Every run of plan, solve, scale, metrics --input and sweep exits 0, 2, 3 or
4; a run that exits nonzero prints exactly one line on stderr, and one that
exits 0 prints none; exit 2 or 4 writes no document; every document written
is JSON (the sweep's, CSV) that holds no NaN or Infinity; and the same argv
run twice gives the same exit code, stderr and bytes.  The inputs are the CLI test
fixtures and small systems drawn with a fixed seed from a value set of
zeros, in-window values, magnitudes near the float64 limits and subnormals.
The pyproject warning filters turn a numpy RuntimeWarning into a test error.
"""

import json
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


def _refuse_constant(name):
    raise ValueError(f"{name} in a JSON document")


def _run_once(capsys, argv, out):
    if out.exists():
        out.unlink()
    code = run([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_cli_contract(tmp_path, capsys, command, name):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(DOCUMENTS[name]))
    out = tmp_path / "out.json"
    argv = COMMANDS[command](str(path))
    code, captured, written = _run_once(capsys, argv, out)
    assert code in (0, 2, 3, 4)
    assert captured.out == ""
    if code == 0:
        assert captured.err == ""
    else:
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    if code in (2, 4):
        assert written is None
    if written is not None and command == "sweep":
        fields = written.decode().replace("\n", ",").split(",")
        assert not {"nan", "inf", "-inf"} & set(fields)
    elif written is not None:
        json.loads(written, parse_constant=_refuse_constant)
    again, captured_again, written_again = _run_once(capsys, argv, out)
    assert (again, captured_again.err, written_again) == (code, captured.err, written)
