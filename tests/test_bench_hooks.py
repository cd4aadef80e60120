"""The benchmark traces the program from outside by binding functions by
name; a rename or deletion in the program must fail here, in the suite,
rather than in a traced benchmark run."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import ringsolve.cli
import ringsolve.dynamics
import ringsolve.phase

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_tracer_resolves_every_target(tracer):
    found = tracer.Tracer().originals()
    assert set(found) == {*tracer.TARGETS, tracer.TRACE_WRITE_CSV}
    assert all(callable(fn) for fn in found.values())


def test_names_the_benchmark_binds_exist():
    assert ringsolve.dynamics.compile_plan is sys.modules["ringsolve.netlist"].plan
    assert ringsolve.cli.solve is ringsolve.dynamics.solve


def test_write_csv_defined_in_each_class_body():
    # the tracer binds Trace.__dict__["write_csv"]: a body moved into a base
    # class or mixin would leave nothing there to bind
    assert "write_csv" in vars(ringsolve.dynamics.Trace)
    assert "write_csv" in vars(ringsolve.phase.SpectralReport)


def test_simulate_takes_ss_then_cfg():
    # the tracer reads args[0] and args[1] of every simulate call as the
    # state space and the solver config
    params = list(inspect.signature(ringsolve.dynamics.simulate).parameters)
    assert params[:2] == ["ss", "cfg"]
