"""Byte-exact content of the trace and spectrum CSV writers.

The oracle is the plain per-value writer (one f-string per value), kept
here so the row-at-a-time formatter must reproduce it byte for byte.
"""

import io

import numpy as np
import pytest

from ringsolve.dynamics import Trace
from ringsolve.phase import SpectralReport

SPECIALS = (
    -0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, -1e-300,
    1e-5, 1e-4, 999999999.5, -999999999.5, 0.1, 1.0, 123456789.0,
)


def _values(rng, shape):
    """Random signed values over 1e-300 .. 1e300 with the specials mixed in."""
    v = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
    flat = v.reshape(-1)
    idx = rng.choice(flat.size, min(flat.size, 4 * len(SPECIALS)), replace=False)
    flat[idx] = np.resize(np.array(SPECIALS), idx.size)
    return v


def _oracle(header, rows):
    lines = [",".join(header)]
    lines += [",".join(f"{v:.9g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _trace_oracle(tr):
    n = tr.states.shape[1]
    header = ["t_s", *(f"x{i}" for i in range(n)), "residual_inf"]
    rows = ([tr.t[k], *tr.states[k], tr.residual_inf[k]] for k in range(len(tr.t)))
    return _oracle(header, rows)


def _written(obj):
    buf = io.StringIO()
    obj.write_csv(buf)
    return buf.getvalue()


@pytest.mark.parametrize("rows", [1, 511, 512, 513, 1025])
def test_trace_rows_match_per_value_writer(rows):
    rng = np.random.default_rng(rows)
    for n in range(1, 13):
        tr = Trace(
            t=_values(rng, rows), states=_values(rng, (rows, n)),
            residual_inf=_values(rng, rows),
        )
        assert _written(tr) == _trace_oracle(tr), (rows, n)


def test_empty_trace_is_header_only():
    tr = Trace(t=np.empty(0), states=np.empty((0, 3)), residual_inf=np.empty(0))
    assert _written(tr) == "t_s,x0,x1,x2,residual_inf\n"


def test_trace_path_and_stream_give_same_bytes(tmp_path):
    rng = np.random.default_rng(5)
    tr = Trace(t=_values(rng, 700), states=_values(rng, (700, 4)), residual_inf=_values(rng, 700))
    path = tmp_path / "trace.csv"
    path.write_text("stale content that must be truncated\n" * 2000)
    tr.write_csv(str(path))
    assert path.read_bytes() == _written(tr).encode("utf-8")


def test_spectrum_matches_per_value_writer(tmp_path):
    rng = np.random.default_rng(9)
    rep = SpectralReport(
        sfdr_db=60.0, fundamental_hz=1e6, worst_spur_hz=3e6,
        spectrum_freq_hz=np.abs(_values(rng, 1300)), spectrum_mag_db=_values(rng, 1300),
    )
    expected = _oracle(
        ["freq_hz", "mag_db"], zip(rep.spectrum_freq_hz, rep.spectrum_mag_db)
    )
    assert _written(rep) == expected
    path = tmp_path / "spectrum.csv"
    rep.write_csv(str(path))
    assert path.read_bytes() == expected.encode("utf-8")
