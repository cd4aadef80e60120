"""Byte-exact content of the trace and spectrum CSV writers.

The oracle is the plain per-value writer (one f-string per value), kept
here so the vectorised formatter in ``ringsolve._table`` must reproduce it
byte for byte: on random doubles over the whole exponent range, on values
at and next to every kind of 9-digit rounding boundary, at the switch
between fixed and scientific notation, and across chunk boundaries.
"""

import io

import numpy as np
import pytest

from ringsolve import _table
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


def test_mismatched_columns_write_nothing():
    buf = io.StringIO()
    with pytest.raises(ValueError):
        _table.write_table(buf, ["a", "b", "c"], [np.zeros(5), np.zeros((4, 2))])
    assert buf.getvalue() == ""


def test_columns_of_mixed_width_and_dtype():
    # 1-D and 2-D columns side by side, integers among them, over chunks
    rng = np.random.default_rng(13)
    rows = 2 * _table._CHUNK_VALUES // 6 + 5
    t = _values(rng, rows)
    block = _values(rng, (rows, 4))
    ints = rng.integers(-10**6, 10**6, rows)
    buf = io.StringIO()
    _table.write_table(buf, list("abcdef"), [t, block, ints])
    rows_iter = zip(t, block, ints)
    assert buf.getvalue() == _oracle(list("abcdef"), ([a, *b, float(c)] for a, b, c in rows_iter))


def assert_table_matches(values, width):
    """The writer and the oracle agree on ``values`` laid out ``width`` wide
    (padded with zeros to whole rows)."""
    values = np.asarray(values, dtype=float).ravel()
    table = np.resize(values, -(-values.size // width) * width).reshape(-1, width)
    table.ravel()[values.size :] = 0.0
    header = [f"c{j}" for j in range(width)]
    expected = _oracle(header, table.tolist())
    buf = io.StringIO()
    _table.write_table(buf, header, [table])
    written = buf.getvalue()
    if written != expected:
        pairs = zip(written.splitlines(), expected.splitlines())
        bad = next(i for i, (a, b) in enumerate(pairs) if a != b)
        row = table[bad - 1].tolist()
        pytest.fail(f"row {bad - 1}: {written.splitlines()[bad]!r} != "
                    f"{expected.splitlines()[bad]!r} for {row!r}")


def test_a_million_random_doubles():
    # uniform bit patterns cover every binary exponent, subnormals and nan
    # payloads included; the specials are planted on top
    rng = np.random.default_rng(20261017)
    v = rng.integers(-(2**63), 2**63, 1_000_000, dtype=np.int64).view(np.float64)
    v[::1000] = np.resize(np.array(SPECIALS), v[::1000].size)
    v[1::997] = rng.integers(1, 2**52, v[1::997].size).astype(np.float64) * 5e-324
    assert np.isnan(v).any() and np.isinf(v).any() and (v == 0).any()
    assert_table_matches(v, 10)


def test_random_decimal_magnitudes():
    # bit patterns put most values far from 1; these sweep 10**-330 .. 10**308
    rng = np.random.default_rng(7)
    v = rng.choice([-1.0, 1.0], 300_000) * 10.0 ** rng.uniform(-330, 308, 300_000)
    assert_table_matches(v, 7)


def test_nine_digit_rounding_boundaries():
    # (k + 0.5) 10**j is where the ninth digit rounds; the double nearest to
    # it and both its neighbours, over the whole exponent range
    rng = np.random.default_rng(11)
    k = rng.integers(10**8, 10**9, 40_000)
    j = rng.integers(-330, 300, 40_000)
    j[:2000] = rng.integers(-14, 12, 2000)  # dense around fixed notation
    k[:500] = rng.choice([10**8, 10**9 - 1], 500)  # the ends of the digit range
    # parsing the decimal rounds correctly to the nearest double
    ties = np.array([float(f"{a}5e{b - 1}") for a, b in zip(k.tolist(), j.tolist())])
    ties = ties[np.isfinite(ties)]
    near = np.concatenate(
        [ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), -ties]
    )
    assert_table_matches(near, 9)


def test_exact_binary_ties():
    # exactly halfway in binary: %g rounds half to even, so the fast path
    # must hand them over
    ties = [100000000.5, 100000001.5, -999999999.5, 123456788.5, 999999998.5,
            0.5, 12.5, 1.25e-5, 2.5e-10, 4503599627370495.5]
    v = np.array(ties)
    assert_table_matches(np.concatenate([v, np.nextafter(v, 0), np.nextafter(v, np.inf)]), 3)


def test_fixed_and_scientific_switch_points():
    points = [1e-5, 9.9999999995e-5, 9.99999999949e-5, 0.0001, 0.000100000000049,
              999999999.5, 999999999.49, 999999999.0, 1e9, 1e16, 123456789.0,
              12345678.9, 99999999.95, 0.099999999995, 1.0, 10.0, 1e8, 1e-4 * (1 - 1e-16),
              # the ninth digit carries into the exponent (and into notation)
              9.9999999996e-5, 999999999.7, 9.99999999996, 0.99999999997, 99999.9999996]
    v = np.array(points)
    v = np.concatenate([v, np.nextafter(v, 0), np.nextafter(v, np.inf)])
    with np.errstate(over="ignore"):
        v = np.concatenate([v, -v, v * 1e-290, v * 1e290, v * 1e-300, v * 1e300])
    assert_table_matches(v[np.isfinite(v)], 4)


@pytest.mark.parametrize("width", [1, 3, 13])
def test_rows_straddling_the_chunk(width):
    per = _table._CHUNK_VALUES // width  # rows per chunk
    rng = np.random.default_rng(width)
    for rows in (per - 1, per, per + 1, 2 * per + 1):
        assert_table_matches(_values(rng, (rows, width)), width)


def test_fast_path_certifies_all_but_the_fallback_set(monkeypatch):
    # only zeros, non-finite and out-of-range values and near 9-digit ties
    # (about 2e-6 of random values) may take the slow per-value path
    handed = []
    real_exact = _table._exact

    def counting_exact(values):
        handed.extend(values)
        return real_exact(values)

    monkeypatch.setattr(_table, "_exact", counting_exact)
    rng = np.random.default_rng(3)
    v = rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-280, 280, 200_000)
    v[:7] = [0.0, -0.0, np.inf, np.nan, 5e-324, 1e-300, 100000000.5]
    v[7:47] = 9.9999999996 * 10.0 ** np.arange(-20, 20)  # certified carries
    assert_table_matches(v, 8)
    assert len(handed) < 7 + 10
    assert [repr(x) for x in handed[:7]] == [repr(x) for x in v[:7].tolist()]
