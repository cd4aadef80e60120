"""Plain CSV tables of float columns, written to a path or an open stream.

Every value is written exactly as ``"%.9g" % v`` writes it, but whole
chunks of the table are formatted at once with numpy.  The scheme is
Grisu3's: a fast path that is exact wherever it can certify its rounding,
and the exact formatter for everything else (Loitsch, *Printing
floating-point numbers quickly and accurately*, PLDI 2010; the exactness
argument follows Ryu, Adams, PLDI 2018).

Fast path.  For ``1e-290 <= |v| <= 1e290`` the decimal exponent is
``e = floor(log10|v|)`` and the nine significant digits are
``r = rint(s)`` with ``s = |v| * 10**(8 - e)``.  The power of ten comes
from a correctly rounded float64 table, so ``s`` carries two roundings of
at most 2**-53 each: its error is below 2.3e-7 for ``s < 1e9``.  ``r`` is
therefore the correctly rounded integer of the exact ``|v| * 10**(8 - e)``
whenever ``|s - r| < 0.5 - 1e-6``, and that is the certificate.  When a
certified ``r`` has ten digits or eight (``s`` outside
``[99999999.5, 999999999.5)``: the ninth digit carried, as in
9.999999996 -> 10.0000000, or log10 landed on the wrong side of a power of
ten), ``e`` is corrected once and ``s`` and ``r`` are formed and
certified again.  The bound needs only float64, so the path uses no
extended precision (``np.longdouble`` differs between platforms and is
slower) and gives the same bytes everywhere.

Fallback.  Every value without a certificate is formatted by
``"%.9g" % v`` into its slot: 0 and -0, inf, nan, subnormals and anything
outside the exponent range above, and exact or near 9-digit ties (such as
100000000.5, which ``%g`` rounds half to even, to 100000000).

Text.  ``%g``'s rules: fixed notation for ``-4 <= e < 9`` with trailing
zeros and a bare point stripped, otherwise ``d[.dddddddd]e+XX`` (three
exponent digits from 100 on).  Each value fills a 24-byte slot of three
little-endian words: sign and the "0.000" prefix of small fixed values,
then ten mantissa bytes (nine digits and the point), then the exponent
and the separator.  Absent characters are NUL, and one
``bytes.translate`` per chunk deletes them.
"""

from __future__ import annotations

from typing import IO, Sequence, Union

import numpy as np

# Values formatted per write: about 100 kB of slots and 0.5 MB of
# temporaries, which is as fast as larger chunks.
_CHUNK_VALUES = 4096

_U64 = np.uint64
_SLOT = np.dtype("<u8")  # the slot words, little-endian on every host
_LO, _HI = 1e-290, 1e290  # the fast path's |v| range
_EMAX = 291  # |e| bound there, after the one correction
_MARGIN = 0.5 - 1e-6  # |s - r| certificate; the error of s is below 2.3e-7


def _powers_of_ten() -> np.ndarray:
    """10**k for k = 8 - _EMAX .. 8 + _EMAX (index _EMAX - e gives
    10**(8 - e)), each correctly rounded: Python's int -> float conversion
    and int / int division both round correctly."""
    exact = [1]
    for _ in range(8 + _EMAX):
        exact.append(exact[-1] * 10)
    small = [1 / p for p in reversed(exact[1 : _EMAX - 7])]
    return np.array(small + [float(p) for p in exact])


_POW10 = _powers_of_ten()


def _words(planes: np.ndarray) -> np.ndarray:
    """(rows, 8) uint8 byte planes -> (rows,) little-endian words."""
    return np.ascontiguousarray(planes, dtype=np.uint8).view(_SLOT)[:, 0]


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Words of the 4-digit groups 0000 .. 9999, first digit lowest: as
    they are, and with their trailing zeros NUL (0000 -> all NUL)."""
    d = np.arange(10, dtype=_U64)
    full = stripped = _U64(0)
    kept = np.zeros(1, dtype=bool)  # this digit or a later one is nonzero
    for j in (3, 2, 1, 0):  # digit j of the group, on axis j
        axis = [1, 1, 1, 1]
        axis[j] = 10
        word = (d + _U64(48)).reshape(axis) << _U64(8 * j)
        kept = kept | (d > 0).reshape(axis)
        full = full | word
        stripped = stripped | word * kept
    return full.ravel(), stripped.ravel()


def _exponent_tables() -> dict[str, np.ndarray]:
    """Per decimal exponent e (index e + _EMAX), the constant parts of a
    slot.  The point sits at mantissa byte b: after the first digit in
    scientific notation, after digit e for fixed e >= 0, nowhere (b = 9)
    for fixed e < 0, whose point is in the prefix."""
    e = np.arange(-_EMAX, _EMAX + 1, dtype=np.int64)
    fixed = (e >= -4) & (e <= 8)
    small = fixed & (e < 0)
    b = np.where(fixed, np.where(e >= 0, e + 1, 9), 1)
    byte = np.arange(8, dtype=np.int64)

    prefix = np.zeros((e.size, 8), dtype=np.int64)  # byte 0 is the sign
    prefix[small, 1] = ord("0")
    prefix[small, 2] = ord(".")
    prefix[:, 3:6] = ord("0") * (small[:, None] & (byte[:3] < -e[:, None] - 1))

    a = np.abs(e)
    exponent = np.zeros((e.size, 8), dtype=np.int64)  # mantissa bytes 8, 9 first
    exponent[:, 2] = ord("e")
    exponent[:, 3] = np.where(e < 0, ord("-"), ord("+"))
    exponent[:, 4] = (48 + a // 100) * (a >= 100)
    exponent[:, 5] = 48 + a // 10 % 10
    exponent[:, 6] = 48 + a % 10
    exponent[fixed] = 0

    return {
        "prefix": _words(prefix),
        "exponent": _words(exponent),
        # mantissa bytes before the point (all 8 of the low word from b = 8)
        "low": _words(255 * (byte < b[:, None])),
        # the point, in the low word (b <= 7) or the high one (b = 8)
        "point_lo": _words(ord(".") * (byte == b[:, None])),
        "point_hi": (ord(".") * (b == 8)).astype(_U64),
        # '0' over the integer digits of fixed e >= 0, which are never
        # stripped (1200 stays 1200)
        "zeros_lo": _words(ord("0") * ((fixed & (e >= 0))[:, None] & (byte <= e[:, None]))),
        "zeros_hi": (ord("0") * (e == 8)).astype(_U64),
    }


# indexed by m + 10000 * (l == 0): the middle group loses its trailing
# zeros only when the last group is all zero
_DIGITS_MID = np.concatenate(_digit_tables())
_DIGITS_STRIPPED = _DIGITS_MID[10000:]
_BY_EXPONENT = _exponent_tables()
# the separator after a value: the top byte of its slot
_COMMA, _NEWLINE = (_U64(ord(c)) << _U64(56) for c in ",\n")


def _format_chunk(v: np.ndarray, separators: np.ndarray, slots: np.ndarray) -> bytes:
    """The ``%.9g`` texts of ``v`` (1-D float64), each followed by its
    separator word, as one ASCII byte string.  ``slots`` is (v.size, 3)
    scratch."""
    a = np.abs(v)
    a_safe = np.fmin(np.fmax(a, _LO), _HI)  # no log10(0), no overflow, no nan
    ok = a_safe == a
    e = np.floor(np.log10(a_safe)).astype(np.int64)
    s = a_safe * np.take(_POW10, _EMAX - e)
    r = np.rint(s)
    ok &= np.abs(s - r) < _MARGIN
    # Nine digits, or the exponent is one off: log10 fell on the wrong side
    # of a power of ten, or the rounding carried (9.999999996 -> 10.0000000).
    # Where r is certified this test is exact; the corrected values are
    # rounded and certified again.
    fix = np.flatnonzero((r < 1e8) | (r >= 1e9))
    if fix.size:
        e[fix] += np.where(r[fix] < 1e8, np.int64(-1), np.int64(1))
        s = a_safe[fix] * np.take(_POW10, _EMAX - e[fix])
        r[fix] = np.rint(s)
        ok[fix] &= (np.abs(s - r[fix]) < _MARGIN) & (r[fix] >= 1e8) & (r[fix] < 1e9)
    del a, a_safe, s  # the dels keep a chunk's live temporaries near 0.5 MB

    # r = q 10**8 + m 10**4 + l: digit bytes d0..d7 in `lo`, d8 in `hi`
    i = r.astype(np.int64)
    ql = i // 10000
    l = i - ql * 10000
    q = ql // 10000
    m = ql - q * 10000
    del r, i, ql
    e += _EMAX
    last = np.take(_DIGITS_STRIPPED, l)
    lo = (
        (q.astype(_U64) + _U64(48))
        | np.take(_DIGITS_MID, m + (l == 0) * np.int64(10000)) << _U64(8)
        | (last & _U64(0xFFFFFF)) << _U64(40)
        | np.take(_BY_EXPONENT["zeros_lo"], e)
    )
    hi = last >> _U64(24) | np.take(_BY_EXPONENT["zeros_hi"], e)
    del q, m, l, last

    # open a byte for the point after mantissa byte b - 1; the point is
    # written only when a digit follows it
    low = np.take(_BY_EXPONENT["low"], e)
    after = lo & ~low
    point = ((after | hi) != 0).astype(_U64)
    slots[:, 0] = (v < 0) * _U64(ord("-")) | np.take(_BY_EXPONENT["prefix"], e)
    slots[:, 1] = lo & low | after << _U64(8) | np.take(_BY_EXPONENT["point_lo"], e) * point
    slots[:, 2] = (
        after >> _U64(56)
        | np.take(_BY_EXPONENT["point_hi"], e) * point
        | hi << _U64(8)
        | np.take(_BY_EXPONENT["exponent"], e)
        | separators
    )

    fallback = np.flatnonzero(~ok)
    if fallback.size:
        text = _exact(v[fallback].tolist())
        slots.view(np.uint8).reshape(-1, 24)[fallback, :23] = np.frombuffer(
            text, dtype=np.uint8
        ).reshape(-1, 23)
    return slots.tobytes().translate(None, b"\0")


def _exact(values: list) -> bytes:
    """The fallback: ``"%.9g" % v`` of each value, NUL-padded to 23 bytes
    (the slot less its separator)."""
    return b"".join(("%.9g" % x).encode("ascii").ljust(23, b"\0") for x in values)


def write_table(
    destination: Union[str, IO[str]],
    header: Sequence[str],
    columns: Sequence[np.ndarray],
) -> None:
    """Write a header line and one row per sample, 9 significant digits.

    ``columns`` are stacked side by side (a 2-D array contributes one
    column per array column), one chunk of rows at a time, so the table is
    never copied whole; columns of different lengths raise ValueError
    before anything is written.  Every value is written as ``"%.9g" % v``
    writes it (the same text as ``f"{v:.9g}"``), byte for byte, including
    -0, inf, nan and subnormals: chunks of ``_CHUNK_VALUES`` values go
    through the certified numpy fast path, and only the values it cannot
    certify (zeros, non-finite and subnormal values, |v| outside 1e-290 ..
    1e290, and 9-digit ties within 1e-6) through ``"%.9g" % v``; see the
    module docstring.  A string destination is opened for writing (and
    truncated); a stream is written and left open.
    """
    columns = [np.asarray(c) for c in columns]
    columns = [c[:, None] if c.ndim == 1 else c for c in columns]
    rows = columns[0].shape[0]
    if any(c.shape[0] != rows for c in columns):
        raise ValueError(
            f"columns differ in length: {[c.shape[0] for c in columns]}"
        )
    width = sum(c.shape[1] for c in columns)
    chunk_rows = max(1, _CHUNK_VALUES // width)
    separators = np.tile(
        np.array([_COMMA] * (width - 1) + [_NEWLINE], dtype=_U64),
        chunk_rows,
    )
    slots = np.empty((chunk_rows * width, 3), dtype=_SLOT)

    def _dump(fh: IO[str]) -> None:
        fh.write(",".join(header) + "\n")
        for lo in range(0, rows, chunk_rows):
            values = np.concatenate(
                [c[lo : lo + chunk_rows] for c in columns], axis=1, dtype=np.float64
            ).ravel()
            n = values.size
            fh.write(_format_chunk(values, separators[:n], slots[:n]).decode("ascii"))

    if hasattr(destination, "write"):
        _dump(destination)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            _dump(fh)
