"""Plain CSV tables of float columns, written to a path or an open stream."""

from __future__ import annotations

from typing import IO, Sequence, Union

import numpy as np

# Rows formatted per write: large enough to amortise the write call, small
# enough that a long trace is never held as one string.
_CHUNK_ROWS = 512


def write_table(
    destination: Union[str, IO[str]],
    header: Sequence[str],
    columns: Sequence[np.ndarray],
) -> None:
    """Write a header line and one row per sample, 9 significant digits.

    ``columns`` are stacked side by side (a 2-D array contributes one
    column per array column).  Each row is formatted by a single ``%``
    call; ``"%.9g" % v`` gives the same text as ``f"{v:.9g}"`` for every
    float, including -0, inf, nan and subnormals.  A string destination is
    opened for writing (and truncated); a stream is written and left open.
    """
    table = np.column_stack(columns)
    fmt = ",".join(["%.9g"] * table.shape[1]) + "\n"

    def _dump(fh: IO[str]) -> None:
        fh.write(",".join(header) + "\n")
        for lo in range(0, table.shape[0], _CHUNK_ROWS):
            rows = table[lo : lo + _CHUNK_ROWS].tolist()
            fh.write("".join([fmt % tuple(r) for r in rows]))

    if hasattr(destination, "write"):
        _dump(destination)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            _dump(fh)
