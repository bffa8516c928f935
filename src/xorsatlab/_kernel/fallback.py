"""Pure-Python GF(2) elimination kernel.

Rows are handled as arbitrary-precision integers (bit j = column j), so the
inner XOR runs at C speed inside CPython's bignum code.  Reduction keeps a
pivot map {column -> row int}; insertion reduces each row against existing
pivots at its lowest set bit, which selects the same pivot columns as
classic left-to-right elimination.
"""

from __future__ import annotations

import numpy as np


# Rows move through one byte view of the C-contiguous array: no per-row
# numpy objects, and no whole-array bytes copy to raise peak memory.


def _rows_to_ints(a: np.ndarray) -> list[int]:
    buf = memoryview(a).cast("B")
    nbytes = a.shape[1] * 8
    return [int.from_bytes(buf[i : i + nbytes], "little") for i in range(0, len(buf), nbytes)]


def _write_rows(a: np.ndarray, rows: list[int]) -> None:
    buf = memoryview(a).cast("B")
    nbytes = a.shape[1] * 8
    for i, r in enumerate(rows):
        buf[i * nbytes : (i + 1) * nbytes] = r.to_bytes(nbytes, "little")


def eliminate_words(a: np.ndarray, ncols: int) -> tuple[int, list[int]]:
    """Reduce `a` in place over GF(2); return (rank, pivot columns).

    See xorsatlab._kernel.__doc__ for the contract.
    """
    m = a.shape[0]
    if m == 0 or ncols == 0 or a.shape[1] == 0:
        return 0, []
    rows = _rows_to_ints(a)
    pivots: dict[int, int] = {}
    for v in rows:
        while v:
            c = (v & -v).bit_length() - 1
            p = pivots.get(c)
            if p is None:
                pivots[c] = v
                break
            v ^= p
        if len(pivots) == ncols:  # every later row reduces to zero
            break
    cols = sorted(pivots)
    out = [pivots[c] for c in cols]
    out.extend(0 for _ in range(m - len(out)))
    _write_rows(a, out)
    return len(cols), cols

