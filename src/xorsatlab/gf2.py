"""Bit-packed GF(2) linear algebra: rank and solving.

All operations leave their inputs unchanged (they work on copies).  The
number of nonempty critical sets of a matrix, the row subsets whose GF(2)
sum is the zero vector, is 2**(rows - rank) - 1; callers compute it from
`rank` or from `solve`'s rank.

Elimination is plain word-packed Gaussian elimination with partial pivoting
by first set bit, forward only (row echelon form); the inner loop lives in
xorsatlab._kernel (compiled extension when available, pure-Python big-int
fallback otherwise).

`solve` first runs structured Gaussian elimination on the sparse rows
(LaMacchia & Odlyzko, CRYPTO 1990): it pivots every row that has one active
column left and, when none has, makes inactive the active column that sits
in the most rows.  Every pivoted column is then an affine function of the
inactive ones, and only the rows left unpivoted, rewritten over the
inactive columns, reach the kernel: on a random 3-XORSAT 2-core of about
2000 columns that dense residue is about 150 columns wide.  Its solution is
lifted back and reduced to the one that left-to-right elimination of the
whole system gives, with every non-pivot column 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from xorsatlab._kernel import KERNEL_BACKEND, eliminate_words

WORD_BITS = 64


def _words_for(cols: int) -> int:
    return (cols + WORD_BITS - 1) // WORD_BITS


@dataclass
class BitMatrix:
    """Dense GF(2) matrix, rows bit-packed into uint64 words.

    Invariants: data.shape == (rows, ceil(cols/64)); every bit at column
    index >= cols is zero in every row.
    """

    rows: int
    cols: int
    data: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.rows, _words_for(self.cols))
        if self.data.shape != expected or self.data.dtype != np.uint64:
            raise ValueError(f"data must be uint64 of shape {expected}, got {self.data.shape} {self.data.dtype}")
        if not self.data.flags.c_contiguous:
            self.data = np.ascontiguousarray(self.data)
        self._mask_tail()

    def _mask_tail(self) -> None:
        rem = self.cols % WORD_BITS
        if rem and self.data.shape[1]:
            self.data[:, -1] &= np.uint64((1 << rem) - 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, np.zeros((rows, _words_for(cols)), dtype=np.uint64))

    @classmethod
    def from_dense(cls, arr) -> "BitMatrix":
        arr = np.asarray(arr, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D 0/1 array")
        rows, cols = arr.shape
        packed = np.packbits(arr, axis=1, bitorder="little")
        padded = np.zeros((rows, _words_for(cols) * 8), dtype=np.uint8)
        padded[:, : packed.shape[1]] = packed
        return cls(rows, cols, padded.view(np.uint64))

    @classmethod
    def from_sparse_rows(cls, cols: int, index_rows: np.ndarray) -> "BitMatrix":
        """Build from an (m, k) integer array, row i holding the column
        indices of row i, in one numpy pass; repeated indices toggle (parity).

        TypeError on any other shape or a non-integer dtype (an empty array
        may have any dtype); ValueError names the first index, in row order,
        outside [0, cols).
        """
        index = np.asarray(index_rows)
        if index.ndim != 2 or (index.size and index.dtype.kind not in "iu"):
            raise TypeError(f"expected an (m, k) integer array, got shape {index.shape} of {index.dtype}")
        # checked before the int64 cast, so an index past int64 is named as given
        if index.size and (index.min() < 0 or index.max() >= cols):
            bad = next(j for j in index.ravel().tolist() if not 0 <= j < cols)
            raise ValueError(f"column index {bad} out of range [0, {cols})")
        rows, k = index.shape
        flat = index.astype(np.int64, copy=False).ravel()
        mat = cls.zeros(rows, cols)
        # one unbuffered XOR per index, so repeats cancel in pairs
        word = np.repeat(np.arange(rows, dtype=np.int64), k) * mat.data.shape[1] + (flat >> 6)
        bit = np.left_shift(np.uint64(1), (flat & 63).astype(np.uint64))
        np.bitwise_xor.at(mat.data.reshape(-1), word, bit)
        return mat

    def row_int(self, i: int) -> int:
        return int.from_bytes(self.data[i].tobytes(), "little")


@dataclass
class SolveResult:
    """Outcome of solving A x = b over GF(2).

    solution_count_log2 = cols - rank when consistent (the solution set is a
    coset of the kernel), None otherwise; one_solution has free variables 0.
    """

    consistent: bool
    rank: int
    one_solution: np.ndarray | None
    solution_count_log2: int | None


def _bit_vector(values: Sequence[int], length: int, name: str, unit: str) -> np.ndarray:
    """`values` as a uint8 vector of 0s and 1s; ValueError on any other entry
    or length."""
    arr = np.asarray(values)
    if arr.shape != (length,):
        raise ValueError(f"{name} length {arr.shape} does not match {length} {unit}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    return arr.astype(np.uint8)


def rank(mat: BitMatrix) -> int:
    """GF(2) row rank; the input matrix is left unchanged."""
    work = mat.data.copy()
    r, _ = eliminate_words(work, mat.cols)
    return r


def _incidence(mat: BitMatrix) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """Each row's entry count and XOR of its column ids; the row ids of all
    columns in one flat list and its n + 1 offsets (column v holds
    flat[starts[v]:starts[v + 1]]); and the columns by falling count of rows
    (ties by id), read back from the packed words.  Flat int lists, not a
    list per column, give the collector nothing new to track."""
    words = mat.data.reshape(-1)
    hot = np.flatnonzero(words != 0)
    hits = np.flatnonzero(np.unpackbits(words[hot].view(np.uint8), bitorder="little").view(bool))
    row, word = np.divmod(hot[hits >> 6], mat.data.shape[1])
    col = word * WORD_BITS + (hits & 63)
    weight = np.bincount(row, minlength=mat.rows)
    ends = np.cumsum(weight)
    prefix = np.zeros(col.size + 1, dtype=np.int64)
    np.bitwise_xor.accumulate(col, out=prefix[1:])
    degree = np.bincount(col, minlength=mat.cols)
    return (
        weight.tolist(),
        (prefix[ends] ^ prefix[ends - weight]).tolist(),
        row[np.argsort(col)].tolist(),
        [0, *np.cumsum(degree).tolist()],
        np.argsort(-degree, kind="stable").tolist(),
    )


def solve(mat: BitMatrix, b: Sequence[int]) -> SolveResult:
    """Solve A x = b; raises ValueError on a row-count/length mismatch or an
    rhs entry other than 0 and 1.

    1. Pivot each row that has one active column left; when no row has one,
       make the active column in the most rows inactive.  A column leaves
       the active set as an int over the inactive columns (bit 1 + i, in
       the order they were made inactive) and the constant (bit 0), which
       is XORed into every row that holds it.
    2. The rows left unpivoted then form the dense residue [R | r] over the
       inactive columns, which the kernel eliminates.
    3. Back-substitution in the residue's echelon form, on all its free
       columns at once, gives one solution and a basis of its null space;
       replaying step 1 lifts them to every column.
    4. `_canonical` reduces the lifted solution to the one with 0 on every
       non-pivot column of left-to-right elimination of the whole system.

    Built for sparse rows, such as the 2-cores and constrained systems the
    package samples: steps 1 and 3 do Python work per nonzero, which pays
    off only when it leaves a narrow residue.  Rows holding a large share
    of the columns are out of scope: nearly every column is made inactive,
    the residue is the whole system, and that work comes on top of its
    elimination.  On a 2-core machine with Python 3.11, against eliminating
    and back-substituting the whole of [A | b], random dense square systems
    of 64 to 256 rows take 2-3x as long on the fallback kernel and 8-24x on
    the compiled one (11 against 0.5 ms at 256 rows); k=40 rows over 1000
    columns take about as long on the fallback and 4x as long on the
    compiled kernel (26 against 6 ms).
    """
    b = _bit_vector(b, mat.rows, "rhs", "rows")
    n = mat.cols
    rhs = b.tolist()
    weight, ids, flat, starts, by_degree = _incidence(mat)
    # A row's int holds the XOR of its active column ids in the low `shift`
    # bits, so a row of weight 1 names its last column.
    shift = n.bit_length()
    acc = [bit << shift | i for bit, i in zip(rhs, ids)]
    active = bytearray(b"\x01") * n
    queue = [e for e, w in enumerate(weight) if w == 1]
    step_cols: list[int] = []
    step_rows: list[int] = []  # the step's pivot row, or -1 if its column was made inactive
    inactive: list[int] = []
    by_degree = iter(by_degree)
    while True:
        if queue:
            e = queue.pop()
            if weight[e] != 1:
                continue
            x = acc[e]
            v = x & ((1 << shift) - 1)
        else:
            v = next((j for j in by_degree if active[j]), None)
            if v is None:
                break
            e, x = -1, 2 << (shift + len(inactive)) | v
            inactive.append(v)
        step_cols.append(v)
        step_rows.append(e)
        active[v] = 0
        for f in flat[starts[v] : starts[v + 1]]:
            acc[f] ^= x
            weight[f] -= 1
            if weight[f] == 1:
                queue.append(f)

    # every row is now an equation over the inactive columns; the pivot
    # rows and the rows that reduced to 0 = 0 are 0 and add nothing
    width = len(inactive)
    nbytes = _words_for(width + 1) * 8
    residue = b"".join((a >> shift + 1 | (a >> shift & 1) << width).to_bytes(nbytes, "little") for a in acc if a)
    aug = np.frombuffer(bytearray(residue), dtype=np.uint64).reshape(-1, nbytes // 8)
    r, piv = eliminate_words(aug, width + 1)
    if piv and piv[-1] == width:
        return SolveResult(False, n - width + r - 1, None, None)

    # one solution and a null-space basis of the residue: echelon row i sets
    # pivot column piv[i] to its rhs bit plus its free and later pivot
    # columns, which back-substitution resolves last pivot first
    bits = np.unpackbits(aug[:r].view(np.uint8), axis=1, bitorder="little")
    free = sorted(set(range(width)).difference(piv))
    nfree = len(free)
    later = bits[:, piv].T.astype(bool)[:, :, None]  # later[i, j]: row j holds pivot column piv[i]
    vbytes = _words_for(nfree + 1) * 8
    values = np.zeros((r, vbytes), dtype=np.uint8)
    values[:, : nfree // 8 + 1] = np.packbits(bits[:, [*free, width]], axis=1, bitorder="little")
    values = values.view(np.uint64)
    for i in range(r - 1, 0, -1):
        np.bitwise_xor(values[:i], values[i], out=values[:i], where=later[i, :i])
    # lifted[j]: bit t is column j of null vector t, bit nfree column j of
    # the solution whose free residue columns are 0
    lifted = [0] * n
    for t, c in enumerate(free):
        lifted[inactive[c]] = 1 << t
    packed = values.tobytes()
    for i, p in enumerate(piv):
        lifted[inactive[p]] = int.from_bytes(packed[i * vbytes : (i + 1) * vbytes], "little")
    row_acc = [bit << nfree for bit in rhs]
    for v, e in zip(step_cols, step_rows):
        x = lifted[v] if e < 0 else row_acc[e]
        lifted[v] = x
        for f in flat[starts[v] : starts[v + 1]]:
            row_acc[f] ^= x
    return SolveResult(True, n - width + r, _canonical(lifted, nfree), nfree)


def _canonical(lifted: list[int], nfree: int) -> np.ndarray:
    """The solution with 0 on every non-pivot column of left-to-right
    elimination, from one solution and a kernel basis held column by column
    (bit nfree of lifted[j] is column j of the solution, bit t that of
    kernel vector t).

    The kernel basis in echelon form by highest bit leads exactly at the
    non-pivot columns, since column j is one iff some kernel vector's
    highest bit is j; reducing the solution by that basis zeroes them.
    """
    n = len(lifted)
    nbytes = nfree // 8 + 1
    per_col = np.frombuffer(b"".join(x.to_bytes(nbytes, "little") for x in lifted), dtype=np.uint8)
    bits = np.unpackbits(per_col, bitorder="little").reshape(n, 8 * nbytes).T[: nfree + 1].copy()
    packed = np.packbits(bits, axis=1, bitorder="little")
    *kernel, x = (int.from_bytes(v.tobytes(), "little") for v in packed)
    basis: dict[int, int] = {}
    for v in kernel:
        while v:
            h = v.bit_length() - 1
            g = basis.get(h)
            if g is None:
                basis[h] = v
                break
            v ^= g
    for h in sorted(basis, reverse=True):
        if x >> h & 1:
            x ^= basis[h]
    return np.unpackbits(np.frombuffer(x.to_bytes(packed.shape[1], "little"), dtype=np.uint8), bitorder="little")[:n]


def matvec(mat: BitMatrix, x: Sequence[int]) -> np.ndarray:
    """A·x over GF(2) as a uint8 vector of length rows."""
    x = _bit_vector(x, mat.cols, "vector", "cols")
    xi = int.from_bytes(np.packbits(x, bitorder="little").tobytes(), "little")
    out = np.empty(mat.rows, dtype=np.uint8)
    for i in range(mat.rows):
        out[i] = (mat.row_int(i) & xi).bit_count() & 1
    return out


__all__ = [
    "KERNEL_BACKEND",
    "BitMatrix",
    "SolveResult",
    "matvec",
    "rank",
    "solve",
]
