"""Bit-packed GF(2) linear algebra: rank, solving, and critical-set counting.

A *critical set* of a matrix is a collection of rows whose GF(2) sum is the
zero vector; the number of nonempty critical sets is 2**nullity(A^T) - 1,
which is what `count_critical_sets` returns (exactly, as a Python int).
All operations leave their inputs unchanged (they work on copies).

Elimination is plain word-packed Gaussian elimination with partial pivoting
by first set bit, forward only (row echelon form); the inner loop lives in
xorsatlab._kernel (compiled extension when available, pure-Python big-int
fallback otherwise).  `solve` back-substitutes on the echelon rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from xorsatlab._kernel import KERNEL_BACKEND, eliminate_words
from xorsatlab.errors import BudgetExceededError

WORD_BITS = 64

_BRUTE_FORCE_MAX_ROWS = 24


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
        mat = cls.zeros(rows, cols)
        packed = np.packbits(arr, axis=1, bitorder="little")
        width = _words_for(cols) * 8
        padded = np.zeros((rows, width), dtype=np.uint8)
        padded[:, : packed.shape[1]] = packed
        mat.data = padded.view(np.uint64).copy()
        mat._mask_tail()
        return mat

    @classmethod
    def from_sparse_rows(cls, cols: int, index_rows: Iterable[Sequence[int]]) -> "BitMatrix":
        """Build from per-row column index lists; repeated indices toggle (parity)."""
        index_rows = list(index_rows)
        mat = cls.zeros(len(index_rows), cols)
        lengths = [len(idxs) for idxs in index_rows]
        try:
            flat = np.fromiter(
                map(operator.index, chain.from_iterable(index_rows)), dtype=np.int64, count=sum(lengths)
            )
        except OverflowError:
            flat = None
        if flat is None or (flat.size and (flat.min() < 0 or flat.max() >= cols)):
            bad = next(j for idxs in index_rows for j in idxs if not 0 <= j < cols)
            raise ValueError(f"column index {bad} out of range [0, {cols})")
        # one unbuffered XOR per index, so repeats cancel in pairs
        word = np.repeat(np.arange(len(index_rows), dtype=np.int64), lengths) * mat.data.shape[1] + (flat >> 6)
        bit = np.left_shift(np.uint64(1), (flat & 63).astype(np.uint64))
        np.bitwise_xor.at(mat.data.reshape(-1), word, bit)
        return mat

    def row_int(self, i: int) -> int:
        return int.from_bytes(self.data[i].tobytes(), "little")

    def row_ints(self) -> list[int]:
        return [self.row_int(i) for i in range(self.rows)]


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


def rank(mat: BitMatrix) -> int:
    """GF(2) row rank; the input matrix is left unchanged."""
    work = mat.data.copy()
    r, _ = eliminate_words(work, mat.cols)
    return r


def solve(mat: BitMatrix, b: Sequence[int]) -> SolveResult:
    """Solve A x = b; raises ValueError on a row-count/length mismatch.

    Forward elimination of [A | b] to row echelon form, then
    back-substitution over the pivot rows, last pivot first.
    """
    b = np.asarray(b, dtype=np.uint8)
    if b.shape != (mat.rows,):
        raise ValueError(f"rhs length {b.shape} does not match {mat.rows} rows")
    aug_cols = mat.cols + 1
    aug = np.zeros((mat.rows, _words_for(aug_cols)), dtype=np.uint64)
    aug[:, : mat.data.shape[1]] = mat.data
    aug[:, mat.cols >> 6] |= b.astype(np.uint64) << np.uint64(mat.cols & 63)
    _, pivots = eliminate_words(aug, aug_cols)
    rank_a = sum(1 for p in pivots if p < mat.cols)
    if len(pivots) != rank_a:
        return SolveResult(False, rank_a, None, None)
    # x carries the rhs bit at column `cols`, so a row's parity against it
    # is (row . x) + b_row; free variables stay 0.
    x = 1 << mat.cols
    nbytes = aug.shape[1] * 8
    echelon = aug[:rank_a].tobytes()
    for row in range(rank_a - 1, -1, -1):
        r = int.from_bytes(echelon[row * nbytes : (row + 1) * nbytes], "little")
        if (r & x).bit_count() & 1:
            x |= 1 << pivots[row]
    packed = np.frombuffer(x.to_bytes(nbytes, "little"), dtype=np.uint8)
    one = np.unpackbits(packed, bitorder="little")[: mat.cols]
    return SolveResult(True, rank_a, one, mat.cols - rank_a)


def nullity_transpose(mat: BitMatrix) -> int:
    """Dimension of the left kernel {y : y^T A = 0}: rows - rank."""
    return mat.rows - rank(mat)


def count_critical_sets(mat: BitMatrix) -> int:
    """Exact number of nonempty row subsets with all-even column sums.

    Equals 2**nullity_transpose(mat) - 1, returned as an exact int (the
    nullity can be as large as the row count, so this is a big integer).
    """
    return (1 << nullity_transpose(mat)) - 1


def brute_force_critical_sets(mat: BitMatrix) -> int:
    """Oracle: enumerate all nonempty row subsets (Gray-code order).

    Guarded at 24 rows; beyond that the 2**rows walk is refused.
    """
    if mat.rows > _BRUTE_FORCE_MAX_ROWS:
        raise BudgetExceededError(f"{mat.rows} rows exceeds brute-force guard of {_BRUTE_FORCE_MAX_ROWS}")
    rows = mat.row_ints()
    acc = 0
    count = 0
    for s in range(1, 1 << mat.rows):
        acc ^= rows[(s & -s).bit_length() - 1]
        if acc == 0:
            count += 1
    return count


def matvec(mat: BitMatrix, x: Sequence[int]) -> np.ndarray:
    """A·x over GF(2) as a uint8 vector of length rows."""
    x = np.asarray(x, dtype=np.uint8)
    if x.shape != (mat.cols,):
        raise ValueError(f"vector length {x.shape} does not match {mat.cols} cols")
    xi = int.from_bytes(np.packbits(x, bitorder="little").tobytes(), "little")
    out = np.empty(mat.rows, dtype=np.uint8)
    for i in range(mat.rows):
        out[i] = (mat.row_int(i) & xi).bit_count() & 1
    return out


__all__ = [
    "KERNEL_BACKEND",
    "BitMatrix",
    "SolveResult",
    "brute_force_critical_sets",
    "count_critical_sets",
    "matvec",
    "nullity_transpose",
    "rank",
    "solve",
]
