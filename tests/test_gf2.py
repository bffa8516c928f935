import gc
import importlib.machinery
import json
import os
import subprocess
import sys
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_critical_sets, count_critical_sets, nullity_transpose, row_ints
import xorsatlab
from xorsatlab import gf2
from xorsatlab._kernel import fallback
from xorsatlab.errors import BudgetExceededError
from xorsatlab.gf2 import BitMatrix, SolveResult, matvec, rank, solve


def rank_full_pivot(dense: np.ndarray) -> int:
    """Independent oracle: elimination over integers mod 2 with full pivoting."""
    a = (np.asarray(dense, dtype=np.int64) % 2).copy()
    rows, cols = a.shape
    r = 0
    while r < min(rows, cols):
        sub = a[r:, r:]
        nz = np.argwhere(sub)
        if nz.size == 0:
            break
        i, j = nz[0]
        a[[r, r + i]] = a[[r + i, r]]
        a[:, [r, r + j]] = a[:, [r + j, r]]
        for other in range(rows):
            if other != r and a[other, r]:
                a[other] = (a[other] + a[r]) % 2
        r += 1
    return r


def brute_force_solutions(dense: np.ndarray, b) -> int:
    """Count satisfying assignments by enumerating all 2^n vectors."""
    rows = [int("".join(map(str, row[::-1])), 2) for row in dense]
    n = dense.shape[1]
    count = 0
    for x in range(1 << n):
        if all(bin(r & x).count("1") % 2 == bi for r, bi in zip(rows, b)):
            count += 1
    return count


def identity(n: int) -> BitMatrix:
    return BitMatrix.from_dense(np.eye(n, dtype=np.uint8))


def test_rank_identity_and_duplicates():
    assert rank(identity(3)) == 3
    dup = BitMatrix.from_dense([[1, 0, 1, 0], [1, 0, 1, 0]])
    assert rank(dup) == 1
    assert nullity_transpose(identity(3)) == 0
    assert nullity_transpose(dup) == 1
    assert count_critical_sets(dup) == 1


def test_rank_matches_full_pivot_oracle(rng):
    for _ in range(40):
        dense = rng.integers(0, 2, size=(12, 14), dtype=np.uint8)
        mat = BitMatrix.from_dense(dense)
        assert rank(mat) == rank_full_pivot(dense)
    # rank leaves the input unchanged
    dense = rng.integers(0, 2, size=(9, 9), dtype=np.uint8)
    mat = BitMatrix.from_dense(dense)
    before = mat.data.copy()
    rank(mat)
    assert (mat.data == before).all()


def test_solve_identity_and_zero():
    res = solve(identity(3), [1, 0, 1])
    assert res.consistent and res.solution_count_log2 == 0
    assert res.one_solution.tolist() == [1, 0, 1]
    res = solve(BitMatrix.zeros(2, 3), [1, 0])
    assert not res.consistent and res.one_solution is None and res.solution_count_log2 is None
    with pytest.raises(ValueError):
        solve(identity(3), [1, 0])


def test_solve_counts_match_enumeration(rng):
    for _ in range(8):
        dense = rng.integers(0, 2, size=(8, 10), dtype=np.uint8)
        b = rng.integers(0, 2, size=8)
        mat = BitMatrix.from_dense(dense)
        res = solve(mat, b)
        enumerated = brute_force_solutions(dense, b.tolist())
        if res.consistent:
            assert enumerated == 1 << res.solution_count_log2
            assert (matvec(mat, res.one_solution) == b).all()
        else:
            assert enumerated == 0


def test_nullity_transpose_matches_left_kernel_enumeration(rng):
    for _ in range(5):
        dense = rng.integers(0, 2, size=(10, 12), dtype=np.uint8)
        mat = BitMatrix.from_dense(dense)
        # count nonzero y with y^T A = 0 by direct subset enumeration
        hits = 0
        for mask in range(1, 1 << 10):
            acc = np.zeros(12, dtype=np.int64)
            for i in range(10):
                if (mask >> i) & 1:
                    acc += dense[i]
            hits += int(not (acc % 2).any())
        assert hits == (1 << nullity_transpose(mat)) - 1
        assert hits == count_critical_sets(mat)


def test_brute_force_critical_sets_examples():
    one_row = BitMatrix.from_dense([[1, 0, 1]])
    assert brute_force_critical_sets(one_row) == 0
    triple = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert brute_force_critical_sets(triple) == 1
    assert count_critical_sets(triple) == 1
    with pytest.raises(BudgetExceededError):
        brute_force_critical_sets(BitMatrix.zeros(25, 3))


def test_critical_set_cross_oracle(rng):
    for _ in range(100):
        dense = rng.integers(0, 2, size=(12, 9), dtype=np.uint8)
        mat = BitMatrix.from_dense(dense)
        assert count_critical_sets(mat) == brute_force_critical_sets(mat)


def test_full_row_rank_has_no_critical_sets(rng):
    while True:
        dense = rng.integers(0, 2, size=(6, 12), dtype=np.uint8)
        mat = BitMatrix.from_dense(dense)
        if rank(mat) == 6:
            break
    assert count_critical_sets(mat) == 0


def test_rank_invariances(rng):
    dense = rng.integers(0, 2, size=(10, 10), dtype=np.uint8)
    base = rank(BitMatrix.from_dense(dense))
    perm = rng.permutation(10)
    assert rank(BitMatrix.from_dense(dense[perm])) == base
    updated = dense.copy()
    updated[3] ^= updated[7]
    assert rank(BitMatrix.from_dense(updated)) == base
    assert base <= min(dense.shape)


def test_rhs_moment_identities(rng):
    """For fixed small A, averaging over all 2^m rhs vectors exactly:
    sum_b N(b) = 2^n and E[N^2]/E[N]^2 = (#critical sets) + 1."""
    from fractions import Fraction

    for _ in range(6):
        m, n = int(rng.integers(3, 9)), int(rng.integers(4, 11))
        dense = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        mat = BitMatrix.from_dense(dense)
        total = Fraction(0)
        total_sq = Fraction(0)
        for bits in range(1 << m):
            b = [(bits >> i) & 1 for i in range(m)]
            res = solve(mat, b)
            cnt = (1 << res.solution_count_log2) if res.consistent else 0
            total += cnt
            total_sq += cnt * cnt
        assert total == Fraction(2) ** n
        mean = total / (1 << m)
        mean_sq = total_sq / (1 << m)
        assert mean_sq / mean**2 == count_critical_sets(mat) + 1


def agreement_cases(rng):
    """Matrices for the backend comparison: random shapes, empty shapes,
    widths at word boundaries, and rank-deficient systems."""
    for _ in range(30):
        m, n = int(rng.integers(1, 70)), int(rng.integers(1, 70))
        yield rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    for m, n in ((0, 0), (0, 5), (5, 0)):
        yield np.zeros((m, n), dtype=np.uint8)
    for cols in (63, 64, 65, 128):
        for rows in (1, cols // 2, cols, cols + 7):
            dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            yield dense
            low = dense.copy()
            low[rows // 2 :] = low[: rows - rows // 2]
            yield low


def test_backends_agree_on_rref(rng, ext_kernel):
    from xorsatlab._kernel import KERNEL_BACKEND

    for dense in agreement_cases(rng):
        mat = BitMatrix.from_dense(dense)
        a1, a2 = mat.data.copy(), mat.data.copy()
        r1, p1 = ext_kernel.eliminate_words(a1, mat.cols)
        r2, p2 = fallback.eliminate_words(a2, mat.cols)
        assert (r1, p1) == (r2, p2)
        assert r1 == rank_full_pivot(dense)
        # row echelon form, which solve back-substitutes on
        assert_row_echelon(a1, r1, p1)
        assert_row_echelon(a2, r2, p2)
        # the RREF is unique, so reducing both forms fully makes them equal
        reduce_to_rref(a1, p1)
        reduce_to_rref(a2, p2)
        assert (a1 == a2).all()
    assert KERNEL_BACKEND in ("ext", "python")


def reduce_to_rref(a: np.ndarray, pivots: list[int]) -> None:
    """Clear each pivot column from the other pivot rows of a row echelon form."""
    rows = a[: len(pivots)]
    for i, p in enumerate(pivots):
        hits = (rows[:, p >> 6] >> np.uint64(p & 63)) & np.uint64(1) == 1
        hits[i] = False
        rows[hits] ^= rows[i]


@pytest.mark.parametrize(
    "make",
    [
        lambda a: a[0],
        lambda a: a.reshape(3, 1, 2),
        lambda a: a.astype(np.int64),
        lambda a: a.astype(np.uint32),
        lambda a: a.astype(np.float64),
        lambda a: a.astype(">u8"),
        lambda a: a[::2],
        lambda a: a.T,
        lambda a: np.frombuffer(a.tobytes(), dtype=np.uint64).reshape(a.shape),
        lambda a: a.tolist(),
        lambda a: bytearray(a.tobytes()),
    ],
    ids=["1d", "3d", "int64", "uint32", "float64", "big_endian", "strided", "fortran", "read_only", "list", "bytearray"],
)
def test_ext_rejects_malformed_arrays(ext_kernel, make):
    a = np.arange(6, dtype=np.uint64).reshape(3, 2)
    bad = make(a)
    with pytest.raises((TypeError, ValueError)):
        ext_kernel.eliminate_words(bad, 64)
    assert (a == np.arange(6, dtype=np.uint64).reshape(3, 2)).all()


def test_ext_ignores_ncols_past_the_words(rng, ext_kernel):
    # every bit of both words is set at random, so a kernel that read past a
    # row would find pivots at columns >= 128
    words = rng.integers(0, 2**64, size=(200, 2), dtype=np.uint64)
    want = fallback.eliminate_words(words.copy(), 128)
    assert want[0] == 128
    for ncols in (129, 192, 10**6, 2**62):
        a = words.copy()
        assert ext_kernel.eliminate_words(a, ncols) == want
        assert_row_echelon(a, *want)
    assert ext_kernel.eliminate_words(np.zeros((0, 0), dtype=np.uint64), 2**62) == (0, [])


def assert_row_echelon(a: np.ndarray, r: int, pivots: list[int]) -> None:
    rows = row_ints(BitMatrix(a.shape[0], a.shape[1] * 64, a))
    assert pivots == sorted(set(pivots)) and len(pivots) == r
    for i, p in enumerate(pivots):
        assert (rows[i] & -rows[i]).bit_length() - 1 == p
    assert not any(rows[r:])


# The child must import the same xorsatlab as this process, whether it came
# from an install or from PYTHONPATH=src, so the directory holding the
# package is its only PYTHONPATH entry.
PACKAGE_FILE = os.path.abspath(xorsatlab.__file__)


def run_fresh(code: str, *args: str) -> list[str]:
    """The stdout lines of `code` run in a fresh interpreter on this package."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.path.dirname(os.path.dirname(PACKAGE_FILE))},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_fallback_env_selection():
    """A fresh process picks the compiled kernel exactly when `_ext` is built
    beside `_kernel/__init__.py`, and the fallback otherwise."""
    kernel_dir = os.path.join(os.path.dirname(PACKAGE_FILE), "_kernel")
    built = any(os.path.exists(os.path.join(kernel_dir, "_ext" + s)) for s in importlib.machinery.EXTENSION_SUFFIXES)
    backend, child_file = run_fresh(
        "import os, xorsatlab; from xorsatlab._kernel import KERNEL_BACKEND; "
        "print(KERNEL_BACKEND); print(os.path.abspath(xorsatlab.__file__))"
    )
    assert child_file == PACKAGE_FILE
    assert backend == ("ext" if built else "python")


def test_dense_round_trip(rng):
    dense = rng.integers(0, 2, size=(7, 130), dtype=np.uint8)
    mat = BitMatrix.from_dense(dense)
    # bit j of row i is dense[i, j], and nothing is set past column 130
    assert row_ints(mat) == [sum(1 << int(j) for j in np.flatnonzero(row)) for row in dense]
    # five column indices a row, some repeated: the dense matrix of their parities
    index = rng.integers(0, 130, size=(7, 5))
    parity = np.zeros((7, 130), dtype=np.uint8)
    for i, row in enumerate(index):
        for j in row:
            parity[i, j] ^= 1
    assert (BitMatrix.from_sparse_rows(130, index).data == BitMatrix.from_dense(parity).data).all()
    sparse = BitMatrix.from_sparse_rows(6, [[0, 3, 3, 5], [1, 4, 4, 4]])
    literal = BitMatrix.from_dense([[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 1, 0]])
    assert row_ints(sparse) == row_ints(literal) == [0b100001, 0b10010]
    assert (sparse.data == literal.data).all()


def test_empty_system():
    empty = BitMatrix.zeros(0, 0)
    assert rank(empty) == 0
    res = solve(empty, [])
    assert res.consistent and res.solution_count_log2 == 0 and res.one_solution.size == 0
    assert count_critical_sets(BitMatrix.zeros(0, 5)) == 0


def test_solve_at_word_boundaries(rng):
    # the augmented rhs column lands in a fresh word exactly at cols % 64 == 0
    for cols in (63, 64, 65, 128):
        dense = rng.integers(0, 2, size=(cols, cols), dtype=np.uint8)
        mat = BitMatrix.from_dense(dense)
        b = rng.integers(0, 2, size=cols)
        res = solve(mat, b)
        if res.consistent:
            assert (matvec(mat, res.one_solution) == b).all()
        ident = identity(cols)
        res = solve(ident, b)
        assert res.consistent and (res.one_solution == b).all()


def reference_solve(mat: BitMatrix, b) -> SolveResult:
    """The RREF solver `solve` replaced: full reduction, x read off the pivot rows."""
    b = np.asarray(b, dtype=np.uint8)
    aug_cols = mat.cols + 1
    aug = np.zeros((mat.rows, (aug_cols + 63) // 64), dtype=np.uint64)
    aug[:, : mat.data.shape[1]] = mat.data
    word, bit = mat.cols >> 6, mat.cols & 63
    aug[:, word] |= b.astype(np.uint64) << np.uint64(bit)
    _, pivots = fallback.eliminate_words(aug, aug_cols)
    reduce_to_rref(aug, pivots)
    rank_a = sum(1 for p in pivots if p < mat.cols)
    if len(pivots) != rank_a:
        return SolveResult(False, rank_a, None, None)
    x = np.zeros(mat.cols, dtype=np.uint8)
    for row, p in enumerate(pivots):
        x[p] = (int(aug[row, word]) >> bit) & 1
    return SolveResult(True, rank_a, x, mat.cols - rank_a)


def assert_same_result(got: SolveResult, want: SolveResult) -> None:
    assert (got.consistent, got.rank, got.solution_count_log2) == (want.consistent, want.rank, want.solution_count_log2)
    if want.one_solution is None:
        assert got.one_solution is None
    else:
        assert got.one_solution.dtype == np.uint8 and got.one_solution.shape == want.one_solution.shape
        assert got.one_solution.tobytes() == want.one_solution.tobytes()


def solve_cases(rng):
    """(matrix, rhs) pairs: every shape and rank regime solve has to get right."""
    for cols in (0, 1, 63, 64, 65, 127, 128):
        for rows in sorted({0, 1, cols // 2, cols, cols + 7}):
            dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            yield BitMatrix.from_dense(dense), rng.integers(0, 2, size=rows)
            if rows > 1:
                # rank-deficient: duplicated rows; a consistent and a random rhs
                low = dense.copy()
                low[rows // 2 :] = low[: rows - rows // 2]
                low_mat = BitMatrix.from_dense(low)
                x = rng.integers(0, 2, size=cols, dtype=np.uint8)
                yield low_mat, matvec(low_mat, x) if cols else np.zeros(rows, dtype=np.uint8)
                yield low_mat, rng.integers(0, 2, size=rows)
            if cols >= 3:
                sparse = np.array([rng.choice(cols, size=3, replace=False) for _ in range(rows)]).reshape(rows, 3)
                yield BitMatrix.from_sparse_rows(cols, sparse), rng.integers(0, 2, size=rows)
    # inconsistent by construction: a zero row with rhs 1
    yield BitMatrix.zeros(4, 70), np.array([0, 1, 0, 0])


def sparse_front_end_cases(rng):
    """(matrix, rhs) pairs for the sparse front end of `solve`: the
    criterion-06 and criterion-07 shapes, and the corner cases of
    inactivation."""
    from xorsatlab.instances import gen_constrained, gen_unconstrained
    from xorsatlab.peel import two_core
    from xorsatlab.rng import Seed

    for i, c in enumerate((0.87, 0.87, 0.97, 0.97)):
        core, _ = two_core(gen_unconstrained(3, round(c * 3000), 3000, Seed(15, i)))
        mat = BitMatrix.from_sparse_rows(core.n, core.rows)
        yield mat, core.rhs
        if i == 0:  # the same core with a consistent rhs drawn from a random x
            yield mat, matvec(mat, rng.integers(0, 2, size=core.n))
    for i, m in enumerate((900, 900, 1100)):
        inst = gen_constrained(4, m, 1000, Seed(16, i))
        yield BitMatrix.from_sparse_rows(inst.n, inst.rows), inst.rhs
    rows = 70
    # no row ever has weight 1, so every column is made inactive
    yield BitMatrix.zeros(rows, 130), np.zeros(rows, dtype=np.uint8)
    yield BitMatrix.zeros(rows, 0), np.zeros(rows, dtype=np.uint8)
    # zero rows with rhs 1
    yield BitMatrix.zeros(rows, 130), np.eye(1, rows, 5, dtype=np.uint8)[0]
    yield BitMatrix.zeros(rows, 0), np.ones(rows, dtype=np.uint8)
    for cols in (40, 64, 65, 200):
        # rows of weight 0, 1, 2 and 3; columns 0, 3, 6, ... in no row; then
        # every row duplicated, with a consistent rhs and a random one
        used = [c for c in range(cols) if c % 3]
        sparse = [rng.choice(used, size=int(rng.integers(0, 4)), replace=False) for _ in range(rows)]
        for index_rows in (sparse, sparse + sparse):
            mat = reference_from_sparse_rows(cols, index_rows)
            yield mat, matvec(mat, rng.integers(0, 2, size=cols))
            yield mat, rng.integers(0, 2, size=mat.rows)
    # dense rows: all columns but the last few are made inactive
    for shape in ((rows, 60), (130, 128)):
        dense = BitMatrix.from_dense(rng.integers(0, 2, size=shape, dtype=np.uint8))
        yield dense, matvec(dense, rng.integers(0, 2, size=shape[1]))


def tall_residue_cases(rng):
    """(matrix, rhs) pairs whose residue is taller than it is wide, as on
    the unsatisfiable side of the threshold, from rows = width + 1 up; the
    dense ones each have a consistent and a random rhs."""
    # dense rows: a residue about `extra` rows taller than wide
    for cols in (1, 5, 40, 70):
        for extra in (1, 2, 3, 10, 40):
            mat = BitMatrix.from_dense(rng.integers(0, 2, size=(cols + extra, cols), dtype=np.uint8))
            yield mat, matvec(mat, rng.integers(0, 2, size=cols))
            yield mat, rng.integers(0, 2, size=mat.rows)
    # residue width 0: each column pivoted by its own row, then a repeat of
    # every row, `wrong` of them with the other rhs bit: the residue is
    # those rows alone, each 0 = 1
    cols = 20
    for wrong in (0, 1, 2, 7):
        b = rng.integers(0, 2, size=cols)
        again = b.copy()
        again[rng.choice(cols, size=wrong, replace=False)] ^= 1
        yield BitMatrix.from_sparse_rows(cols, [[i] for i in range(cols)] * 2), np.concatenate([b, again])
    # zero rows over columns in no row: every column is made inactive and
    # the residue is exactly the rows with rhs 1, from rows = width + 1 up
    for width in (0, 3, 64):
        for rows in (width + 1, width + 2, width + 9):
            yield BitMatrix.zeros(rows + 3, width), [1] * rows + [0] * 3


@pytest.mark.parametrize("kernel", ["default", "fallback", "ext"])
def test_solve_matches_rref_reference(rng, monkeypatch, request, kernel):
    """`solve` against the RREF oracle under each kernel."""
    from xorsatlab.instances import gen_unconstrained
    from xorsatlab.peel import two_core
    from xorsatlab.rng import Seed

    if kernel == "fallback":
        monkeypatch.setattr(gf2, "eliminate_words", fallback.eliminate_words)
    elif kernel == "ext":
        monkeypatch.setattr(gf2, "eliminate_words", request.getfixturevalue("ext_kernel").eliminate_words)

    seen = set()
    for mat, b in chain(solve_cases(rng), sparse_front_end_cases(rng), tall_residue_cases(rng)):
        got = solve(mat, b)
        assert_same_result(got, reference_solve(mat, b))
        seen.add(got.consistent)
    assert seen == {True, False}
    # real 2-cores on both sides of c*_3 = 0.918
    for i, c in enumerate((0.8, 0.9, 0.95, 1.0)):
        inst = gen_unconstrained(3, round(c * 300), 300, Seed(11, i))
        core, _ = two_core(inst)
        mat = BitMatrix.from_sparse_rows(core.n, core.index)
        assert_same_result(solve(mat, core.rhs), reference_solve(mat, core.rhs))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 128),
    cols=st.integers(0, 100),
    max_weight=st.integers(0, 6),
    duplicates=st.booleans(),
    consistent=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_front_end_matches_rref_reference_on_random_systems(rows, cols, max_weight, duplicates, consistent, seed):
    """Rows of mixed weight, some repeated, with a consistent or a random rhs."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, min(max_weight, cols) + 1, size=rows)
    index_rows = [rng.choice(cols, size=int(w), replace=False) for w in weights]
    if duplicates:
        index_rows = [index_rows[i] for i in rng.integers(0, len(index_rows), size=rows)]
    mat = reference_from_sparse_rows(cols, index_rows)
    b = matvec(mat, rng.integers(0, 2, size=cols)) if consistent else rng.integers(0, 2, size=rows)
    assert_same_result(solve(mat, b), reference_solve(mat, b))


# argv[1]: the compiled kernel's file, or "" for the fallback.  It goes into
# sys.modules before xorsatlab is imported, so `_kernel` selects it as it
# would a built `_ext`.  Prints the backend, then the widths the kernel saw
# and core.n per n=3000 2-core, then those of systems with a row of weight 1
# per column.
RESIDUE_WIDTHS = """
import importlib.util, json, sys
if sys.argv[1]:
    spec = importlib.util.spec_from_file_location("xorsatlab._kernel._ext", sys.argv[1])
    sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[spec.name])
else:
    sys.modules["xorsatlab._kernel._ext"] = None
from xorsatlab import gf2
from xorsatlab.instances import gen_unconstrained
from xorsatlab.peel import two_core
from xorsatlab.rng import Seed

widths = []
kernel = gf2.eliminate_words

def eliminate(a, ncols):
    widths.append(ncols)
    return kernel(a, ncols)

gf2.eliminate_words = eliminate

def seen(mat, b):
    widths.clear()
    gf2.solve(mat, b)
    return list(widths)

print(gf2.KERNEL_BACKEND)
cores = [two_core(gen_unconstrained(3, round(c * 3000), 3000, Seed(17, i)))[0] for i, c in enumerate((0.87, 0.97))]
print(json.dumps([(seen(gf2.BitMatrix.from_sparse_rows(core.n, core.rows), core.rhs), core.n) for core in cores]))
print(json.dumps([seen(gf2.BitMatrix.from_sparse_rows(r, [[i] for i in range(r)]), [1] * r) for r in (1, 10, 100)]))
"""


@pytest.mark.parametrize("kernel", ["fallback", "ext"])
def test_solve_eliminates_only_the_residue(request, kernel):
    """Under either kernel, the sparse front end hands it one residue far
    narrower than the 2-core.  A fresh process imports the package with the
    kernel under test, so no choice made at import can route around it."""
    ext_file = request.getfixturevalue("ext_kernel").__file__ if kernel == "ext" else ""
    backend, cores, unit = run_fresh(RESIDUE_WIDTHS, ext_file)
    assert backend == {"fallback": "python", "ext": "ext"}[kernel]
    for widths, n in json.loads(cores):
        assert len(widths) == 1 and widths[0] < n / 5, (widths, n)
    # a row of weight 1 per column pivots everything: the residue is the rhs column alone
    assert json.loads(unit) == [[1]] * 3


def test_solve_leaves_the_collector_nothing_to_do():
    """`solve` keeps its incidence in flat int lists, so it creates no
    container per column or per step: ten n = 3000 2-cores solved back to
    back with the cyclic collector on start at most one collection."""
    from xorsatlab.instances import gen_unconstrained
    from xorsatlab.peel import two_core
    from xorsatlab.rng import Seed

    cores = [two_core(gen_unconstrained(3, 2610, 3000, Seed(s, 1)))[0] for s in range(10)]
    systems = [(BitMatrix.from_sparse_rows(core.n, core.index), core.bits) for core in cores]
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was_on = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        for mat, b in systems:
            solve(mat, b)
    finally:
        gc.callbacks.remove(count)
        gc.enable() if was_on else gc.disable()
    assert len(starts) <= 1, starts


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve(BitMatrix.zeros(1, 62), [2]),
        lambda: solve(BitMatrix.zeros(1, 63), [2]),  # bit 1 of the rhs word lands in the padding
        lambda: solve(BitMatrix.zeros(1, 62), [-1]),
        lambda: matvec(BitMatrix.from_dense([[1, 0]]), [2, 0]),
    ],
    ids=["solve_2_cols_62", "solve_2_cols_63", "solve_minus_1", "matvec_2"],
)
def test_bit_vector_entries_outside_0_1_are_refused(call):
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        call()


def reference_from_sparse_rows(cols: int, index_rows) -> BitMatrix:
    """The per-bit loop `from_sparse_rows` replaced; rows may differ in length."""
    index_rows = list(index_rows)
    mat = BitMatrix.zeros(len(index_rows), cols)
    for i, idxs in enumerate(index_rows):
        for j in idxs:
            if not 0 <= j < cols:
                raise ValueError(f"column index {j} out of range [0, {cols})")
            mat.data[i, j >> 6] ^= np.uint64(1) << np.uint64(j & 63)
    return mat


def test_from_sparse_rows_matches_bit_loop(rng):
    cases = [
        (6, [[0, 3, 3, 5], [1, 4, 4, 4]]),
        (6, [[2, 2], [1, 1], [4, 4]]),  # repeats toggle: every row cancels
        (5, np.zeros((0, 3), dtype=np.int64)),
        (0, [[], []]),  # rows with no index: float64 when empty, which is taken
        (64, [[0, 63, 63, 1], [32, 32, 32, 5]]),
        (65, [[64, 0, 64, 64], [1, 1, 2, 2], [63, 64, 0, 0]]),
        (130, [np.array([129, 0, 64], dtype=np.int32), [np.uint16(65), np.int64(129), 0]]),
    ]
    for cols in (1, 63, 64, 65, 200):
        index = rng.integers(0, cols, size=(int(rng.integers(1, 30)), int(rng.integers(0, 6))))
        cases.append((cols, index))
        cases.append((cols, index.tolist()))
    # (m, k) integer arrays of each width, read in one numpy pass
    for dtype in (np.int64, np.int32, np.uint16, np.uint64):
        for cols, shape in ((200, (30, 3)), (65, (7, 4)), (64, (0, 3)), (1, (4, 2)), (130, (1, 0))):
            index = rng.integers(0, cols, size=shape).astype(dtype)
            cases.append((cols, index))
            cases.append((cols, index.T.copy().T))  # the same rows, not C-contiguous
    for cols, rows in cases:
        got = BitMatrix.from_sparse_rows(cols, rows)
        want = reference_from_sparse_rows(cols, rows)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got.data.dtype == np.uint64 and got.data.shape == want.data.shape
        assert (got.data == want.data).all()
    for impl in (BitMatrix.from_sparse_rows, reference_from_sparse_rows):
        with pytest.raises(TypeError):
            impl(5, [[1, 2.0]])
    # anything but an (m, k) integer array is refused: a float array with
    # entries, a 1-D or 3-D array, an index past uint64 (an object array)
    for index in (np.array([[1.0, 2.0]]), np.array([1, 2]), np.zeros((1, 1, 1), dtype=np.int64), [[1, 0], [2**70, 3]]):
        with pytest.raises(TypeError, match=r"^expected an \(m, k\) integer array"):
            BitMatrix.from_sparse_rows(5, index)
    # rows of mixed length make no array
    with pytest.raises(ValueError, match="inhomogeneous"):
        BitMatrix.from_sparse_rows(5, [[1, 2], [3]])
    for dtype in (np.int64, np.int32, np.int8):
        for index, bad in (([[0, 1], [4, 5]], "5"), ([[0, 1], [-1, 7]], "-1")):
            with pytest.raises(ValueError, match=rf"^column index {bad} out of range \[0, 5\)$"):
                BitMatrix.from_sparse_rows(5, np.array(index, dtype=dtype))


@pytest.mark.parametrize(
    "cols, rows, bad",
    [
        (5, [[0, 1, 2], [4, 5, -1]], "5"),
        (5, [[0, -1], [7, 0]], "-1"),
        (64, [[0], [np.int64(64)]], "64"),
        (0, [[0]], "0"),
        (3, np.array([[1, 4], [2**63, 0]], dtype=np.uint64), "4"),  # the first bad index in row order, not the largest
        (3, [[np.uint64(2**64 - 1)]], str(2**64 - 1)),  # wraps negative as int64
    ],
)
def test_from_sparse_rows_names_first_bad_index(cols, rows, bad):
    with pytest.raises(ValueError, match=rf"^column index {bad} out of range \[0, {cols}\)$"):
        BitMatrix.from_sparse_rows(cols, rows)
    with pytest.raises(ValueError, match=rf"^column index {bad} out of range"):
        reference_from_sparse_rows(cols, rows)
