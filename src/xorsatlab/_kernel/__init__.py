"""GF(2) kernel selection.

The hot loop exists twice: a C extension (`_ext`, built from `_ext.c`) and a
pure-Python big-integer fallback (`fallback`).  Both implement::

    eliminate_words(a, ncols) -> (rank, pivot_cols)

where ``a`` is a C-contiguous (rows, words) uint64 array holding row-major
bit-packed rows (bit j of a row lives in word j >> 6 at position j & 63,
bits at column indices >= ncols must be zero) and is reduced in place to
row echelon form: row i's first set bit is ``pivot_cols[i]`` (ascending)
and every row from ``rank`` down is zero.  The bits right of each pivot may
differ between backends; they span the same row space.  ``gf2.solve``
reads its solution off this form of the dense residue its sparse front end
leaves.

The extension is imported when it is built and the fallback otherwise.
``benchmarks/bench_gf2.py`` and the backend-equivalence tests import
``fallback`` directly (the tests build ``_ext`` out of tree), and
``perfbench`` runs whichever backend it finds.
"""

from xorsatlab._kernel import fallback

try:
    from xorsatlab._kernel import _ext

    eliminate_words = _ext.eliminate_words
    KERNEL_BACKEND = "ext"
except ImportError:
    eliminate_words = fallback.eliminate_words
    KERNEL_BACKEND = "python"

__all__ = ["eliminate_words", "KERNEL_BACKEND", "fallback"]
