"""Uniform samplers for random k-XORSAT instances.

Two instance models and the chip model behind the second:

* ``unconstrained``: each equation is a uniform k-subset of the variables,
  right-hand-side bits i.i.d. uniform.
* chip model (`gen_C_model`, a `ChipAllocation`, not an `Instance`): k
  labeled chips per equation thrown into an m x n cell array so that every
  column receives at least 2 chips; a cell may hold several chips.
* ``constrained``: 0/1 matrices with row sums k and all column sums >= 2;
  sampled by rejection from the chip model (accept when no cell holds two
  or more chips, then forget chip labels).

The chip sampler draws the n column totals as i.i.d. >=2-truncated
Poissons with tilt lambda = psi^{-1}(km/n), conditioned on summing to km
(the tilt maximizes the hit probability P(S_n = km), about
1/sqrt(2 pi n Var Z)).  The conditioned vector comes from n - 1 values
drawn freely plus a last value accepted with probability p(t) / max p,
and the number of whole vectors plain resampling would have examined is
drawn from its Geometric(P(S_n = km)) law.  The km chips are then dealt
to columns by one uniform shuffle.  Column labels are assigned by one
uniform relabelling at the end; the constrained sampler applies it only to
the accepted allocation, since relabelling columns moves no collision.

Everything is keyed by a Seed; a fixed (master, stream) pair reproduces
instances bit-exactly.  JSON and a compact varint binary format both
round-trip exactly (see `to_bytes` for the layout); each writer validates
first, so it writes only what its reader accepts.

`count_C_exact` gives the exact number of chip allocations,
(km)! [z^{km}] (e^z - 1 - z)^n, for km <= 600 (`formulas.count_maps_ge2`).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from xorsatlab.errors import BudgetExceededError, InstanceFormatError, RejectionBudgetError, from_json
from xorsatlab.formulas import gamma as _gamma
from xorsatlab.formulas import count_maps_ge2, lambda_of, var_Z
from xorsatlab.rng import Seed

MODEL_UNCONSTRAINED = "unconstrained"
MODEL_CONSTRAINED = "constrained"
_MODELS = (MODEL_UNCONSTRAINED, MODEL_CONSTRAINED)  # index = the binary model byte

_COUNT_ORDER_LIMIT = 600  # largest km that count_C_exact evaluates
_DEGREE_BATCH = 64  # fixed so streams are consumed identically everywhere
_MAX_REJECTIONS = 10**6  # gen_constrained's attempts before it gives up
_SORT_BLOCK = 1 << 14  # rows per pass of the row-sorting network: 384 KB at k = 3


@dataclass(eq=False)
class Instance:
    """A k-XORSAT system: m weight-k equations over n variables plus rhs bits.

    Stored as `index`, a C-contiguous (m, k) int64 array of variable ids
    with each row strictly increasing, and `bits`, the (m,) uint8 rhs.  The
    constructor keeps an integer array as it is (cast to int64 if need be)
    and converts row and bit lists once.  It refuses k < 1, n < 0 and what no
    such array holds: a ragged row, an index that is not an integer or lies
    beyond int64, an rhs entry other than 0 and 1, each with the message the
    list-reading `validate` gave.  `validate` checks the rest on the arrays.
    `rows` and `rhs` are read-only list views, rebuilt on every read: they
    serve JSON, the binary writer and outside callers; loops read the arrays.
    """

    k: int
    n: int
    m: int
    index: np.ndarray
    bits: np.ndarray
    model_tag: str
    seed: Seed | None = None

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 0:
            raise InstanceFormatError(f"need k >= 1 and n >= 0, got k={self.k}, n={self.n}")
        index = self.index
        if not (isinstance(index, np.ndarray) and index.ndim == 2 and np.can_cast(index.dtype, np.int64)):
            rows = list(index)
            if any(len(row) != self.k for row in rows):
                raise InstanceFormatError("row weight does not match k")
            index = _index_array([*chain.from_iterable(rows)], len(rows), self.k, self.n)
        self.index = np.ascontiguousarray(index, dtype=np.int64)
        if not (isinstance(self.bits, np.ndarray) and self.bits.dtype == np.uint8):
            bits = np.array(self.bits, dtype=object)  # compared as Python values, so 2**70 or "1" is not cast
            if not ((bits == 0) | (bits == 1)).all():
                raise InstanceFormatError("rhs must be 0/1")
            self.bits = bits.astype(np.uint8)

    @property
    def rows(self) -> list[list[int]]:
        """The index rows as lists, rebuilt from `index` on every read."""
        return self.index.tolist()

    @property
    def rhs(self) -> list[int]:
        """The rhs bits as a list, rebuilt from `bits` on every read."""
        return self.bits.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.k, self.n, self.m, self.model_tag, self.seed) == (
            other.k, other.n, other.m, other.model_tag, other.seed
        ) and np.array_equal(self.index, other.index) and np.array_equal(self.bits, other.bits)

    def validate(self) -> None:
        """Raise InstanceFormatError unless this is a well-formed instance of its model."""
        if self.k < 1 or self.n < 0:  # again: the fields may have changed since construction
            raise InstanceFormatError(f"need k >= 1 and n >= 0, got k={self.k}, n={self.n}")
        if self.model_tag not in _MODELS:
            raise InstanceFormatError(f"unknown model_tag {self.model_tag!r}")
        index = self.index
        if index.shape[0] != self.m or self.bits.shape != (self.m,):
            raise InstanceFormatError("row/rhs count does not match m")
        if index.shape[1] != self.k:
            raise InstanceFormatError("row weight does not match k")
        if (np.diff(index, axis=1) < 1).any():
            raise InstanceFormatError("row indices must be strictly increasing")
        outside = (index < 0) | (index >= self.n)
        if outside.any():
            raise InstanceFormatError(f"variable index {index[outside][0]} out of range")
        if (self.bits > 1).any():
            raise InstanceFormatError("rhs must be 0/1")
        # 2n > km is checked first, so an absurd n is refused before the tally is allocated
        if self.model_tag == MODEL_CONSTRAINED and self.n and (
            2 * self.n > self.k * self.m or np.bincount(index.ravel(), minlength=self.n).min() < 2
        ):
            raise InstanceFormatError("constrained instance has a variable of degree < 2")

    def lhs(self, x) -> np.ndarray:
        """Each equation's left-hand side at `x` (one gather, one XOR-reduce):
        m bits for one 0/1 assignment of length n, (m, B) for a batch of B
        along the last axis.  ValueError on a wrong length or an entry other
        than 0 and 1."""
        x = np.asarray(x)
        if x.ndim == 0 or x.shape[0] != self.n:
            raise ValueError(f"assignment length {x.shape[:1]} does not match {self.n} variables")
        if not ((x == 0) | (x == 1)).all():
            raise ValueError("assignment entries must be 0 or 1")
        return np.bitwise_xor.reduce(x.astype(np.uint8)[self.index], axis=1)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The JSON form that `from_json_dict` reads; `validate` runs first, so
        nothing is written that the reader would refuse."""
        self.validate()
        seed = self.seed.to_dict() if self.seed is not None else None
        return dict(k=self.k, n=self.n, m=self.m, rows=self.rows, rhs=self.rhs, model_tag=self.model_tag, seed=seed)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "Instance":
        """Parse `to_json_dict` output; raise InstanceFormatError on a missing,
        unknown or mistyped key or an invalid instance."""
        f = from_json(_InstanceJSON, d, InstanceFormatError, "instance")
        inst = cls(f.k, f.n, f.m, f.rows, f.rhs, f.model_tag, f.seed)
        inst.validate()
        return inst

    @classmethod
    def loads(cls, text: str) -> "Instance":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"instance file is not JSON: {exc}") from None
        return cls.from_json_dict(d)

    def to_bytes(self) -> bytes:
        """Compact binary: magic "XLI1", varint k/n/m, model byte, optional
        seed (2 x u64 LE), rows as varint first-index + index gaps, rhs bits
        packed LSB-first.  `validate` runs first, so nothing is written that
        `from_bytes` would refuse (and no negative varint, which never ends)."""
        self.validate()
        gaps = np.diff(self.index, axis=1, prepend=0)  # each row's first index, then its gaps
        out = bytearray(b"XLI1")
        for v in (self.k, self.n, self.m):
            _put_varint(out, v)
        out.append(_MODELS.index(self.model_tag))
        if self.seed is None:
            out.append(0)
        else:
            out.append(1)
            out += self.seed.master.to_bytes(8, "little")
            out += self.seed.stream.to_bytes(8, "little")
        for v in gaps.ravel().tolist():
            _put_varint(out, v)
        out += np.packbits(self.bits, bitorder="little").tobytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Instance":
        """Parse `to_bytes` output.

        Raises InstanceFormatError unless `blob` is exactly one canonical
        encoding of a valid instance: truncation, a bad model or seed byte,
        non-canonical varints, nonzero rhs padding and trailing bytes are all
        refused, so every accepted blob round-trips byte for byte.
        """
        if blob[:4] != b"XLI1":
            raise InstanceFormatError("bad magic; not an xorsatlab binary instance")
        pos = 4
        k, pos = _get_varint(blob, pos)
        n, pos = _get_varint(blob, pos)
        m, pos = _get_varint(blob, pos)
        if pos + 2 > len(blob):
            raise InstanceFormatError("truncated header")
        if blob[pos] >= len(_MODELS):
            raise InstanceFormatError(f"bad model byte {blob[pos]}")
        model = _MODELS[blob[pos]]
        has_seed = blob[pos + 1]
        pos += 2
        if has_seed > 1:
            raise InstanceFormatError(f"bad seed flag {has_seed}")
        seed = None
        if has_seed:
            if pos + 16 > len(blob):
                raise InstanceFormatError("truncated seed")
            master = int.from_bytes(blob[pos : pos + 8], "little")
            seed = Seed(master, int.from_bytes(blob[pos + 8 : pos + 16], "little"))
            pos += 16
        nbytes = (m + 7) // 8
        # each row index takes at least one byte: refuse sizes before allocating
        if m * k + nbytes > len(blob) - pos:
            raise InstanceFormatError(f"{len(blob) - pos} bytes cannot hold {m} rows of {k} indices")
        flat = []  # row-major indices: each row's first index, then its gaps added up
        for _ in range(m):
            for j in range(k):
                v, pos = _get_varint(blob, pos)
                flat.append(flat[-1] + v if j else v)
        if len(blob) - pos != nbytes:
            raise InstanceFormatError(f"expected {nbytes} rhs bytes, found {len(blob) - pos}")
        bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8, count=nbytes, offset=pos), bitorder="little")
        if bits[m:].any():
            raise InstanceFormatError("nonzero padding after the rhs bits")
        inst = cls(k, n, m, _index_array(flat, m, k, n), bits[:m], model, seed)
        inst.validate()
        return inst


@dataclass
class _InstanceJSON:
    """The JSON keys of an `Instance`, with the types `from_json` reads them as."""

    k: int
    n: int
    m: int
    rows: list[list[int]]
    rhs: list[int]
    model_tag: str
    seed: Seed | None = None


def _index_array(flat: list, m: int, k: int, n: int) -> np.ndarray:
    """The row-major indices `flat` as an (m, k) int64 array.  An index that
    is not an integer, or lies beyond int64, is refused with the message
    `Instance.validate` gives; so is a k too wide for an array of no rows."""
    try:
        return np.fromiter(map(operator.index, flat), np.int64, m * k).reshape(m, k)
    except TypeError:  # operator.index refuses a float rather than truncate it
        bad = next(j for j in flat if not hasattr(type(j), "__index__"))
        raise InstanceFormatError(f"variable index {bad!r} is not an integer") from None
    except OverflowError:  # an index beyond int64: compare Python ints instead
        if (np.diff(np.array(flat, dtype=object).reshape(m, k), axis=1) < 1).any():
            raise InstanceFormatError("row indices must be strictly increasing") from None
        bad = next(j for j in flat if not 0 <= j < min(n, 1 << 63))
        raise InstanceFormatError(f"variable index {bad} out of range") from None
    except ValueError:  # no rows, and numpy has no (0, k) shape for so large a k
        raise InstanceFormatError(f"row weight {k} is too large for an index array") from None


def _put_varint(out: bytearray, v: int) -> None:
    while True:
        b = v & 0x7F
        v >>= 7
        out.append(b | (0x80 if v else 0))
        if not v:
            return


def _get_varint(blob: bytes, pos: int) -> tuple[int, int]:
    start = pos
    shift = 0
    v = 0
    while True:
        if pos >= len(blob):
            raise InstanceFormatError(f"truncated varint at byte {start}")
        b = blob[pos]
        pos += 1
        v |= (b & 0x7F) << shift
        if not b & 0x80:
            if b == 0 and pos - start > 1:
                raise InstanceFormatError(f"non-canonical varint at byte {start}")
            return v, pos
        shift += 7


# ---------------------------------------------------------------------------
# Unconstrained model


def _repeats_in_sorted_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of a row-sorted (r, k) array that hold an index twice:
    in a sorted row a repeat sits in neighbouring columns."""
    rep = np.zeros(rows.shape[0], dtype=bool)
    for j in range(1, rows.shape[1]):
        rep |= rows[:, j] == rows[:, j - 1]
    return rep


def _sort_rows(rows: np.ndarray) -> None:
    """Sort each row of an (r, k) int64 array in place.

    For k <= 3 a sorting network of compare-exchanges on whole columns,
    (0, 1) at k = 2 and (0, 1), (1, 2), (0, 1) at k = 3, is several times
    faster than `ndarray.sort(axis=1)`, which sorts one short row per call;
    past k = 3 the network's extra comparators lose to it.  The network runs
    over blocks of `_SORT_BLOCK` rows, so a block stays in cache through its
    comparators and the scratch column is one block long.
    """
    k = rows.shape[1]
    if k > 3:
        rows.sort(axis=1)
        return
    scratch = np.empty(min(rows.shape[0], _SORT_BLOCK), dtype=rows.dtype)
    for start in range(0, rows.shape[0], _SORT_BLOCK):
        block = rows[start:start + _SORT_BLOCK]
        lo = scratch[: block.shape[0]]
        # comparator i orders columns i and i + 1
        for i in ((), (), (0,), (0, 1, 0))[k]:
            x, y = block[:, i], block[:, i + 1]
            np.minimum(x, y, out=lo)
            np.maximum(x, y, out=y)
            x[...] = lo


def gen_unconstrained(k: int, m: int, n: int, seed: Seed) -> Instance:
    """m independent uniform k-subsets of [n], rhs bits i.i.d. uniform."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = seed.generator()
    if 2 * k <= n:
        rows_arr = rng.integers(0, n, size=(m, k))
        _sort_rows(rows_arr)
        bad = _repeats_in_sorted_rows(rows_arr).nonzero()[0]
        while bad.size:
            redraw = rng.integers(0, n, size=(bad.size, k))
            _sort_rows(redraw)
            rows_arr[bad] = redraw
            bad = bad[_repeats_in_sorted_rows(redraw)]
    else:
        # dense rows: rejection would stall, take sorted permutation prefixes
        rows_arr = np.array([rng.permutation(n)[:k] for _ in range(m)], dtype=np.int64).reshape(m, k)
        _sort_rows(rows_arr)
    bits = rng.integers(0, 2, size=m).astype(np.uint8)
    return Instance(k, n, m, rows_arr, bits, MODEL_UNCONSTRAINED, seed)


# ---------------------------------------------------------------------------
# Truncated Poisson and the chip model


@lru_cache(maxsize=64)
def _tpois_cum(lam: float) -> np.ndarray:
    """CDF table of the >=2-truncated Poisson(lam); values start at 2."""
    norm = math.expm1(lam) - lam
    probs = []
    term = lam * lam / 2.0  # lam^j / j! at j = 2
    j = 2
    cum = 0.0
    while True:
        p = term / norm
        cum += p
        probs.append(cum)
        if cum >= 1.0 or (p < 1e-18 and j > lam):
            break
        j += 1
        term *= lam / j
        if j > 4000:
            break
    arr = np.array(probs)
    arr[-1] = max(arr[-1], 1.0)  # clamp tail (mass < 1e-15) onto the last entry
    return arr


def sample_truncated_poisson(lam: float, rng: np.random.Generator, size: int | None = None):
    """Draw from P(Z = j) = (lam^j / j!) / (e^lam - 1 - lam), j >= 2, by CDF inversion."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    cum = _tpois_cum(lam)
    u = rng.random(size if size is not None else 1)
    vals = 2 + np.searchsorted(cum, u, side="right")
    if size is None:
        return int(vals[0])
    return vals.astype(np.int64)


def _tpois_pmf(lam: float) -> np.ndarray:
    """pmf table of the >=2-truncated Poisson(lam) over the values 2, 3, ...,
    with the (< 1e-15) tail mass on the last entry."""
    cum = _tpois_cum(lam)
    pvals = np.diff(cum, prepend=0.0)
    pvals[-1] = max(0.0, 1.0 - pvals[:-1].sum())
    return pvals


def _hit_probability(lam: float, n: int, total: int) -> float:
    """P(S_n = total), S_n the sum of n i.i.d. >=2-truncated Poisson(lam).

    Inverts the characteristic function phi on N points: the mean of
    phi(theta)^n e^{-i total theta} over theta = 2 pi r / N is the mass of
    S_n on total + N Z, and N, a power of two (at least 64) covering 20
    standard deviations of S_n, leaves nothing but total in range.  Angles
    are reduced mod N in integers first, so they stay exact.
    """
    pvals = _tpois_pmf(lam)
    size = 64
    while size < 20 * math.sqrt(n * var_Z(lam)):
        size *= 2
    r = np.arange(size)
    step = 2j * math.pi / size
    phi = np.zeros(size, dtype=complex)
    for j, p in enumerate(pvals, start=2):
        phi += p * np.exp(step * (j * r % size))
    return float(np.mean(phi**n * np.exp(-step * (total * r % size))).real)


class _DegreeLaw(NamedTuple):
    """Column totals of the chip model: n i.i.d. >=2-truncated Poisson(lam)
    values, lam = psi^{-1}(km / n), given that they sum to `total` = km.

    `pmf` is over `values` = 2, 3, ...; `accept` = pmf / max pmf; `p_hit` =
    P(S_n = km).  When km = 2n every total is 2 and lam is 0.
    """

    n: int
    total: int
    lam: float
    values: np.ndarray
    pmf: np.ndarray
    accept: np.ndarray
    p_hit: float


@lru_cache(maxsize=64)
def _degree_law(k: int, m: int, n: int) -> _DegreeLaw:
    """The column-total law of the (k, m, n) chip model, computed once per shape."""
    km = k * m
    if km < 2 * n:
        raise ValueError(f"column sums >= 2 need km >= 2n, got km={km}, 2n={2 * n}")
    if km == 2 * n:
        return _DegreeLaw(n, km, 0.0, np.array([2]), np.ones(1), np.ones(1), 1.0)
    lam = lambda_of(km / n)
    pmf = _tpois_pmf(lam)
    values = np.arange(2, 2 + len(pmf), dtype=np.int64)
    return _DegreeLaw(n, km, lam, values, pmf, pmf / pmf.max(), _hit_probability(lam, n, km))


def _degrees(rng, law: _DegreeLaw):
    """Yield (ascending column totals, candidate count) pairs from `law`.

    A candidate's n - 1 free totals are one histogram over the pmf table (a
    multinomial: O(#values) work, not O(n)); its last total t is kept with
    probability p(t) / max p, which leaves exactly the conditioned law.
    Histograms come in fixed batches, so `rng` is consumed reproducibly; a
    batch's hits are i.i.d., yielded in order and expanded only then.  The
    count, the candidates plain resampling would have examined, is
    Geometric(p_hit) and independent of the hit, so it is drawn directly.
    """
    while law.lam == 0.0:  # km = 2n: every total is 2 and nothing is drawn
        yield np.full(law.n, 2, dtype=np.int64), 0
    while True:
        hists = rng.multinomial(law.n - 1, law.pmf, size=_DEGREE_BATCH)
        slot = law.total - 2 - hists @ law.values  # the last value t, less 2
        fits = (slot >= 0) & (slot < len(law.pmf))
        u = rng.random(_DEGREE_BATCH)
        for h in np.flatnonzero(fits)[u[fits] < law.accept[slot[fits]]]:
            hists[h, slot[h]] += 1
            yield np.repeat(law.values, hists[h]), int(rng.geometric(law.p_hit))


@dataclass
class ChipAllocation:
    """Assignment of the km labeled chips to columns (chip t sits in row t // k).

    Chip identity is kept (not just cell counts) because the sampler is
    uniform over chip->column maps.  `retries` is the candidate count
    `_degrees` gave with the column totals (0 when every total is forced to 2).
    """

    k: int
    m: int
    n: int
    chip_columns: np.ndarray
    retries: int = 0

    def column_degrees(self) -> np.ndarray:
        return np.bincount(self.chip_columns, minlength=self.n)

    def row_columns(self) -> np.ndarray:
        """Per-row sorted column multisets as one (m, k) array; a column repeats
        where a cell holds several chips."""
        return np.sort(self.chip_columns.reshape(self.m, self.k), axis=1)

    def validate(self) -> None:
        if self.chip_columns.shape != (self.k * self.m,):
            raise ValueError("chip_columns must have length k*m")
        deg = self.column_degrees()
        if self.n and (len(deg) > self.n or (deg < 2).any()):
            raise ValueError("column degrees must all be >= 2")


def _gen_C(rng, k: int, m: int, n: int, degrees) -> ChipAllocation:
    """One chip allocation up to column labels, from the next hit of the `_degrees` generator
    `degrees`: column j takes the j-th smallest total; callers relabel with `rng.permutation(n)`."""
    totals, tries = next(degrees)
    chip_columns = np.repeat(np.arange(n, dtype=np.int64), totals)
    rng.shuffle(chip_columns)
    return ChipAllocation(k, m, n, chip_columns, tries)


def gen_C_model(k: int, m: int, n: int, seed: Seed) -> ChipAllocation:
    """Uniform chip allocation: row sums k (labeled chips), column sums >= 2."""
    rng = seed.generator()
    alloc = _gen_C(rng, k, m, n, _degrees(rng, _degree_law(k, m, n)))
    alloc.chip_columns = rng.permutation(n)[alloc.chip_columns]
    alloc.validate()
    return alloc


def _has_row_duplicate(chip_columns: np.ndarray, k: int, m: int) -> bool:
    """True when some equation holds the same column twice (a cell collision).

    Chips of one row live in consecutive slots, so cell collisions are
    exactly within-row duplicates; the k(k-1)/2 column pairs of the (m, k)
    view are compared one at a time, stopping at the first equal pair.
    """
    cols = chip_columns.reshape(m, k)
    return any((cols[:, a] == cols[:, b]).any() for a in range(k) for b in range(a + 1, k))


def collision_count(alloc: ChipAllocation) -> int:
    """Number of chip pairs sharing a cell: sum over cells of C(count, 2).

    A cell is one row's column, so this counts the column pairs (a, b),
    a < b, of the (m, k) view that are equal in a row.
    """
    cols = alloc.chip_columns.reshape(alloc.m, alloc.k)
    return sum(int((cols[:, a] == cols[:, b]).sum()) for a in range(alloc.k) for b in range(a + 1, alloc.k))


def gen_constrained(k: int, m: int, n: int, seed: Seed) -> Instance:
    """Uniform over 0/1 matrices with row sums k and column sums >= 2.

    Rejection from the chip model: accept when no cell holds two or more
    chips, then forget chip labels.  The acceptance rate approaches
    e^{-gamma}, bounded away from zero at fixed density, so exhausting
    `_MAX_REJECTIONS` signals a caller bug and raises with diagnostics.
    """
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    law = _degree_law(k, m, n)
    rng = seed.generator()
    degrees = _degrees(rng, law)
    for _ in range(_MAX_REJECTIONS):
        alloc = _gen_C(rng, k, m, n, degrees)
        if not _has_row_duplicate(alloc.chip_columns, k, m):
            alloc.chip_columns = rng.permutation(n)[alloc.chip_columns]
            bits = rng.integers(0, 2, size=m).astype(np.uint8)
            inst = Instance(k, n, m, alloc.row_columns(), bits, MODEL_CONSTRAINED, seed)
            inst.validate()
            return inst
    expected = math.exp(-_gamma(k, law.lam)) if law.lam > 0 and k >= 3 else float("nan")
    raise RejectionBudgetError(
        f"no collision-free allocation in {_MAX_REJECTIONS} tries for k={k}, m={m}, n={n} "
        f"(tilt {law.lam:.4f}, expected acceptance ~{expected:.3g})"
    )


# ---------------------------------------------------------------------------
# Exact chip-allocation counts


def count_C_exact(k: int, m: int, n: int) -> int:
    """(km)! [z^{km}] (e^z - 1 - z)^n: chip->column maps with all column sums >= 2,
    exact for km <= 600."""
    order = k * m
    if order > _COUNT_ORDER_LIMIT:
        raise BudgetExceededError(f"km = {order} exceeds the DP budget {_COUNT_ORDER_LIMIT}")
    return count_maps_ge2(n, order)


__all__ = [
    "ChipAllocation",
    "Instance",
    "MODEL_CONSTRAINED",
    "MODEL_UNCONSTRAINED",
    "collision_count",
    "count_C_exact",
    "gen_C_model",
    "gen_constrained",
    "gen_unconstrained",
    "sample_truncated_poisson",
]
