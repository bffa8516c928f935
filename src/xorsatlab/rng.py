"""Counter-based reproducible random streams.

Every sampler is keyed by a ``Seed`` = (master, stream) pair mapped onto a
Philox counter-based generator, so distinct streams are statistically
independent and a fixed pair reproduces output bit-exactly regardless of
what other streams were consumed (this is what makes experiment campaigns
invariant under the worker count).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling round (used to derive per-trial streams)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_streams(a: int, b: int) -> int:
    """Collision-resistant 64-bit combination of two stream indices."""
    return splitmix64((splitmix64(a & _MASK64) ^ (b & _MASK64)) & _MASK64)


@dataclass(frozen=True)
class Seed:
    """(master, stream) key for a Philox stream.

    Identical pairs reproduce identical output bit-exactly.  Both are stored
    mod 2**64, the key they stand for, so equal keys compare equal.
    """

    master: int
    stream: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "master", self.master & _MASK64)
        object.__setattr__(self, "stream", self.stream & _MASK64)

    def generator(self) -> np.random.Generator:
        key = np.array([self.master, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def to_dict(self) -> dict:
        return {"master": self.master, "stream": self.stream}
