"""Bloom filters (Bloom, 1970) over integer keys.

Every sorted sequence in an SSTable/MSTable carries one (§2.1, §5.2): point
reads skip sequences whose filter rejects the key.  The paper allocates 14
bits per record for a ~0.2% false-positive rate (§5.3.2).

Implementation: a numpy bit array with ``k`` derived hash probes produced by
double hashing over two splitmix64-style mixes -- fully deterministic, no
Python-level per-bit loops on the build path (`add_many` is vectorized).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer; input/output uint64 arrays."""
    z = (x + np.uint64(0x9E3779B97F4A7C15)) & _MASK64
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
    return z ^ (z >> np.uint64(31))


_M64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64_scalar(x: int) -> int:
    """Scalar splitmix64, bit-identical to the vectorized version."""
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def hash_pair(key: int) -> Tuple[int, int]:
    """The double-hashing pair ``(h1, h2)`` all of a key's probes derive from."""
    k = key & _M64
    return _splitmix64_scalar(k), _splitmix64_scalar(k ^ 0xA5A5A5A5A5A5A5A5) | 1


class BloomFilter:
    """Fixed-size Bloom filter sized at build time from the key count."""

    __slots__ = ("n_bits", "n_hashes", "_bits")

    def __init__(self, n_keys: int, bits_per_key: int) -> None:
        if n_keys < 0:
            raise ConfigError("n_keys must be >= 0")
        if bits_per_key < 0:
            raise ConfigError("bits_per_key must be >= 0")
        n_bits = max(64, n_keys * bits_per_key)
        self.n_bits = n_bits
        # Optimal probe count k = ln(2) * bits/key, clamped like LevelDB.
        self.n_hashes = max(1, min(30, int(round(math.log(2) * bits_per_key)))) if bits_per_key else 0
        self._bits = np.zeros((n_bits + 63) // 64, dtype=np.uint64)

    @property
    def nbytes(self) -> int:
        return self._bits.nbytes

    def add_many(self, keys: Sequence[int]) -> None:
        """Insert a batch of integer keys (vectorized).

        All ``k * n`` probe indices are produced as one broadcast matrix and
        scattered with a single ``bitwise_or.at`` -- bit-identical to probing
        key by key, but without per-probe small-array round trips (sequence
        builds dominate flush/compaction wall-clock at simulation scale).
        """
        if self.n_hashes == 0 or len(keys) == 0:
            return
        try:
            arr = np.asarray(keys, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            # Out-of-range / negative keys: mask into 64 bits element-wise.
            arr = np.fromiter((k & _M64 for k in keys), dtype=np.uint64,
                              count=len(keys))
        h1 = _splitmix64(arr)
        h2 = _splitmix64(arr ^ np.uint64(0xA5A5A5A5A5A5A5A5)) | np.uint64(1)
        steps = np.arange(self.n_hashes, dtype=np.uint64)[:, None]
        # uint64 arithmetic wraps, matching the & _MASK64 of the scalar probe.
        idx = ((h1 + steps * h2) % np.uint64(self.n_bits)).ravel()
        np.bitwise_or.at(self._bits, (idx >> np.uint64(6)).astype(np.intp),
                         np.uint64(1) << (idx & np.uint64(63)))

    def might_contain(self, key: int,
                      hashes: Optional[Tuple[int, int]] = None) -> bool:
        """False means the key is definitely absent.

        ``hashes`` is ``hash_pair(key)`` when the caller already holds it: a
        point read probes one filter per sequence on its walk, and the pair
        depends on the key alone, so it is derived once per get.
        """
        if self.n_hashes == 0:
            return True
        h1, h2 = hashes or hash_pair(key)
        n_bits = self.n_bits
        bits = self._bits
        for i in range(self.n_hashes):
            idx = ((h1 + i * h2) & _M64) % n_bits
            if not (int(bits[idx >> 6]) >> (idx & 63)) & 1:
                return False
        return True

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`might_contain` over a uint64 key array.

        Returns a bool array; bit-identical to probing key by key (same
        double-hashing probe sequence), but all ``k * n`` bit gathers happen
        as one broadcast, which is what makes batched point reads cheap.
        """
        arr = np.asarray(keys, dtype=np.uint64)
        if self.n_hashes == 0 or arr.size == 0:
            return np.ones(arr.shape, dtype=bool)
        h1 = _splitmix64(arr)
        h2 = _splitmix64(arr ^ np.uint64(0xA5A5A5A5A5A5A5A5)) | np.uint64(1)
        steps = np.arange(self.n_hashes, dtype=np.uint64)[:, None]
        # uint64 arithmetic wraps, matching the & _MASK64 of the scalar probe.
        idx = (h1 + steps * h2) % np.uint64(self.n_bits)
        words = self._bits[(idx >> np.uint64(6)).astype(np.intp)]
        probe = (words >> (idx & np.uint64(63))) & np.uint64(1)
        return probe.all(axis=0)

    @staticmethod
    def build(keys: Sequence[int], bits_per_key: int) -> "BloomFilter":
        f = BloomFilter(len(keys), bits_per_key)
        f.add_many(keys)
        return f

    def expected_fpr(self, n_keys: int) -> float:
        """Theoretical false-positive rate after inserting ``n_keys`` keys."""
        if self.n_hashes == 0:
            return 1.0
        k = self.n_hashes
        return (1.0 - math.exp(-k * n_keys / self.n_bits)) ** k
