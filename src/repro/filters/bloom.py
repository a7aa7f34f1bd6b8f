"""Bloom filters (Bloom, 1970) over integer keys.

Every sorted sequence in an SSTable/MSTable carries one (§2.1, §5.2): point
reads skip sequences whose filter rejects the key.  The paper allocates 14
bits per record for a ~0.2% false-positive rate (§5.3.2).

Implementation: the bits are one little-endian ``bytes`` (bit ``i`` is
``bits[i >> 3] >> (i & 7) & 1``) with ``k`` derived hash probes produced by
double hashing over two splitmix64 mixes -- fully deterministic.  The pair
depends on the key alone, so the write path computes it once per *run*
(:func:`hash_columns`) and every sequence cut from that run builds its
filter from a slice of it (:meth:`BloomFilter.build`, the one build kernel).
Numpy builds the bits and lets go of them: probes are scalar and never index
an ndarray (DESIGN.md "When arrays lose"); ``MSTable.get`` inlines the loop.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.common.hashing import MASK64, splitmix64_array

_SALT = 0xA5A5A5A5A5A5A5A5  # decorrelates h2 from h1
_H2_SALT = np.uint64(_SALT)
_ONE = np.uint64(1)
#: Probe multipliers ``0..k-1`` as a column, so ``h1 + steps * h2`` broadcasts
#: to the whole ``k x n`` probe matrix (k is clamped to 30, see ``__init__``).
_STEPS = np.arange(31, dtype=np.uint64)[:, None]


def hash_pair(key: int) -> Tuple[int, int]:
    """The double-hashing pair ``(h1, h2)`` all of a key's probes derive from:
    ``splitmix64(k)`` and ``splitmix64(k ^ _SALT) | 1`` of ``k = key & MASK64``,
    both mixes written out (one frame per point read, not three)."""
    k = key & MASK64
    z = (k + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    y = ((k ^ _SALT) + 0x9E3779B97F4A7C15) & MASK64
    y = ((y ^ (y >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    y = ((y ^ (y >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31), (y ^ (y >> 31)) | 1


def hash_columns(keys: np.ndarray) -> np.ndarray:
    """:func:`hash_pair` of a whole uint64 key column, as a ``2 x n`` matrix.

    Row 0 is ``h1``, row 1 is ``h2``: both mixes run as one pass over the
    stacked inputs.
    """
    z = np.empty((2, keys.size), dtype=np.uint64)
    z[0] = keys
    np.bitwise_xor(keys, _H2_SALT, out=z[1])
    z = splitmix64_array(z)
    z[1] |= _ONE
    return z


class BloomFilter:
    """Fixed-size Bloom filter sized at build time from the key count."""

    __slots__ = ("n_bits", "n_hashes", "bits", "nbytes")

    def __init__(self, n_keys: int, bits_per_key: int) -> None:
        if n_keys < 0:
            raise ConfigError("n_keys must be >= 0")
        if bits_per_key < 0:
            raise ConfigError("bits_per_key must be >= 0")
        n_bits = max(64, n_keys * bits_per_key)
        self.n_bits = n_bits
        # Optimal probe count k = ln(2) * bits/key, clamped like LevelDB.
        self.n_hashes = max(1, min(30, int(round(math.log(2) * bits_per_key)))) if bits_per_key else 0
        #: Whole 64-bit words, as the on-disk filter is sized.
        self.nbytes = (n_bits + 63) // 64 * 8
        self.bits = b"\0" * self.nbytes

    def _probes(self, hashes: np.ndarray) -> np.ndarray:
        """The ``k x n`` matrix of bit positions probed for ``hashes``.

        Computed in uint64 (the arithmetic wraps like the scalar probe's
        ``& MASK64``) and handed back as ``intp``: positions are below
        ``n_bits``, so the reinterpretation is exact, and numpy indexes
        with ``intp`` several times faster than with ``uint64``.
        """
        idx = hashes[1] * _STEPS[:self.n_hashes]
        idx += hashes[0]
        idx %= np.uint64(self.n_bits)
        return idx.view(np.intp)

    @staticmethod
    def build(keys: np.ndarray, bits_per_key: int,
              hashes: Optional[np.ndarray] = None) -> "BloomFilter":
        """A filter holding the uint64 column ``keys``.

        ``hashes`` is ``hash_columns(keys)`` when the caller already holds
        it (a slice of the run's).  The whole probe matrix is scattered into
        a byte-per-bit scratch with one assignment and packed little-endian
        -- bit-identical to setting the probes of each key in turn.
        """
        f = BloomFilter(keys.size, bits_per_key)
        if f.n_hashes and keys.size:
            scratch = np.zeros(f.nbytes * 8, dtype=np.uint8)
            scratch[f._probes(hash_columns(keys) if hashes is None else hashes)] = 1
            f.bits = np.packbits(scratch, bitorder="little").tobytes()
        return f

    def might_contain(self, key: int,
                      hashes: Optional[Tuple[int, int]] = None) -> bool:
        """False means the key is definitely absent.

        ``hashes`` is ``hash_pair(key)`` when the caller already holds it: a
        point read probes one filter per sequence on its walk, and the pair
        depends on the key alone, so it is derived once per get.
        """
        if self.n_hashes == 0:
            return True
        h, h2 = hashes or hash_pair(key)
        n_bits = self.n_bits
        bits = self.bits
        for _ in range(self.n_hashes):
            idx = h % n_bits
            if not bits[idx >> 3] >> (idx & 7) & 1:
                return False
            h = (h + h2) & MASK64  # probe i is (h1 + i * h2) mod 2**64
        return True
