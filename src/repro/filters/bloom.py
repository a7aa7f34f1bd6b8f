"""Bloom filters (Bloom, 1970) over integer keys.

Every sorted sequence in an SSTable/MSTable carries one (§2.1, §5.2): point
reads skip sequences whose filter rejects the key.  The paper allocates 14
bits per record for a ~0.2% false-positive rate (§5.3.2).

Implementation: the bits are one little-endian ``bytes`` (bit ``i`` is
``bits[i >> 3] >> (i & 7) & 1``) with ``k`` derived hash probes produced by
double hashing over two splitmix64 mixes -- fully deterministic.  A
background job writes many small sequences, so their filters are built
together, once per *job*: :meth:`BloomFilter.build` (the one build kernel)
hashes every key the job wrote in one :func:`hash_columns` pass and packs
every filter out of one bit matrix.  Numpy builds the bits and lets go of
them: probes are scalar and never index an ndarray (DESIGN.md "When arrays
lose"); ``MSTable.get`` inlines the loop.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.common.hashing import MASK64, splitmix64_array

_SALT = 0xA5A5A5A5A5A5A5A5  # decorrelates h2 from h1
_LN2 = math.log(2)
_H2_SALT = np.uint64(_SALT)
_ONE = np.uint64(1)
#: Probe multipliers ``0..k-1`` as a column, so ``h1 + steps * h2`` broadcasts
#: to the whole ``k x n`` probe matrix (k is clamped to 30, see ``build``).
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
    """Fixed-size Bloom filter: ``n_bits`` bits probed ``n_hashes`` times."""

    __slots__ = ("n_bits", "n_hashes", "bits", "nbytes")

    def __init__(self, n_bits: int, n_hashes: int, bits: bytes) -> None:
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self.bits = bits
        self.nbytes = (n_bits + 63) // 64 * 8  # whole words, as on disk

    @staticmethod
    def build(key_columns: Sequence[np.ndarray],
              bits_per_key: int) -> List["BloomFilter"]:
        """One filter per uint64 column, of ``max(64, n * bits_per_key)``
        bits for ``n`` keys, each laid out at a whole word of one bit row.

        All keys hash in one pass; the ``k x N`` probe matrix (uint64,
        wrapping like the scalar probe) is reduced by each key's filter
        size, shifted to its filter's offset, scattered into a byte-per-bit
        scratch (as ``intp``: numpy indexes with it several times faster)
        and packed little-endian once -- bit-identical to setting the
        probes of each key in turn.  Each ``bits`` is a slice of the row.
        """
        if bits_per_key < 0:
            raise ConfigError("bits_per_key must be >= 0")
        # k = round(ln 2 * bits/key): >= 1 from one bit per key, <= 30 like LevelDB.
        k = min(30, round(_LN2 * bits_per_key))
        sizes = [keys.size for keys in key_columns]
        n_bits, offsets = [], []
        total = 0  # bits laid out so far, in whole words
        for n in sizes:
            bits = n * bits_per_key if n * bits_per_key > 64 else 64
            n_bits.append(bits)
            offsets.append(total)
            total += (bits + 63) & ~63
        if k and sizes:
            hashes = hash_columns(np.concatenate(key_columns))
            shape = np.repeat(np.array((n_bits, offsets), dtype=np.uint64), sizes, axis=1)
            idx = hashes[1] * _STEPS[:k]
            idx += hashes[0]
            idx %= shape[0]
            idx += shape[1]
            scratch = np.zeros(total, dtype=np.uint8)
            scratch[idx.view(np.intp)] = 1
            packed = np.packbits(scratch, bitorder="little").tobytes()
        else:
            packed = bytes(total >> 3)
        return [BloomFilter(bits, k, packed[lo >> 3:(lo + bits + 63 & ~63) >> 3])
                for bits, lo in zip(n_bits, offsets)]

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
