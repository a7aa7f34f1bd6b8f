"""64-bit mixing shared by Bloom filters, workloads and the LSM-trie.

``splitmix64`` is a bijective finalizer over the 64-bit integers: unique,
well-spread outputs for distinct inputs.  The workload generators use it to
turn ordered insert counters into collision-free unordered keys (the YCSB
hash load, §6.2); the LSM-trie uses it as its placement hash.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(x: int) -> int:
    """Scalar splitmix64 finalizer (bijective on 64-bit integers)."""
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT30, _SHIFT27, _SHIFT31 = np.uint64(30), np.uint64(27), np.uint64(31)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over a uint64 array; bit-identical to the scalar."""
    z = x + _GOLDEN  # a fresh array; uint64 arithmetic wraps = & MASK64
    z ^= z >> _SHIFT30
    z *= _MIX1
    z ^= z >> _SHIFT27
    z *= _MIX2
    z ^= z >> _SHIFT31
    return z


def splitmix64_many(xs: Union[Sequence[int], np.ndarray]) -> List[int]:
    """Batch splitmix64 over integers; returns plain Python ints.

    The workload generators call this with whole key chunks instead of
    mixing one counter at a time; outputs equal ``[splitmix64(x) for x in
    xs]`` exactly (``tests/test_hashing.py`` asserts it).
    """
    arr = np.asarray(xs, dtype=np.uint64)
    return splitmix64_array(arr).tolist()
