"""Bloom filters: no false negatives, bounded false positives."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from repro.common.errors import ConfigError
from repro.common.hashing import MASK64
from repro.filters.bloom import BloomFilter, hash_columns, hash_pair
from tests.frozen_kernels import frozen_might_contain


def build(keys, bits_per_key):
    """BloomFilter.build over a Python key list (any ints: low 64 bits)."""
    column = np.array([k & MASK64 for k in keys], dtype=np.uint64)
    return BloomFilter.build(column, bits_per_key)


def test_validation():
    with pytest.raises(ConfigError):
        BloomFilter(-1, 14)
    with pytest.raises(ConfigError):
        BloomFilter(10, -1)


def test_no_false_negatives_basic():
    keys = list(range(0, 2000, 3))
    f = build(keys, bits_per_key=14)
    assert all(f.might_contain(k) for k in keys)


def test_false_positive_rate_near_paper_bound():
    """14 bits/key -> ~0.2% FPR (§5.3.2); allow generous slack."""
    rng = random.Random(1)
    keys = [rng.getrandbits(60) for _ in range(5000)]
    f = build(keys, bits_per_key=14)
    present = set(keys)
    trials = 20000
    fp = sum(1 for _ in range(trials)
             if (k := rng.getrandbits(60)) not in present and f.might_contain(k))
    assert fp / trials < 0.01


def test_zero_bits_admits_everything():
    f = build([1, 2, 3], bits_per_key=0)
    assert f.n_hashes == 0
    assert f.might_contain(999)


def test_empty_filter():
    f = build([], bits_per_key=14)
    # Implementation detail: minimum sizing; just must not crash.
    f.might_contain(1)


def test_nbytes_grows_with_keys():
    small = build(list(range(100)), 14)
    large = build(list(range(10000)), 14)
    assert large.nbytes > small.nbytes


def test_expected_fpr_formula():
    f = BloomFilter(1000, 14)
    fpr = f.expected_fpr(1000)
    assert 0.0 < fpr < 0.01


def test_hash_count_clamped():
    assert BloomFilter(10, 14).n_hashes == 10  # round(ln2 * 14)
    assert BloomFilter(10, 100).n_hashes == 30


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=200))
def test_property_no_false_negatives(keys):
    f = build(keys, bits_per_key=10)
    for k in keys:
        assert f.might_contain(k)


#: uint64 keys, plus negative and >= 2**64 ones (hashed by their low 64 bits).
any_keys = st.lists(st.integers(-2**65, 2**65), min_size=1, max_size=100)


@settings(max_examples=30, deadline=None)
@given(any_keys, any_keys, st.sampled_from([1, 10, 14, 100]))
def test_scalar_probe_matches_vector_build(keys, others, bits_per_key):
    """The build kernel (probe matrix scattered into a byte-per-bit scratch,
    packed little-endian) sets exactly the bits the scalar probe sequence of
    each key names, and the ``bytes`` probe reads them as the frozen
    word-indexed probe does -- bit for bit, so might_contain finds every key
    and a filter never differs from the one-key-at-a-time construction."""
    f = build(keys, bits_per_key)
    want = np.zeros((f.n_bits + 63) // 64, dtype=np.uint64)
    for key in keys:
        h1, h2 = hash_pair(key)
        for i in range(f.n_hashes):
            idx = ((h1 + i * h2) & MASK64) % f.n_bits
            want[idx >> 6] |= np.uint64(1 << (idx & 63))
    assert type(f.bits) is bytes and len(f.bits) == f.nbytes
    assert f.bits == want.astype("<u8").tobytes()
    assert all(f.might_contain(key) for key in keys)
    for key in keys + others:
        pair = hash_pair(key)
        verdict = frozen_might_contain(want, f.n_bits, f.n_hashes, *pair)
        assert f.might_contain(key) is f.might_contain(key, pair) is verdict


@settings(max_examples=30, deadline=None)
@given(any_keys)
def test_hash_columns_is_hash_pair_per_key(keys):
    column = np.array([k & MASK64 for k in keys], dtype=np.uint64)
    h1, h2 = hash_columns(column).tolist()
    assert list(zip(h1, h2)) == [hash_pair(k) for k in keys]


@settings(max_examples=30, deadline=None)
@given(any_keys)
def test_inherited_hashes_build_the_same_filter(keys):
    """A sequence cut from a run builds from a slice of the run's hashes."""
    column = np.array([k & MASK64 for k in keys], dtype=np.uint64)
    cut = len(keys) // 2
    hashes = hash_columns(column)
    for part, share in ((column[:cut], hashes[:, :cut]), (column[cut:], hashes[:, cut:])):
        assert BloomFilter.build(part, 14, share).bits == BloomFilter.build(part, 14).bits
