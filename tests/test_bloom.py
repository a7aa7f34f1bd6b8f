"""Bloom filters: no false negatives, bounded false positives."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import numpy as np

from repro.common.errors import ConfigError
from repro.common.hashing import MASK64, splitmix64
from repro.filters.bloom import _SALT, BloomFilter, hash_columns, hash_pair
from tests.frozen_kernels import frozen_might_contain


def column(keys):
    """A uint64 key column of a Python key list (any ints: low 64 bits)."""
    return np.array([k & MASK64 for k in keys], dtype=np.uint64)


def build(keys, bits_per_key):
    """The one filter BloomFilter.build makes of a Python key list."""
    [f] = BloomFilter.build([column(keys)], bits_per_key)
    return f


def test_validation():
    with pytest.raises(ConfigError):
        BloomFilter.build([column(range(10))], -1)
    with pytest.raises(ConfigError):
        BloomFilter.build([], -1)


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
    # The measured false-positive rate sits near (1 - e^(-kn/m))^k.
    keys = list(range(1000))
    f = build(keys, 14)
    k = f.n_hashes
    expected = (1.0 - math.exp(-k * len(keys) / f.n_bits)) ** k
    absent = range(10 ** 6, 10 ** 6 + 20000)
    measured = sum(map(f.might_contain, absent)) / len(absent)
    assert 0.0 < expected < 0.01
    assert measured < 3 * expected


def test_hash_count_clamped():
    assert build(range(10), 14).n_hashes == 10  # round(ln2 * 14)
    assert build(range(10), 100).n_hashes == 30


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=200))
def test_property_no_false_negatives(keys):
    f = build(keys, bits_per_key=10)
    for k in keys:
        assert f.might_contain(k)


#: uint64 keys, plus negative and >= 2**64 ones (hashed by their low 64 bits).
any_keys = st.lists(st.integers(-2**65, 2**65), min_size=1, max_size=100)


def probe_words(keys, n_bits, k):
    """Filter words with each key's ``k`` probes set in turn: the oracle."""
    words = np.zeros((n_bits + 63) // 64, dtype=np.uint64)
    for key in keys:
        h1, h2 = hash_pair(key)
        for i in range(k):
            idx = ((h1 + i * h2) & MASK64) % n_bits
            words[idx >> 6] |= np.uint64(1 << (idx & 63))
    return words


@settings(max_examples=30, deadline=None)
@given(any_keys, any_keys, st.sampled_from([1, 10, 14, 100]))
def test_scalar_probe_matches_vector_build(keys, others, bits_per_key):
    """The build kernel (probe matrix scattered into a byte-per-bit scratch,
    packed little-endian) sets exactly the bits the scalar probe sequence of
    each key names, and the ``bytes`` probe reads them as the frozen
    word-indexed probe does -- bit for bit, so might_contain finds every key
    and a filter never differs from the one-key-at-a-time construction."""
    f = build(keys, bits_per_key)
    want = probe_words(keys, f.n_bits, f.n_hashes)
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


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(0, MASK64), st.sampled_from([-1, -(2 ** 63), 2 ** 64, 2 ** 70])))
def test_hash_pair_is_two_scalar_splitmix64_mixes(key):
    # hash_pair writes both mixes out; the scalar kernel is their oracle.
    k = key & MASK64
    assert hash_pair(key) == (splitmix64(k), splitmix64(k ^ _SALT) | 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, MASK64), max_size=40), min_size=1, max_size=6),
       st.sampled_from([0, 1, 3, 10, 14]))
@example([[7]], 14)  # one column, one key: 14 bits, floored to 64
@example([[1, 2, 3], [], [2**64 - 1]], 0)
@example([list(range(5)), list(range(100, 140))], 14)
def test_one_build_over_many_columns_is_each_columns_own_filter(columns, bits_per_key):
    """A job builds all its filters in one call: each column's filter has
    exactly the bits of setting its keys' probes one key at a time (short
    columns, n * bits_per_key < 64, get the 64-bit floor; bits_per_key 0
    sets none), and every key passes the scalar probe."""
    filters = BloomFilter.build([np.array(keys, dtype=np.uint64) for keys in columns],
                                bits_per_key)
    k = max(1, min(30, round(math.log(2) * bits_per_key))) if bits_per_key else 0
    assert len(filters) == len(columns)
    for keys, f in zip(columns, filters):
        assert (f.n_bits, f.n_hashes) == (max(64, len(keys) * bits_per_key), k)
        assert f.bits == probe_words(keys, f.n_bits, k).astype("<u8").tobytes()
        assert all(f.might_contain(key) for key in keys)
