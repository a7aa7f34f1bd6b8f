"""Page-cache model: LRU behaviour and mincore-style residency."""

import pytest
from hypothesis import given, strategies as st

from repro.bench.reference import ReferencePageCache
from repro.common.errors import ConfigError
from repro.storage.pagecache import PageCache


def test_validation():
    with pytest.raises(ConfigError):
        PageCache(-1, 10)
    with pytest.raises(ConfigError):
        PageCache(10, 0)


def test_insert_and_contains():
    c = PageCache(1024, 256)
    c.insert(1, 0)
    assert c.contains(1, 0)
    assert not c.contains(1, 1)
    assert len(c) == 1
    assert c.used_bytes == 256


def test_capacity_zero_caches_nothing():
    c = PageCache(0, 256)
    c.insert(1, 0)
    assert not c.contains(1, 0)
    assert len(c) == 0


def test_lru_eviction_order():
    c = PageCache(4 * 256, 256)
    for b in range(4):
        c.insert(1, b)
    c.touch(1, 0)        # 0 becomes most recent
    c.insert(1, 4)       # evicts block 1 (the LRU)
    assert c.contains(1, 0)
    assert not c.contains(1, 1)
    assert c.contains(1, 4)
    assert c.evictions == 1


def test_touch_returns_hit_status():
    c = PageCache(1024, 256)
    assert not c.touch(1, 0)
    c.insert(1, 0)
    assert c.touch(1, 0)


def test_resident_bytes_per_file():
    c = PageCache(10 * 256, 256)
    c.insert_many(1, range(3))
    c.insert_many(2, range(2))
    assert c.resident_bytes(1) == 3 * 256
    assert c.resident_bytes(2) == 2 * 256
    assert c.resident_bytes(99) == 0


def test_invalidate_file_drops_all_blocks():
    c = PageCache(10 * 256, 256)
    c.insert_many(1, range(3))
    c.insert_many(2, range(2))
    assert c.invalidate_file(1) == 3
    assert c.resident_bytes(1) == 0
    assert not c.contains(1, 0)
    assert c.contains(2, 1)
    assert c.invalidate_file(1) == 0


def test_reinsert_refreshes_without_double_count():
    c = PageCache(10 * 256, 256)
    c.insert(1, 0)
    c.insert(1, 0)
    assert c.resident_blocks(1) == 1
    assert len(c) == 1


def test_eviction_updates_per_file_residency():
    c = PageCache(2 * 256, 256)
    c.insert(1, 0)
    c.insert(1, 1)
    c.insert(2, 0)  # evicts (1, 0)
    assert c.resident_blocks(1) == 1
    assert c.resident_blocks(2) == 1


def test_pinned_blocks_survive_eviction_pressure():
    c = PageCache(4 * 256, 256)
    c.pin_range(1, 0, 2)
    for b in range(50):
        c.insert(2, b)
    assert c.contains(1, 0) and c.contains(1, 1)
    assert c.pinned_blocks() == 2
    assert len(c) <= c.max_blocks


def test_invalidate_releases_pins():
    c = PageCache(4 * 256, 256)
    c.pin_range(1, 0, 2)
    c.invalidate_file(1)
    assert c.pinned_blocks() == 0
    assert not c.contains(1, 0)


def test_all_pinned_cache_does_not_livelock():
    c = PageCache(2 * 256, 256)
    c.pin_range(1, 0, 2)  # cache is entirely pinned
    c.insert(2, 0)        # must not loop forever; pins survive
    assert c.contains(1, 0) and c.contains(1, 1)


def test_pins_may_exceed_capacity_like_mlock():
    # Pinned pages cannot be evicted, so (as with mlock'd memory) the cache
    # can be pushed past its target size by pins.
    c = PageCache(2 * 256, 256)
    c.pin_range(1, 0, 10)
    assert len(c) == 10
    assert c.pinned_blocks() == 10


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 20)), max_size=200))
def test_residency_accounting_consistent(ops):
    """Sum of per-file residency always equals total cached blocks."""
    c = PageCache(8 * 64, 64)
    for file_id, block in ops:
        c.insert(file_id, block)
        total = sum(c.resident_blocks(f) for f in range(1, 6))
        assert total == len(c)
        assert len(c) <= c.max_blocks


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 10)), max_size=100),
       st.integers(1, 3))
def test_invalidate_then_empty(ops, victim):
    c = PageCache(16 * 64, 64)
    for file_id, block in ops:
        c.insert(file_id, block)
    c.invalidate_file(victim)
    assert c.resident_blocks(victim) == 0
    assert all(key[0] != victim for key in c._lru)


# --------------------------------------------------- fully pinned, cache full
def test_insert_into_fully_pinned_full_cache_overcommits():
    # All resident blocks pinned AND at capacity: the eviction scan is
    # bounded (one pass over the pins), and the new block is admitted over
    # capacity -- mlock-style overcommit, not a drop and not a livelock.
    c = PageCache(2 * 256, 256)
    c.pin_range(1, 0, 2)
    assert len(c) == c.max_blocks == 2
    c.insert(2, 0)
    assert c.contains(2, 0)
    assert c.contains(1, 0) and c.contains(1, 1)
    assert len(c) == 3           # over capacity by the unpinned newcomer
    assert c.evictions == 0
    # The overcommitted block is the next admission's eviction victim.
    c.insert(2, 1)
    assert not c.contains(2, 0)
    assert c.contains(2, 1)
    assert c.evictions == 1


def test_insert_many_into_fully_pinned_full_cache_overcommits():
    c = PageCache(2 * 256, 256)
    c.pin_range(1, 0, 2)
    c.insert_many(2, [0, 1, 2])
    assert c.contains(1, 0) and c.contains(1, 1)
    # Each admission evicts the previous overcommitted unpinned block.
    assert c.contains(2, 2)
    assert len(c) == 3


# ------------------------------------------- batch ops vs per-block reference
_batch_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "insert_many", "insert_range",
                               "touch", "request",
                               "pin_range", "invalidate_file"]),
              st.integers(0, 3),                              # file_id
              st.lists(st.integers(0, 12), max_size=8),       # block list
              st.integers(0, 10),                             # first_block
              st.integers(0, 5),                              # n_blocks
              st.integers(-1, 3)),                            # failing fill
    max_size=60)


class _FillFailed(Exception):
    pass


def _stretches(block_nos):
    """Stretches of consecutive block numbers: one seek each."""
    return sum(1 for i, b in enumerate(block_nos)
               if i == 0 or b != block_nos[i - 1] + 1)


def _request(cache, reads, fail_at=-1):
    """One read request through a scripted fill (its ``fail_at``-th call
    raises, ending the request); returns the fills' arguments in call order
    and checks the request's ``(elapsed, missed, seeks)`` against them."""
    fills = []

    def fill(*, nbytes_read, seeks):
        fills.append((nbytes_read, seeks))
        if len(fills) - 1 == fail_at:
            raise _FillFailed
        return 0.5 ** len(fills)  # distinct bits: the sum's order shows
    try:
        elapsed, missed, seeks = cache.read_request(reads, fill)
    except _FillFailed:
        return fills
    assert elapsed == sum(0.5 ** k for k in range(1, len(fills) + 1))
    assert missed * cache.block_size == sum(n for n, _ in fills)
    assert seeks == sum(s for _, s in fills)
    return fills


def _ref_request(ref, reads, fail_at=-1):
    """Per run, per-block touches, then one fill of its misses and their
    per-block inserts unless the fill fails (ending the request); returns
    the fills' arguments and the hits."""
    fills, hits = [], 0
    for f, run in reads:
        misses = [b for b in run if not ref.touch(f, b)]
        hits += len(run) - len(misses)
        if misses:
            fills.append((len(misses) * ref.block_size, _stretches(misses)))
            if len(fills) - 1 == fail_at:
                break
            for b in misses:
                ref.insert(f, b)
    return fills, hits


def _record_batches(ref):
    """Eviction batches of the reference: one per per-block insert."""
    batches = []
    insert = ref.insert

    def recording_insert(f, b):
        before = ref.evictions
        insert(f, b)
        if ref.evictions > before:
            batches.append(ref.evictions - before)
    ref.insert = recording_insert
    return batches


@given(_batch_ops, st.integers(1, 8))
def test_batch_ops_state_identical_to_reference(ops, cap_blocks):
    """insert_many/read_request/etc. leave the exact per-block-loop state.

    LRU order, pins, counters, eviction batches and return values -- and
    every file's residency after every op -- must all match the seed cache
    driven one block at a time (its set-based invalidate included).  A read
    request's scripted fill may raise: that run admits nothing.
    """
    new = PageCache(cap_blocks * 64, 64)
    ref = ReferencePageCache(cap_blocks * 64, 64)
    batches = []
    new.on_evictions = batches.append
    ref_batches = _record_batches(ref)
    for kind, f, blocks, first, n, fail_at in ops:
        if kind == "insert":
            for b in blocks:
                new.insert(f, b)
                ref.insert(f, b)
        elif kind == "insert_many":
            new.insert_many(f, blocks)
            for b in blocks:
                ref.insert(f, b)
        elif kind == "insert_range":
            new.insert_many(f, range(first, first + n))
            ref.insert_range(f, first, n)
        elif kind == "touch":
            for b in blocks:
                assert new.touch(f, b) == ref.touch(f, b)
        elif kind == "request":
            # Runs over several files, some empty, some repeating blocks.
            reads = [((f + k) % 4, range(b, b + n)) for k, b in enumerate(blocks)]
            hits = new.hits
            fills = _request(new, reads, fail_at)
            assert (fills, new.hits - hits) == _ref_request(ref, reads, fail_at)
        elif kind == "pin_range":
            new.pin_range(f, first, n)
            ref.pin_range(f, first, n)
        else:
            assert new.invalidate_file(f) == ref.invalidate_file(f)
        assert list(new._lru) == list(ref._lru)
        assert new._pinned == ref._pinned
        assert new.insertions == ref.insertions
        assert new.evictions == ref.evictions
        assert batches == ref_batches
        assert ([new.resident_blocks(g) for g in range(4)]
                == [ref.resident_blocks(g) for g in range(4)])


def test_a_request_admits_the_touched_misses_only():
    # A run longer than the cache: admitting its misses (blocks 0 and 1)
    # evicts its own hit (block 2) before the run reaches it.  The evicted
    # hit stays out, as in the per-block loop over the misses alone.
    new, ref = PageCache(2 * 64, 64), ReferencePageCache(2 * 64, 64)
    for c in (new, ref):
        c.insert(9, 0)
        c.insert(1, 2)
    reads = [(1, range(0, 3))]
    assert _request(new, reads) == _ref_request(ref, reads)[0] == [(2 * 64, 1)]
    assert list(new._lru) == list(ref._lru) == [(1, 0), (1, 1)]
    assert new.evictions == ref.evictions == 2


def test_a_failed_fill_admits_nothing_and_ends_the_request():
    # The second run's fill raises: the first run's misses are in, the
    # second run's hit is promoted, its misses and the third run stay out.
    new, ref = PageCache(8 * 64, 64), ReferencePageCache(8 * 64, 64)
    for c in (new, ref):
        c.insert(2, 1)
        c.insert(3, 0)
    reads = [(1, range(0, 2)), (2, range(0, 3)), (3, range(0, 2))]
    assert (_request(new, reads, 1) == _ref_request(ref, reads, 1)[0]
            == [(2 * 64, 1), (2 * 64, 2)])
    assert list(new._lru) == list(ref._lru) == [(3, 0), (1, 0), (1, 1), (2, 1)]
    assert new.resident_blocks(2) == 1 and new.insertions == ref.insertions == 4


def test_invalidate_walks_a_sparse_file_exactly():
    # Blocks {0, 4096} of one file: the walk steps over the 4,095-block gap,
    # drops both blocks and the pin, and stops once the count is found.
    new, ref = PageCache(8 * 64, 64), ReferencePageCache(8 * 64, 64)
    for c in (new, ref):
        c.insert(1, 0)
        c.insert(2, 4097)
        c.pin_range(1, 4096, 1)
    assert new.resident_blocks(1) == ref.resident_blocks(1) == 2
    assert new.invalidate_file(1) == ref.invalidate_file(1) == 2
    assert list(new._lru) == list(ref._lru) == [(2, 4097)]
    assert new._pinned == ref._pinned == set()
    assert new._per_file == {2: 1}
    assert new.invalidate_file(1) == 0


@pytest.mark.parametrize("cap,pins,reach", [(4, 0, False), (3, 0, True),
                                            (5, 1, False), (4, 1, True)],
                         ids=["one-short", "reach", "one-short-pinned",
                              "reach-pinned"])
def test_a_request_at_the_one_pass_guard(cap, pins, reach):
    # A full cache: ``pins`` pinned blocks at the LRU end, then unpinned
    # blocks of file 9, then the run's hits (1, 2) and (1, 3).  The run's
    # two misses evict two blocks: the last victim sits just ahead of the
    # hits, or is the hit (1, 2) the run has not reached yet.  Run length
    # + pins == capacity is the one pass's edge; one more is the list form.
    new, ref = PageCache(cap * 64, 64), ReferencePageCache(cap * 64, 64)
    for c in (new, ref):
        c.pin_range(8, 0, pins)
        for b in range(cap - pins - 2):
            c.insert(9, b)
        c.insert(1, 2)
        c.insert(1, 3)
    batches = []
    new.on_evictions = batches.append
    ref_batches = _record_batches(ref)
    reads = [(1, range(0, 4))]
    assert _request(new, reads) == _ref_request(ref, reads)[0] == [(2 * 64, 1)]
    assert list(new._lru) == list(ref._lru)
    assert new._pinned == ref._pinned and len(new._pinned) == pins
    assert (new.insertions, new.evictions) == (ref.insertions, ref.evictions)
    assert ([new.resident_blocks(f) for f in (1, 8, 9)]
            == [ref.resident_blocks(f) for f in (1, 8, 9)])
    assert batches == ref_batches == [1, 1]
    assert new.contains(1, 2) is not reach
