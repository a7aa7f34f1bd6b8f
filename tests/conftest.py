"""Shared fixtures: tiny engine configurations that exercise deep trees fast,
and the oracles several test files read a store through."""

from __future__ import annotations

import random

import pytest

from repro.check.diagnostics import Diagnostic
from repro.common.options import IamOptions, LsmOptions, StorageOptions, SSD
from repro.common.records import KEY, SEQ
from repro.db.iamdb import IamDB

TINY_VALUE = 64


def tiny_iam_options(**kw) -> IamOptions:
    """IAM/LSA options small enough that a few KB of data builds 3+ levels."""
    defaults = dict(node_capacity=2048, fanout=3, key_size=8,
                    bloom_bits_per_key=14, retune_interval=2)
    defaults.update(kw)
    return IamOptions(**defaults)


def tiny_lsm_options(style: str = "leveldb", **kw) -> LsmOptions:
    defaults = dict(memtable_bytes=2048, file_bytes=1024, level1_bytes=3072,
                    level_size_multiplier=4, max_levels=5, key_size=8)
    defaults.update(kw)
    if style == "rocksdb":
        return LsmOptions.rocksdb(**defaults)
    return LsmOptions.leveldb(**defaults)


def tiny_storage_options(**kw) -> StorageOptions:
    defaults = dict(device=SSD, page_cache_bytes=16 * 1024, block_size=256)
    defaults.update(kw)
    return StorageOptions(**defaults)


def make_tiny_db(engine: str = "iam", *, storage_kw=None, **engine_kw) -> IamDB:
    """A DB with tiny thresholds (fast deep trees) for behavioural tests."""
    storage = tiny_storage_options(**(storage_kw or {}))
    if engine in ("iam", "lsa", "lsmtrie"):
        opts = tiny_iam_options(**engine_kw)
    else:
        style = "rocksdb" if engine == "rocksdb" else "leveldb"
        opts = tiny_lsm_options(style, **engine_kw)
    return IamDB(engine, engine_options=opts, storage_options=storage)


def member_dbs(store):
    """The IamDBs behind a store: itself, or every replica of a cluster."""
    if isinstance(store, IamDB):
        return [store]
    return [r.db for sh in store.router.shards for r in sh.group.replicas]


def diagnostic_of(exc: BaseException) -> Diagnostic:
    """The structured diagnostic of an exception, synthesizing one if absent."""
    diag = getattr(exc, "diagnostic", None)
    if isinstance(diag, Diagnostic):
        return diag
    return Diagnostic(check="unstructured", message=str(exc))


def is_sorted_run(recs) -> bool:
    """True when ``recs`` is a valid sorted run: (key asc, seq desc), no dup (key, seq)."""
    for a, b in zip(recs, recs[1:]):
        if a[KEY] > b[KEY]:
            return False
        if a[KEY] == b[KEY] and a[SEQ] <= b[SEQ]:
            return False
    return True


def max_sequences_per_node(engine) -> int:
    """Most sorted sequences any node of an LSA-family tree holds."""
    return max((node.n_sequences for level in engine.levels for node in level),
               default=0)


def make_matched_db(engine: str, *, storage_kw=None, **engine_kw) -> IamDB:
    """A DB with paper-ratio options (fanout/multiplier 10) at small size.

    Use for amplification-*shape* tests: the tiny t=3 configs above are great
    for exercising deep-tree mechanics quickly, but only t=10 preserves the
    paper's WA relationships between engines.
    """
    skw = dict(page_cache_bytes=256 * 1024)
    skw.update(storage_kw or {})
    storage = tiny_storage_options(**skw)
    if engine in ("iam", "lsa"):
        defaults = dict(node_capacity=8192, fanout=10, key_size=8)
        defaults.update(engine_kw)
        opts = IamOptions(**defaults)
    else:
        defaults = dict(memtable_bytes=8192, file_bytes=4096,
                        level1_bytes=40960, level_size_multiplier=10,
                        max_levels=6, key_size=8)
        defaults.update(engine_kw)
        if engine == "rocksdb":
            opts = LsmOptions.rocksdb(**defaults)
        else:
            opts = LsmOptions.leveldb(**defaults)
    return IamDB(engine, engine_options=opts, storage_options=storage)


ALL_ENGINES = ("iam", "lsa", "leveldb", "rocksdb", "flsm")


@pytest.fixture(params=ALL_ENGINES)
def any_engine_db(request) -> IamDB:
    return make_tiny_db(request.param)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
