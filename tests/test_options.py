"""Options validation and derived values."""

import pytest

from repro.common.errors import ConfigError
from repro.common.options import (
    DeviceProfile,
    HDD,
    IamOptions,
    LsaOptions,
    LsmOptions,
    SCALE_BYTES,
    SSD,
    StorageOptions,
    paper_bytes,
)


def test_paper_bytes_scales():
    assert paper_bytes(4096) == 1
    assert paper_bytes(128 * 1024 * 1024) == int(128 * 1024 * 1024 * SCALE_BYTES)


def test_device_profile_validation():
    with pytest.raises(ConfigError):
        DeviceProfile("bad", -1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        DeviceProfile("bad", 0.0, 0.0, 0.0, 1.0)


def test_builtin_profiles_sane():
    assert SSD.seek_time_s < HDD.seek_time_s
    assert SSD.bulk_seek_time_s < SSD.seek_time_s
    assert HDD.read_bandwidth == HDD.write_bandwidth


def test_storage_options_validation():
    with pytest.raises(ConfigError):
        StorageOptions(page_cache_bytes=-1)
    with pytest.raises(ConfigError):
        StorageOptions(block_size=0)


def test_lsm_level_targets_multiply():
    opts = LsmOptions(level1_bytes=1000, level_size_multiplier=10,
                      memtable_bytes=100, file_bytes=100)
    assert opts.level_target_bytes(1) == 1000
    assert opts.level_target_bytes(3) == 100_000
    with pytest.raises(ConfigError):
        opts.level_target_bytes(0)


def test_lsm_l0_trigger_ordering_enforced():
    with pytest.raises(ConfigError):
        LsmOptions(l0_compaction_trigger=8, l0_slowdown_trigger=4)


def test_lsm_styles():
    assert LsmOptions.leveldb().style == "leveldb"
    rocks = LsmOptions.rocksdb()
    assert rocks.style == "rocksdb"
    assert rocks.pending_compaction_soft_bytes > 0
    with pytest.raises(ConfigError):
        LsmOptions(style="cassandra")


def test_lsa_options_derived():
    opts = LsaOptions(node_capacity=1000, fanout=10)
    assert opts.split_children_threshold == 20
    assert opts.leaf_initial_bytes == 200
    assert opts.level_node_threshold(3) == 1000
    with pytest.raises(ConfigError):
        opts.level_node_threshold(0)


def test_lsa_options_validation():
    with pytest.raises(ConfigError):
        LsaOptions(node_capacity=0)
    with pytest.raises(ConfigError):
        LsaOptions(fanout=1)


def test_iam_options_validation():
    with pytest.raises(ConfigError):
        IamOptions(fixed_m=0)
    with pytest.raises(ConfigError):
        IamOptions(fixed_k=0)


def test_iam_degenerate_configs():
    base = IamOptions()
    lsa = base.as_lsa()
    assert lsa.fixed_m > 100  # mixed level beyond any real tree
    lsm = base.as_lsm()
    assert (lsm.fixed_m, lsm.fixed_k) == (1, 1)


def test_delayed_write_fraction_validation():
    with pytest.raises(ConfigError):
        LsmOptions(delayed_write_fraction=0.0)
    with pytest.raises(ConfigError):
        LsmOptions(delayed_write_fraction=1.5)


def test_tree_options_validation():
    with pytest.raises(ConfigError):
        LsaOptions(key_size=0)
    with pytest.raises(ConfigError):
        LsaOptions(background_threads=0)
    with pytest.raises(ConfigError):
        LsaOptions(bloom_bits_per_key=-1)
