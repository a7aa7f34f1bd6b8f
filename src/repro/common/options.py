"""Configuration dataclasses for the storage substrate and every engine.

Default sizes follow the paper's configuration (§6.1) scaled down by
``SCALE_BYTES`` = 1/4096 (1 paper-GB -> 0.25 sim-MB); see DESIGN.md.  All the
*ratios* the paper's behaviour depends on -- ``data / Ct``, the fanout ``t``,
``memory / data`` -- are preserved exactly, so tree depth, node counts and the
mixed-level index come out the same as in the paper's testbed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.errors import ConfigError

#: Scale factor applied to the paper's byte sizes (1 paper-GB -> 0.25 sim-MB).
SCALE_BYTES = 1.0 / 4096.0

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


def paper_bytes(nbytes: float) -> int:
    """Scale a byte size quoted in the paper down to simulation scale."""
    return max(1, int(nbytes * SCALE_BYTES))


@dataclass(frozen=True)
class DeviceProfile:
    """Latency/bandwidth model of a storage device -- at simulation scale.

    Because the simulation scales data volume by 1/4096 but record/block
    sizes only by 1/4, one seek constant cannot preserve both of the paper's
    regimes.  Each profile therefore carries two (see DESIGN.md):

    * ``seek_time_s`` -- charged per random *query* I/O run.  Scaled by the
      record-size factor (1/4) so point reads stay seek-dominated exactly as
      on the real device (HDD reads ~ms, SSD reads ~tens of us).
    * ``bulk_seek_time_s`` -- charged per *bulk* (flush/compaction) run.
      Scaled by the volume factor (1/4096) so the seek:transfer ratio of a
      compaction run matches the paper's testbed (seeks cost ~9% of an
      append pass on HDD, ~0% on SSD -- the "worst write case" lever).
    """

    name: str
    seek_time_s: float
    bulk_seek_time_s: float
    read_bandwidth: float  # bytes / second
    write_bandwidth: float  # bytes / second

    def __post_init__(self) -> None:
        if self.seek_time_s < 0 or self.bulk_seek_time_s < 0:
            raise ConfigError("seek times must be >= 0")
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ConfigError("bandwidths must be > 0")


#: Intel DC S3710-class SATA SSD (paper's SSD testbed); real seek 0.1 ms.
SSD = DeviceProfile(name="ssd", seek_time_s=0.0001 / 4, bulk_seek_time_s=0.0001 / 4096,
                    read_bandwidth=500 * MIB, write_bandwidth=400 * MIB)

#: 10k-RPM enterprise HDD (paper's HDD testbed); real seek 8 ms.
HDD = DeviceProfile(name="hdd", seek_time_s=0.008 / 4, bulk_seek_time_s=0.008 / 4096,
                    read_bandwidth=150 * MIB, write_bandwidth=150 * MIB)


@dataclass(frozen=True)
class StorageOptions:
    """Options of the simulated storage stack shared by all engines."""

    device: DeviceProfile = SSD
    #: OS page-cache capacity in bytes (the paper's "memory size").
    page_cache_bytes: int = paper_bytes(16 * GIB)
    #: Cache block granularity; the paper uses 4 KiB blocks at full scale.
    block_size: int = 1024
    #: Device I/O chunk used when background jobs stream data.
    io_chunk_bytes: int = 16 * KIB

    def __post_init__(self) -> None:
        if self.page_cache_bytes < 0:
            raise ConfigError("page_cache_bytes must be >= 0")
        if self.block_size <= 0:
            raise ConfigError("block_size must be > 0")
        if self.io_chunk_bytes <= 0:
            raise ConfigError("io_chunk_bytes must be > 0")


@dataclass(frozen=True)
class FaultOptions:
    """Deterministic transient-fault injection plan (see repro.faults).

    Faults are decided per I/O attempt from a seeded hash plus explicit
    windows, so two runs with the same options and workload fail (and
    recover) identically.  ``rate`` must stay below 1.0: windows terminate
    on their own (op windows are consumed, time windows are escaped by
    backoff), but an always-failing device would retry forever.
    """

    #: Seed of the per-attempt fault hash (splitmix64).
    seed: int = 1
    #: Probability in [0, 1) that any single I/O attempt fails.
    rate: float = 0.0
    #: Half-open [lo, hi) windows of global I/O-attempt indices that fail.
    op_windows: Tuple[Tuple[int, int], ...] = ()
    #: Half-open [lo, hi) sim-time windows (seconds) during which attempts fail.
    time_windows: Tuple[Tuple[float, float], ...] = ()
    #: Attempts per foreground I/O / background activation before giving up.
    max_retries: int = 6
    #: First retry backoff (seconds); doubles per retry up to backoff_max_s.
    backoff_base_s: float = 0.0005
    backoff_max_s: float = 0.05
    #: Re-queue delay after a flush job exhausts its retries (flushes are
    #: never dropped -- they hold the only copy of the immutable memtable).
    giveup_backoff_s: float = 0.2

    def __post_init__(self) -> None:
        if not (0.0 <= self.rate < 1.0):
            raise ConfigError("fault rate must be in [0, 1)")
        for lo, hi in self.op_windows:
            if lo < 0 or hi <= lo:
                raise ConfigError("op_windows entries need 0 <= lo < hi")
        for tlo, thi in self.time_windows:
            if tlo < 0 or thi <= tlo:
                raise ConfigError("time_windows entries need 0 <= lo < hi")
        if self.max_retries < 1:
            raise ConfigError("max_retries must be >= 1")
        if self.backoff_base_s <= 0:
            raise ConfigError("backoff_base_s must be > 0")
        if self.backoff_max_s < self.backoff_base_s:
            raise ConfigError("backoff_max_s must be >= backoff_base_s")
        if self.giveup_backoff_s <= 0:
            raise ConfigError("giveup_backoff_s must be > 0")

    @property
    def enabled(self) -> bool:
        return bool(self.rate > 0.0 or self.op_windows or self.time_windows)


@dataclass(frozen=True)
class TreeOptions:
    """Options common to every tree engine."""

    #: Fixed key width charged per record (paper: 16-byte YCSB-style keys).
    key_size: int = 16
    #: Bloom-filter bits per record (paper: 14 -> ~0.2% false-positive rate).
    bloom_bits_per_key: int = 14
    #: Number of background compaction/flush threads (paper: 1 or 4).
    background_threads: int = 1

    def __post_init__(self) -> None:
        if self.key_size <= 0:
            raise ConfigError("key_size must be > 0")
        if self.bloom_bits_per_key < 0:
            raise ConfigError("bloom_bits_per_key must be >= 0")
        if self.background_threads < 1:
            raise ConfigError("background_threads must be >= 1")


@dataclass(frozen=True)
class LsmOptions(TreeOptions):
    """LevelDB/RocksDB-style leveled-LSM configuration (paper §6.1).

    Paper values: memtable 128 MB, file size 64 MB, level thresholds 640 MB,
    6.4 GB, 64 GB ... growing by 10.  ``style`` selects LevelDB behaviour
    (overflow-tolerant, hard stalls) or RocksDB behaviour (eager compaction,
    slowdown-based stall control).
    """

    memtable_bytes: int = paper_bytes(128 * MIB)
    file_bytes: int = paper_bytes(64 * MIB)
    level1_bytes: int = paper_bytes(640 * MIB)
    level_size_multiplier: int = 10
    max_levels: int = 7
    l0_compaction_trigger: int = 4
    l0_slowdown_trigger: int = 8
    l0_stop_trigger: int = 12
    #: "leveldb" or "rocksdb"
    style: str = "leveldb"
    #: RocksDB-style soft limit on estimated pending compaction debt (bytes);
    #: writes are delayed when exceeded.  0 disables (LevelDB behaviour).
    pending_compaction_soft_bytes: int = 0
    #: While in a slowdown band, user writes are paced to this fraction of
    #: the device's write bandwidth (RocksDB's delayed_write_rate; LevelDB's
    #: 1 ms sleep per write behaves like a much harsher pace).  Scale-free.
    delayed_write_fraction: float = 0.05

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.memtable_bytes <= 0 or self.file_bytes <= 0:
            raise ConfigError("memtable_bytes and file_bytes must be > 0")
        if self.level1_bytes < self.file_bytes:
            raise ConfigError("level1_bytes must be >= file_bytes")
        if self.level_size_multiplier < 2:
            raise ConfigError("level_size_multiplier must be >= 2")
        if not (0 < self.l0_compaction_trigger <= self.l0_slowdown_trigger <= self.l0_stop_trigger):
            raise ConfigError("require 0 < trigger <= slowdown <= stop for L0")
        if not (0.0 < self.delayed_write_fraction <= 1.0):
            raise ConfigError("delayed_write_fraction must be in (0, 1]")
        if self.style not in ("leveldb", "rocksdb"):
            raise ConfigError(f"unknown LSM style {self.style!r}")

    def level_target_bytes(self, level: int) -> int:
        """Size threshold of level ``level`` (level >= 1)."""
        if level < 1:
            raise ConfigError("leveled thresholds start at L1")
        return self.level1_bytes * (self.level_size_multiplier ** (level - 1))

    @staticmethod
    def leveldb(**kw: object) -> "LsmOptions":
        return LsmOptions(style="leveldb", **kw)

    @staticmethod
    def rocksdb(**kw: object) -> "LsmOptions":
        defaults = dict(
            style="rocksdb",
            pending_compaction_soft_bytes=paper_bytes(8 * GIB),
            l0_slowdown_trigger=20,
            l0_stop_trigger=36,
            delayed_write_fraction=0.1,
        )
        defaults.update(kw)
        return LsmOptions(**defaults)


@dataclass(frozen=True)
class LsaOptions(TreeOptions):
    """LSA-tree configuration (§4).

    ``node_capacity`` is the paper's ``Ct`` (128 MB); ``fanout`` is ``t``
    (node-count threshold of level i is ``t**i``); a node splits when its
    child count reaches ``2 * fanout``; merge-generated leaf children start at
    ``Ct / leaf_split_factor`` (paper: Ct/5).
    """

    node_capacity: int = paper_bytes(128 * MIB)
    fanout: int = 10
    leaf_split_factor: int = 5
    #: Candidate filter for combine: Tcn <= combine_tcn_factor * t (paper: 3).
    combine_tcn_factor: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.node_capacity <= 0:
            raise ConfigError("node_capacity must be > 0")
        if self.fanout < 2:
            raise ConfigError("fanout must be >= 2")
        if self.leaf_split_factor < 1:
            raise ConfigError("leaf_split_factor must be >= 1")
        if self.combine_tcn_factor < 1:
            raise ConfigError("combine_tcn_factor must be >= 1")

    @property
    def split_children_threshold(self) -> int:
        return 2 * self.fanout

    @property
    def leaf_initial_bytes(self) -> int:
        return max(1, self.node_capacity // self.leaf_split_factor)

    def level_node_threshold(self, level: int) -> int:
        """Node-count threshold ``t**i`` of internal level ``level``."""
        if level < 1:
            raise ConfigError("on-disk levels start at L1")
        return self.fanout**level


@dataclass(frozen=True)
class IamOptions(LsaOptions):
    """IAM-tree configuration (§5) = LSA plus the append/merge policy.

    ``fixed_m`` / ``fixed_k`` pin the mixed level and its sequence bound; when
    either is None the tree tunes them from page-cache residency via Eq. (1)
    and (2), reserving ``memory_budget_fraction`` of the cache for appended
    sequences (the paper suggests M/2).
    """

    fixed_m: Optional[int] = None
    fixed_k: Optional[int] = None
    #: Upper bound for the tuned k.  Each extra sequence at the mixed level
    #: saves merges but costs scans a(nother) potential seek when appended
    #: sequences fall out of cache; the paper's tuned configurations land
    #: around k = 2-4 (Tables 3/4).
    k_max: int = 4
    #: Fraction of the page cache reserved for appended sequences in Eq. (2);
    #: the paper uses M by default and suggests M/2 as a conservative option.
    memory_budget_fraction: float = 1.0
    #: Re-run the m/k tuner every this many memtable flushes.
    retune_interval: int = 8
    #: §5.1.3 "forcible caching": pin appended sequences of the appending and
    #: mixed levels in the page cache so scans pay at most one seek per
    #: level even under cold read traffic.  Off by default (the paper
    #: prefers the flexible hotter-data-first strategy).
    pin_appended_sequences: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fixed_m is not None and self.fixed_m < 1:
            raise ConfigError("fixed_m must be >= 1")
        if self.fixed_k is not None and self.fixed_k < 1:
            raise ConfigError("fixed_k must be >= 1")
        if self.k_max < 1:
            raise ConfigError("k_max must be >= 1")
        if not (0.0 < self.memory_budget_fraction <= 1.0):
            raise ConfigError("memory_budget_fraction must be in (0, 1]")
        if self.retune_interval < 1:
            raise ConfigError("retune_interval must be >= 1")

    def as_lsa(self) -> "IamOptions":
        """The LSA degenerate case: mixed level beyond the tree, pure appends."""
        return dataclasses.replace(self, fixed_m=10**9, fixed_k=1)

    def as_lsm(self) -> "IamOptions":
        """The LSM degenerate case: every on-disk level merges (m=1, k=1)."""
        return dataclasses.replace(self, fixed_m=1, fixed_k=1)
