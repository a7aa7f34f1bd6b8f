"""What the benchmark measures: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root lists the same names; the self-test
keeps the two in step.  README.md explains every entry.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

#: REPRO_SCALE applied to every workload: data, page cache and op counts all
#: shrink together, so data stays ~6x cache on the single-node workloads.
#: 0.25 keeps the driver's 158 runs inside its 57-minute cap.
SIZE_FACTOR = 0.25
#: ``--quick`` (self-test) sizes; not comparable with anything committed.
QUICK_SIZE_FACTOR = 1.0 / 16.0
#: ``run_seconds`` of BENCHMARK.json and the default ``--seconds``: a run takes
#: 11-14 s all told (import, 3 set-ups, repetitions, counted repetition, audit).
RUN_SECONDS = 7
#: Fewest timed repetitions per run; more are added while ``--seconds`` lasts.
MIN_REPS = 5
QUICK_REPS = 2
DEFAULT_SEED = 11
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_ROUNDS = 3

#: Paper-scale op counts (before SIZE_FACTOR); record counts come from the
#: repo's own ``SSD-100G`` set-up (91,980 records over a 4 MiB page cache).
YCSB_C_OPS = 60_000
YCSB_A_OPS = 40_000
YCSB_E_OPS = 8_000
CLUSTER_RECORDS = 40_000
CLUSTER_A_OPS = 30_000
CLUSTER_CLIENTS = 4
CLUSTER_SHARDS = 4
CLUSTER_REPLICAS = 2

AUDIT_WRITTEN_KEYS = 2_000
AUDIT_ABSENT_KEYS = 200


class Workload(NamedTuple):
    name: str
    why: str


WORKLOADS: List[Workload] = [
    Workload("load_iam",
             "Paper Fig. 6 hash load into IAM: the per-put write spine plus "
             "flush, table and bloom builds do the work; the read path does none."),
    Workload("load_leveldb",
             "Same load into leveled LevelDB, the merge-only baseline: merge_runs, "
             "leveled picking and its own write gate carry more of the run."),
    Workload("ycsb_c_iam",
             "Zipfian point reads on a store 6x the page cache: bloom probes, table "
             "lookups and the cache dominate; a write-spine change must not move it."),
    Workload("ycsb_a_iam",
             "50% reads, 50% updates on the same store: flush and compaction run "
             "beside reads, so a write gain that costs reads shows here."),
    Workload("ycsb_e_iam",
             "95% short scans, 5% inserts: the only user of the scan planner and "
             "merge iterator, the slowest path per op."),
    Workload("cluster_a_4x2",
             "YCSB-A from 4 clients on 4 shards x 2 replicas with data that fits in "
             "cache: router, network and replication dominate both clocks."),
    Workload("objstore_load_4x2",
             "Hash load into the same cluster with the shared object store on: every "
             "flush output is mirrored through tiering, manifest log and store."),
]
WORKLOAD_NAMES = [w.name for w in WORKLOADS]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: "host" (wall clock of this machine), "sim" (the simulated clock) or
    #: "count" (host work counted, not timed).  Only "host" values are noisy:
    #: the others repeat exactly for one seed.
    clock: str
    #: End-to-end: share of the parent's median a later PR may lose.
    #: Per-layer metrics carry no bound.
    bound: Optional[float]
    #: Per-layer: the end-to-end metric this one is expected to move.
    moves: str
    meaning: str


def _e2e(name: str, unit: str, better: str, clock: str, bound: float,
         meaning: str) -> Metric:
    return Metric(name, unit, better, clock, bound, "", meaning)


# The driver's end-to-end list.  Every metric is defined and non-zero on every
# workload, and none is a host *timing* except the obligatory ``setup_s``:
# ten runs of one commit spread 2-6% in a quiet spell of this sandbox and
# 17-44% in a noisy one, beyond any bound the driver allows, so a bounded
# timing would reject PRs at random.  The sim-clock and count bounds are wide
# only because the driver compares runs of *different* seeds; for one seed the
# values repeat exactly and compare.py demands that.
END_TO_END: List[Metric] = [
    _e2e("setup_s", "s", "lower", "host", 0.25,
         "import + median of 3 set-ups (inputs, store build or preload) + "
         "median per-repetition state build (fresh store or deepcopy)"),
    _e2e("host_calls_per_op", "calls/op", "lower", "count", 0.10,
         "Python + builtin function calls per driver op in one repetition run "
         "under cProfile: host work that no neighbour can disturb"),
    _e2e("peak_rss_mb", "MiB", "lower", "host", 0.10,
         "ru_maxrss of the workload's process"),
    _e2e("sim_ops_per_s", "1/s", "higher", "sim", 0.15,
         "driver ops per simulated second (the paper's throughput axis)"),
    _e2e("write_amp", "x", "lower", "sim", 0.05,
         "flush+compaction bytes per user byte over the store's life, WAL "
         "excluded (paper 6.2), read after the final quiesce"),
    _e2e("space_amp", "x", "lower", "sim", 0.05,
         "space_used_bytes over live user bytes after the final quiesce"),
    _e2e("sim_io_bytes_per_op", "B/op", "lower", "sim", 0.15,
         "device bytes read+written (WAL, flush, compaction, query misses; all "
         "replicas) per driver op, timed phase plus final quiesce"),
]

#: The headline for perf PRs.  Printed by every run and judged by compare.py
#: (with this bound, or ``unresolved``), but not bounded by the driver; it is
#: in the driver's per-layer list as ``workloads.host_ops_per_s``.
HOST_OPS = _e2e("host_ops_per_s", "1/s", "higher", "host", 0.25,
                "driver ops per host second in the fastest timed repetition")
#: What run.py --trace 0 prints and suite.py / compare.py carry.
REPORTED: List[Metric] = [HOST_OPS] + END_TO_END


def _layer(name: str, unit: str, better: str, clock: str, moves: str,
           meaning: str) -> Metric:
    return Metric(name, unit, better, clock, None, moves, meaning)


_HOST = "host_ops_per_s"

PER_LAYER: List[Metric] = [
    # What the closed-loop client saw, by op type (0 where the op type does
    # not occur).  These are end-to-end in nature but not defined on every
    # workload, so they cannot carry a driver bound.
    _layer("workloads.sim_write_p50_us", "us", "lower", "sim", "sim_ops_per_s",
           "median put/update/insert latency (histogram bucket bound)"),
    _layer("workloads.sim_write_p999_us", "us", "lower", "sim", "sim_ops_per_s",
           "p99.9 write latency: where the stalls live"),
    _layer("workloads.sim_read_p50_us", "us", "lower", "sim", "sim_ops_per_s",
           "median point-read latency"),
    _layer("workloads.sim_read_p99_us", "us", "lower", "sim", "sim_ops_per_s",
           "p99 point-read latency"),
    _layer("workloads.sim_scan_p50_us", "us", "lower", "sim", "sim_ops_per_s",
           "median scan latency"),
    _layer("workloads.sim_scan_p99_us", "us", "lower", "sim", "sim_ops_per_s",
           "p99 scan latency"),
    _layer("workloads.stall_fraction", "ratio", "lower", "sim", "sim_ops_per_s",
           "foreground hard stalls + gate delays over simulated time"),
    _layer("workloads.read_amp", "x", "lower", "sim", "sim_io_bytes_per_op",
           "random device I/Os per read or scan"),
    _layer("workloads.host_ops_per_s", "1/s", "higher", "host", _HOST,
           "the headline: driver ops per host second in the fastest of the "
           "unwrapped timed repetitions of this run"),
    _layer("workloads.host_s", "s", "lower", "host", _HOST,
           "drivers' own time: op-stream generation, key mixing, the loop"),
    _layer("workloads.ops", "count", "higher", "sim", _HOST,
           "ops the driver issued in the observed repetition"),
    # db
    _layer("db.write_host_s", "s", "lower", "host", _HOST,
           "IamDB.put/delete/_apply_batch self time"),
    _layer("db.read_host_s", "s", "lower", "host", _HOST,
           "IamDB.get/multi_get/scan self time"),
    _layer("db.rotations", "count", "lower", "sim", "write_amp",
           "memtable rotations (flushes submitted)"),
    # engine
    _layer("engine.write_gate_host_s", "s", "lower", "host", _HOST,
           "write_gate self time (fault gate, pacing decision, L0 backstop)"),
    _layer("engine.write_gate_calls", "count", "lower", "sim", _HOST,
           "gate decisions taken"),
    _layer("engine.flush_host_s", "s", "lower", "host", _HOST,
           "submit_flush + the flush jobs' structural work (IAM/LSA: all "
           "appends, merges and splits happen here)"),
    _layer("engine.flushes", "count", "lower", "sim", "write_amp",
           "flush jobs started"),
    _layer("engine.compaction_host_s", "s", "lower", "host", _HOST,
           "pick_background_job + compaction jobs' structural work (leveled)"),
    _layer("engine.compactions", "count", "lower", "sim", "write_amp",
           "compaction jobs started"),
    _layer("engine.get_host_s", "s", "lower", "host", _HOST,
           "engine get/multi_get/scan_plan self time"),
    _layer("engine.gate_delay_sim_s", "s", "lower", "sim", "sim_ops_per_s",
           "simulated time writes spent delayed by the gate"),
    # storage.pacing
    _layer("storage.pacing.host_s", "s", "lower", "host", _HOST,
           "TokenBucketPacer.admit + RateEstimator.observe self time"),
    _layer("storage.pacing.admits", "count", "lower", "sim", _HOST,
           "token-bucket admissions under pressure"),
    _layer("storage.pacing.delay_sim_s", "s", "lower", "sim", "sim_ops_per_s",
           "simulated delay imposed by the token bucket"),
    # storage.wal
    _layer("storage.wal.host_s", "s", "lower", "host", _HOST,
           "WAL append/append_many/truncate_through self time"),
    _layer("storage.wal.appends", "count", "lower", "sim", _HOST,
           "append + append_many calls (a batch counts once)"),
    _layer("storage.wal.bytes", "B", "lower", "sim", "sim_io_bytes_per_op",
           "bytes logged"),
    # storage.background
    _layer("storage.background.pump_host_s", "s", "lower", "host", _HOST,
           "BackgroundPool.pump self time (runs once per op today)"),
    _layer("storage.background.pumps", "count", "lower", "sim", _HOST,
           "pump calls"),
    _layer("storage.background.other_host_s", "s", "lower", "host", _HOST,
           "submit/wait_for/drain_all self time"),
    _layer("storage.background.jobs", "count", "lower", "sim", "write_amp",
           "background jobs started (flush + compaction)"),
    _layer("storage.background.wait_sim_s", "s", "lower", "sim", "sim_ops_per_s",
           "simulated time the foreground waited on background jobs"),
    # memtable
    _layer("memtable.host_s", "s", "lower", "host", _HOST,
           "Memtable add/add_many/get/sorted_records/iter_range self time"),
    _layer("memtable.adds", "count", "lower", "sim", _HOST,
           "add + add_many calls"),
    _layer("memtable.gets", "count", "lower", "sim", _HOST, "get calls"),
    # table
    _layer("table.build_host_s", "s", "lower", "host", _HOST,
           "Sequence.__init__ + MSTable.append_sequence self time"),
    _layer("table.sequences_built", "count", "lower", "sim", "write_amp",
           "sequences built"),
    _layer("table.lookup_host_s", "s", "lower", "host", _HOST,
           "Sequence.get + MSTable.get/plan_gets/read_range/read_all_records "
           "self time"),
    _layer("table.lookups", "count", "lower", "sim", _HOST,
           "MSTable.get + plan_gets calls"),
    _layer("table.merge_host_s", "s", "lower", "host", _HOST,
           "merge_runs self time"),
    _layer("table.merge_calls", "count", "lower", "sim", "write_amp",
           "merge_runs calls"),
    _layer("table.merge_records_in", "count", "lower", "sim", "write_amp",
           "records entering merges"),
    _layer("table.scan_host_s", "s", "lower", "host", _HOST,
           "scan.py/scanplan.py entry points + merge_visible self time"),
    _layer("table.scan_rows", "count", "higher", "sim", _HOST,
           "rows returned by IamDB.scan"),
    # filters.bloom
    _layer("filters.bloom.build_host_s", "s", "lower", "host", _HOST,
           "BloomFilter.build/add_many self time"),
    _layer("filters.bloom.probe_host_s", "s", "lower", "host", _HOST,
           "might_contain/contains_many self time"),
    _layer("filters.bloom.probes", "count", "lower", "sim", _HOST,
           "membership probes"),
    _layer("filters.bloom.negative_share", "ratio", "higher", "sim",
           "sim_io_bytes_per_op", "probes that rejected the key (I/O avoided)"),
    # storage.pagecache
    _layer("storage.pagecache.host_s", "s", "lower", "host", _HOST,
           "PageCache touch*/insert* self time"),
    _layer("storage.pagecache.touches", "count", "lower", "sim", _HOST,
           "query block reads looked up in the cache"),
    _layer("storage.pagecache.hit_rate", "ratio", "higher", "sim",
           "sim_io_bytes_per_op", "share of those that hit"),
    # storage.simdisk + storage.runtime
    _layer("storage.simdisk.host_s", "s", "lower", "host", _HOST,
           "SimDisk fg_io/fg_stream/bg_grant/bg_count/sync_drain self time"),
    _layer("storage.simdisk.calls", "count", "lower", "sim", _HOST,
           "device-model calls"),
    _layer("storage.simdisk.bytes_written", "B", "lower", "sim",
           "sim_io_bytes_per_op", "device bytes written, all disks"),
    _layer("storage.simdisk.bytes_read", "B", "lower", "sim",
           "sim_io_bytes_per_op", "device bytes read, all disks"),
    _layer("storage.simdisk.busy_sim_s", "s", "lower", "sim", "sim_ops_per_s",
           "device service time committed, all disks"),
    _layer("storage.runtime.host_s", "s", "lower", "host", _HOST,
           "Runtime fg_read_blocks/bg_write_run/bg_read_run/stall_on self time"),
    # cluster
    _layer("cluster.router.host_s", "s", "lower", "host", _HOST,
           "ClusterDB facade + Router put/delete/get/multi_get/scan self time"),
    _layer("cluster.router.ops_routed", "count", "lower", "sim", _HOST,
           "Router calls"),
    _layer("cluster.router.admission_wait_sim_s", "s", "lower", "sim",
           "sim_ops_per_s", "simulated router admission delay"),
    _layer("cluster.network.host_s", "s", "lower", "host", _HOST,
           "SimNetwork send/rpc/reserve self time"),
    _layer("cluster.network.messages", "count", "lower", "sim", "sim_ops_per_s",
           "messages carried"),
    _layer("cluster.network.bytes", "B", "lower", "sim", "sim_ops_per_s",
           "bytes carried, framing included"),
    _layer("cluster.network.wait_sim_s", "s", "lower", "sim", "sim_ops_per_s",
           "simulated time callers blocked in send"),
    _layer("cluster.replica.host_s", "s", "lower", "host", _HOST,
           "ReplicaGroup put/delete/get/multi_get/scan self time"),
    _layer("cluster.replica.writes_replicated", "count", "lower", "sim",
           "sim_ops_per_s", "ReplicaGroup put + delete calls"),
    # objstore
    _layer("objstore.store.host_s", "s", "lower", "host", _HOST,
           "SimObjectStore request self time"),
    _layer("objstore.store.requests", "count", "lower", "sim", "sim_ops_per_s",
           "store requests"),
    _layer("objstore.store.bytes_up", "B", "lower", "sim", "sim_ops_per_s",
           "bytes uploaded"),
    _layer("objstore.store.bytes_down", "B", "lower", "sim", "sim_ops_per_s",
           "bytes downloaded"),
    _layer("objstore.store.wait_sim_s", "s", "lower", "sim", "sim_ops_per_s",
           "simulated time foreground requests took"),
    _layer("objstore.tiering.host_s", "s", "lower", "host", _HOST,
           "ObjStoreTier.on_checkpoint self time"),
    _layer("objstore.manifestlog.host_s", "s", "lower", "host", _HOST,
           "SharedManifestLog.append_cut/cleanup self time"),
    _layer("objstore.manifestlog.cuts", "count", "lower", "sim", "sim_ops_per_s",
           "manifest cuts appended"),
    # metrics
    _layer("metrics.host_s", "s", "lower", "host", _HOST,
           "MetricsRegistry record_latency/observe/add_* self time"),
    _layer("metrics.calls", "count", "lower", "sim", _HOST,
           "accounting calls"),
    # the instrument itself
    _layer("trace_overhead_pct", "%", "lower", "host", _HOST,
           "observed wall over fastest unobserved wall, minus one"),
    _layer("unattributed_host_s", "s", "lower", "host", _HOST,
           "observed wall minus the sum of all layer self times"),
    _layer("observed_wall_s", "s", "lower", "host", _HOST,
           "wall time of the observed repetition"),
]

END_TO_END_NAMES = [m.name for m in END_TO_END]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]
#: Per-layer metrics that are self times: with ``unattributed_host_s`` they
#: sum to ``observed_wall_s``.
SELF_TIME_NAMES = [m.name for m in PER_LAYER
                   if m.name.endswith("host_s") and m.name != "unattributed_host_s"]
