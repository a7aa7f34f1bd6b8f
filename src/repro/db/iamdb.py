"""IamDB: the persistent, MVCC, crash-recoverable key-value store (§6).

One wrapper owns the pieces every engine shares -- WAL, memtable, snapshots,
the manifest -- and delegates the on-disk structure to a pluggable engine:

======== ===================================== ==========================
name     engine                                paper system
======== ===================================== ==========================
iam      :class:`repro.core.lsa.LsaTree`       IAM-tree (I-nt)
lsa      the same tree under ``as_lsa()``      LSA-tree (A-nt)
leveldb  :class:`repro.lsm.leveled.LeveledLsm` LevelDB (L)
rocksdb  :class:`repro.lsm.leveled.LeveledLsm` RocksDB (R-nt)
flsm     :class:`repro.lsm.flsm.FlsmEngine`    FLSM/PebblesDB (§6.8)
======== ===================================== ==========================

Write path (§5.2, identical to LevelDB): append to the WAL, insert into the
memtable; on overflow the memtable rotates and a background flush hands it to
the engine.  Rotation stalls while the previous flush is still in flight --
one of the two stall sources the tail-latency experiments measure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.common.errors import ConfigError, StoreClosedError
from repro.common.options import (
    FaultOptions,
    IamOptions,
    LsaOptions,
    LsmOptions,
    StorageOptions,
)
from repro.common.hashing import MASK64
from repro.common.records import (
    KIND,
    DELETE,
    Key,
    RecordTuple,
    SEQ,
    VALUE,
    Value,
    encoded_size,
    encoded_size_many,
    bad_key,
    make_delete,
    make_put,
)
from repro.core.engine import EngineBase
from repro.core.lsa import LsaTree
from repro.db.iterator import check_bounds, check_limit, merge_visible
from repro.table.scan import list_stream, merge_scan
from repro.table.scanplan import planned_scan
from repro.db.snapshot import Snapshot
from repro.faults.crash import CrashSpec, RecoveryReport
from repro.lsm.flsm import FlsmEngine
from repro.lsm.leveled import LeveledLsm
from repro.memtable import Memtable
from repro.metrics import MetricsRegistry
from repro.storage.manifest import Manifest
from repro.storage.runtime import Runtime
from repro.storage.wal import WriteAheadLog
from repro.check.effects.registry import observation_only

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.sanitizer import Sanitizer, SanitizerOptions
    from repro.db.batch import WriteBatch
    from repro.storage.simdisk import SimClock

SnapshotLike = Union[None, int, Snapshot]


def _engine_factory(name: str, engine_options: Any,
                    runtime: Runtime) -> EngineBase:
    if name in ("iam", "lsa"):
        # LSA is IAM's pure-append corner (§7: "LSA is a special case of IAM
        # with minimum merges"): the same tree under ``as_lsa()``.
        opts = engine_options or IamOptions()
        if not isinstance(opts, IamOptions):
            raise ConfigError(f"{name} engine needs IamOptions")
        tree = LsaTree(opts.as_lsa() if name == "lsa" else opts, runtime)
        tree.name = name
        return tree
    if name == "leveldb":
        return LeveledLsm(engine_options or LsmOptions.leveldb(), runtime)
    if name == "rocksdb":
        return LeveledLsm(engine_options or LsmOptions.rocksdb(), runtime)
    if name == "flsm":
        return FlsmEngine(engine_options or LsmOptions.leveldb(), runtime)
    if name == "lsmtrie":
        from repro.lsm.lsmtrie import LsmTrieEngine
        opts = engine_options or LsaOptions()
        return LsmTrieEngine(opts, runtime)
    raise ConfigError(f"unknown engine {name!r}")


class IamDB:
    """Key-value store over a simulated storage stack."""

    def __init__(self, engine: str = "iam", *,
                 engine_options: Any = None,
                 storage_options: Optional[StorageOptions] = None,
                 sanitizer_options: Optional["SanitizerOptions"] = None,
                 fault_options: Optional[FaultOptions] = None,
                 clock: Optional["SimClock"] = None) -> None:
        self.metrics = MetricsRegistry()
        threads = getattr(engine_options, "background_threads", None)
        if threads is None:
            threads = 1
        self.runtime = Runtime(storage_options, background_threads=threads,
                               metrics=self.metrics, clock=clock)
        if fault_options is not None and fault_options.enabled:
            self.runtime.attach_faults(fault_options)
        self.engine = _engine_factory(engine, engine_options, self.runtime)
        self.engine.snapshots_provider = self._live_snapshots
        self.key_size = self.engine.options.key_size
        self.wal = WriteAheadLog(self.runtime, self.key_size)
        self.manifest = Manifest(self.runtime)
        self.memtable = Memtable(self.key_size)
        self.immutable: Optional[Memtable] = None
        self._imm_job = None
        self._seq = 0
        self._snapshots: Dict[int, int] = {}
        self._closed = False
        self.sanitizer: Optional["Sanitizer"] = None
        if sanitizer_options is None:
            from repro.check.sanitizer import default_options
            sanitizer_options = default_options()
        if sanitizer_options is not None:
            from repro.check.sanitizer import Sanitizer
            self.sanitizer = Sanitizer(self, sanitizer_options)
            self.engine.sanitizer = self.sanitizer

    @classmethod
    def create(cls, engine: str = "iam", **kw: Any) -> "IamDB":
        """Convenience constructor: ``IamDB.create("lsa", ...)``."""
        return cls(engine, **kw)

    # -------------------------------------------------------------- lifecycle
    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("operation on a closed IamDB")

    def close(self) -> None:
        if not self._closed:
            self.flush()
            self.runtime.quiesce()
            self._closed = True

    @property
    def clock_now(self) -> float:
        return self.runtime.clock.now

    # ----------------------------------------------------------------- writes
    def put(self, key: Key, value: Value) -> None:
        """Insert/overwrite ``key``.  ``value``: bytes, or int = synthetic size."""
        self._check_open()
        if type(key) is not int or not 0 <= key <= MASK64:
            raise bad_key(key)
        self._seq += 1
        self._write(make_put(key, self._seq, value))

    def delete(self, key: Key) -> None:
        """Delete ``key`` (writes a tombstone; space reclaimed by merges)."""
        self._check_open()
        if type(key) is not int or not 0 <= key <= MASK64:
            raise bad_key(key)
        self._seq += 1
        self._write(make_delete(key, self._seq))

    def write_batch(self) -> "WriteBatch":
        """An atomic :class:`~repro.db.batch.WriteBatch` bound to this DB."""
        self._check_open()
        from repro.db.batch import WriteBatch
        return WriteBatch(self)

    def _apply_batch(self, ops: List[Tuple[str, Key, Value]]) -> None:
        """Commit a WriteBatch: consecutive seqs, one WAL run, all-or-nothing."""
        from repro.db.batch import PUT_OP
        self._check_open()
        runtime = self.runtime
        t0 = runtime.clock.now
        recs = []
        for op, key, value in ops:
            self._seq += 1
            if op == PUT_OP:
                recs.append(make_put(key, self._seq, value))
            else:
                recs.append(make_delete(key, self._seq))
        total = encoded_size_many(recs, self.key_size)
        self.engine.write_gate(total)
        self.wal.append_many(recs)
        self._crash_point("post-wal-append")
        for rec in recs:
            self.memtable.add(rec)
        self.metrics.add_user_bytes(total)
        if self.memtable.nbytes >= self.engine.memtable_capacity:
            self._rotate_memtable()
        runtime.pump()
        self.metrics.latency["insert"].samples.append(runtime.clock.now - t0)

    def _write(self, rec: RecordTuple) -> None:
        runtime = self.runtime
        clock = runtime.clock
        metrics = self.metrics
        engine = self.engine
        t0 = clock.now
        nbytes = encoded_size(rec, self.key_size)
        engine.write_gate(nbytes)
        self.wal.append(rec, nbytes)
        if runtime.crash_points is not None:
            runtime.crash_points.reached("post-wal-append")
        memtable = self.memtable
        memtable.add(rec, nbytes)
        metrics.user_bytes += nbytes
        if memtable.nbytes >= engine.memtable_capacity:
            self._rotate_memtable()
        runtime.pump()
        metrics.latency["insert"].samples.append(clock.now - t0)

    @observation_only
    def _sanitize_db(self, event: str) -> None:
        """Run the DB-level sanitizer checks at a quiescent point."""
        if self.sanitizer is not None:
            self.sanitizer.check_db(event)

    def _crash_point(self, site: str) -> None:
        """Crash-site hook (no-op unless a CrashPoints scheduler is armed)."""
        cp = self.runtime.crash_points
        if cp is not None:
            cp.reached(site)

    def _rotate_memtable(self) -> None:
        self._sanitize_db("rotation")
        if self._imm_job is not None and not self._imm_job.done:
            # The previous flush is still in flight: the write stalls (§6.2).
            self.runtime.stall_on(self._imm_job, "memtable-rotation")
        imm = self.memtable
        if len(imm) == 0:
            return
        if self.runtime.tracer.enabled:
            self.runtime.tracer.instant("db", "memtable-rotation",
                                        nbytes=imm.nbytes, records=len(imm))
        self.memtable = Memtable(self.key_size)
        records = imm.sorted_records()
        flushed_through = imm.max_seq
        job = self.engine.submit_flush(records, imm.nbytes)
        self.immutable = imm
        self._imm_job = job

        prev_done = job.on_complete

        def on_done() -> None:
            if prev_done is not None:
                prev_done()
            if self._imm_job is job:
                self.immutable = None
                self._imm_job = None
            # Checkpoint strictly BEFORE truncating the log.  The reverse
            # order has a crash window where the flushed records' only
            # durable copy (the WAL prefix) is gone while the manifest still
            # points at the pre-flush structure -- acked writes would
            # vanish.  A crash between the two steps here merely leaves
            # covered records in the log; recovery drops them.
            self._crash_point("pre-checkpoint")
            self.take_checkpoint(flushed_through)
            self._crash_point("post-checkpoint")
            self.wal.truncate_through(flushed_through)

        if job.done:
            on_done()
        else:
            job.on_complete = on_done
        self._crash_point("post-rotate")

    def take_checkpoint(self, seq: int) -> None:
        """Checkpoint the engine's structure as durable through ``seq``."""
        self.manifest.checkpoint({"engine": self.engine.checkpoint_state(),
                                  "seq": seq})

    def adopt_checkpoint(self, state: Dict[str, Any]) -> None:
        """Become the store a checkpoint describes (follower bootstrap).

        Restore before checkpointing: a manifest mirror reads the engine's
        live files when it takes the cut.
        """
        self.engine.restore_state(state["engine"])
        self.manifest.checkpoint(state)
        self._seq = int(state["seq"])

    def flush(self) -> float:
        """Flush the memtable and wait for the flush to hit the structure."""
        self._check_open()
        t0 = self.runtime.clock.now
        if len(self.memtable):
            self._rotate_memtable()
        if self._imm_job is not None and not self._imm_job.done:
            self.runtime.stall_on(self._imm_job, "explicit-flush")
        self._sanitize_db("flush-end")
        return self.runtime.clock.now - t0

    def quiesce(self) -> float:
        """Flush and finish *all* background work (end of the tuning phase)."""
        elapsed = self.flush()
        return elapsed + self.runtime.quiesce()

    # ------------------------------------------------------------------ reads
    @staticmethod
    def _snap_seq(snapshot: SnapshotLike) -> Optional[int]:
        if snapshot is None:
            return None
        if isinstance(snapshot, Snapshot):
            return snapshot.seq
        return int(snapshot)

    def get(self, key: Key, snapshot: SnapshotLike = None) -> Optional[Value]:
        """Newest visible value of ``key``, or None."""
        self._check_open()
        if type(key) is not int or not 0 <= key <= MASK64:
            raise bad_key(key)
        runtime = self.runtime
        t0 = runtime.clock.now
        snap = self._snap_seq(snapshot)
        rec = self.memtable.get(key, snap)
        if rec is None and self.immutable is not None:
            rec = self.immutable.get(key, snap)
        if rec is None:
            rec, _ = self.engine.get(key, snap)
        runtime.pump()
        self.metrics.latency["read"].samples.append(runtime.clock.now - t0)
        if rec is None or rec[KIND] == DELETE:
            return None
        return rec[VALUE]

    def multi_get(self, keys: List[Key],
                  snapshot: SnapshotLike = None) -> List[Optional[Value]]:
        """:meth:`get` of every key, in request order.

        Every key is validated before the first is read, so a bad key
        leaves the store untouched.
        """
        self._check_open()
        for key in keys:
            if type(key) is not int or not 0 <= key <= MASK64:
                raise bad_key(key)
        return [self.get(key, snapshot) for key in keys]

    def _scan_streams(self, lo_key: Optional[Key],
                      hi_key: Optional[Key]) -> List[Iterable[RecordTuple]]:
        """What every scan merges, newest first: the memtable, the immutable
        memtable, then the engine's on-disk components (§5.2).  Captures the
        view; charges nothing."""
        streams = [list_stream(list(self.memtable.iter_range(lo_key, hi_key)))]
        if self.immutable is not None:
            streams.append(list_stream(
                list(self.immutable.iter_range(lo_key, hi_key))))
        streams.extend(self.engine.scan_cursors(lo_key, hi_key))
        return streams

    def scan(self, lo_key: Optional[Key] = None,
             hi_key: Optional[Key] = None, *, limit: Optional[int] = None,
             snapshot: SnapshotLike = None) -> List[Tuple[Key, object]]:
        """Ordered ``(key, value)`` pairs with lo <= key < hi (both optional).

        ``limit`` caps the row count: 0 returns ``[]`` without touching the
        store, a negative one raises :class:`ConfigError`.
        """
        self._check_open()
        check_limit(limit)
        check_bounds(lo_key, hi_key)
        if limit == 0:
            return []
        runtime = self.runtime
        t0 = runtime.clock.now
        snap = self._snap_seq(snapshot)
        streams = self._scan_streams(lo_key, hi_key)
        # Plan the whole merge vectorized; the planner declines -- before it
        # charges anything -- what it cannot plan, and the heap merge over
        # the same streams answers instead.
        out = planned_scan(streams, snapshot=snap, hi_key=hi_key, limit=limit)
        if out is None:
            out = merge_scan(streams, snapshot=snap, hi_key=hi_key, limit=limit)
        runtime.pump()
        self.metrics.latency["scan"].samples.append(runtime.clock.now - t0)
        return out

    def iterate(self, lo_key: Optional[Key] = None,
                hi_key: Optional[Key] = None, *,
                snapshot: SnapshotLike = None) -> Iterator[Tuple[Key, object]]:
        """Lazy ordered iterator over ``(key, value)`` pairs, lo <= key < hi.

        Unlike :meth:`scan`, results stream as they are consumed -- I/O is
        charged with read-ahead while you iterate.  The view is fixed at call
        time (plus the given snapshot); interleaving writes with iteration is
        not supported.
        """
        self._check_open()
        check_bounds(lo_key, hi_key)
        return merge_visible(self._scan_streams(lo_key, hi_key),
                             snapshot=self._snap_seq(snapshot), hi_key=hi_key)

    # -------------------------------------------------------------- snapshots
    def snapshot(self) -> Snapshot:
        """Pin the current sequence number for repeatable reads."""
        self._check_open()
        self._snapshots[self._seq] = self._snapshots.get(self._seq, 0) + 1
        return Snapshot(self, self._seq)

    def _release_snapshot(self, seq: int) -> None:
        left = self._snapshots.get(seq, 0) - 1
        if left <= 0:
            self._snapshots.pop(seq, None)
        else:
            self._snapshots[seq] = left

    def _live_snapshots(self) -> Tuple[int, ...]:
        return tuple(sorted(self._snapshots))

    # --------------------------------------------------------------- recovery
    def crash_and_recover(self, crash: Optional[CrashSpec] = None) -> RecoveryReport:
        """Simulate a *hard* process crash and recover from WAL + manifest.

        The crash model destroys everything a power cut would:

        * in-flight and queued background jobs are abandoned mid-I/O -- any
          structural effect they already applied rolls back to the last
          manifest checkpoint, and the files they wrote become orphans
          (swept below);
        * the volatile memtable, immutable memtable and snapshots are gone;
        * with ``crash.torn_tail_records > 0``, that many un-synced WAL tail
          records are lost -- snapped down to a group-commit boundary so an
          acked batch is never half-lost.

        Recovery restores the last checkpointed structure (pristine when no
        flush ever completed), sweeps crash-orphaned files, drops any log
        prefix the checkpoint already covers, replays the surviving WAL into
        a fresh memtable, and rewinds the sequence counter to the recovered
        cut.  Returns a :class:`~repro.faults.crash.RecoveryReport`.
        """
        self._check_open()
        runtime = self.runtime
        # The process dies: background work is dropped on the floor.
        abandoned = runtime.pool.abandon_all()
        self.memtable = Memtable(self.key_size)
        self.immutable = None
        self._imm_job = None
        self._snapshots.clear()
        torn = 0
        if crash is not None and crash.torn_tail_records > 0:
            torn = self.wal.tear(crash.torn_tail_records)
        # Restore the durable structure from the last manifest checkpoint
        # (None = no flush ever completed: the structure is pristine and the
        # WAL still holds every record).
        state = self.manifest.restore()
        durable_seq = 0
        if state is not None:
            durable_seq = state["seq"]
        self.engine.restore_state(state["engine"] if state is not None else None)
        orphans = self._sweep_orphans()
        # A crash between checkpoint and log truncation leaves covered
        # records in the WAL; they are already in the restored structure, so
        # recovery finishes the interrupted truncation.
        if len(self.wal) and self.wal.replay()[0][SEQ] <= durable_seq:
            self.wal.truncate_through(durable_seq)
        # Replay the surviving WAL suffix into a fresh memtable.
        replayed = self.wal.replay()
        recovered_seq = durable_seq
        for rec in replayed:
            self.memtable.add(rec)
            if rec[SEQ] > recovered_seq:
                recovered_seq = rec[SEQ]
        self._seq = recovered_seq
        self.metrics.bump("recovery")
        if runtime.tracer.enabled:
            runtime.tracer.instant("db", "recovery", replayed=len(replayed),
                                   seq=recovered_seq, torn=torn,
                                   orphans=orphans, abandoned=abandoned)
        self._sanitize_db("recovery-end")
        if self.sanitizer is not None:
            self.sanitizer.check_tree(self.engine, event="recovery-end")
        return RecoveryReport(durable_seq=durable_seq,
                              recovered_seq=recovered_seq,
                              replayed_records=len(replayed),
                              torn_records=torn, orphan_files=orphans,
                              abandoned_jobs=abandoned)

    def _sweep_orphans(self) -> int:
        """Delete files no live structure references (crash-orphaned output).

        An abandoned flush or compaction has already written (and grown)
        node files that the restored checkpoint never links; a real system's
        recovery GCs them against the manifest exactly like this.
        """
        live = set(self.engine.live_file_ids())
        live.add(self.wal.file_id)
        live.add(self.manifest.file_id)
        disk = self.runtime.disk
        orphan_ids = [fid for fid in disk.files if fid not in live]
        for fid in orphan_ids:
            self.runtime.delete_file(disk.files[fid])
        return len(orphan_ids)

    # ------------------------------------------------------------- inspection
    def write_amplification(self, *, include_wal: bool = False) -> float:
        return self.metrics.write_amplification(include_wal=include_wal)

    def per_level_write_amplification(self) -> Dict[int, float]:
        return self.metrics.per_level_write_amplification()

    def space_used_bytes(self) -> int:
        return self.runtime.space_used_bytes()

    @observation_only
    def stats(self) -> Dict[str, object]:
        d = self.engine.describe()
        longest = self.metrics.longest_stall()
        d.update({
            "write_amplification": self.write_amplification(),
            "space_used_bytes": self.space_used_bytes(),
            "sim_time_s": self.runtime.clock.now,
            "memtable_bytes": self.memtable.nbytes,
            "cache_hit_rate": self.metrics.cache_hit_rate(),
            "total_stall_s": self.metrics.total_stall_s,
            "longest_stall_s": longest[1] if longest is not None else 0.0,
            "longest_stall_reason": longest[0] if longest is not None else None,
            "stall_breakdown": self.metrics.stall_breakdown().as_dict(
                sim_seconds=self.runtime.clock.now),
        })
        if self.metrics.hist_enabled:
            d["latency_percentiles"] = self.metrics.hist_percentiles()
        return d

    @observation_only
    def check_invariants(self) -> None:
        self.engine.check_invariants()
