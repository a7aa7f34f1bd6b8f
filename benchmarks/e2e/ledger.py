"""Per-layer host-time ledger, measured from outside the program.

The benchmark wraps each layer's public callables at run time (class
attributes and module globals of ``repro``), runs one *observed* repetition,
and restores the exact original objects.  Nothing under ``src/`` knows about
it; the timed repetitions run with nothing wrapped.

Every wrapper is a span.  A span's *self time* is its duration minus the
durations of the spans it called, so self times of all spans sum to the time
spent inside top-level spans, and ``wall - sum(self)`` is the host time no
wrapped layer accounts for.  The wrapper's own cost lands in the caller's
self time (the part outside the two clock reads) and in the callee's (the
part inside); ``trace_overhead_pct`` prices both together.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: tally(args, kwargs, result) -> number added to a named counter.
Tally = Callable[[tuple, dict, Any], float]


class Totals:
    """A frozen copy of a ledger's accumulators (one observed window)."""

    def __init__(self, buckets: Dict[str, Tuple[float, int]],
                 tallies: Dict[str, float]) -> None:
        self.buckets = buckets
        self.tallies = tallies

    def _matching(self, prefix: str) -> List[Tuple[float, int]]:
        return [acc for bucket, acc in self.buckets.items()
                if bucket == prefix or bucket.startswith(prefix + ".")]

    def host_s(self, prefix: str) -> float:
        """Self seconds of ``prefix`` and every bucket below it."""
        return sum(acc[0] for acc in self._matching(prefix))

    def calls(self, prefix: str) -> int:
        return sum(acc[1] for acc in self._matching(prefix))

    def tally(self, name: str) -> float:
        return self.tallies.get(name, 0.0)

    def total_self_s(self) -> float:
        return sum(acc[0] for acc in self.buckets.values())


class Ledger:
    """Self-time and call-count accumulators keyed by layer bucket."""

    def __init__(self) -> None:
        #: bucket -> [self seconds, calls]; wrappers hold these lists, so
        #: they are only ever changed in place.
        self.buckets: Dict[str, List[float]] = {}
        #: named counters fed by tally functions (records merged, sim waits...)
        self.tallies: Dict[str, float] = {}
        # Child-duration accumulators of the open spans; slot 0 is the
        # permanent root, so wrappers never test for an empty stack.
        self._stack: List[float] = [0.0]

    def reset(self) -> None:
        """Zero everything: call between spans, right before the window."""
        for acc in self.buckets.values():
            acc[0], acc[1] = 0.0, 0
        for name in self.tallies:
            self.tallies[name] = 0.0

    def totals(self) -> Totals:
        return Totals({bucket: (acc[0], int(acc[1]))
                       for bucket, acc in self.buckets.items()},
                      dict(self.tallies))

    # ------------------------------------------------------------ wrapping
    def wrap(self, fn: Callable, bucket: str,
             tally: Optional[Tuple[str, Tally]] = None) -> Callable:
        """A span-recording stand-in for ``fn`` charging ``bucket``."""
        acc = self.buckets.setdefault(bucket, [0.0, 0])
        stack = self._stack
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, acc)
        if tally is None:
            def span(*args: Any, **kwargs: Any) -> Any:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    acc[0] += dt - stack.pop()
                    acc[1] += 1
                    stack[-1] += dt
        else:
            name, measure = tally
            tallies = self.tallies
            tallies.setdefault(name, 0.0)

            def span(*args: Any, **kwargs: Any) -> Any:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    tallies[name] += measure(args, kwargs, result)
                    return result
                finally:
                    dt = perf_counter() - t0
                    acc[0] += dt - stack.pop()
                    acc[1] += 1
                    stack[-1] += dt
        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    def _wrap_generator(self, fn: Callable, acc: List[float]) -> Callable:
        """Generators do their work while being consumed: time each resume."""
        stack = self._stack

        def span(*args: Any, **kwargs: Any) -> Any:
            gen = fn(*args, **kwargs)
            acc[1] += 1
            while True:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    acc[0] += dt - stack.pop()
                    stack[-1] += dt
                yield item
        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span


# --------------------------------------------------------------------------
# The probe table: which public callables belong to which layer bucket.
# (module, class or None, attribute, bucket[, tally])
# --------------------------------------------------------------------------

def _len_of_runs(args: tuple, kwargs: dict, result: Any) -> float:
    runs = args[0] if args else kwargs["runs"]
    return float(sum(len(run) for run in runs))


def _len_of_result(args: tuple, kwargs: dict, result: Any) -> float:
    return float(len(result))


def _result(args: tuple, kwargs: dict, result: Any) -> float:
    return float(result)


def _result0(args: tuple, kwargs: dict, result: Any) -> float:
    return float(result[0])


def _result1(args: tuple, kwargs: dict, result: Any) -> float:
    return float(result[1])


def _service_s(args: tuple, kwargs: dict, result: Any) -> float:
    return float(args[1] if len(args) > 1 else kwargs["service_s"])


def _io_time(args: tuple, kwargs: dict, result: Any) -> float:
    return float(args[0].io_time(**kwargs))


Probe = Tuple[Any, ...]

_ENGINE_CLASSES = (
    ("repro.core.engine", "EngineBase"),
    ("repro.core.lsa", "LsaTree"),
    ("repro.lsm.leveled", "LeveledLsm"),
)

PROBES: List[Probe] = [
    # workloads: the drivers themselves are wrapped at the call site (they
    # are the root spans); their chunked key generator is a module global.
    ("repro.workloads.distributions", None, "permute64_many", "workloads.keygen"),
    # db
    ("repro.db.iamdb", "IamDB", "put", "db.write"),
    ("repro.db.iamdb", "IamDB", "delete", "db.write"),
    ("repro.db.iamdb", "IamDB", "_apply_batch", "db.write"),
    ("repro.db.iamdb", "IamDB", "get", "db.read"),
    ("repro.db.iamdb", "IamDB", "multi_get", "db.read"),
    ("repro.db.iamdb", "IamDB", "scan", "db.read",
     ("table.scan_rows", _len_of_result)),
    # storage.pacing
    ("repro.storage.pacing", "TokenBucketPacer", "admit", "storage.pacing.admit"),
    ("repro.storage.pacing", "RateEstimator", "observe", "storage.pacing.observe"),
    # storage.wal
    ("repro.storage.wal", "WriteAheadLog", "append", "storage.wal.append"),
    ("repro.storage.wal", "WriteAheadLog", "append_many", "storage.wal.append"),
    ("repro.storage.wal", "WriteAheadLog", "truncate_through", "storage.wal.truncate"),
    # storage.background (submit also re-wraps the job it is handed; see
    # install()).
    ("repro.storage.background", "BackgroundPool", "pump", "storage.background.pump"),
    ("repro.storage.background", "BackgroundPool", "wait_for", "storage.background.wait"),
    ("repro.storage.background", "BackgroundPool", "drain_all", "storage.background.wait"),
    # memtable
    ("repro.memtable.memtable", "Memtable", "add", "memtable.add"),
    ("repro.memtable.memtable", "Memtable", "add_many", "memtable.add"),
    ("repro.memtable.memtable", "Memtable", "get", "memtable.get"),
    ("repro.memtable.memtable", "Memtable", "sorted_records", "memtable.read"),
    ("repro.memtable.memtable", "Memtable", "iter_range", "memtable.read"),
    # table.block + table.mstable
    ("repro.table.block", "Sequence", "__init__", "table.build.sequence"),
    ("repro.table.mstable", "MSTable", "append_sequence", "table.build"),
    ("repro.table.block", "Sequence", "get", "table.lookup"),
    ("repro.table.mstable", "MSTable", "get", "table.lookup.table"),
    ("repro.table.mstable", "MSTable", "plan_gets", "table.lookup.table"),
    ("repro.table.mstable", "MSTable", "read_range", "table.lookup.bulk"),
    ("repro.table.mstable", "MSTable", "read_all_records", "table.lookup.bulk"),
    # table.merge
    ("repro.table.merge", None, "merge_runs", "table.merge",
     ("table.merge_records_in", _len_of_runs)),
    # table.scan
    ("repro.table.scan", None, "chain_stream", "table.scan"),
    ("repro.table.scan", None, "table_stream", "table.scan"),
    ("repro.table.scan", None, "list_stream", "table.scan"),
    ("repro.table.scan", None, "merge_scan", "table.scan"),
    ("repro.table.scanplan", None, "planned_scan", "table.scan"),
    ("repro.db.iterator", None, "merge_visible", "table.scan"),
    # filters.bloom
    ("repro.filters.bloom", "BloomFilter", "build", "filters.bloom.build"),
    ("repro.filters.bloom", "BloomFilter", "add_many", "filters.bloom.build"),
    ("repro.filters.bloom", "BloomFilter", "might_contain", "filters.bloom.probe"),
    ("repro.filters.bloom", "BloomFilter", "contains_many", "filters.bloom.probe"),
    # storage.pagecache
    *[("repro.storage.pagecache", "PageCache", name, "storage.pagecache")
      for name in ("touch", "touch_many", "touch_range", "insert",
                   "insert_many", "insert_range", "insert_file_blocks")],
    # storage.simdisk: busy_sim_s is the device service time the calls commit
    ("repro.storage.simdisk", "SimDisk", "fg_io", "storage.simdisk",
     ("storage.simdisk.busy_sim_s", _io_time)),
    ("repro.storage.simdisk", "SimDisk", "fg_stream", "storage.simdisk",
     ("storage.simdisk.busy_sim_s", _io_time)),
    ("repro.storage.simdisk", "SimDisk", "bg_grant", "storage.simdisk",
     ("storage.simdisk.busy_sim_s", _result)),
    ("repro.storage.simdisk", "SimDisk", "bg_count", "storage.simdisk"),
    ("repro.storage.simdisk", "SimDisk", "sync_drain", "storage.simdisk",
     ("storage.simdisk.busy_sim_s", _service_s)),
    # storage.runtime
    *[("repro.storage.runtime", "Runtime", name, "storage.runtime")
      for name in ("fg_read_blocks", "bg_write_run", "bg_read_run", "stall_on")],
    # cluster: the facade's own bookkeeping counts as routing front-end time
    *[("repro.cluster.cluster", "ClusterDB", name, "cluster.router.facade")
      for name in ("put", "delete", "get", "multi_get", "scan")],
    *[("repro.cluster.router", "Router", name, "cluster.router")
      for name in ("put", "delete", "get", "multi_get", "scan")],
    ("repro.cluster.network", "SimNetwork", "send", "cluster.network",
     ("cluster.network.wait_sim_s", _result)),
    ("repro.cluster.network", "SimNetwork", "rpc", "cluster.network"),
    ("repro.cluster.network", "SimNetwork", "reserve", "cluster.network"),
    ("repro.cluster.replica", "ReplicaGroup", "put", "cluster.replica.write"),
    ("repro.cluster.replica", "ReplicaGroup", "delete", "cluster.replica.write"),
    ("repro.cluster.replica", "ReplicaGroup", "get", "cluster.replica.read"),
    ("repro.cluster.replica", "ReplicaGroup", "multi_get", "cluster.replica.read"),
    ("repro.cluster.replica", "ReplicaGroup", "scan", "cluster.replica.read"),
    # objstore
    ("repro.objstore.store", "SimObjectStore", "put", "objstore.store",
     ("objstore.store.wait_sim_s", _result0)),
    ("repro.objstore.store", "SimObjectStore", "get", "objstore.store",
     ("objstore.store.wait_sim_s", _result0)),
    ("repro.objstore.store", "SimObjectStore", "read_fill", "objstore.store",
     ("objstore.store.wait_sim_s", _result0)),
    ("repro.objstore.store", "SimObjectStore", "list_prefix", "objstore.store",
     ("objstore.store.wait_sim_s", _result1)),
    ("repro.objstore.store", "SimObjectStore", "delete", "objstore.store",
     ("objstore.store.wait_sim_s", _result)),
    ("repro.objstore.store", "SimObjectStore", "reserve_put", "objstore.store"),
    ("repro.objstore.tiering", "ObjStoreTier", "on_checkpoint", "objstore.tiering"),
    ("repro.objstore.manifestlog", "SharedManifestLog", "append_cut",
     "objstore.manifestlog.append_cut"),
    ("repro.objstore.manifestlog", "SharedManifestLog", "cleanup",
     "objstore.manifestlog"),
    # metrics: the price of always-on accounting
    *[("repro.metrics.amplification", "MetricsRegistry", name, "metrics")
      for name in ("record_latency", "observe", "add_user_bytes",
                   "add_wal_bytes", "add_level_write", "add_compaction_read",
                   "add_query_io", "add_bloom_probes", "add_objstore_up",
                   "add_objstore_down", "add_stall", "add_gate_delay")],
]

# engine: each class wraps the methods it defines itself
for _module, _cls in _ENGINE_CLASSES:
    PROBES += [
        (_module, _cls, "write_gate", "engine.write_gate"),
        (_module, _cls, "submit_flush", "engine.flush.submit"),
        (_module, _cls, "get", "engine.get"),
        (_module, _cls, "multi_get", "engine.get"),
        (_module, _cls, "scan_plan", "engine.get"),
    ]

#: Buckets charged by the job wrappers that install() threads through the
#: background pool (a job's structural effect runs when a thread picks it up).
FLUSH_JOB = "engine.flush.job"
COMPACTION_JOB = "engine.compaction.job"
PICK = "engine.compaction.pick"
SUBMIT = "storage.background.submit"


class Installed:
    """Handle returned by :func:`install`; ``uninstall()`` restores all."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._class_patches: List[Tuple[type, str, Any]] = []
        self._global_patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ patching
    def patch_class(self, cls: type, name: str, bucket: str,
                    tally: Optional[Tuple[str, Tally]] = None,
                    around: Optional[Callable[[Callable], Callable]] = None) -> None:
        original = cls.__dict__.get(name)
        if original is None or getattr(original, "__isabstractmethod__", False):
            return  # inherited or abstract: the defining class carries it
        if isinstance(original, staticmethod):
            inner = original.__func__
            rebuild: Callable[[Callable], Any] = staticmethod
        elif isinstance(original, classmethod):
            inner = original.__func__
            rebuild = classmethod
        else:
            inner = original
            rebuild = lambda f: f  # noqa: E731
        if around is not None:
            inner = around(inner)
        setattr(cls, name, rebuild(self.ledger.wrap(inner, bucket, tally)))
        self._class_patches.append((cls, name, original))

    def patch_global(self, module: Any, name: str, bucket: str,
                     tally: Optional[Tuple[str, Tally]] = None) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it."""
        original = getattr(module, name)
        wrapped = self.ledger.wrap(original, bucket, tally)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._global_patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._class_patches):
            setattr(cls, name, original)
        for mod, attr, original in reversed(self._global_patches):
            setattr(mod, attr, original)
        self._class_patches.clear()
        self._global_patches.clear()


def install(ledger: Ledger) -> Installed:
    """Wrap every probe; the caller must ``uninstall()`` in a ``finally``.

    Install before the observed repetition builds (or clones) its store:
    ``EngineBase.__init__`` hands the pool a bound ``pick_background_job``,
    which keeps whichever function the class had at that moment.
    """
    handle = Installed(ledger)
    try:
        for probe in PROBES:
            module = importlib.import_module(probe[0])
            cls_name, attr, bucket = probe[1], probe[2], probe[3]
            tally = probe[4] if len(probe) > 4 else None
            if cls_name is None:
                handle.patch_global(module, attr, bucket, tally)
            else:
                handle.patch_class(getattr(module, cls_name), attr, bucket, tally)
        _install_job_probes(handle)
    except BaseException:
        handle.uninstall()
        raise
    return handle


def _install_job_probes(handle: Installed) -> None:
    """Flush and compaction work runs inside job ``start_fn`` closures.

    ``BackgroundPool.submit`` receives flush jobs (high priority) and
    ``pick_background_job`` returns compaction jobs; both hand over a
    ``start_fn`` that the pool calls later from ``pump``/``wait_for``.
    Wrapping the closure at hand-over attributes that work to the engine
    wherever it ends up running.
    """
    ledger = handle.ledger
    pool_cls = importlib.import_module("repro.storage.background").BackgroundPool

    def swap_submit(submit: Callable) -> Callable:
        def submit_with_span(self: Any, name: str, start_fn: Callable, *,
                             high_priority: bool = False,
                             on_complete: Any = None) -> Any:
            bucket = FLUSH_JOB if high_priority else COMPACTION_JOB
            return submit(self, name, ledger.wrap(start_fn, bucket),
                          high_priority=high_priority, on_complete=on_complete)
        return submit_with_span

    handle.patch_class(pool_cls, "submit", SUBMIT, around=swap_submit)

    def swap_pick(pick: Callable) -> Callable:
        def pick_with_span(self: Any) -> Any:
            job = pick(self)
            if job is not None:
                job.start_fn = ledger.wrap(job.start_fn, COMPACTION_JOB)
            return job
        return pick_with_span

    for module_name, cls_name in _ENGINE_CLASSES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        handle.patch_class(cls, "pick_background_job", PICK, around=swap_pick)
