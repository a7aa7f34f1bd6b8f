"""Tiering: mirror local LSM state to the object store; read it back.

Three consumers of :class:`~repro.objstore.manifestlog.SharedManifestLog`:

* :class:`ObjStoreTier` -- attached to a (leader) DB, it mirrors every
  :class:`~repro.storage.manifest.Manifest` checkpoint durably to the
  store: background uploads of new/changed MSTable files (size-versioned
  immutable objects), then one synchronous log-entry put, then -- every
  :data:`CLEANUP_INTERVAL` cuts -- the tombstone-cleanup compactor.  The local
  write path is untouched: with a zero-latency store the mirrored run is
  byte-identical to a bare one.
* :func:`bootstrap_from_store` -- point a fresh DB at the latest cut:
  fetch the entry + data objects (foreground gets, charged to the new
  node), restore the engine structure locally, adopt the cut's seq.  The
  leader then only ships the unflushed WAL tail.
* :class:`AsOfReader` -- time travel: restore an older retained cut into
  a scratch engine whose page-cache misses fill **from the store** at
  store latency (:class:`AsOfRuntime`), so historical reads cost what a
  disaggregated reader pays.

Crash sites (see :data:`repro.faults.crash.CRASH_SITES`): uploads land
before ``pre-objstore-log``; the cut entry lands between
``pre-objstore-log`` and ``post-objstore-log``; cleanup deletes happen
after ``mid-objstore-cleanup``.  A crash at any of them leaves the log on
a whole-entry boundary; :meth:`SharedManifestLog.recover` sweeps data
objects whose cut never landed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.options import StorageOptions
from repro.common.records import KIND, DELETE, Key, VALUE, Value, check_key
from repro.metrics import MetricsRegistry
from repro.objstore.manifestlog import ManifestCut, SharedManifestLog
from repro.objstore.store import SimObjectStore
from repro.storage.runtime import Runtime
from repro.storage.simdisk import SimClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.iamdb import IamDB

#: Run the tombstone-cleanup compactor every this many cuts.
CLEANUP_INTERVAL = 4


class ObjStoreTier:
    """Mirrors one DB's manifest checkpoints to the shared store."""

    def __init__(self, db: "IamDB", log: SharedManifestLog, *,
                 node_tag: str = "n0") -> None:
        self.db = db
        self.log = log
        self.store = log.store
        #: Name prefix distinguishing this node's uploads (object names
        #: must be globally unique; after a failover the new leader
        #: mirrors under its own tag, so versions never collide).
        self.node_tag = node_tag
        #: file_id -> (object name, mirrored nbytes).  IAM/LSA node files
        #: grow in place, so an unchanged size means the mirrored version
        #: is current; a grown file gets a new size-versioned object.
        self.mirrored: Dict[int, Tuple[str, int]] = {}
        self._cuts_since_cleanup = 0
        db.runtime.attach_objstore(self.store)
        db.manifest.mirror = self

    # -------------------------------------------------------------- lifecycle
    def detach(self) -> None:
        """Stop mirroring (the manifest keeps working locally)."""
        if self.db.manifest.mirror is self:
            self.db.manifest.mirror = None

    def _crash_point(self, site: str) -> None:
        cp = self.db.runtime.crash_points
        if cp is not None:
            cp.reached(site)

    # ------------------------------------------------------------ mirror path
    def on_checkpoint(self, state: Any) -> None:
        """Mirror one manifest checkpoint durably (manifest hook).

        Runs synchronously inside :meth:`Manifest.checkpoint`: data-object
        uploads are background reserves on the store channel (the clock
        does not move), the log entry is one foreground put, and the
        cleanup compactor fires every :data:`CLEANUP_INTERVAL` cuts.
        """
        db = self.db
        runtime = db.runtime
        disk_files = runtime.disk.files
        mirrored = self.mirrored
        # Membership tests and a list comprehension: no call per file.
        live: Dict[int, int] = {}
        for fid in sorted(db.engine.live_file_ids()):
            if fid in disk_files:
                live[fid] = disk_files[fid].nbytes
        tombstones: List[str] = []
        for fid, nbytes in live.items():  # ascending: built in fid order
            prev = mirrored[fid] if fid in mirrored else None
            if prev is not None and prev[1] == nbytes:
                continue
            name = f"{self.log.prefix}{self.node_tag}/obj/{fid:08d}.{nbytes}"
            runtime.objstore_reserve_put(name, nbytes)
            if prev is not None:
                tombstones.append(prev[0])
            mirrored[fid] = (name, nbytes)
        for fid in sorted(set(mirrored) - set(live)):
            tombstones.append(mirrored.pop(fid)[0])
        self._crash_point("pre-objstore-log")
        files = tuple(sorted([name for name, _ in mirrored.values()]))
        self.log.append_cut(runtime, seq=int(state["seq"]), state=state,
                            files=files, tombstones=tuple(sorted(tombstones)))
        self._crash_point("post-objstore-log")
        self._cuts_since_cleanup += 1
        if self._cuts_since_cleanup >= CLEANUP_INTERVAL:
            self._cuts_since_cleanup = 0
            if self.log.gc_candidates():
                self._crash_point("mid-objstore-cleanup")
                n = self.log.cleanup(runtime)
                runtime.metrics.bump("objstore:cleanup", n)
                if runtime.tracer.enabled:
                    runtime.tracer.instant("objstore", "objstore:cleanup",
                                           deleted=n)

    # --------------------------------------------------------------- recovery
    def recover(self) -> Dict[str, int]:
        """Resync after the owning DB crash-recovered.

        Local recovery rebuilt every table onto fresh files, so the
        mirror map restarts empty (next checkpoint re-uploads under new
        names; superseded versions expire with their cuts), and the log
        resyncs from store contents, sweeping objects whose cut never
        landed.
        """
        self.mirrored = {}
        self._cuts_since_cleanup = 0
        return self.log.recover(self.db.runtime)


# ------------------------------------------------------------------ bootstrap
def bootstrap_from_store(db: "IamDB", log: SharedManifestLog) -> Dict[str, int]:
    """Restore a fresh DB from the latest manifest cut; returns a report.

    Fetches the cut entry and every referenced data object with foreground
    gets charged to ``db``'s runtime (the new node pays the transfer), then
    rebuilds the engine structure on the node's own disk and adopts the
    cut's sequence number.  The caller ships only WAL records with
    ``seq > report["seq"]`` afterwards -- the flushed prefix never crosses
    the leader's network link.
    """
    runtime = db.runtime
    runtime.attach_objstore(log.store)
    cut = log.latest_cut()
    if cut is None:
        return {"cut_id": 0, "seq": 0, "objects": 0, "bytes_down": 0}
    bytes_down = log.store.size_of(cut.log_object)
    runtime.objstore_get(cut.log_object)
    for name in cut.files:
        bytes_down += log.store.size_of(name)
        runtime.objstore_get(name)
    db.adopt_checkpoint(cut.state)
    return {"cut_id": cut.cut_id, "seq": cut.seq, "objects": len(cut.files),
            "bytes_down": bytes_down}


# ---------------------------------------------------------------- time travel
class AsOfRuntime(Runtime):
    """A scratch runtime whose query reads fill the cache from the store.

    Used by :class:`AsOfReader`: a historical cut's data lives only in the
    object store, so every page-cache miss is a ranged GET charged at
    store latency (one request per run of consecutive missing blocks,
    mirroring the one-seek-per-run convention of the local read path).
    """

    fills_from_store = True


class AsOfReader:
    """Read-only view of one retained manifest cut (time travel).

    Restores the cut's engine structure into a scratch
    :class:`AsOfRuntime` on the shared clock; point reads then behave
    exactly like reads against the historical tree, with all I/O served
    from the object store.  Readers are cheap to cache per cut -- the cut
    is immutable, so the restored structure never goes stale.
    """

    def __init__(self, log: SharedManifestLog, cut: ManifestCut, *,
                 engine: str, engine_options: Any = None,
                 storage_options: Optional[StorageOptions] = None,
                 clock: Optional[SimClock] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        from repro.db.iamdb import _engine_factory
        self.cut = cut
        self.seq = cut.seq
        self.runtime = AsOfRuntime(storage_options, metrics=metrics,
                                   clock=clock)
        self.runtime.attach_objstore(log.store)
        # One foreground get replays the cut entry itself; table blocks
        # stream in lazily through the page cache as reads touch them.
        self.runtime.objstore_get(cut.log_object)
        self.engine = _engine_factory(engine, engine_options)[0](self.runtime)
        self.engine.restore_state(cut.state["engine"])

    def get(self, key: Key) -> Optional[Value]:
        """Newest value of ``key`` as of the cut, or None."""
        check_key(key)
        rec, _ = self.engine.get(key, None)
        if rec is None or rec[KIND] == DELETE:
            return None
        value: Value = rec[VALUE]
        return value


def open_as_of(log: SharedManifestLog, cut_id: int, *, engine: str,
               engine_options: Any = None,
               storage_options: Optional[StorageOptions] = None,
               clock: Optional[SimClock] = None,
               metrics: Optional[MetricsRegistry] = None) -> AsOfReader:
    """Open an :class:`AsOfReader` at ``cut_id`` (raises if not retained)."""
    cut = log.cut(cut_id)
    if cut is None:
        retained = [c.cut_id for c in log.cuts]
        raise ConfigError(
            f"as_of_cut={cut_id} is not a retained manifest cut "
            f"(retained: {retained})")
    return AsOfReader(log, cut, engine=engine, engine_options=engine_options,
                      storage_options=storage_options, clock=clock,
                      metrics=metrics)
