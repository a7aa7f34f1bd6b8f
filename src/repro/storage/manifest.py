"""Manifest: durable metadata of the tree structure.

LevelDB persists version edits to a MANIFEST file; LSA additionally relies on
cheap metadata-only "move down" operations (§4.2.1), which are manifest edits
rather than data rewrites.  The simulated manifest stores an opaque
checkpoint object (the engine's serialized structure) and charges nothing
locally: a checkpoint costs device or store time only through a
:attr:`Manifest.mirror`.  Its (empty) file keeps a file id, so the orphan
sweep and the file-id order see a manifest.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.storage.runtime import Runtime


class Manifest:
    """Durable structure metadata for one DB instance."""

    def __init__(self, runtime: Runtime) -> None:
        self.runtime = runtime
        self._file = runtime.create_file()
        self._checkpoint: Optional[Any] = None
        #: Optional durable mirror (an ``ObjStoreTier``): when set, every
        #: checkpoint is also appended to the shared manifest log.  Duck
        #: typed -- anything with ``on_checkpoint(state)`` -- so the
        #: storage layer stays import-free of :mod:`repro.objstore`.
        self.mirror: Optional[Any] = None

    def checkpoint(self, state: Any) -> None:
        """Store the engine's durable structure snapshot.

        ``state`` must be an *owned* snapshot -- pure data, no references to
        live engine structure.  The manifest stores it verbatim; if a caller
        hands over live objects, post-checkpoint mutations would leak into
        what :meth:`restore` returns and recovery would see a future it
        should not know about.  Engines honour this by returning pure-data
        snapshots from ``checkpoint_state()`` (tuples of block metadata, not
        node/table objects); ``tests/test_wal_manifest.py`` pins it down.

        With a :attr:`mirror` attached the same owned state is appended to
        the shared manifest log (sharing the reference is safe for the
        same reason storing it verbatim is).
        """
        self._checkpoint = state
        if self.mirror is not None:
            self.mirror.on_checkpoint(state)

    def restore(self) -> Optional[Any]:
        """The last checkpointed structure (None before the first one)."""
        return self._checkpoint

    @property
    def file_id(self) -> int:
        return self._file.file_id
