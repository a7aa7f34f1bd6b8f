"""MVCC snapshots.

A snapshot pins a sequence number: reads through it see the newest version
with ``seq <= snapshot`` and merges keep every version a live snapshot still
needs (§5.2).  Snapshots are context managers; releasing one un-pins its
sequence number so later compactions can collect the garbage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.iamdb import IamDB


class Snapshot:
    """A pinned read view of the database."""

    __slots__ = ("seq", "_db", "_released")

    def __init__(self, db: "IamDB", seq: int) -> None:
        self.seq = seq
        self._db = db
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._db._release_snapshot(self.seq)

    @property
    def released(self) -> bool:
        return self._released

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self._released else "live"
        return f"Snapshot(seq={self.seq}, {state})"
