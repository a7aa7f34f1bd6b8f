"""MVCC snapshots.

A snapshot pins a sequence number: reads through it see the newest version
with ``seq <= snapshot`` and merges keep every version a live snapshot still
needs (§5.2).  Snapshots are context managers; releasing one un-pins its
sequence number so later compactions can collect the garbage.
"""

from __future__ import annotations

from typing import Dict


class Snapshot:
    """A pinned read view of the database.

    ``_pins`` is the store's seq -> live-handle count this handle is counted
    in.  Recovery gives the store a new one, so a handle from before it (or
    another store's) is told apart by identity, and its release touches
    only the count it was taken in.
    """

    __slots__ = ("seq", "_pins", "_released")

    def __init__(self, pins: Dict[int, int], seq: int) -> None:
        self.seq = seq
        self._pins = pins
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            if self._pins[self.seq] > 1:
                self._pins[self.seq] -= 1
            else:
                del self._pins[self.seq]

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
