"""Atomic write batches (LevelDB's WriteBatch; IamDB is LevelDB-based, §6).

A batch buffers puts/deletes and commits them with consecutive sequence
numbers under a single WAL append run, so either every operation in the
batch becomes durable or none does.  Batches also amortize the WAL's
per-append device trip -- the classic group-commit win.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.common.errors import ReproError
from repro.common.hashing import MASK64
from repro.common.records import Key, Value, bad_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.iamdb import IamDB

PUT_OP = "put"
DELETE_OP = "delete"


class WriteBatch:
    """Buffered operations committed atomically.

    Usable directly (``batch.commit()``) or as a context manager, in which
    case a clean exit commits and an exception discards the batch::

        with db.write_batch() as batch:
            batch.put(1, b"a")
            batch.delete(2)
    """

    __slots__ = ("_db", "_ops", "_committed")

    def __init__(self, db: "IamDB") -> None:
        self._db = db
        self._ops: List[Tuple[str, Key, Value]] = []
        self._committed = False

    def put(self, key: Key, value: Value) -> "WriteBatch":
        self._check()
        if type(key) is not int or not 0 <= key <= MASK64:
            raise bad_key(key)
        self._ops.append((PUT_OP, key, value))
        return self

    def delete(self, key: Key) -> "WriteBatch":
        self._check()
        if type(key) is not int or not 0 <= key <= MASK64:
            raise bad_key(key)
        self._ops.append((DELETE_OP, key, 0))
        return self

    def clear(self) -> None:
        self._check()
        self._ops.clear()

    def __len__(self) -> int:
        return len(self._ops)

    def _check(self) -> None:
        if self._committed:
            raise ReproError("WriteBatch already committed")

    def commit(self) -> None:
        """Apply every buffered operation atomically."""
        self._check()
        self._committed = True
        if self._ops:
            self._db._apply_batch(self._ops)
        self._ops = []

    # -------------------------------------------------------------- with ...
    def __enter__(self) -> "WriteBatch":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc_type is None:
            self.commit()
        else:
            self._committed = True  # discard on error
            self._ops = []
