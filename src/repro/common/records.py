"""The record model shared by every engine.

A *record* is the unit stored by memtables, WALs, SSTables and MSTables.  For
speed the hot paths treat records as plain 4-tuples

    ``(key, seq, kind, value)``

* ``key``   -- a Python ``int`` in ``[0, 2**64)``.  Keys sort the same as
  their big-endian byte encoding and live in a ``uint64`` column
  (:mod:`repro.table.run`).
* ``seq``   -- global MVCC sequence number (monotonically increasing per DB).
* ``kind``  -- :data:`PUT` or :data:`DELETE` (a tombstone).
* ``value`` -- either real ``bytes`` (small values through the public API) or
  an ``int`` in ``[0, 2**64)`` meaning a *synthetic* payload of that many
  bytes.  The workload generators use synthetic payloads: the simulation
  accounts for every byte moved without shuffling payload content around
  (see DESIGN.md).

Index constants :data:`KEY`, :data:`SEQ`, :data:`KIND`, :data:`VALUE` document
tuple positions for hot loops.  :class:`Record` is a NamedTuple with the same
layout for readable call sites and tests -- a ``Record`` *is* a valid record
tuple.

Sort order: within a sorted run records are ordered by ``(key asc, seq desc)``
so the newest version of a key comes first.  :func:`sort_key` produces that
ordering for :func:`sorted` / ``heapq``.

It is also the public argument contract, written once: every entry point
checks its arguments here (:func:`make_put`, :func:`make_delete` and the
``check_*`` functions) before anything is numbered, counted or charged.
"""

from __future__ import annotations

from typing import Any, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.common.errors import ConfigError
from repro.common.hashing import MASK64

PUT = 0
DELETE = 1

#: A record key: a Python ``int`` in ``[0, 2**64)``.  Scan bounds and seek
#: targets share the alias but may be any ``int``.
Key = int

KEY = 0
SEQ = 1
KIND = 2
VALUE = 3

#: Fixed per-record metadata overhead charged when encoding: 8 bytes of
#: sequence number, 1 byte of kind, 4 bytes of length framing.
RECORD_OVERHEAD = 13

Value = Union[int, bytes]
RecordTuple = Tuple[int, int, int, Value]


class Record(NamedTuple):
    """Readable record wrapper; layout-compatible with the raw 4-tuple."""

    key: int
    seq: int
    kind: int
    value: Value


def value_nbytes(value: Value) -> int:
    """Payload size in bytes of a real or synthetic value."""
    return value if type(value) is int else len(value)


def check_key(key: object) -> None:
    """Refuse ``key`` unless it is an int in ``[0, 2**64)``."""
    if type(key) is not int:
        raise ConfigError(f"keys must be Python ints, got {type(key).__name__}: {key!r}")
    if not 0 <= key <= MASK64:
        raise ConfigError(f"key {key} outside the key space [0, 2**64)")


def check_keys(keys: Iterable[Key]) -> List[Key]:
    """``keys`` read once into a list, every key checked before any is read."""
    try:
        listed = [*keys]
    except TypeError:
        raise ConfigError(f"keys must be an iterable of ints, got {keys!r}") from None
    for key in listed:
        if type(key) is not int or not 0 <= key <= MASK64:
            check_key(key)
    return listed


def check_snapshot(db: Any, snapshot: object) -> Optional[int]:
    """The seq a read of ``db`` pins: ``None`` (the newest) or that of a
    ``Snapshot`` handle ``db`` still pins.  An int (internal layers take the
    int a handle carries), another store's handle, a released one or one
    from before ``crash_and_recover`` is refused: it pins no history, so a
    merge may already have dropped what it would read."""
    if snapshot is None:
        return None
    from repro.db.snapshot import Snapshot  # repro.db imports this module
    if not isinstance(snapshot, Snapshot):
        raise ConfigError(f"a snapshot must be a Snapshot handle or None, got {snapshot!r}")
    if snapshot._pins is not db._snapshots or snapshot._released:
        raise ConfigError(f"the snapshot at seq {snapshot.seq} is not pinned by this store")
    return snapshot.seq


def check_scan(lo_key: object, hi_key: object, limit: object) -> None:
    """Refuse a scan unless its bounds are ``None`` or ints of any size and its
    ``limit`` is ``None`` or an int >= 0."""
    for bound in (lo_key, hi_key):
        if bound is not None and type(bound) is not int:
            check_key(bound)
    if limit is not None and (type(limit) is not int or limit < 0):
        raise ConfigError(f"scan limit must be None or an int >= 0, got {limit!r}")


def check_cut(cut: object) -> None:
    """Refuse a manifest cut (``as_of_cut``) unless it is an int in ``[0, 2**64)``."""
    if type(cut) is not int or not 0 <= cut <= MASK64:
        raise ConfigError(f"as_of_cut must be an int in [0, 2**64), got {cut!r}")


def make_put(key: Key, seq: int, value: Value) -> RecordTuple:
    """Build a PUT record tuple: the one check of a written key and value."""
    if type(key) is not int or not 0 <= key <= MASK64:
        check_key(key)
    if type(value) is not bytes and (type(value) is not int or not 0 <= value <= MASK64):
        raise ConfigError(f"values must be bytes or an int in [0, 2**64), got {value!r}")
    return (key, seq, PUT, value)


def make_delete(key: Key, seq: int) -> RecordTuple:
    """Build a DELETE (tombstone) record tuple: the one check of its key."""
    if type(key) is not int or not 0 <= key <= MASK64:
        check_key(key)
    return (key, seq, DELETE, 0)


def encoded_size(rec: RecordTuple, key_size: int) -> int:
    """Encoded on-disk size of ``rec`` given a fixed key width."""
    v = rec[VALUE]
    return key_size + (v if type(v) is int else len(v)) + RECORD_OVERHEAD


def encoded_size_many(recs: Sequence[RecordTuple], key_size: int) -> int:
    """Total encoded size of a batch of records."""
    fixed = key_size + RECORD_OVERHEAD
    total = fixed * len(recs)
    for rec in recs:
        v = rec[VALUE]
        total += v if type(v) is int else len(v)
    return total


def sort_key(rec: RecordTuple) -> Tuple[Key, int]:
    """Sort key producing (key asc, seq desc) order."""
    return (rec[KEY], -rec[SEQ])
