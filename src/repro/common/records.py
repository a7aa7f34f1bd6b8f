"""The record model shared by every engine.

A *record* is the unit stored by memtables, WALs, SSTables and MSTables.  For
speed the hot paths treat records as plain 4-tuples

    ``(key, seq, kind, value)``

* ``key``   -- a Python ``int`` in ``[0, 2**64)``: the one key domain a
  store holds (the write and point-read entry points reject everything
  else, see :func:`bad_key`).  Keys sort the same as their big-endian byte
  encoding and live in a ``uint64`` column (:mod:`repro.table.run`).
* ``seq``   -- global MVCC sequence number (monotonically increasing per DB).
* ``kind``  -- :data:`PUT` or :data:`DELETE` (a tombstone).
* ``value`` -- either real ``bytes`` (small values through the public API) or
  an ``int`` meaning a *synthetic* payload of that many bytes.  The workload
  generators use synthetic payloads: the simulation accounts for every byte
  moved without shuffling payload content around (see DESIGN.md).

Index constants :data:`KEY`, :data:`SEQ`, :data:`KIND`, :data:`VALUE` document
tuple positions for hot loops.  :class:`Record` is a NamedTuple with the same
layout for readable call sites and tests -- a ``Record`` *is* a valid record
tuple.

Sort order: within a sorted run records are ordered by ``(key asc, seq desc)``
so the newest version of a key comes first.  :func:`sort_key` produces that
ordering for :func:`sorted` / ``heapq``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple, Union

from repro.common.errors import ConfigError

PUT = 0
DELETE = 1

#: A record key: a Python ``int`` in ``[0, 2**64)``, checked where keys
#: enter (the DB and cluster entry points).  Scan bounds and seek targets
#: share the alias but may be any ``int``.
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

    @property
    def is_tombstone(self) -> bool:
        return self.kind == DELETE


def value_nbytes(value: Value) -> int:
    """Payload size in bytes of a real or synthetic value."""
    return value if type(value) is int else len(value)


def bad_key(key: object) -> ConfigError:
    """The error every entry point raises for a non-``int`` key or bound, or
    for a stored or point-read key outside ``[0, 2**64)``."""
    if type(key) is not int:
        return ConfigError(
            f"keys must be Python ints, got {type(key).__name__}: {key!r}")
    return ConfigError(f"key {key} outside the key space [0, 2**64)")


def make_put(key: Key, seq: int, value: Value) -> RecordTuple:
    """Build a PUT record tuple (``value``: bytes, or int = synthetic size)."""
    return (key, seq, PUT, value)


def make_delete(key: Key, seq: int) -> RecordTuple:
    """Build a DELETE (tombstone) record tuple."""
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


def is_sorted_run(recs: Sequence[RecordTuple]) -> bool:
    """True when ``recs`` is a valid sorted run: (key asc, seq desc), no dup (key, seq)."""
    for a, b in zip(recs, recs[1:]):
        if a[KEY] > b[KEY]:
            return False
        if a[KEY] == b[KEY] and a[SEQ] <= b[SEQ]:
            return False
    return True
