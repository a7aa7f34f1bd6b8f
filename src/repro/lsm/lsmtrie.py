"""LSM-trie baseline (Wu et al., ATC'15) -- the paper's other append tree.

LSM-trie organizes data as a trie over key-*hash* prefixes: each node holds
appended containers and, when full, partitions its records among a fixed
number of children selected by the next bits of the hash.  Two Table 2
properties follow directly and are what this engine exists to demonstrate:

* the **worst write case is avoided by construction** -- fan-out is a fixed
  ``TRIE_FANOUT``, so appends never degrade into unbounded random writes;
* **sequential writes gain nothing** (keys are hashed: ordered input is
  scattered, no metadata-only moves) and **scans are not supported** (no
  key order exists on disk).

Point reads walk the root-to-leaf hash path, one node per level, with Bloom
filters pruning the appended containers -- the same read behaviour the
original system relies on.

Records are stored internally under their 64-bit key hash (the "trie key");
the original key rides along for verification.  A node is an MSTable whose
sequences are sorted by trie key.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

import numpy as np

from repro.common.errors import InvariantViolation, ReproError
from repro.common.options import LsaOptions
from repro.common.records import RecordTuple, SEQ, VALUE
from repro.core.engine import EngineBase
from repro.filters.bloom import hash_pair
from repro.storage.background import BackgroundJob
from repro.storage.runtime import Runtime
from repro.common.hashing import splitmix64
from repro.table.mstable import MSTable
from repro.table.run import Run
from repro.check.effects.registry import observation_only

#: Children per trie node (the original uses 8: 3 hash bits per level).
TRIE_FANOUT = 8
TRIE_BITS = 3
#: Maximum trie depth (64 hash bits / 3 per level is far more than needed).
MAX_DEPTH = 16


class ScansUnsupportedError(ReproError):
    """LSM-trie stores data in hash order: range scans are impossible."""


def trie_key(key) -> int:
    """The 64-bit hash a record is placed by."""
    return splitmix64(hash(key) & 0xFFFFFFFFFFFFFFFF)


def _child_index(tkey: Any, depth: int) -> Any:
    """Which child of a depth-``depth`` node the trie key falls into (one
    key, or a whole uint64 key column at once)."""
    shift = 64 - TRIE_BITS * (depth + 1)
    return (tkey >> shift) & (TRIE_FANOUT - 1)


class _TriePayload:
    """Value slot of a trie record: original key + kind + user value.

    ``len()`` reports the *accounted payload size* -- the user value's bytes
    -- so the run's size column charges a trie record exactly what the
    original record cost (the 64-bit hash stands in for the original key
    bytes).
    """

    __slots__ = ("orig_key", "kind", "value")

    def __init__(self, orig_key, kind: int, value) -> None:
        self.orig_key = orig_key
        self.kind = kind
        self.value = value

    def __len__(self) -> int:
        v = self.value
        return v if type(v) is int else len(v)

    def __eq__(self, other) -> bool:
        return (isinstance(other, _TriePayload)
                and (self.orig_key, self.kind, self.value)
                == (other.orig_key, other.kind, other.value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_TriePayload({self.orig_key!r}, {self.kind}, {self.value!r})"


class _TrieNode:
    """One trie node: an MSTable of hash-ordered appended containers."""

    __slots__ = ("table", "children", "depth")

    def __init__(self, depth: int) -> None:
        self.table: Optional[MSTable] = None
        self.children: Dict[int, "_TrieNode"] = {}
        self.depth = depth

    @property
    def nbytes(self) -> int:
        return 0 if self.table is None else self.table.data_bytes

    @property
    def n_sequences(self) -> int:
        return 0 if self.table is None else self.table.n_sequences


class LsmTrieEngine(EngineBase):
    """Hash-trie append engine (LSM-trie)."""

    name = "lsmtrie"
    options: LsaOptions

    def __init__(self, options: LsaOptions, runtime: Runtime) -> None:
        super().__init__(runtime)
        self.options = options
        self.root = _TrieNode(0)
        self.flushes = 0
        self.spills = 0
        self.memtable_capacity = options.node_capacity
        self._init_pacer()

    # ------------------------------------------------------------------ write
    def submit_flush(self, run: Run, nbytes: int) -> BackgroundJob:
        def start() -> float:
            return self._ingest(run)

        return self.runtime.submit_job("trie-ingest", start, high_priority=True)

    def _to_trie_run(self, run: Run) -> Run:
        """Re-key records by hash; the original key becomes part of the value.

        The value slot holds ``(orig_key, kind, value)`` so point reads can
        verify against hash collisions; the accounted size is unchanged (the
        original key's bytes simply moved from the key to the value field).
        """
        out = [(trie_key(key), seq, kind, _TriePayload(key, kind, value))
               for key, seq, kind, value in run.records()]
        out.sort(key=lambda r: (r[0], -r[1]))
        return Run.from_records(out)

    def _ingest(self, run: Run) -> float:
        self.flushes += 1
        return self._append_to_node(self.root, self._to_trie_run(run))

    def _append_to_node(self, node: _TrieNode, trecs: Run) -> float:
        """Append a hash-ordered run; spill to children when the node fills."""
        if not trecs.n:
            return 0.0
        debt = 0.0
        if node.nbytes >= self.options.node_capacity and node.depth < MAX_DEPTH:
            debt += self._spill(node)
        if node.table is None or node.table.deleted:
            node.table = self._new_table()
        _, d = node.table.append_sequence(trecs, level=node.depth + 1)
        self.runtime.metrics.bump("trie-append")
        return debt + d

    def _spill(self, node: _TrieNode) -> float:
        """Move a full node's records down to its TRIE_FANOUT children."""
        bottom = not node.children and node.depth + 1 >= MAX_DEPTH
        merged, debt = self._gather_merge((node.table,), drop_tombstones=bottom)
        node.table.delete()
        node.table = None
        # The node's keys share their leading bits, so the child index (the
        # next TRIE_BITS) rises with the sorted keys: one slice per child.
        child_of = _child_index(merged.keys, node.depth)
        cuts = child_of.searchsorted(np.arange(TRIE_FANOUT + 1)).tolist()
        for idx in range(TRIE_FANOUT):
            if cuts[idx] == cuts[idx + 1]:
                continue
            child = node.children.get(idx)
            if child is None:
                child = _TrieNode(node.depth + 1)
                node.children[idx] = child
            debt += self._append_to_node(child, merged.slice(cuts[idx], cuts[idx + 1]))
        self.spills += 1
        self.runtime.metrics.bump("trie-spill")
        self._trace("compaction", "trie-spill", depth=node.depth)
        return debt

    def pick_background_job(self) -> Optional[BackgroundJob]:
        return None  # all work happens in the flush job, like LSA

    # ------------------------------------------------------------------- read
    def get(self, key, snapshot: Optional[int] = None) -> Tuple[Optional[RecordTuple], float]:
        tkey = trie_key(key)
        hashes = hash_pair(tkey)  # one Bloom hash per get, not per container
        latency = 0.0
        node = self.root
        depth = 0
        while node is not None:
            table = node.table
            # MSTable.get's walk, except that it goes on past a hash collision.
            for seq in reversed(table.sequences) if table is not None else ():
                if snapshot is not None and seq.min_seq > snapshot:
                    continue
                trec, lat = seq.get(self.runtime, table.file_id, tkey, snapshot, hashes)
                latency += lat
                if trec is not None:
                    p = trec[VALUE]
                    if p.orig_key == key:  # hash-collision guard
                        return (p.orig_key, trec[SEQ], p.kind, p.value), latency
            node = node.children.get(_child_index(tkey, depth))
            depth += 1
        return None, latency

    def scan_cursors(self, lo_key, hi_key):
        raise ScansUnsupportedError(
            "LSM-trie is hash-based and does not support scans (Table 2)")

    # ------------------------------------------------------------- inspection
    def _walk(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def level_data_bytes(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for node in self._walk():
            if node.nbytes:
                out[node.depth + 1] = out.get(node.depth + 1, 0) + node.nbytes
        return out

    def max_children(self) -> int:
        return max((len(n.children) for n in self._walk()), default=0)

    @observation_only
    def check_invariants(self) -> None:
        for node in self._walk():
            if len(node.children) > TRIE_FANOUT:
                raise InvariantViolation("trie node exceeded its fixed fan-out")
            for idx, child in node.children.items():
                if child.depth != node.depth + 1:
                    raise InvariantViolation("trie depth bookkeeping broken")
                if not (0 <= idx < TRIE_FANOUT):
                    raise InvariantViolation(f"bad child index {idx}")

    @observation_only
    def describe(self) -> Dict[str, object]:
        depths: Dict[int, int] = {}
        for node in self._walk():
            depths[node.depth] = depths.get(node.depth, 0) + 1
        return {
            "engine": self.name,
            "nodes_per_depth": dict(sorted(depths.items())),
            "level_bytes": self.level_data_bytes(),
            "flushes": self.flushes,
            "spills": self.spills,
            "max_children": self.max_children(),
        }

    # --------------------------------------------------------------- recovery
    def checkpoint_state(self) -> object:
        """Owned pure-data snapshot (see Manifest.checkpoint)."""
        def snap(node: _TrieNode):
            return (node.depth,
                    node.table.snapshot() if node.table is not None else None,
                    {i: snap(c) for i, c in node.children.items()})
        return snap(self.root)

    def _restore_state(self, state: object) -> None:
        for node in self._walk():
            if node.table is not None:
                node.table.delete()
                node.table = None
        if state is None:
            self.root = _TrieNode(0)
            return

        def build(s) -> _TrieNode:
            depth, table_snap, children = s
            node = _TrieNode(depth)
            if table_snap is not None:
                node.table = MSTable.from_snapshot(self.runtime, table_snap)
            node.children = {i: build(c) for i, c in children.items()}
            return node
        self.root = build(state)

    def live_file_ids(self) -> Set[int]:
        return {node.table.file_id for node in self._walk()
                if node.table is not None and not node.table.deleted}
