"""The Integrated Append/Merge-tree (§5).

IAM is LSA with a per-level append/merge policy (§5.1):

* **appending levels** (``level < m``) -- flushes append, exactly as LSA;
  their data is small and cached, so multiple sequences cost no disk seeks.
* **mixed level** (``level == m``) -- a child receiving data is merged to a
  single sequence once it already holds ``k`` sequences, appended otherwise
  (Figure 5); merges happen every k-th arrival, so the per-flush write
  amplification is t/2k + 1 (§5.3.1).
* **merging levels** (``level > m``) -- every arrival merges, keeping one
  sequence per node, so scans cost at most one seek per level (the same read
  amplification as LSM, §5.3.2).

``m`` and ``k`` come from ``IamOptions.fixed_m/fixed_k`` or are retuned from
Eq. (1)/(2) every ``retune_interval`` flushes and at every tree deepening.
With ``m=1, k=1`` IAM degenerates into LSM behaviour; with ``m > n`` into LSA
(§1: "with proper user configuration").
"""

from __future__ import annotations

from typing import Dict

from repro.common.options import IamOptions
from repro.core.lsa import LsaTree
from repro.core.node import LsaNode
from repro.core.tuning import tune_m_k
from repro.table.block import Sequence
from repro.table.run import Run
from repro.storage.runtime import Runtime
from repro.check.effects.registry import observation_only


class IamTree(LsaTree):
    """Integrated Append/Merge-tree engine."""

    name = "iam"

    def __init__(self, options: IamOptions, runtime: Runtime) -> None:
        super().__init__(options, runtime)
        self.options: IamOptions = options
        self.m = options.fixed_m if options.fixed_m is not None else 1
        self.k = options.fixed_k if options.fixed_k is not None else 1
        self._flushes_since_tune = 0
        if options.fixed_m is None or options.fixed_k is None:
            self.retune()

    # ----------------------------------------------------------------- policy
    def _should_merge_internal(self, level: int, child: LsaNode) -> bool:
        if level > self.m:
            return True
        if level == self.m:
            return child.n_sequences >= self.k
        return False

    def _should_merge_leaf(self, child: LsaNode) -> bool:
        if self.n > self.m:
            return True
        if self.n == self.m and child.n_sequences >= self.k:
            return True
        return child.nbytes >= self.options.node_capacity

    def _merge_internal_child(self, level: int, child: LsaNode, part: Run) -> float:
        # Tag the mixed level's k-bound merges (§5.1.2): the child reached
        # its k-th sequence and collapses back to one.
        if level == self.m and self.runtime.tracer.enabled:
            self._trace("compaction", "merge:mixed", level=level, k=self.k,
                        seqs=child.n_sequences)
        return super()._merge_internal_child(level, child, part)

    def _after_append(self, level: int, child: LsaNode, seq: Sequence) -> None:
        """§5.1.3 forcible caching: pin appended sequences up to the mixed
        level so scans take at most one disk seek per level."""
        if self.options.pin_appended_sequences and level <= self.m:
            self.runtime.cache.pin_range(child.table.file_id,
                                         seq.first_block, seq.n_blocks)

    # ----------------------------------------------------------------- tuning
    def memory_budget(self) -> int:
        """Cache bytes reserved for appended sequences (M~ in Eq. 2)."""
        return int(self.runtime.cache.capacity_bytes
                   * self.options.memory_budget_fraction)

    def retune(self) -> None:
        """Recompute (m, k) from current level sizes (Eq. 1-2)."""
        opts = self.options
        if opts.fixed_m is not None and opts.fixed_k is not None:
            self.m, self.k = opts.fixed_m, opts.fixed_k
            return
        m, k = tune_m_k(self.level_data_bytes(), self.n, self.memory_budget(),
                        fanout=opts.fanout, k_max=opts.k_max)
        if opts.fixed_m is not None:
            m = opts.fixed_m
        if opts.fixed_k is not None:
            k = opts.fixed_k
        if (m, k) != (self.m, self.k):
            self.runtime.metrics.bump("retune")
            self._trace("tuning", "retune", m=m, k=k,
                        prev_m=self.m, prev_k=self.k)
        self.m, self.k = m, k

    def _ingest(self, run: Run) -> float:
        self._flushes_since_tune += 1
        if self._flushes_since_tune >= self.options.retune_interval:
            self._flushes_since_tune = 0
            self.retune()
        return super()._ingest(run)

    def _on_deepen(self) -> None:
        self.retune()

    # ------------------------------------------------------------- inspection
    def level_class(self, level: int) -> str:
        """"appending", "mixed" or "merging" (§5.1)."""
        if level < self.m:
            return "appending"
        if level == self.m:
            return "mixed"
        return "merging"

    @observation_only
    def describe(self) -> Dict[str, object]:
        d = super().describe()
        d["engine"] = self.name
        d["m"] = self.m
        d["k"] = self.k
        d["level_classes"] = {i: self.level_class(i) for i in range(1, self.n + 1)}
        return d

    def policy_debt(self) -> int:
        """Nodes currently over their level's sequence bound.

        Metadata-only move-downs can carry multi-sequence nodes into the
        mixed/merging levels (that is the point: no rewrite); the policy
        merges them on their first arrival.  This counts the not-yet-healed
        nodes -- it should stay small and must never grow monotonically.
        """
        debt = 0
        for level in range(1, self.n + 1):
            bound = None
            if level > self.m:
                bound = 1
            elif level == self.m:
                bound = self.k
            if bound is None:
                continue
            debt += sum(1 for node in self.levels[level] if node.n_sequences > bound)
        return debt
