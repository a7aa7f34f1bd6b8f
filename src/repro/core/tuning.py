"""Mixed-level tuning: choosing m and k (§5.1.3, Eq. 1-2).

The mixed level ``Lm`` is the first level whose nodes cannot be fully cached.
Given per-level data sizes ``D_j``, the average appended-sequence footprint
of the mixed level with parameter ``k`` is (Eq. 1)::

    S_{m,k} = D_m * (k - 1) / t

and (m, k) must satisfy (Eq. 2)::

    sum_{j<m} D_j + S_{m,k} <= M~

where ``M~`` is the memory budget reserved for appended sequences -- the
cache size M by default; the paper notes M/2 as a conservative option that
leaves room for merge-generated sequences.  Larger
m and k mean less merging, so the tuner returns the largest feasible m, then
the largest feasible k.  ``m = n + 1`` means every level appends (the LSA
degenerate case); ``(1, 1)`` merges everywhere (the LSM degenerate case).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.errors import ConfigError


def appended_sequences_bytes(d_m: int, k: int, t: int) -> float:
    """Eq. (1): expected bytes of appended sequences in the mixed level."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    return d_m * (k - 1) / t


def tune_m_k(level_sizes: Dict[int, int], n_levels: int, memory_budget: int,
             *, fanout: int, max_k: int) -> Tuple[int, int]:
    """Largest (m, k) satisfying Eq. (2); m wins ties over k.

    ``level_sizes`` maps level index -> data bytes (the paper's D_j).
    Returns ``(n_levels + 1, 1)`` when everything fits (pure appends) and
    ``(1, 1)`` when nothing does (pure merging).
    """
    if n_levels < 1:
        return (1, 1)
    if memory_budget < 0:
        raise ConfigError("memory_budget must be >= 0")
    prefix = 0
    prefixes = {1: 0}
    for j in range(1, n_levels + 1):
        prefix += level_sizes.get(j, 0)
        prefixes[j + 1] = prefix
    for m in range(n_levels + 1, 0, -1):
        below = prefixes.get(m, prefixes[n_levels + 1])
        if below > memory_budget:
            continue
        if m == n_levels + 1:
            return (m, 1)
        d_m = level_sizes.get(m, 0)
        for k in range(max_k, 0, -1):
            if below + appended_sequences_bytes(d_m, k, fanout) <= memory_budget:
                return (m, k)
    return (1, 1)
