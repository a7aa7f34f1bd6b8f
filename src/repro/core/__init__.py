"""The paper's contribution: the append tree and its append/merge rule.

* :class:`~repro.core.lsa.LsaTree` -- the Log-Structured Append-tree (§4)
  with IAM's per-level ``(m, k)`` append/merge rule (§5); ``IamTree`` is
  the same class under the name of its tuned configuration, and LSA / LSM
  are ``IamOptions.as_lsa()`` / ``as_lsm()``.
* :mod:`repro.core.tuning` -- the m/k tuner (Eq. 1-2).
* :class:`~repro.core.engine.EngineBase` -- the engine interface and the
  compaction skeleton shared with the baseline engines in :mod:`repro.lsm`.
"""

from repro.core.engine import EngineBase
from repro.core.lsa import LsaTree
from repro.core.tuning import tune_m_k

IamTree = LsaTree

__all__ = ["EngineBase", "IamTree", "LsaTree", "tune_m_k"]
