"""Scaled experiment setups (§6.1 testbed -> simulation scale).

The paper's configurations map 1 paper-GB -> 0.25 sim-MB (see
``repro.common.options.SCALE_BYTES``), preserving the ratios that determine
tree depth and the mixed-level index.  ``REPRO_SCALE`` (a float environment
variable, default 1.0) further multiplies dataset sizes for quick runs, e.g.
``REPRO_SCALE=0.25 pytest benchmarks/`` for a 4x-smaller sweep -- memory
scales along with data so cache ratios stay fixed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from repro.common.options import (
    GIB,
    DeviceProfile,
    HDD,
    SSD,
    StorageOptions,
    paper_bytes,
)
from repro.common.records import RECORD_OVERHEAD
from repro.db.iamdb import ENGINE_TABLE, IamDB

#: Paper value size is 1024 B; scaled to keep ~4 records per cache block.
VALUE_SIZE = 256
KEY_SIZE = 16
RECORD_BYTES = VALUE_SIZE + KEY_SIZE + RECORD_OVERHEAD


def scale_factor() -> float:
    """The REPRO_SCALE multiplier (default 1.0)."""
    try:
        return max(1e-3, float(os.environ.get("REPRO_SCALE", "1.0")))
    except ValueError:
        return 1.0


@dataclass(frozen=True)
class ScaledSetup:
    """One testbed configuration of §6.1."""

    name: str
    device: DeviceProfile
    data_bytes_unscaled: int  # already paper->sim scaled, before REPRO_SCALE
    memory_bytes_unscaled: int

    @property
    def data_bytes(self) -> int:
        return int(self.data_bytes_unscaled * scale_factor())

    @property
    def memory_bytes(self) -> int:
        return int(self.memory_bytes_unscaled * scale_factor())

    @property
    def n_records(self) -> int:
        return max(1, self.data_bytes // RECORD_BYTES)

    def storage_options(self) -> StorageOptions:
        return StorageOptions(device=self.device,
                              page_cache_bytes=self.memory_bytes)


#: 100 GB data / 16 GB RAM on SSD (§6.1: "only 16GB memory available").
SSD_100G = ScaledSetup("SSD-100G", SSD, paper_bytes(100 * GIB), paper_bytes(16 * GIB))
#: 100 GB data / 16 GB RAM on HDD.
HDD_100G = ScaledSetup("HDD-100G", HDD, paper_bytes(100 * GIB), paper_bytes(16 * GIB))
#: 1 TB data / 64 GB RAM on HDD.
HDD_1T = ScaledSetup("HDD-1T", HDD, paper_bytes(1024 * GIB), paper_bytes(64 * GIB))

SETUPS = {s.name: s for s in (SSD_100G, HDD_100G, HDD_1T)}

#: The engine configurations of §6.2's legend.
ENGINE_CONFIGS = {
    "L": ("leveldb", 1),
    "R-1t": ("rocksdb", 1),
    "R-4t": ("rocksdb", 4),
    "A-1t": ("lsa", 1),
    "A-4t": ("lsa", 4),
    "I-1t": ("iam", 1),
    "I-4t": ("iam", 4),
}


def make_db(config: str, setup: ScaledSetup, **engine_kw: Any) -> IamDB:
    """Build a DB for one legend config ("L", "R-1t", "I-4t", ...)."""
    engine, threads = ENGINE_CONFIGS[config]
    opts = ENGINE_TABLE[engine][2](key_size=KEY_SIZE, background_threads=threads,
                                   **engine_kw)
    return IamDB(engine, engine_options=opts,
                 storage_options=setup.storage_options())
