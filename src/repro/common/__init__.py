"""Shared primitives: errors, the record model, and configuration options."""

from repro.common.errors import (
    ConfigError,
    CorruptionError,
    InvariantViolation,
    ReproError,
    StoreClosedError,
)
from repro.common.records import (
    DELETE,
    KIND,
    KEY,
    PUT,
    SEQ,
    VALUE,
    Record,
    encoded_size,
    make_delete,
    make_put,
    value_nbytes,
)
from repro.common.options import (
    DeviceProfile,
    IamOptions,
    LsaOptions,
    LsmOptions,
    StorageOptions,
    HDD,
    SSD,
)

__all__ = [
    "ConfigError",
    "CorruptionError",
    "InvariantViolation",
    "ReproError",
    "StoreClosedError",
    "DELETE",
    "KIND",
    "KEY",
    "PUT",
    "SEQ",
    "VALUE",
    "Record",
    "encoded_size",
    "make_delete",
    "make_put",
    "value_nbytes",
    "DeviceProfile",
    "IamOptions",
    "LsaOptions",
    "LsmOptions",
    "StorageOptions",
    "HDD",
    "SSD",
]
