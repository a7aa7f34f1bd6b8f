"""Observability: sim-time event tracing and timeseries telemetry.

See DESIGN.md "Observability" for the event catalog and span model.
"""

from repro.obs.export import (
    chrome_trace,
    jsonl_lines,
    merge_chrome_traces,
    to_jsonl,
    validate_chrome_trace,
    write_json,
)
from repro.obs.sampler import DEFAULT_INTERVAL_S, TimeseriesSampler
from repro.obs.session import TraceConfig, TraceSession, attach_trace
from repro.obs.stability import (
    StabilityProbe,
    downsample,
    percentile_timeline,
    stall_window,
    throughput_stats,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "TimeseriesSampler",
    "DEFAULT_INTERVAL_S",
    "TraceConfig",
    "TraceSession",
    "attach_trace",
    "chrome_trace",
    "jsonl_lines",
    "merge_chrome_traces",
    "to_jsonl",
    "validate_chrome_trace",
    "write_json",
    "StabilityProbe",
    "throughput_stats",
    "stall_window",
    "percentile_timeline",
    "downsample",
]
