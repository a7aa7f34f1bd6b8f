"""Prometheus text exposition of a metrics snapshot.

Renders a :meth:`repro.metrics.MetricsRegistry.snapshot` dict (or a
cluster-merged snapshot from :func:`repro.metrics.merge_snapshots`) in the
Prometheus text format, so any run -- single DB or sharded cluster -- can
be scraped, diffed, or pushed into external dashboards.  The "timestamps"
here are simulated seconds; series are emitted without wall timestamps on
purpose (the exposition is deterministic: same snapshot, same bytes).

Conventions follow the exposition format spec:

* monotone counters get a ``_total`` suffix,
* per-op-class latency histograms use cumulative ``_bucket{le="..."}``
  series plus ``_sum``/``_count`` (bucket bounds are the histogram's fixed
  log-linear upper bounds, so ``le`` values are stable across runs),
* everything else is a gauge.

Output lines are sorted within each metric family and families are
emitted in a fixed order -- byte-identical output for identical
snapshots, which is what the determinism tests pin.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple, Union, cast

from repro.metrics.latency import LatencyHistogram, bucket_bounds

#: Scalar snapshot counters exposed as ``<ns>_<name>_total``.
_SCALAR_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("user_bytes", "Bytes of user payload written (puts + deletes)."),
    ("wal_bytes", "WAL bytes written (excluded from write amplification)."),
    ("compaction_read_bytes", "Bytes read by flushes and compactions."),
    ("query_seeks", "Random device I/Os issued by queries."),
    ("cache_hits", "Query block reads served by the page cache."),
    ("cache_misses", "Query block reads that missed the page cache."),
    ("bloom_probes", "Bloom filter membership probes."),
    ("bloom_negatives", "Bloom probes that skipped a sequence."),
    ("objstore_bytes_up", "Bytes uploaded to the shared object store."),
    ("objstore_bytes_down", "Bytes fetched from the shared object store."),
)


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _fmt(value: object) -> str:
    """Prometheus sample value: ints stay ints, floats use shortest repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))  # type: ignore[arg-type]


def _family(lines: List[str], name: str, kind: str, help_text: str) -> None:
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def _labeled(name: str, labels: Mapping[str, str]) -> str:
    if not labels:
        return name
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in labels.items())
    return f"{name}{{{body}}}"


def _triple_map(snap: Mapping[str, object],
                key: str) -> Dict[str, Tuple[int, float, float]]:
    raw = snap.get(key)
    if not isinstance(raw, dict):
        return {}
    return {str(r): (int(t[0]), float(t[1]), float(t[2]))
            for r, t in raw.items()}


def _render_stall_family(lines: List[str], ns: str, stem: str, noun: str,
                         triples: Dict[str, Tuple[int, float, float]]) -> None:
    if not triples:
        return
    _family(lines, f"{ns}_{stem}_total", "counter",
            f"Number of {noun}, by reason.")
    for reason in sorted(triples):
        lines.append(f"{_labeled(f'{ns}_{stem}_total', {'reason': reason})}"
                     f" {_fmt(triples[reason][0])}")
    _family(lines, f"{ns}_{stem}_seconds_total", "counter",
            f"Total simulated seconds lost to {noun}, by reason.")
    for reason in sorted(triples):
        lines.append(
            f"{_labeled(f'{ns}_{stem}_seconds_total', {'reason': reason})}"
            f" {_fmt(triples[reason][1])}")
    _family(lines, f"{ns}_{stem}_max_seconds", "gauge",
            f"Longest single one of the {noun}, by reason.")
    for reason in sorted(triples):
        lines.append(
            f"{_labeled(f'{ns}_{stem}_max_seconds', {'reason': reason})}"
            f" {_fmt(triples[reason][2])}")


def render_prom(snapshot: Mapping[str, object], *,
                extra_gauges: Optional[Mapping[str, Union[float,
                                                          Tuple[str, float]]]] = None,
                ) -> str:
    """Render one snapshot in the Prometheus text exposition format.

    ``extra_gauges`` maps metric stem -> value (or (help text, value)) for
    context the snapshot itself does not carry (simulated time, shard
    count...).
    """
    ns = "repro"
    lines: List[str] = []
    for key, help_text in _SCALAR_COUNTERS:
        value = snapshot.get(key)
        if not isinstance(value, (int, float)):
            continue
        name = f"{ns}_{key}_total"
        _family(lines, name, "counter", help_text)
        lines.append(f"{name} {_fmt(value)}")

    raw_lw = snapshot.get("level_write_bytes")
    if isinstance(raw_lw, dict) and raw_lw:
        name = f"{ns}_level_write_bytes_total"
        _family(lines, name, "counter",
                "Flush/compaction bytes, attributed to destination level.")
        for level in sorted(raw_lw):
            lines.append(f"{_labeled(name, {'level': str(level)})}"
                         f" {_fmt(raw_lw[level])}")

    raw_events = snapshot.get("events")
    if isinstance(raw_events, dict) and raw_events:
        name = f"{ns}_events_total"
        _family(lines, name, "counter",
                "Structural events (flushes, merges, splits, stalls...).")
        for event in sorted(raw_events):
            lines.append(f"{_labeled(name, {'event': str(event)})}"
                         f" {_fmt(raw_events[event])}")

    raw_ops = snapshot.get("op_counts")
    if isinstance(raw_ops, dict) and raw_ops:
        name = f"{ns}_ops_total"
        _family(lines, name, "counter", "Operations recorded, by type.")
        for op in sorted(raw_ops):
            lines.append(f"{_labeled(name, {'op': str(op)})}"
                         f" {_fmt(raw_ops[op])}")

    _render_stall_family(lines, ns, "stall", "hard foreground stalls",
                         _triple_map(snapshot, "stalls"))
    _render_stall_family(lines, ns, "gate_delay", "soft write-gate delays",
                         _triple_map(snapshot, "gate_delays"))

    raw_hist = snapshot.get("latency_hist")
    if isinstance(raw_hist, dict) and raw_hist:
        name = f"{ns}_op_latency_seconds"
        _family(lines, name, "histogram",
                "Per-op-class latency on the simulated clock.")
        for op in sorted(raw_hist):
            hist = LatencyHistogram.from_snapshot(raw_hist[op])
            snap = hist.snapshot()
            cumulative = int(snap["zero"])  # type: ignore[call-overload]
            buckets = cast(Dict[str, int], snap["buckets"])
            if cumulative:
                lines.append(
                    f"{_labeled(name + '_bucket', {'op': op, 'le': '0.0'})}"
                    f" {cumulative}")
            for idx in sorted(int(k) for k in buckets):
                cumulative += int(buckets[str(idx)])
                le = repr(bucket_bounds(idx)[1])
                lines.append(
                    f"{_labeled(name + '_bucket', {'op': op, 'le': le})}"
                    f" {cumulative}")
            lines.append(
                f"{_labeled(name + '_bucket', {'op': op, 'le': '+Inf'})}"
                f" {hist.count}")
            lines.append(f"{_labeled(name + '_sum', {'op': op})}"
                         f" {_fmt(hist.total)}")
            lines.append(f"{_labeled(name + '_count', {'op': op})}"
                         f" {hist.count}")

    for key, help_text in (("write_amplification",
                            "Device bytes written per user byte (WAL excl.)."),
                           ("cache_hit_rate",
                            "Query-read cache hit fraction."),
                           ("total_stall_s",
                            "Total hard-stall simulated seconds."),
                           ("total_gate_delay_s",
                            "Total soft gate-delay simulated seconds.")):
        value = snapshot.get(key)
        if isinstance(value, (int, float)):
            name = f"{ns}_{key.removesuffix('_s')}" \
                if key.endswith("_s") else f"{ns}_{key}"
            if key.endswith("_s"):
                name += "_seconds"
            _family(lines, name, "gauge", help_text)
            lines.append(f"{name} {_fmt(float(value))}")

    for stem in sorted(extra_gauges or {}):
        raw_gauge = (extra_gauges or {})[stem]
        if isinstance(raw_gauge, tuple):
            help_text, value = raw_gauge
        else:
            help_text, value = f"Harness-provided gauge {stem}.", raw_gauge
        name = f"{ns}_{stem}"
        _family(lines, name, "gauge", help_text)
        lines.append(f"{name} {_fmt(float(value))}")

    return "\n".join(lines) + "\n"
