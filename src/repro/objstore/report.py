"""Formatting helpers for shared-storage telemetry (observation-only).

Rolls :meth:`~repro.objstore.store.SimObjectStore.snapshot` and
:meth:`~repro.objstore.manifestlog.SharedManifestLog.snapshot` dicts into a
compact summary dict and a human-readable report block for the CLI.  It
reads snapshots; it never touches the clock, a device, or the store itself.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence


def _mib(nbytes: object) -> float:
    return float(int(nbytes)) / (1024.0 * 1024.0)  # type: ignore[arg-type]


def objstore_summary(store_snapshot: Mapping[str, Any],
                     log_snapshots: Sequence[Mapping[str, Any]] = (),
                     ) -> Dict[str, Any]:
    """One JSON-able roll-up of a store snapshot plus its manifest logs."""
    logs: List[Dict[str, Any]] = []
    for log in log_snapshots:
        logs.append({
            "prefix": log.get("prefix", ""),
            "live_cuts": int(log.get("cuts", 0)),  # type: ignore[arg-type]
            "segments": int(log.get("segments", 0)),  # type: ignore[arg-type]
            "latest_cut_id": int(log.get("latest_cut_id", 0)),
            "latest_seq": int(log.get("latest_seq", 0)),
        })
    return {
        "objects": int(store_snapshot.get("objects", 0)),
        "live_bytes": int(store_snapshot.get("live_bytes", 0)),
        "requests": int(store_snapshot.get("requests", 0)),
        "puts": int(store_snapshot.get("puts", 0)),
        "gets": int(store_snapshot.get("gets", 0)),
        "lists": int(store_snapshot.get("lists", 0)),
        "deletes": int(store_snapshot.get("deletes", 0)),
        "bytes_up": int(store_snapshot.get("bytes_up", 0)),
        "bytes_down": int(store_snapshot.get("bytes_down", 0)),
        "manifest_logs": logs,
    }


def format_objstore_report(summary: Mapping[str, Any]) -> str:
    """Render an :func:`objstore_summary` dict as an aligned text block."""
    lines = [
        "object store:",
        f"  objects       {summary.get('objects', 0):>10}"
        f"  ({_mib(summary.get('live_bytes', 0)):.2f} MiB live)",
        f"  requests      {summary.get('requests', 0):>10}"
        f"  (put {summary.get('puts', 0)}, get {summary.get('gets', 0)},"
        f" list {summary.get('lists', 0)},"
        f" delete {summary.get('deletes', 0)})",
        f"  bytes up      {_mib(summary.get('bytes_up', 0)):>10.2f} MiB",
        f"  bytes down    {_mib(summary.get('bytes_down', 0)):>10.2f} MiB",
    ]
    raw_logs = summary.get("manifest_logs", ())
    if isinstance(raw_logs, (list, tuple)):
        for log in raw_logs:
            if not isinstance(log, Mapping):
                continue
            lines.append(
                f"  log {str(log.get('prefix', '')):<12}"
                f" cut {log.get('latest_cut_id', 0)}"
                f" @ seq {log.get('latest_seq', 0)}"
                f" ({log.get('live_cuts', 0)} live /"
                f" {log.get('segments', 0)} segments)")
    return "\n".join(lines)
