"""Committed goldens for the output files of the cluster and trace CLIs.

``tests/data/cli_golden.json`` holds, per invocation, the sha256 of the
file it writes and one per part: a ``--report`` file's top-level keys, a
``--jsonl`` trace's lines by category (``cat``, or ``ph`` for a sample).
A refactor that must not move what a cluster run observes (router,
network, replication, failover, shared store), or a scan's cache
evictions and their instants, keeps every file byte-identical;
``tests/test_cli.py`` replays each invocation against it, and ``python -m
tests.cli_golden`` does the same from the repository root.

A mismatch names the invocation and the first part whose value moved.
There is no regeneration mode: a change *meant* to move an output
recomputes the digests with :func:`report_digests`, edits the file by hand
and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from typing import Dict, List, Optional

from repro.cli import main

GOLDEN_PATH = Path(__file__).parent / "data" / "cli_golden.json"

#: Every golden invocation, by name (its output flag and PATH are appended).
INVOCATIONS: Dict[str, List[str]] = {
    "cluster-ycsb-faulted": [
        "cluster", "ycsb", "--shards", "4", "--replicas", "2", "--workload", "A",
        "--records", "4000", "--ops", "1000", "--clients", "2",
        "--faults", "kill=1:500,rate=0.001,seed=7"],
    "objstore-ycsb-bootstrap": [
        "objstore", "ycsb", "--shards", "2", "--replicas", "2", "--workload", "A",
        "--records", "4000", "--ops", "800", "--store-latency", "2000",
        "--bootstrap-follower", "0", "--faults", "kill=1:400"],
    "objstore-load-offload": [
        "objstore", "load", "--shards", "2", "--replicas", "2",
        "--records", "4000", "--offload-compaction"],
    # Scans on a page cache of 25 blocks: every request evicts.
    "trace-ycsb-e": [
        "trace", "ycsb-e", "--engine", "iam", "--records", "3000", "--ops", "400",
        "--memory-mb", "0.1"],
}

#: The flag naming an invocation's output file, where it is not ``--report``.
OUTPUT_FLAG: Dict[str, str] = {"trace-ycsb-e": "--jsonl"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digests(name: str) -> Dict[str, object]:
    """Run invocation ``name`` in-process; the sha256 of its output file and
    of each part: a report key's canonical JSON, a trace category's lines."""
    flag = OUTPUT_FLAG.get(name, "--report")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("trace.jsonl" if flag == "--jsonl" else "report.json")
        with redirect_stdout(StringIO()):
            if main(INVOCATIONS[name] + [flag, str(path)]) != 0:
                raise RuntimeError(f"{name} exited non-zero")
        raw = path.read_bytes()
    if flag == "--jsonl":
        parts: Dict[str, List[bytes]] = {}
        for line in raw.splitlines():
            event = json.loads(line)
            parts.setdefault(event.get("cat", event["ph"]), []).append(line)
        return {"sha256": _sha(raw), "keys": {
            key: _sha(b"\n".join(lines)) for key, lines in parts.items()}}
    return {"sha256": _sha(raw), "keys": {
        key: _sha(json.dumps(value, sort_keys=True).encode())
        for key, value in json.loads(raw).items()}}


def first_difference(want: Dict[str, object], got: Dict[str, object]) -> Optional[str]:
    """The first top-level key (in the golden's order) whose digest moved,
    ``"<key order>"`` when only the file's bytes moved, or None."""
    if want["sha256"] == got["sha256"]:
        return None
    want_keys, got_keys = want["keys"], got["keys"]
    for key in list(want_keys) + [k for k in got_keys if k not in want_keys]:
        if want_keys.get(key) != got_keys.get(key):
            return key
    return "<key order>"


def check(name: str) -> Optional[str]:
    """One line naming the invocation and its first moved part, or None."""
    moved = first_difference(json.loads(GOLDEN_PATH.read_text())[name], report_digests(name))
    if moved is None:
        return None
    return (f"{name}: output moved at {moved!r} (repro {' '.join(INVOCATIONS[name])} "
            f"{OUTPUT_FLAG.get(name, '--report')} PATH)")


if __name__ == "__main__":
    problems = [p for p in map(check, INVOCATIONS) if p]
    print("\n".join(problems) or f"ok {len(INVOCATIONS)} CLI output files")
    sys.exit(1 if problems else 0)
