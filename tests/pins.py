"""Every end-to-end fact CI pins, checked against fresh ``run.py`` runs.

``tests/data/pins.json`` lists one entry per ``(workload, seed, trace)``
run of ``benchmarks/e2e/run.py --seconds 1``.  An entry holds only the
facts checked for that run, each optional, and a ``why``:

* ``sim_digest``        -- must be equal.  The simulation is a pure
  function of (workload, seed), so a change that moves any simulated
  event moves it;
* ``host_calls_per_op`` -- a ceiling.  The count is exact per seed;
* ``latency_us``        -- histogram percentiles that must be equal (the
  digest does not cover them: they are folded from the samples on read);
* ``above_zero``        -- ``--trace 1`` ledger metrics that must be > 0
  (the ledger skips a probe silently when its target moved).

Every run must also exit 0 with ``correct`` and no failed op: ``run.py``
exits non-zero when a repetition's digest disagrees (clone != reload, or
a profiler / ledger wrapper was not inert), when an audit read-back fails,
or, with ``--trace 1``, when a ledger probe names a function that no
longer resolves.

Run ``python -m tests.pins`` from the repository root (a minute or two).
It prints one line per moved fact -- ``workload seed S trace T: fact
pinned -> measured`` -- and exits 1 if there is any.  A change that is
*meant* to move the simulation copies the measured values into the file
and says so in CHANGES.md.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
PINS_PATH = ROOT / "tests" / "data" / "pins.json"


def load_pins() -> List[Dict[str, Any]]:
    return json.loads(PINS_PATH.read_text())


def run_name(entry: Dict[str, Any]) -> str:
    return f"{entry['workload']} seed {entry['seed']} trace {entry['trace']}"


def check(entry: Dict[str, Any], rc: int, stdout: str) -> List[str]:
    """One line per fact of ``entry`` that the run (exit code ``rc``,
    output ``stdout``) does not hold; empty when every fact holds."""
    where = run_name(entry)
    if rc != 0:
        return [f"{where}: exit 0 -> {rc}"]
    lines = stdout.strip().splitlines()
    try:
        detail = json.loads(next(ln for ln in lines if ln.startswith("detail: "))[8:])
        last = json.loads(lines[-1])
    except (StopIteration, IndexError, ValueError):
        return [f"{where}: output has no detail line and result line"]
    metrics = last["metrics"]
    problems = [f"{fact} {want} -> {got}" for fact, want, got in (
        ("correct", True, last["correct"]), ("failed", 0, last["failed"]))
        if got != want]
    if "sim_digest" in entry and detail["sim_digest"] != entry["sim_digest"]:
        problems.append(f"sim_digest {entry['sim_digest']} -> {detail['sim_digest']}")
    if "host_calls_per_op" in entry:
        ceiling, calls = entry["host_calls_per_op"], metrics["host_calls_per_op"]["value"]
        if not calls <= ceiling:
            problems.append(f"host_calls_per_op <= {ceiling} -> {calls:.2f}")
    for name, want in entry.get("latency_us", {}).items():
        got = detail["latency_us"][name]
        if got != want:
            problems.append(f"latency_us.{name} {want!r} -> {got!r}")
    for name in entry.get("above_zero", ()):
        got = metrics[name]["value"]
        if not got > 0:
            problems.append(f"{name} > 0 -> {got}")
    return [f"{where}: {p}" for p in problems]


def main() -> int:
    pins = load_pins()
    failed = 0
    for entry in pins:
        proc = subprocess.run(
            [sys.executable, "benchmarks/e2e/run.py", "--workload", entry["workload"],
             "--seed", str(entry["seed"]), "--seconds", "1", "--trace", str(entry["trace"])],
            cwd=ROOT, capture_output=True, text=True)
        problems = check(entry, proc.returncode, proc.stdout)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
        print("\n".join(problems) or f"ok {run_name(entry)}", flush=True)
        failed += bool(problems)
    print(f"{failed} of {len(pins)} pinned runs moved")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
