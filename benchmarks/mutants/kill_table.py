"""Which check kills which hand-written mutant of the simulator's contracts.

The paper's figures mean something only while the simulator keeps four
contracts: the sim clock is the only time source, every device, link and
store byte is charged, all randomness descends from a seed, and observers
never perturb the run (every tracer span they see opens and closes).  Each
mutant below breaks one of them on a hot path; C1 breaks a cached field the
cluster routes by (a replica group's ``leader``).  For each, this script
copies the checkout to a temporary directory, applies the mutant there and
records every check that fails:

* ``lint``        -- ``repro check --gate lint`` (REP001-REP009);
* ``digests``     -- the ``run.py`` runs whose ``sim_digest``
  ``tests/data/pins.json`` pins, compared with the unmutated copy's (a run
  that exits non-zero counts);
* ``stability``   -- ``repro stability --check``: the fresh report must be
  byte-identical to the committed ``BENCH_stability.json``;
* ``fingerprint`` -- ``fingerprint.py`` (observer outputs, reads, clock);
* ``tier-1``      -- the whole pytest suite but ``tests/test_mutants.py``
  (it holds this table's snippets, which a mutated copy no longer has, so
  it would fail on every mutant); the failing test ids are listed.

The unmutated copy runs first and must pass every check, so its stability
report is the committed one.  A mutant no check kills is *equivalent* only
if its digests, stability report and fingerprint all equal the unmutated
copy's: then no observable output of those runs differs.

Usage (from the repository root; about 3 minutes per mutant)::

    python3 benchmarks/mutants/kill_table.py            # rewrite kill_table.md
    python3 benchmarks/mutants/kill_table.py --only K2 R3 --no-tier1
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
OUT = Path(__file__).resolve().parent / "kill_table.md"

#: (id, contract, what it does, file under src/repro, [(old, new), ...]).
#: Each ``old`` must occur exactly once in its file.
_GET_TAIL = ('        self.metrics.latency["read"].samples.append(runtime.clock.now - t0)\n'
             '        if rec is None or rec[KIND] == DELETE:\n'
             '            return None\n'
             '        return rec[VALUE]\n\n    def multi_get')
_PUT_END = ('        if queued > 0.0:\n'
            '            self.metrics.add_stall("objstore-append", queued)\n'
            '        if tracer.enabled:\n'
            '            tracer.end("objstore", "objstore:put", span)\n')
MUTANTS: List[Tuple[str, str, str, str, List[Tuple[str, str]]]] = [
    ("K1", "clock", "`time.perf_counter()` folded into the read latency",
     "db/iamdb.py", [
         ("from functools import partial\n", "import time\nfrom functools import partial\n"),
         (_GET_TAIL, _GET_TAIL.replace("runtime.clock.now - t0)",
                                       "runtime.clock.now - t0 + time.perf_counter() % 1e-9)"))]),
    ("K2", "clock", "same, via `import time as _host`",
     "db/iamdb.py", [
         ("from functools import partial\n", "import time as _host\nfrom functools import partial\n"),
         (_GET_TAIL, _GET_TAIL.replace("runtime.clock.now - t0)",
                                       "runtime.clock.now - t0 + _host.perf_counter() % 1e-9)"))]),
    ("K3", "clock", "`from time import perf_counter as _pc` in `LatencyHistogram.record`",
     "metrics/latency.py", [
         ("import math\n", "import math\nfrom time import perf_counter as _pc\n"),
         ("        self._count += 1\n        self._sum += latency_s\n",
          "        self._count += 1\n        self._sum += latency_s + 0.0 * _pc()\n")]),
    ("D1", "charge", "a query read's fill computes `io_time`, charges nothing",
     "storage/runtime.py", [
         ("                                      else self.disk.fg_io)\n",
          "                                      else self.disk.io_time)\n")]),
    ("D2", "charge", "`bg_append` drops the background write's disk byte count",
     "storage/simdisk.py", [("        self.bytes_written += nbytes\n", "")]),
    ("D3", "charge", "raw `disk.fg_io` inside `IamDB.get`",
     "db/iamdb.py", [
         ("            snap = check_snapshot(self, snapshot)\n        runtime = self.runtime\n",
          "            snap = check_snapshot(self, snapshot)\n        runtime = self.runtime\n"
          "        runtime.disk.fg_io(nbytes_read=0, seeks=0)\n")]),
    ("D4", "charge", "`SimNetwork.send` skips the link",
     "cluster/network.py", [
         ("        return link.fg(service)[0]\n", "        return service\n")]),
    ("D5", "charge", "`Sequence.lookup` treats every hit as one version (`keys[i + 1]` untested)",
     "table/block.py", [
         ("        j = i + 1\n        if j == n or keys[j] != key:\n",
          "        j = i + 1\n        if True:\n")]),
    ("R1", "seed", "`random.Random()` in `ycsb.op_blocks`",
     "workloads/ycsb.py", [
         ('        rng = random.Random(f"{seed}:{spec.name}")\n', "        rng = random.Random()\n")]),
    ("R2", "seed", "`random.SystemRandom()` there",
     "workloads/ycsb.py", [
         ('        rng = random.Random(f"{seed}:{spec.name}")\n',
          "        rng = random.SystemRandom()\n")]),
    ("R3", "seed", "`crash._make_ops` seeded by `id(object())`",
     "faults/crash.py", [
         ("    rng = random.Random(seed)\n", "    rng = random.Random(id(object()))\n")]),
    ("S1", "span", "`objstore_put` never ends its span",
     "storage/runtime.py", [(_PUT_END, _PUT_END.split("        if tracer.enabled:\n")[0])]),
    ("S2", "span", "`BackgroundPool._retire` never ends the job span",
     "storage/background.py", [
         ('            self.tracer.end("job", job.name, job.job_id, debt_s=job.debt_total)\n',
          "            pass\n")]),
    ("S3", "span", "`objstore_put` ends its span only when queued",
     "storage/runtime.py", [
         (_PUT_END, _PUT_END.replace("        if tracer.enabled:\n",
                                     "        if tracer.enabled and queued > 0.0:\n"))]),
    ("O1", "observer", "`IamDB.stats` calls `runtime.pump()`",
     "db/iamdb.py", [
         ("    def stats(self) -> Dict[str, object]:\n        d = self.engine.describe()\n",
          "    def stats(self) -> Dict[str, object]:\n        self.runtime.pump()\n"
          "        d = self.engine.describe()\n")]),
    ("O2", "observer", "`TimeseriesSampler.finalize` advances the clock 1 µs",
     "obs/sampler.py", [
         ("        if not self.rows:\n            self.sample()\n            return\n",
          "        self.db.runtime.clock.advance(1e-6)\n"
          "        if not self.rows:\n            self.sample()\n            return\n")]),
    ("O3", "observer", "`ClusterDB.stats` calls `_pump_all()`",
     "cluster/cluster.py", [
         ('        """The cluster report: topology, aggregates, imbalance, tails."""\n',
          '        """The cluster report: topology, aggregates, imbalance, tails."""\n'
          "        self._pump_all()\n")]),
    ("C1", "leader", "`kill_leader` reorders `replicas` but leaves `leader` on the dead node",
     "cluster/replica.py", [("        self.leader = promoted\n", "")]),
]

#: The ``run.py`` runs whose digests ``tests/data/pins.json`` pins:
#: (workload, seed, trace).
DIGEST_RUNS = [(p["workload"], p["seed"], p["trace"]) for p in json.loads(
    (ROOT / "tests" / "data" / "pins.json").read_text()) if "sim_digest" in p]

CHECKS = ("lint", "digests", "stability", "fingerprint", "tier-1")


def _run(cmd: List[str], cwd: Path, timeout: int) -> Tuple[int, str]:
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return -1, "timeout"
    return proc.returncode, proc.stdout + proc.stderr


def _copy(workdir: Path, mutant=None) -> Path:
    tree = workdir / (mutant[0] if mutant else "base")
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    if mutant:
        path = tree / "src" / "repro" / mutant[3]
        text = path.read_text()
        for old, new in mutant[4]:
            if text.count(old) != 1:
                raise SystemExit(f"{mutant[0]}: the snippet to replace occurs "
                                 f"{text.count(old)} times in {mutant[3]}")
            text = text.replace(old, new)
        path.write_text(text)
    return tree


def observe(tree: Path, tier1: bool) -> Dict[str, object]:
    """Every check's raw outcome on one tree."""
    py = sys.executable
    out: Dict[str, object] = {}
    out["lint"] = _run([py, "-m", "repro", "check", "--gate", "lint"], tree, 300)[0]
    digests = []
    for workload, seed, trace in DIGEST_RUNS:
        rc, text = _run([py, "benchmarks/e2e/run.py", "--workload", workload,
                         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                        tree, 600)
        found = re.search(r"sim_digest=([0-9a-f]+)", text)
        digests.append(found.group(1) if rc == 0 and found else f"exit {rc}")
    out["digests"] = digests
    out["stability"] = _run([py, "-m", "repro", "stability", "--check"], tree, 600)[0]
    rc, text = _run([py, "benchmarks/mutants/fingerprint.py"], tree, 600)
    out["fingerprint"] = text.strip() if rc == 0 else f"exit {rc}"
    if tier1:
        rc, text = _run([py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                         "--ignore", "tests/test_mutants.py"],
                        tree, 1800)
        failed = sorted(set(re.findall(r"^(?:FAILED|ERROR) (\S+)", text, re.M)))
        out["tier-1"] = [rc, failed]
    return out


def kills(base: Dict[str, object], got: Dict[str, object]) -> Dict[str, bool]:
    verdict = {"lint": got["lint"] != 0,
               "digests": got["digests"] != base["digests"],
               "stability": got["stability"] != 0,
               "fingerprint": got["fingerprint"] != base["fingerprint"]}
    if "tier-1" in got:
        verdict["tier-1"] = got["tier-1"][0] != 0  # type: ignore[index]
    return verdict


def render(rows, tier1: bool) -> str:
    checks = CHECKS if tier1 else CHECKS[:-1]
    lines = ["# Mutant kill table", "",
             "Regenerate with `python3 benchmarks/mutants/kill_table.py` "
             "(see its docstring).", "✗ = the check fails on the mutant "
             "(kills it); · = it passes.", "",
             "| mutant | contract | change | " + " | ".join(checks)
             + " | verdict | failing tier-1 tests |",
             "|---" * (len(checks) + 5) + "|"]
    for (mid, contract, what, _, _), verdict, got in rows:
        marks = " | ".join("✗" if verdict[c] else "·" for c in checks)
        status = "killed" if any(verdict.values()) else "equivalent"
        failed = got.get("tier-1", [0, []])[1]
        shown = ", ".join(f"`{t.split('/')[-1]}`" for t in failed[:4])
        if len(failed) > 4:
            shown += f" (+{len(failed) - 4} more)"
        lines.append(f"| {mid} | {contract} | {what} | {marks} | {status} | {shown} |")
    lines += ["", "A mutant no check kills is equivalent: all "
              f"{len(DIGEST_RUNS)} digests and the observer fingerprint equal "
              "the unmutated tree's, and its stability report is byte-identical "
              "to the committed BENCH_stability.json (those three columns read "
              "· on its row)."]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="*", metavar="ID",
                        help="run only these mutants (and print, not write)")
    parser.add_argument("--no-tier1", action="store_true",
                        help="skip the pytest column (about 1 min a mutant, not 3)")
    parser.add_argument("--workdir", help="where the copies go (default: a temp dir)")
    args = parser.parse_args(argv)
    tier1 = not args.no_tier1
    chosen = [m for m in MUTANTS if not args.only or m[0] in args.only]
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        workdir = Path(tmp)
        base = observe(_copy(workdir), tier1)
        bad = [c for c, v in kills(base, base).items() if v]
        if bad or any(d.startswith("exit") for d in base["digests"]):  # type: ignore[union-attr]
            print(f"the unmutated tree fails: {bad or base['digests']}")
            return 1
        rows = []
        for mutant in chosen:
            got = observe(_copy(workdir, mutant), tier1)
            shutil.rmtree(workdir / mutant[0], ignore_errors=True)
            verdict = kills(base, got)
            rows.append((mutant, verdict, got))
            print(mutant[0], json.dumps(verdict), flush=True)
    table = render(rows, tier1)
    if args.only or not tier1:
        print(table)
    else:
        OUT.write_text(table)
        print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
