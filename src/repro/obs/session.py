"""Attach/detach tracing to a live DB, plus the "top"-style text summary.

:func:`attach_trace` is the one entry point the CLI, benchmarks and examples
use: it wires a :class:`~repro.obs.tracer.Tracer` and a
:class:`~repro.obs.sampler.TimeseriesSampler` into a DB's runtime and
returns a :class:`TraceSession` that knows how to export and summarize the
run.  Tracing is observation-only -- the traced run's WA, tree shape and
clock are byte-identical to an untraced run (the determinism tests pin this
down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.metrics.stalls import STALL_CLASSES
from repro.obs.export import chrome_trace, to_jsonl, write_json
from repro.obs.sampler import DEFAULT_INTERVAL_S, TimeseriesSampler
from repro.obs.tracer import PH_END, TraceOptions, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.iamdb import IamDB


@dataclass(frozen=True)
class TraceConfig:
    """Configuration for one trace session."""

    ring_capacity: int = 1 << 16
    sample_interval_s: float = DEFAULT_INTERVAL_S


class TraceSession:
    """One DB's tracer + sampler, with export and summary helpers."""

    def __init__(self, db: "IamDB", config: Optional[TraceConfig] = None) -> None:
        self.config = config if config is not None else TraceConfig()
        self.db = db
        self.tracer = Tracer(db.runtime.clock,
                             TraceOptions(ring_capacity=self.config.ring_capacity))
        self.sampler = TimeseriesSampler(db, self.config.sample_interval_s)
        db.runtime.attach_tracer(self.tracer)
        db.runtime.attach_sampler(self.sampler)
        self._finished = False

    # --------------------------------------------------------------- lifecycle
    def finish(self) -> None:
        """Flush the final partial window (idempotent; call after the workload)."""
        if not self._finished:
            self._finished = True
            self.sampler.finalize()

    # ----------------------------------------------------------------- exports
    def to_jsonl(self) -> str:
        return to_jsonl(self.tracer, self.sampler)

    def to_chrome(self, *, pid: int = 1,
                  process_name: Optional[str] = None) -> Dict[str, object]:
        name = process_name if process_name is not None else self.db.engine.name
        return chrome_trace(self.tracer, self.sampler, pid=pid,
                            process_name=name)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    def write_chrome(self, path: str, *, pid: int = 1,
                     process_name: Optional[str] = None) -> None:
        write_json(path, self.to_chrome(pid=pid, process_name=process_name))

    # ----------------------------------------------------------------- summary
    def _busiest_jobs(self) -> List[Tuple[str, int, float]]:
        """(job name, completions, total debt seconds), busiest first.

        Aggregated over the events still in the ring (a bounded window when
        the ring overflowed; the header reports the drop count).
        """
        totals: Dict[str, Tuple[int, float]] = {}
        for _ts, ph, cat, name, _sid, args in self.tracer.events:
            if ph != PH_END or cat != "job":
                continue
            debt = 0.0
            if args is not None:
                raw = args.get("debt_s")
                if isinstance(raw, (int, float)):
                    debt = float(raw)
            count, acc = totals.get(name, (0, 0.0))
            totals[name] = (count + 1, acc + debt)
        rows = [(name, count, acc) for name, (count, acc) in totals.items()]
        rows.sort(key=lambda r: (-r[2], -r[1], r[0]))
        return rows

    def _level_write_timeline(self, n_checkpoints: int = 5) -> List[str]:
        rows = self.sampler.rows
        if not rows:
            return ["  (no samples)"]
        levels = sorted({lvl for r in rows
                         for lvl in r["level_write_bytes"]})  # type: ignore[union-attr]
        if not levels:
            return ["  (no level writes yet)"]
        picks = sorted({0, len(rows) - 1,
                        *(i * (len(rows) - 1) // max(1, n_checkpoints - 1)
                          for i in range(n_checkpoints))})
        header = "  " + f"{'sim time':>12} " + " ".join(
            f"{'L' + str(lvl) + ' MB':>10}" for lvl in levels)
        out = [header]
        for i in picks:
            row = rows[i]
            lw = row["level_write_bytes"]
            cells = " ".join(
                f"{lw.get(lvl, 0) / 1e6:>10.2f}"  # type: ignore[union-attr]
                for lvl in levels)
            out.append(f"  {float(row['ts']) * 1e3:>10.2f}ms {cells}")  # type: ignore[arg-type]
        return out

    def summary(self) -> str:
        """A "top"-style text digest of the traced run."""
        self.finish()
        db = self.db
        tracer = self.tracer
        metrics = db.metrics
        lines = [
            f"trace summary: engine={db.engine.name} "
            f"sim_time={db.runtime.clock.now * 1e3:.2f}ms",
            f"  events={tracer.event_count()} (in ring={len(tracer)}, "
            f"dropped={tracer.dropped})  spans {tracer.spans_opened} opened / "
            f"{tracer.spans_closed} closed  samples={len(self.sampler.rows)}",
            "",
            "busiest background jobs (by device time, ring window):",
        ]
        jobs = self._busiest_jobs()
        if jobs:
            for name, count, debt in jobs[:8]:
                lines.append(f"  {name:<24} x{count:<6} {debt * 1e3:>10.3f}ms device time")
        else:
            lines.append("  (no background jobs completed)")
        lines.append("")
        lines.append("longest stalls:")
        stalls = sorted(metrics.stalls.items(),
                        key=lambda kv: (-kv[1].max_s, kv[0]))
        if stalls:
            for reason, st in stalls[:8]:
                lines.append(
                    f"  {reason:<24} x{st.count:<6} total {st.total_s * 1e3:>9.3f}ms "
                    f"max {st.max_s * 1e3:>9.3f}ms")
        else:
            lines.append("  (no stalls)")
        lines.append("")
        lines.append("blame (stalls + write-gate delays, by class):")
        breakdown = metrics.stall_breakdown()
        now = db.runtime.clock.now
        if breakdown.total_s > 0.0:
            for cls in STALL_CLASSES:
                count, total_s, max_s = breakdown.classes[cls]
                if count == 0:
                    continue
                frac = (total_s / now) if now > 0.0 else 0.0
                lines.append(
                    f"  {cls:<12} x{count:<6} total {total_s * 1e3:>9.3f}ms "
                    f"max {max_s * 1e3:>9.3f}ms  {frac * 100:>5.1f}% of run")
        else:
            lines.append("  (no blamed time)")
        percentiles = metrics.hist_percentiles()
        if percentiles:
            lines.append("")
            lines.append("latency percentiles (sim ms):")
            for op, pcts in sorted(percentiles.items()):
                lines.append(
                    f"  {op:<10} p50 {pcts['p50'] * 1e3:>9.4f} "
                    f"p99 {pcts['p99'] * 1e3:>9.4f} "
                    f"p99.9 {pcts['p999'] * 1e3:>9.4f} "
                    f"max {pcts['max'] * 1e3:>9.4f}  (n={int(pcts['count'])})")
        lines.append("")
        lines.append("per-level write bytes over time:")
        lines.extend(self._level_write_timeline())
        lines.append("")
        lines.append("event counts:")
        counts = sorted(tracer.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, n in counts[:12]:
            lines.append(f"  {name:<24} {n:>8}")
        return "\n".join(lines)


def attach_trace(db: "IamDB",
                 config: Optional[TraceConfig] = None) -> TraceSession:
    """Wire a tracer + sampler into ``db`` and return the live session."""
    return TraceSession(db, config)
