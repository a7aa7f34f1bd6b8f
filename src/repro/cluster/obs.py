"""Cluster-wide tracing: one merged Chrome trace, per-shard timeseries.

A :class:`ClusterTraceSession` wires the cluster tier (router instants,
replication/rebalance/failover events) into its own
:class:`~repro.obs.tracer.Tracer` and attaches a full per-DB
:class:`~repro.obs.session.TraceSession` (tracer + timeseries sampler) to
every shard *leader* -- including leaders that appear mid-run, via shard
splits or failover promotions.  Export merges everything with
:func:`~repro.obs.export.merge_chrome_traces`: the router is pid 1 and each
leader gets ``pid = node_id + 1``, so Perfetto shows the cluster as
side-by-side processes on one shared sim timeline, with each shard's
timeseries columns (level bytes, WA, debt, stalls, throughput) as counter
tracks under its own process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.obs.export import merge_chrome_traces, write_json
from repro.obs.session import TraceConfig, TraceSession
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import ClusterDB
    from repro.cluster.shard import Shard


class ClusterTraceSession:
    """Tracers + samplers across one cluster, with merged export."""

    def __init__(self, cluster: "ClusterDB",
                 config: Optional[TraceConfig] = None) -> None:
        self.config = config if config is not None else TraceConfig()
        self.cluster = cluster
        self.tracer = Tracer(cluster.clock)
        cluster.tracer = self.tracer
        cluster.router.tracer = self.tracer
        cluster._trace = self
        self._sessions: List[Tuple[str, int, TraceSession]] = []
        self._traced_nodes: Set[int] = set()
        self._finished = False
        for shard in cluster.router.shards:
            self.on_new_leader(shard)

    # ------------------------------------------------------------------ wiring
    def on_new_leader(self, shard: "Shard") -> None:
        """Attach a per-DB session to a (possibly new) shard leader.

        Called by the cluster whenever a leader appears: initial
        provisioning, rebalance-created shards, failover promotions.
        Idempotent per node.
        """
        leader = shard.group.leader
        if leader.node_id in self._traced_nodes:
            return
        self._traced_nodes.add(leader.node_id)
        session = TraceSession(leader.db, self.config)
        name = (f"shard{shard.shard_id}-node{leader.node_id}:"
                f"{leader.db.engine.name}")
        self._sessions.append((name, leader.node_id, session))

    # --------------------------------------------------------------- lifecycle
    def finish(self) -> None:
        """Take final sample rows on every traced leader (idempotent)."""
        if self._finished:
            return
        self._finished = True
        for _, _, session in self._sessions:
            session.finish()

    # ----------------------------------------------------------------- exports
    def to_chrome(self) -> Dict[str, object]:
        """The merged cluster trace: router pid 1, leaders pid node_id+1."""
        self.finish()
        from repro.obs.export import chrome_trace
        traces = [chrome_trace(self.tracer, None, pid=1,
                               process_name="router")]
        for name, node_id, session in self._sessions:
            traces.append(session.to_chrome(pid=node_id + 1,
                                            process_name=name))
        return merge_chrome_traces(traces)

    def write_chrome(self, path: str) -> None:
        write_json(path, self.to_chrome())

    def timeseries(self) -> Dict[str, List[Dict[str, object]]]:
        """Per-leader sampler rows keyed by traced process name.

        Finalizes every sampler first (tail windows flushed), so each
        shard's timeline covers the whole run.  Keys match the Chrome
        export's process names (``shard<N>-node<M>:<engine>``).
        """
        self.finish()
        return {name: list(session.sampler.rows)
                for name, _, session in self._sessions}

    # ----------------------------------------------------------------- summary
    def summary(self) -> str:
        """One line per traced process: event and sample counts."""
        self.finish()
        lines = [
            f"cluster trace: router events={self.tracer.event_count()} "
            f"traced leaders={len(self._sessions)}",
        ]
        for name, _, session in self._sessions:
            lines.append(
                f"  {name:<32} events={session.tracer.event_count()} "
                f"samples={len(session.sampler.rows)}")
        return "\n".join(lines)


def attach_cluster_trace(cluster: "ClusterDB",
                         config: Optional[TraceConfig] = None,
                         ) -> ClusterTraceSession:
    """Wire cluster-wide tracing and return the live session."""
    return ClusterTraceSession(cluster, config)
