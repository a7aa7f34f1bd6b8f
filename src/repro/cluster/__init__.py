"""repro.cluster: a sharded, replicated serving layer on the sim clock.

The multi-node subsystem: a simulated network fabric
(:mod:`~repro.cluster.network`), range-partitioned shards behind a routing
front door (:mod:`~repro.cluster.shard`, :mod:`~repro.cluster.router`),
leader/follower replication with quorum acks and failover
(:mod:`~repro.cluster.replica`), split/merge rebalance
(:mod:`~repro.cluster.rebalance`) and the :class:`ClusterDB` facade that
makes the whole thing drive like one :class:`~repro.db.iamdb.IamDB`
(:mod:`~repro.cluster.cluster`).  Everything runs on one shared
:class:`~repro.storage.simdisk.SimClock`; same seed, same report, byte for
byte.
"""

from repro.cluster.cluster import ClusterDB, ClusterOptions
from repro.cluster.invariants import check_cluster_invariants
from repro.cluster.network import NetworkOptions, SimNetwork
from repro.cluster.obs import ClusterTraceSession, attach_cluster_trace
from repro.cluster.rebalance import Rebalancer
from repro.cluster.replica import (
    LeaderKill,
    Replica,
    ReplicaGroup,
    parse_cluster_fault_spec,
)
from repro.cluster.router import Router
from repro.cluster.shard import KEY_SPACE_HI, KEY_SPACE_LO, Shard, even_ranges

__all__ = [
    "ClusterDB",
    "ClusterOptions",
    "ClusterTraceSession",
    "KEY_SPACE_HI",
    "KEY_SPACE_LO",
    "LeaderKill",
    "NetworkOptions",
    "Rebalancer",
    "Replica",
    "ReplicaGroup",
    "Router",
    "Shard",
    "SimNetwork",
    "attach_cluster_trace",
    "check_cluster_invariants",
    "even_ranges",
    "parse_cluster_fault_spec",
]
