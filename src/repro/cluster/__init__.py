"""repro.cluster: multi-node sharded execution over real sockets.

The distributed-memory story of §4, lifted from in-process message
passing to TCP: a coordinator with a node registry and lease-based
shard scheduling (:mod:`coordinator`, :mod:`registry`, :mod:`shards`),
worker node agents (:mod:`node`), the framed socket transport
(:mod:`transport`, which ``parallel.msgpass`` — the paper's master/slave
envelope layer — runs over as well), and the bit-identity
execution/merge helpers (:mod:`execution`).

Failure model: a node may die at any moment (SIGKILL included).  Its
leases are released — fast path on connection drop, slow path on
heartbeat expiry or lease deadline — and reassigned, so a cluster scan
completes bit-identical to a single-node run as long as one node
survives.
"""

from .client import ClusterClient, ClusterError
from .coordinator import ClusterJob, Coordinator, CoordinatorConfig
from .execution import merge_scan_reports, run_scan_shard
from .node import NodeAgent, NodeConfig, node_main
from .registry import NodeInfo, NodeRegistry
from .shards import Lease, Shard, ShardScheduler, plan_record_shards

__all__ = [
    "ClusterClient",
    "ClusterError",
    "ClusterJob",
    "Coordinator",
    "CoordinatorConfig",
    "Lease",
    "NodeAgent",
    "NodeConfig",
    "NodeInfo",
    "NodeRegistry",
    "Shard",
    "ShardScheduler",
    "merge_scan_reports",
    "node_main",
    "plan_record_shards",
    "run_scan_shard",
]
