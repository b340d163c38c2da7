"""Multi-node sharded serving with per-shard blame and quarantine failover.

The single-host stack verifies one device's answer; this package splits
the same SLS protocol across N "NDP node" processes and verifies **each
shard's tag share independently** (per-shard checksum identity; see
DESIGN.md Sec. 16), so a wrong answer names its node before the ring
recombine ever runs.  The pieces:

* :mod:`~repro.cluster.node` — one node: a TCP server
  (:class:`NodeServer`) playing the *untrusted memory party* — it holds
  only ciphertext replicas (never key material) and returns
  ciphertext-domain sums — plus the coordinator-side
  :class:`NodeClient`.
* :mod:`~repro.cluster.coordinator` — :class:`ClusterCoordinator`:
  row-range sharding (:class:`ShardMap`), per-shard verification, and
  the recovery ladder (retry → replica failover / local recompute →
  blame, quarantine, re-shard), every step journaled as typed audit
  events.
* :mod:`~repro.cluster.health` — merge per-host JSONL journals into a
  blame-ranked :class:`ClusterHealth` view.
* :mod:`~repro.cluster.local` — :class:`LocalCluster`: spawn real node
  processes for the CLI / CI smoke path.

The robustness gate that drives this package under injected node faults
(blame precision / recall, bit-identity to the single-host oracle) is
:func:`repro.harness.chaos.run_cluster_chaos`.
"""

from .coordinator import ClusterCoordinator, ShardMap
from .health import (
    BLAME_WEIGHTS,
    ClusterHealth,
    blame_ranking,
    merge_event_streams,
)
from .local import LocalCluster, run_node_process
from .node import NodeClient, NodeServer

__all__ = [
    "BLAME_WEIGHTS",
    "ClusterCoordinator",
    "ClusterHealth",
    "LocalCluster",
    "NodeClient",
    "NodeServer",
    "ShardMap",
    "blame_ranking",
    "merge_event_streams",
    "run_node_process",
]
