"""Fault-tolerant cluster scheduling for AF3 screening workloads.

The single-machine serving gateway (:mod:`repro.serving`) answers
"what does one pool of workers do under faults"; this package lifts
the question to a fleet: heterogeneous node pools (on-demand vs spot,
H100 vs RTX 4080) with per-node cold-start, priority job queues,
pluggable autoscaling, spot preemption notices with checkpointed job
migration through the shared feature store, and a chaos harness that
audits no-job-lost / balanced-accounting / no-double-execution /
byte-identical-determinism invariants across seeds.

Entry points:

* :func:`repro.cluster.jobs.build_job_stream` — seeded PPI job streams;
* :class:`repro.cluster.scheduler.ClusterScheduler` — the
  discrete-event loop over the fleet;
* :data:`repro.cluster.autoscaler.POLICIES` — the policy registry the
  cost/throughput/latency Pareto study sweeps;
* :class:`repro.cluster.chaos.ClusterChaosConfig` — the fleet domain
  of the chaos audit (``repro.faults.run_suite``), the CI audit.
"""

from .autoscaler import (
    Autoscaler,
    AutoscalePolicy,
    ClusterView,
    POLICIES,
    PoolView,
    get_policy,
)
from .chaos import ClusterChaosConfig, check_cluster_invariants
from .jobs import (
    ChainStatus,
    ChainWork,
    ClusterJob,
    build_job_stream,
    chain_scan_seconds,
)
from .metrics import (
    ClusterReport,
    PoolReport,
    pareto_rows,
    render_pareto_table,
)
from .migration import MigrationLedger
from .nodes import DEFAULT_POOLS, Node, NodePoolSpec, NodeState
from .preemption import (
    checkpointable_shards,
    drain_window,
    select_crash_target,
    select_spot_target,
)
from .queues import PriorityJobQueue
from .scheduler import ClusterConfig, ClusterScheduler

__all__ = [
    "Autoscaler",
    "AutoscalePolicy",
    "ClusterView",
    "POLICIES",
    "PoolView",
    "get_policy",
    "ClusterChaosConfig",
    "check_cluster_invariants",
    "ChainStatus",
    "ChainWork",
    "ClusterJob",
    "build_job_stream",
    "chain_scan_seconds",
    "ClusterReport",
    "PoolReport",
    "pareto_rows",
    "render_pareto_table",
    "MigrationLedger",
    "DEFAULT_POOLS",
    "Node",
    "NodePoolSpec",
    "NodeState",
    "checkpointable_shards",
    "drain_window",
    "select_crash_target",
    "select_spot_target",
    "PriorityJobQueue",
    "ClusterConfig",
    "ClusterScheduler",
]
