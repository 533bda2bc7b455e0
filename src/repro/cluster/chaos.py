"""Cluster chaos campaigns: the fleet domain of the chaos audit.

The audit core (:mod:`repro.faults.chaos`: ``audit``, ``run_suite``,
``ChaosResult``) runs every domain; its serving domain audits one
machine, this one audits the fleet.  A campaign builds a seeded job
stream, a seeded :class:`~repro.faults.plan.FaultPlan` mixing spot
preemption notices with hard crashes and feature-store corruption, a
fresh on-disk feature store, and runs them through the
:class:`~repro.cluster.scheduler.ClusterScheduler`.  Then it checks
the invariants a fault-tolerant scheduler must keep:

* **no job lost** — every submitted job ends completed or failed with
  a recorded reason; nothing hangs in the queue or on a node;
* **monotonic time** — the event loop never moves simulated time
  backwards and no job completes before it arrives;
* **balanced node accounting** — per node, dispatches equal
  completions plus aborts, a crashed node restarts exactly as many
  times as it crashes, and a preempted/scaled-in node is terminated;
* **no double execution** — a migrated job never re-runs a chain scan
  it completed before the drain, and shards a drain checkpointed are
  never billed a second time (``migrated_recomputed_chains == 0`` and
  ``double_billed_shards == 0``); store corruption is the audited
  exception — a rotten entry *must* be recomputed, and the ledger
  strikes it from the trusted set before the recompute happens;
* **determinism** — the same seed yields a byte-identical report
  (the core's rerun).

Audit one campaign with ``repro.faults.run_campaign(ClusterChaosConfig(...))``
or a seed sweep with ``repro.faults.run_suite(seeds, ClusterChaosConfig())``.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from collections import OrderedDict
from typing import List, Optional, Tuple

from ..faults.plan import FaultKind, FaultPlan, restrict_kinds, validate_kinds
from ..store.feature_store import FeatureStore
from .jobs import build_job_stream
from .nodes import NodeState
from .scheduler import ClusterConfig, ClusterScheduler

__all__ = [
    "ClusterChaosConfig",
    "build_campaign",
    "check_cluster_invariants",
]

#: Worker-index space for cluster fault plans.  Plans target abstract
#: indices; the scheduler wraps them over the eligible node set at
#: strike time, so any value comfortably above the fleet size works
#: and keeps one plan meaningful across autoscale policies.
_PLAN_WORKER_SPACE = 64


@dataclasses.dataclass(frozen=True)
class ClusterChaosConfig:
    """One seeded cluster campaign, fully determined by its fields."""

    seed: int = 0
    num_jobs: int = 60
    num_chains: int = 24
    #: Default load is a burst (5x the fleet's comfortable rate) so
    #: spot nodes are busy when notices land — drains with work in
    #: flight are the case the audit exists for.
    arrival_rate_per_hour: float = 120.0
    policy: str = "queue-depth"
    migration: bool = True
    max_attempts: int = 6
    #: Fleet-shared XLA compile cache ("none"/"shared"); validated by
    #: :class:`~repro.cluster.scheduler.ClusterConfig`.
    compile_cache: str = "none"
    # -- fault mix (counts over the campaign horizon) ------------------
    preemption_notices: int = 10
    crashes: int = 3
    preemptions: int = 2          # reclaims with zero warning
    slow_nodes: int = 2
    store_corruptions: int = 3
    horizon_scale: float = 0.9
    #: Optional fault-kind whitelist, as in
    #: :class:`~repro.faults.chaos.ChaosConfig`.
    kinds: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        if not 0 < self.horizon_scale <= 1:
            raise ValueError("horizon_scale must be in (0, 1]")
        validate_kinds(self.kinds)

    def header(self) -> "OrderedDict[str, object]":
        """The identity fields heading this campaign's audit summary."""
        return OrderedDict(
            seed=self.seed,
            jobs=self.num_jobs,
            policy=self.policy,
            migration=self.migration,
        )

    def run(self, probe=None):
        """One full campaign run against a fresh throwaway store.

        Returns ``(scheduler, report, plan)``; ``probe`` is an optional
        :class:`~repro.observability.ClusterProbe`.
        """
        jobs, plan, cluster_config = build_campaign(self)
        root = tempfile.mkdtemp(prefix="repro-cluster-chaos-")
        try:
            store = FeatureStore(root)
            scheduler = ClusterScheduler(
                cluster_config, store=store, fault_plan=plan, probe=probe
            )
            report = scheduler.run(jobs)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return scheduler, report, plan

    def check(self, scheduler, report) -> List[str]:
        """This domain's invariants: :func:`check_cluster_invariants`."""
        return check_cluster_invariants(scheduler, report)


def build_campaign(config: ClusterChaosConfig):
    """The seeded ``(jobs, plan, cluster_config)`` triple."""
    jobs = build_job_stream(
        config.num_jobs,
        num_chains=config.num_chains,
        seed=config.seed,
        arrival_rate_per_hour=config.arrival_rate_per_hour,
    )
    horizon = jobs[-1].arrival_seconds * config.horizon_scale
    plan = FaultPlan.generate(
        seed=config.seed,
        horizon_seconds=max(horizon, 1.0),
        num_gpu_workers=_PLAN_WORKER_SPACE,
        num_msa_workers=_PLAN_WORKER_SPACE,
        crashes=config.crashes,
        preemptions=config.preemptions,
        slow_nodes=config.slow_nodes,
        store_corruptions=config.store_corruptions,
        preemption_notices=config.preemption_notices,
    )
    if config.kinds is not None:
        plan = restrict_kinds(
            plan, (FaultKind(value) for value in config.kinds)
        )
    cluster_config = ClusterConfig(
        policy=config.policy,
        migration=config.migration,
        max_attempts=config.max_attempts,
        compile_cache=config.compile_cache,
    )
    return jobs, plan, cluster_config


def check_cluster_invariants(scheduler, report) -> List[str]:
    """Audit one finished scheduler run; returns violation strings."""
    violations: List[str] = []

    # -- no job lost ----------------------------------------------------
    if report.completed + report.failed != report.submitted:
        violations.append(
            f"job conservation: {report.submitted} submitted but "
            f"{report.completed} completed + {report.failed} failed"
        )
    if len(scheduler.queue):
        violations.append(
            f"{len(scheduler.queue)} jobs still queued at end"
        )
    for job in scheduler.failed_jobs:
        if not job.failure_reason:
            violations.append(
                f"job {job.job_id} failed with no recorded reason"
            )
    for job in scheduler.completed_jobs:
        if job.completion_seconds is None:
            violations.append(
                f"job {job.job_id} counted complete without a "
                f"completion time"
            )
        elif job.completion_seconds < job.arrival_seconds:
            violations.append(
                f"job {job.job_id} completed before it arrived"
            )

    # -- monotonic simulated time ---------------------------------------
    if scheduler.monotonic_violations:
        violations.append(
            f"event loop moved time backwards "
            f"{scheduler.monotonic_violations} times"
        )

    # -- balanced node accounting ---------------------------------------
    for node in scheduler.nodes:
        health = node.health
        if health.busy or node.job is not None:
            violations.append(
                f"node {node.node_id} still busy at end"
            )
        if health.dispatches != health.completions + health.aborts:
            violations.append(
                f"node {node.node_id} accounting is unbalanced: "
                f"{health.dispatches} dispatched vs "
                f"{health.completions} completed + "
                f"{health.aborts} aborted"
            )
        if health.crashes != health.restarts:
            violations.append(
                f"node {node.node_id} crashed {health.crashes} times "
                f"but restarted {health.restarts}"
            )
        if health.preemptions and node.state is not NodeState.TERMINATED:
            violations.append(
                f"node {node.node_id} was preempted but is "
                f"{node.state.value}, not terminated"
            )
        if node.state is NodeState.DRAINING:
            violations.append(
                f"node {node.node_id} still draining at end"
            )

    # -- no double execution --------------------------------------------
    if report.migrated_recomputed_chains:
        violations.append(
            f"{report.migrated_recomputed_chains} chain scans re-run "
            f"after a drain had already completed them"
        )
    if report.double_billed_shards:
        violations.append(
            f"{report.double_billed_shards} checkpointed shards were "
            f"billed twice on resume"
        )

    # -- work conservation ----------------------------------------------
    for job in scheduler.completed_jobs:
        undone = [
            w.key for w in job.chains if w.status == "pending"
        ]
        if undone:
            violations.append(
                f"job {job.job_id} completed with unscanned chains "
                f"{undone}"
            )
    return violations
