"""Deterministic fault injection and recovery for the serving stack.

``plan`` defines seeded fault schedules (:class:`FaultPlan`), ``recovery``
the machinery that survives them (worker health, circuit breakers, MSA
scan checkpoints), and ``chaos`` the audit harness that runs seeded
fault schedules against a domain (the gateway, or the cluster
scheduler via :mod:`repro.cluster.chaos`) and checks its invariants.

``chaos`` imports the serving package, which itself imports ``plan`` and
``recovery`` — so it is loaded lazily here to keep the import graph
acyclic.
"""

from .kill import KillSwitch, SimulatedKill
from .plan import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    GPU_DOMAIN,
    MSA_DOMAIN,
    merge_plans,
    restrict_kinds,
)
from .recovery import (
    BreakerState,
    CheckpointStore,
    CircuitBreaker,
    FaultStats,
    MsaCheckpoint,
    WorkerHealth,
)

__all__ = [
    "BreakerState",
    "ChaosConfig",
    "ChaosResult",
    "CheckpointStore",
    "CircuitBreaker",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultStats",
    "GPU_DOMAIN",
    "KillSwitch",
    "MSA_DOMAIN",
    "MsaCheckpoint",
    "SimulatedKill",
    "WorkerHealth",
    "audit",
    "check_invariants",
    "merge_plans",
    "restrict_kinds",
    "run_campaign",
    "run_suite",
]

_CHAOS_EXPORTS = {
    "ChaosConfig", "ChaosResult", "audit", "check_invariants",
    "run_campaign", "run_suite",
}


def __getattr__(name):
    if name in _CHAOS_EXPORTS:
        from . import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
