"""Seeded fault schedules: what goes wrong, where, and when.

Real AF3 deployments lose exactly the state the paper says serving
economics depend on — warm GPU workers die and pay cold-start again,
MSA scans over hundreds-of-GiB databases stall or die mid-stream, and
preempted nodes take their queues with them.  A :class:`FaultPlan` is
a deterministic, seeded schedule of such events that the serving
gateway replays inside its discrete-event loop, so a chaos campaign is
exactly as reproducible as a fault-free simulation: the same seed
produces the same failures at the same simulated instants, and the
same byte-identical report.

Fault kinds map one-to-one onto the failure domains of the stack:

* ``WORKER_CRASH`` — a GPU or MSA worker process dies.  In-flight work
  is lost (GPU batches requeue, MSA scans resume from their last
  checkpointed shard) and a restarted GPU worker pays the full
  cold-start the paper measures (device init + XLA recompile).
* ``PREEMPTION`` — a scheduled eviction: the worker leaves for a known
  duration and returns *warm* (its process was suspended, not killed).
* ``GPU_OOM_SPIKE`` — a co-located allocation eats device memory for a
  window; batches dispatched during it may OOM and split.
* ``DB_READ_STALL`` — the database stream stalls (cold page cache,
  degraded NVMe, network filesystem hiccup); the affected MSA scan
  finishes late.
* ``DB_CORRUPTION`` — an in-flight MSA scan reads corrupt data; its
  result is unusable, any cached/checkpointed state for that input is
  invalidated, and the search reruns.
* ``SLOW_NODE`` — a degraded worker (thermal throttling, noisy
  neighbour) runs work started in the window slower by a factor.
* ``STORE_CORRUPTION`` — a persisted feature-store entry rots on disk
  (bit flip, torn write survived by fsync lies); the store's checksum
  catches it at the next read, which invalidates the entry and forces
  a recompute instead of serving bad features.
* ``PREEMPTION_NOTICE`` — a spot instance gets its two-minute-warning
  analog: ``magnitude`` seconds of notice lead-time, then the node is
  reclaimed for ``seconds``.  A notice-aware scheduler drains during
  the lead (checkpoint in-flight scans, publish finished chains) so
  the eviction itself loses nothing; the single-pool gateway treats
  it as a plain preemption starting at notice + lead.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

#: Failure domains a fault event can target.
GPU_DOMAIN = "gpu"
MSA_DOMAIN = "msa"


class FaultKind(enum.Enum):
    """One failure mode of the serving stack."""

    WORKER_CRASH = "worker_crash"
    PREEMPTION = "preemption"
    GPU_OOM_SPIKE = "gpu_oom_spike"
    DB_READ_STALL = "db_read_stall"
    DB_CORRUPTION = "db_corruption"
    SLOW_NODE = "slow_node"
    STORE_CORRUPTION = "store_corruption"
    PREEMPTION_NOTICE = "preemption_notice"


#: Kinds that can only target one domain.
_GPU_ONLY = frozenset({FaultKind.GPU_OOM_SPIKE})
_MSA_ONLY = frozenset({
    FaultKind.DB_READ_STALL,
    FaultKind.DB_CORRUPTION,
    FaultKind.STORE_CORRUPTION,
})


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``seconds`` is the event's duration (preemption/outage window,
    stall length, OOM-spike or slow-node window); ``magnitude`` is the
    kind-specific intensity — fraction of device memory for an OOM
    spike, slowdown factor for a slow node, notice lead-time in
    seconds for a preemption notice, unused otherwise.
    """

    event_id: int
    time: float
    kind: FaultKind
    domain: str                 # GPU_DOMAIN or MSA_DOMAIN
    worker: int
    seconds: float = 0.0
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fault time must be >= 0")
        if self.domain not in (GPU_DOMAIN, MSA_DOMAIN):
            raise ValueError(f"unknown fault domain {self.domain!r}")
        if self.worker < 0:
            raise ValueError("worker index must be >= 0")
        if self.seconds < 0:
            raise ValueError("fault duration must be >= 0")
        if self.kind in _GPU_ONLY and self.domain != GPU_DOMAIN:
            raise ValueError(f"{self.kind.value} targets GPU workers")
        if self.kind in _MSA_ONLY and self.domain != MSA_DOMAIN:
            raise ValueError(f"{self.kind.value} targets MSA workers")

    def as_dict(self) -> "OrderedDict[str, object]":
        """Ordered, rounded dict for JSON plan serialisation."""
        return OrderedDict(
            event_id=self.event_id,
            time=round(self.time, 6),
            kind=self.kind.value,
            domain=self.domain,
            worker=self.worker,
            seconds=round(self.seconds, 6),
            magnitude=round(self.magnitude, 6),
        )


class FaultPlan:
    """An immutable, time-sorted schedule of :class:`FaultEvent`."""

    def __init__(self, events: Iterable[FaultEvent]) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time, e.event_id))
        )
        seen = set()
        for event in self.events:
            if event.event_id in seen:
                raise ValueError(
                    f"duplicate fault event_id {event.event_id}"
                )
            seen.add(event.event_id)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def kind_counts(self) -> "OrderedDict[str, int]":
        """Events per kind, ordered by the enum's declaration order."""
        counts: "OrderedDict[str, int]" = OrderedDict(
            (kind.value, 0) for kind in FaultKind
        )
        for event in self.events:
            counts[event.kind.value] += 1
        return counts

    @property
    def active_kinds(self) -> List[FaultKind]:
        """Kinds with at least one scheduled event, in enum order."""
        return [k for k in FaultKind if self.kind_counts()[k.value] > 0]

    # -- seeded generation ----------------------------------------------

    #: (min, max) duration draws per kind, seconds.
    DURATION_RANGES: Dict[FaultKind, Tuple[float, float]] = {
        FaultKind.PREEMPTION: (120.0, 900.0),
        FaultKind.GPU_OOM_SPIKE: (120.0, 900.0),
        FaultKind.DB_READ_STALL: (30.0, 300.0),
        FaultKind.SLOW_NODE: (300.0, 1800.0),
        FaultKind.PREEMPTION_NOTICE: (300.0, 1800.0),
    }

    #: (min, max) notice lead-time draws, seconds (EC2 spot gives 120).
    NOTICE_LEAD_RANGE: Tuple[float, float] = (90.0, 180.0)

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon_seconds: float,
        num_gpu_workers: int,
        num_msa_workers: int,
        crashes: int = 0,
        preemptions: int = 0,
        oom_spikes: int = 0,
        db_stalls: int = 0,
        db_corruptions: int = 0,
        slow_nodes: int = 0,
        store_corruptions: int = 0,
        preemption_notices: int = 0,
    ) -> "FaultPlan":
        """A seeded schedule with the requested count of each kind.

        Times are uniform over ``[0, horizon_seconds)``; targets,
        durations and magnitudes come from the same seeded stream, so
        ``(seed, horizon, workers, counts)`` fully determines the plan.
        Uses :class:`random.Random` (stable across Python versions) —
        the chaos golden tests pin its exact output.
        """
        if horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be > 0")
        if num_gpu_workers < 1 or num_msa_workers < 1:
            raise ValueError("worker counts must be >= 1")
        counts = [
            (FaultKind.WORKER_CRASH, crashes),
            (FaultKind.PREEMPTION, preemptions),
            (FaultKind.GPU_OOM_SPIKE, oom_spikes),
            (FaultKind.DB_READ_STALL, db_stalls),
            (FaultKind.DB_CORRUPTION, db_corruptions),
            (FaultKind.SLOW_NODE, slow_nodes),
            # Newer kinds append so zero-count plans draw the exact
            # rng sequence (and events) they always did.
            (FaultKind.STORE_CORRUPTION, store_corruptions),
            (FaultKind.PREEMPTION_NOTICE, preemption_notices),
        ]
        if any(n < 0 for _, n in counts):
            raise ValueError("fault counts must be >= 0")
        rng = random.Random(seed ^ 0xFA17)
        events: List[FaultEvent] = []
        event_id = 0
        for kind, n in counts:
            for _ in range(n):
                time = rng.uniform(0.0, horizon_seconds)
                if kind in _GPU_ONLY:
                    domain = GPU_DOMAIN
                elif kind in _MSA_ONLY:
                    domain = MSA_DOMAIN
                else:
                    domain = rng.choice((GPU_DOMAIN, MSA_DOMAIN))
                pool = (
                    num_gpu_workers if domain == GPU_DOMAIN
                    else num_msa_workers
                )
                worker = rng.randrange(pool)
                lo, hi = cls.DURATION_RANGES.get(kind, (0.0, 0.0))
                seconds = rng.uniform(lo, hi) if hi > 0 else 0.0
                if kind is FaultKind.GPU_OOM_SPIKE:
                    magnitude = rng.uniform(0.3, 0.9)
                elif kind is FaultKind.SLOW_NODE:
                    magnitude = rng.uniform(1.5, 4.0)
                elif kind is FaultKind.PREEMPTION_NOTICE:
                    magnitude = rng.uniform(*cls.NOTICE_LEAD_RANGE)
                else:
                    magnitude = 0.0
                events.append(FaultEvent(
                    event_id=event_id, time=time, kind=kind,
                    domain=domain, worker=worker,
                    seconds=seconds, magnitude=magnitude,
                ))
                event_id += 1
        return cls(events)


def restrict_kinds(
    plan: FaultPlan, kinds: Iterable[FaultKind]
) -> FaultPlan:
    """The plan filtered to ``kinds`` only, event ids preserved.

    Ids are *not* reassigned: a surviving event keeps the exact
    identity (and therefore the exact store-corruption target, which
    hashes the event id) it had in the full plan, so a single kind can
    be replayed in isolation to debug a mixed-kind chaos failure.
    """
    wanted = frozenset(kinds)
    return FaultPlan(e for e in plan if e.kind in wanted)


def validate_kinds(kinds: Optional[Iterable[str]]) -> None:
    """Reject a fault-kind whitelist (``FaultKind`` values) that names
    a kind which does not exist; ``None`` means every kind."""
    if kinds is None:
        return
    valid = {kind.value for kind in FaultKind}
    unknown = [k for k in kinds if k not in valid]
    if unknown:
        raise ValueError(
            f"unknown fault kinds {unknown}; valid: {sorted(valid)}"
        )


def merge_plans(*plans: Optional[FaultPlan]) -> FaultPlan:
    """Combine plans into one schedule (event ids are reassigned)."""
    events: List[FaultEvent] = []
    for plan in plans:
        if plan is None:
            continue
        events.extend(plan.events)
    return FaultPlan(
        dataclasses.replace(event, event_id=i)
        for i, event in enumerate(
            sorted(events, key=lambda e: (e.time, e.event_id))
        )
    )
