"""Chaos campaigns: seeded fault schedules + invariant audits.

One audit core serves every fault domain.  A domain is a frozen config
dataclass (with a ``seed`` field) that can run itself and knows what
its runs must keep:

* ``config.run(probe=None)`` — the domain's builder: build the seeded
  workload and :class:`~repro.faults.plan.FaultPlan`, run them once,
  and return ``(subject, report, plan)``;
* ``config.check(subject, report)`` — the domain's invariant list,
  returning violation descriptions;
* ``config.header()`` — the identity fields heading the audit summary.

:func:`audit` runs a campaign, checks it and, with
``check_determinism``, runs it a second time: the serialized report
summaries must match byte for byte.  :func:`run_suite` audits one
campaign per seed; :class:`ChaosResult` is what both return, whatever
the domain.

This module holds the serving domain, :class:`ChaosConfig`, which runs
the gateway and audits the invariants a serving system must keep under
failure:

* **no request lost** — every admitted request reaches a terminal
  state (full-quality done, degraded done, shed, timed out, or
  OOM-failed) and every non-completion carries a recorded reason;
* **monotonic time** — the event loop never moves simulated time
  backwards, and no request completes before it arrives or after the
  simulation ends;
* **balanced worker accounting** — per worker, dispatches equal
  completions plus aborts, and crashes plus preemptions equal
  restarts (nothing leaks, nothing double-counts);
* **determinism** — the same seed yields a byte-identical report,
  faults and all.

The fleet domain is :class:`repro.cluster.chaos.ClusterChaosConfig`.
Campaigns are exactly as reproducible as fault-free runs: the golden
chaos test pins one seeded campaign's entire summary.
"""

from __future__ import annotations

import dataclasses
import json
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .plan import FaultKind, FaultPlan, restrict_kinds, validate_kinds


@dataclasses.dataclass
class ChaosResult:
    """What one audited campaign produced: the plan, the report, the
    audit.  ``config`` is any domain's config."""

    config: object
    plan: FaultPlan
    report: object
    violations: List[str]
    deterministic: Optional[bool]   # None when the rerun was skipped

    @property
    def ok(self) -> bool:
        """Invariants held and the rerun (if run) was byte-identical."""
        return not self.violations and self.deterministic is not False

    def summary(self) -> "OrderedDict[str, object]":
        """Rounded, ordered, JSON-stable campaign summary."""
        return OrderedDict(
            self.config.header(),
            fault_events=len(self.plan),
            fault_kinds=self.plan.kind_counts(),
            invariants_ok=self.ok,
            deterministic=self.deterministic,
            violations=list(self.violations),
            report=self.report.summary(),
        )

    def to_json(self) -> str:
        """The summary as indented JSON (the golden chaos form)."""
        return json.dumps(self.summary(), indent=2)

    def render(self) -> str:
        """The report's ASCII rendering plus a chaos verdict line."""
        lines = [self.report.render()]
        verdict = "PASS" if self.ok else "FAIL"
        determinism = {
            True: "byte-identical rerun",
            False: "RERUN DIVERGED",
            None: "rerun skipped",
        }[self.deterministic]
        lines.append(
            f"  chaos      : seed {self.config.seed}, "
            f"{len(self.plan)} fault events over "
            f"{len(self.plan.active_kinds)} kinds -> "
            f"invariants {verdict} ({determinism})"
        )
        for violation in self.violations:
            lines.append(f"    VIOLATION: {violation}")
        return "\n".join(lines)


def audit(config, check_determinism: bool) -> ChaosResult:
    """Run one seeded campaign of any domain and audit its invariants.

    With ``check_determinism`` the whole campaign runs twice and the
    serialized report summaries must match byte for byte — the same
    guarantee the fault-free golden tests pin, extended to fault runs.
    """
    subject, report, plan = config.run()
    violations = config.check(subject, report)
    deterministic: Optional[bool] = None
    if check_determinism:
        _, rerun, _ = config.run()
        deterministic = (
            json.dumps(report.summary(), indent=2)
            == json.dumps(rerun.summary(), indent=2)
        )
        if not deterministic:
            violations.append(
                "seeded rerun produced a different report (nondeterminism)"
            )
    return ChaosResult(
        config=config,
        plan=plan,
        report=report,
        violations=violations,
        deterministic=deterministic,
    )


def run_suite(
    seeds: Tuple[int, ...] = (0, 1, 2),
    base: Optional[object] = None,
    check_determinism: bool = True,
) -> Dict[int, ChaosResult]:
    """One audited campaign per seed of ``base`` (either domain's
    config; the serving default when omitted) — the CI chaos jobs'
    entry point."""
    base = base or ChaosConfig()
    return OrderedDict(
        (seed, audit(dataclasses.replace(base, seed=seed), check_determinism))
        for seed in seeds
    )


def run_campaign(
    config: Optional[object] = None,
    check_determinism: bool = True,
) -> ChaosResult:
    """Audit one seeded campaign (the serving default when omitted)."""
    return audit(config or ChaosConfig(), check_determinism)


# -- the serving domain ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """One seeded chaos campaign, fully determined by its fields."""

    seed: int = 0
    platform: str = "Server"
    num_requests: int = 120
    arrival_rps: float = 0.02
    num_gpu_workers: int = 3
    num_msa_workers: int = 3
    max_batch: int = 4
    max_wait_seconds: float = 120.0
    queue_limit: int = 64
    timeout_seconds: Optional[float] = 14400.0
    max_retries: int = 2
    retry_backoff_seconds: float = 60.0
    # -- fault mix (counts over the campaign horizon) ------------------
    crashes: int = 3
    preemptions: int = 2
    oom_spikes: int = 2
    db_stalls: int = 3
    db_corruptions: int = 2
    slow_nodes: int = 2
    store_corruptions: int = 0   # needs a feature store to bite
    preemption_notices: int = 0  # spot reclaim warnings (lead + outage)
    horizon_scale: float = 0.9   # faults land in this early fraction
    #                            # of the arrival window
    #: Optional fault-kind whitelist (FaultKind values, e.g.
    #: ``("worker_crash",)``): the plan is generated with the full mix
    #: (preserving every seeded draw) and then filtered, so one kind
    #: can be replayed in isolation to debug a mixed-kind failure.
    kinds: Optional[Tuple[str, ...]] = None
    # -- recovery policy ----------------------------------------------
    restart_seconds: float = 300.0
    breaker_failure_threshold: int = 2
    breaker_cooldown_seconds: float = 1800.0
    degraded_fallback: bool = True
    degraded_msa_depth: int = 16

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if not 0 < self.horizon_scale <= 1:
            raise ValueError("horizon_scale must be in (0, 1]")
        validate_kinds(self.kinds)

    def fault_counts(self) -> "OrderedDict[str, int]":
        """The per-kind event counts the plan generator is fed."""
        return OrderedDict(
            crashes=self.crashes,
            preemptions=self.preemptions,
            oom_spikes=self.oom_spikes,
            db_stalls=self.db_stalls,
            db_corruptions=self.db_corruptions,
            slow_nodes=self.slow_nodes,
            store_corruptions=self.store_corruptions,
            preemption_notices=self.preemption_notices,
        )

    def header(self) -> "OrderedDict[str, object]":
        """The identity fields heading this campaign's audit summary."""
        return OrderedDict(
            seed=self.seed,
            platform=self.platform,
            requests=self.num_requests,
        )

    def run(self, probe=None):
        """Run the gateway over this campaign's seeded stream and plan.

        Returns ``(gateway, report, plan)``.  ``probe`` is an optional
        :class:`~repro.observability.GatewayProbe` forwarded to the
        gateway, so chaos runs can record span timelines without
        changing what the campaign simulates.
        """
        from ..hardware.platform import get_platform
        from ..sequences.builtin import builtin_samples
        from ..serving import (
            GatewayConfig,
            PoissonArrivals,
            ServingGateway,
            build_request_stream,
        )

        stream = build_request_stream(
            list(builtin_samples().values()),
            n=self.num_requests,
            arrivals=PoissonArrivals(self.arrival_rps, seed=self.seed),
            seed=self.seed,
        )
        horizon = stream[-1].arrival_seconds * self.horizon_scale
        plan = FaultPlan.generate(
            seed=self.seed,
            horizon_seconds=max(horizon, 1.0),
            num_gpu_workers=self.num_gpu_workers,
            num_msa_workers=self.num_msa_workers,
            **self.fault_counts(),
        )
        if self.kinds is not None:
            plan = restrict_kinds(
                plan, (FaultKind(value) for value in self.kinds)
            )
        gateway_config = GatewayConfig(
            num_gpu_workers=self.num_gpu_workers,
            num_msa_workers=self.num_msa_workers,
            max_batch=self.max_batch,
            max_wait_seconds=self.max_wait_seconds,
            queue_limit=self.queue_limit,
            timeout_seconds=self.timeout_seconds,
            max_retries=self.max_retries,
            retry_backoff_seconds=self.retry_backoff_seconds,
            restart_seconds=self.restart_seconds,
            breaker_failure_threshold=self.breaker_failure_threshold,
            breaker_cooldown_seconds=self.breaker_cooldown_seconds,
            degraded_fallback=self.degraded_fallback,
            degraded_msa_depth=self.degraded_msa_depth,
        )
        gateway = ServingGateway(
            get_platform(self.platform), gateway_config,
            fault_plan=plan, probe=probe,
        )
        return gateway, gateway.run(stream), plan

    def check(self, gateway, report) -> List[str]:
        """This domain's invariants: :func:`check_invariants`."""
        return check_invariants(gateway, report)


def check_invariants(gateway, report) -> List[str]:
    """Audit one finished gateway run; returns violation descriptions."""
    from ..serving.queueing import RequestState

    violations: List[str] = []

    # -- no request lost ------------------------------------------------
    for request in report.requests:
        if not request.state.terminal:
            violations.append(
                f"request {request.request_id} ended non-terminal "
                f"in state {request.state.value}"
            )
        elif (
            request.state is not RequestState.DONE
            and not request.failure_reason
        ):
            violations.append(
                f"request {request.request_id} ended {request.state.value} "
                f"with no recorded reason"
            )
        elif request.degraded and not request.failure_reason:
            violations.append(
                f"request {request.request_id} is degraded with no "
                f"recorded reason (silent quality loss)"
            )
    accounted = (
        report.completed + report.degraded + report.shed
        + report.timed_out + report.failed_oom
    )
    if accounted != report.submitted:
        violations.append(
            f"request conservation: {report.submitted} submitted but "
            f"{accounted} accounted for"
        )

    # -- monotonic simulated time ---------------------------------------
    if gateway.monotonic_violations:
        violations.append(
            f"event loop moved time backwards "
            f"{gateway.monotonic_violations} times"
        )
    for request in report.requests:
        done = request.completion_seconds
        if done is None:
            continue
        if done < request.arrival_seconds:
            violations.append(
                f"request {request.request_id} completed before it arrived"
            )
        if done > report.duration_seconds + 1e-9:
            violations.append(
                f"request {request.request_id} completed after the "
                f"simulation ended"
            )

    # -- balanced worker accounting -------------------------------------
    for domain, pool in (
        ("gpu", gateway.gpu_health), ("msa", gateway.msa_health)
    ):
        for health in pool:
            if health.busy:
                violations.append(
                    f"{domain} worker {health.index} still busy at end"
                )
            if not health.balanced:
                violations.append(
                    f"{domain} worker {health.index} accounting is "
                    f"unbalanced: {health.dispatches} dispatched vs "
                    f"{health.completions} completed + "
                    f"{health.aborts} aborted; {health.crashes} crashes + "
                    f"{health.preemptions} preemptions vs "
                    f"{health.restarts} restarts"
                )

    # -- degradation is explicit, never cached --------------------------
    fault_summary = report.fault_summary or {}
    degraded_requests = sum(1 for r in report.requests if r.degraded)
    if degraded_requests != report.degraded:
        violations.append(
            f"degraded accounting: {degraded_requests} flagged requests "
            f"vs {report.degraded} reported"
        )
    if fault_summary.get("degraded_served", 0) < report.degraded:
        violations.append(
            "degraded responses served without being counted as such"
        )
    return violations
