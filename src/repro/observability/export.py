"""Exporters: Chrome/Perfetto trace events and Prometheus text.

Two render targets for the same observability data, chosen for what
operators already have open:

* :func:`to_chrome_trace` / :func:`chrome_trace_json` — the Trace
  Event JSON format that ``chrome://tracing`` and https://ui.perfetto.dev
  load directly.  Worker service windows render as complete (``X``)
  events on one named track per worker — so an idle gap on ``gpu-2``
  or a ``worker.down`` window on ``msa-1`` is visible at a glance —
  and each request's span tree renders as an async (``b``/``e``) track
  keyed by its request id, so a p99 request can be followed end to
  end.  Simulated seconds map to trace microseconds.
* :func:`prometheus_metrics`, :func:`cluster_prometheus_metrics` and
  :func:`campaign_prometheus_metrics` — Prometheus text expositions of
  the serving, cluster and campaign summaries, for piping the existing
  golden counters into any metrics stack without a new schema.  One
  emitter renders all three, each from its own table of metric rows.

Both are pure functions of their inputs with fully ordered output:
exporting the same seeded run twice yields byte-identical text (the
golden trace test pins this).

This module imports nothing from ``repro.serving`` — reports are read
duck-typed via ``report.summary()`` — so ``repro.observability`` can
be imported from inside the serving package without a cycle.
"""

from __future__ import annotations

import json
import re
from collections import OrderedDict, namedtuple
from typing import Dict, List, Optional, Tuple

from .spans import KIND_INSTANT, REQUEST_TRACK, Span, SpanRecorder

#: Trace-event pid for the simulated gateway "process".
_PID = 1
#: tid of the lane request-scoped async events attach to.
_REQUEST_TID = 0

_WORKER_TRACK = re.compile(r"^(gpu|msa)-(\d+)$")


def _track_tids(recorder: SpanRecorder) -> "OrderedDict[str, int]":
    """Deterministic track -> tid map: declared worker lanes first
    (GPU pool, then MSA pool, in worker order), then any extra tracks
    spans actually used, in natural sort order."""
    tracks: "OrderedDict[str, None]" = OrderedDict()
    for track in recorder.declared_tracks:
        tracks.setdefault(track)
    extras = sorted(
        {
            s.track for s in recorder.spans
            if s.track != REQUEST_TRACK and s.track not in tracks
        },
        key=lambda t: (
            (0, m.group(1), int(m.group(2))) if (m := _WORKER_TRACK.match(t))
            else (1, t, 0)
        ),
    )
    for track in extras:
        tracks.setdefault(track)
    return OrderedDict(
        (track, tid) for tid, track in enumerate(tracks, start=1)
    )


def _us(seconds: float) -> float:
    """Simulated seconds -> trace microseconds, rounded for stability."""
    return round(seconds * 1e6, 3)


def _args(span: Span) -> "OrderedDict[str, object]":
    args: "OrderedDict[str, object]" = OrderedDict(span_id=span.span_id)
    if span.parent_id is not None:
        args["parent"] = span.parent_id
    if span.request_id is not None:
        args["request"] = span.request_id
    args["status"] = span.status
    for key in sorted(span.attrs):
        args[key] = span.attrs[key]
    return args


def to_chrome_trace(
    recorder: SpanRecorder,
    metadata: Optional[Dict[str, object]] = None,
) -> "OrderedDict[str, object]":
    """Render a recorded run as a Trace Event JSON object.

    Layout contract:

    * pid 1 is the gateway; tid 1..N are one thread ("track") per
      worker, named ``gpu-0`` ... ``msa-K`` via metadata events, so
      Perfetto shows one swim-lane per worker in pool order.
    * spans on a worker track (``msa.scan``, ``gpu.batch``,
      ``worker.down``, ``fault.*`` windows) become ``X`` complete
      events there; zero-width markers become ``i`` instants.
    * every request-scoped span additionally becomes an async
      ``b``/``e`` pair (``n`` for instants) under id ``r<request_id>``,
      grouping each request's full tree onto its own async track.

    ``metadata`` lands under ``otherData`` (seed, config, ...).
    """
    tids = _track_tids(recorder)
    events: List["OrderedDict[str, object]"] = []
    events.append(OrderedDict(
        name="process_name", ph="M", pid=_PID, tid=_REQUEST_TID,
        args={"name": "af3-serving-gateway"},
    ))
    events.append(OrderedDict(
        name="thread_name", ph="M", pid=_PID, tid=_REQUEST_TID,
        args={"name": REQUEST_TRACK},
    ))
    for track, tid in tids.items():
        events.append(OrderedDict(
            name="thread_name", ph="M", pid=_PID, tid=tid,
            args={"name": track},
        ))
    for span in recorder.spans:
        end = span.start if span.end is None else span.end
        args = _args(span)
        if span.track in tids:
            tid = tids[span.track]
            if span.kind == KIND_INSTANT:
                events.append(OrderedDict(
                    name=span.name, ph="i", pid=_PID, tid=tid,
                    ts=_us(span.start), s="t", args=args,
                ))
            else:
                events.append(OrderedDict(
                    name=span.name, ph="X", pid=_PID, tid=tid,
                    ts=_us(span.start),
                    dur=_us(max(0.0, end - span.start)),
                    args=args,
                ))
        if span.request_id is not None:
            common = dict(
                cat="request", id=f"r{span.request_id}",
                pid=_PID, tid=_REQUEST_TID,
            )
            if span.kind == KIND_INSTANT:
                events.append(OrderedDict(
                    name=span.name, ph="n", ts=_us(span.start),
                    args=args, **common,
                ))
            else:
                events.append(OrderedDict(
                    name=span.name, ph="b", ts=_us(span.start),
                    args=args, **common,
                ))
                events.append(OrderedDict(
                    name=span.name, ph="e", ts=_us(end),
                    args={"status": span.status}, **common,
                ))
    payload: "OrderedDict[str, object]" = OrderedDict(
        traceEvents=events,
        displayTimeUnit="ms",
    )
    if metadata:
        payload["otherData"] = OrderedDict(sorted(metadata.items()))
    return payload


def chrome_trace_json(
    recorder: SpanRecorder,
    metadata: Optional[Dict[str, object]] = None,
    indent: Optional[int] = None,
) -> str:
    """Serialize :func:`to_chrome_trace` deterministically.

    Compact by default (one stable byte stream per seeded run — the
    golden form); pass ``indent`` for a human-diffable file.
    """
    payload = to_chrome_trace(recorder, metadata)
    if indent is None:
        return json.dumps(payload, separators=(",", ":"))
    return json.dumps(payload, indent=indent)


# -- Prometheus text exposition -----------------------------------------

#: One row of a metric table.  ``path`` names a summary field, dotted
#: for nested keys; a row whose path reaches into a section the run
#: did not produce (``store``, ``faults``, ...) is skipped.  A ``*``
#: component fans out over a mapping: with ``labels`` each entry is one
#: series of the metric, labelled by the entry's key (further labels
#: are read from the entry itself); without, each numeric key is its own
#: metric, ``*`` in ``suffix`` replaced by the key and ``mtype`` holding
#: the keys that are gauges (the rest are counters).
_Metric = namedtuple("_Metric", "path suffix mtype help labels")


def _rows(mtype, *rows) -> Tuple[_Metric, ...]:
    """Unlabelled rows of one type from ``(path, suffix, help)`` triples."""
    return tuple(_Metric(path, suffix, mtype, help_text, ())
                 for path, suffix, help_text in rows)


_QUANTILES = [("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")]

_STORE = _Metric(
    "store.*", "store_*", ("hit_rate", "entries", "total_bytes"),
    "Feature-store counter (see docs/metrics_reference.md).", (),
)
_FAULTS = _Metric(
    "faults.*", "fault_*", ("rewarm_seconds", "stall_seconds"),
    "Fault/recovery counter (see docs/metrics_reference.md).", (),
)
_CACHE_GAUGES = ("entries", "hit_cost_seconds", "seconds_saved")

#: ``ServingReport.summary()``, labelled by platform.
_SERVING = (
    *_rows(
        "gauge",
        ("gpu_workers", "gpu_workers", "GPU workers in the pool."),
        ("msa_workers", "msa_workers", "MSA workers in the pool."),
    ),
    *_rows(
        "counter",
        ("submitted", "submitted_total", "Requests submitted to the gateway."),
        ("completed", "completed_total", "Full-quality completions."),
        ("degraded", "degraded_total",
         "Completions served via the reduced-depth degraded fallback."),
        ("shed", "shed_total", "Requests rejected by admission control."),
        ("timed_out", "timed_out_total",
         "Requests that exhausted their retries."),
        ("failed_oom", "failed_oom_total",
         "Requests that exceed device memory even alone."),
        ("retries", "retries_total", "Timeout-triggered retry admissions."),
        ("retries_exhausted", "retries_exhausted_total",
         "Requests whose retry budget was exhausted."),
        ("oom_events", "oom_events_total",
         "Batch dispatches that hit device OOM."),
        ("batches_dispatched", "batches_total", "GPU batches dispatched."),
        ("cache_hits", "msa_cache_hits_total", "MSA result cache hits."),
        ("cache_misses", "msa_cache_misses_total",
         "MSA result cache misses."),
        ("coalesced_msa", "msa_coalesced_total",
         "Requests coalesced onto an in-flight MSA computation."),
    ),
    *_rows(
        "gauge",
        ("duration_seconds", "duration_seconds",
         "Simulated makespan, first arrival to last event."),
        ("throughput_rps", "throughput_rps",
         "Full-quality completions per simulated second."),
        ("gpu_utilization", "gpu_utilization_ratio",
         "GPU-pool busy fraction of capacity."),
        ("msa_utilization", "msa_utilization_ratio",
         "MSA-pool busy fraction of capacity."),
        ("mean_batch_size", "batch_size_mean", "Mean dispatched batch size."),
        ("batch_fill", "batch_fill_ratio",
         "Mean batch size over the max batch size."),
        ("cache_hit_rate", "msa_cache_hit_ratio", "MSA cache hit fraction."),
    ),
    *_rows(
        "summary",
        ("latency", "latency_seconds",
         "End-to-end latency, completed requests."),
        ("msa_queue_wait", "msa_queue_wait_seconds",
         "Wait for an MSA worker, completed requests."),
        ("batch_queue_wait", "batch_queue_wait_seconds",
         "Wait in the dynamic batcher, completed requests."),
    ),
    _STORE,
    _Metric("faults.plan.*", "fault_planned_total", "counter",
            "Fault events scheduled by the plan, by kind.", ("kind",)),
    _FAULTS,
    *_rows("counter", *(
        (f"bucket_waste.{key}", f"bucket_waste_{key}_total",
         "Padded-shape accounting of the configured bucket list "
         "(see docs/metrics_reference.md).")
        for key in ("requests", "real_tokens", "padded_tokens",
                    "waste_tokens")
    )),
    _Metric("bucket_waste.waste_pct", "bucket_waste_ratio", "gauge",
            "Waste tokens over padded tokens, percent.", ()),
    _Metric("bucket_waste.per_bucket.*.requests", "bucket_requests",
            "counter", "Requests landing in each bucket edge.", ("bucket",)),
    _Metric("compile_cache.*", "compile_cache_*", _CACHE_GAUGES,
            "Shared XLA compile-cache counter "
            "(see docs/metrics_reference.md).", ()),
)

#: ``ClusterReport.summary()``, labelled by autoscale policy.
_CLUSTER = (
    *_rows(
        "counter",
        ("submitted", "jobs_submitted_total",
         "Jobs submitted to the cluster."),
        ("completed", "jobs_completed_total", "Jobs that finished inference."),
        ("failed", "jobs_failed_total",
         "Jobs that exhausted their retry budget."),
        ("attempts", "job_attempts_total", "Node assignments (all attempts)."),
        ("migrations", "migrations_total",
         "Drain-requeues after a spot preemption notice."),
        ("crash_requeues", "crash_requeues_total",
         "Requeues after a crash or zero-warning reclaim."),
        ("chains_scanned", "chains_scanned_total",
         "Per-chain MSA scans run on cluster nodes."),
        ("store_chain_hits", "store_chain_hits_total",
         "Chain scans avoided via the shared feature store."),
        ("chains_published", "chains_published_total",
         "Chain features published to the shared store."),
        ("resumed_shards", "resumed_shards_total",
         "DB shards skipped by resuming drain checkpoints."),
        ("drain_publishes", "drain_publishes_total",
         "Chains published during preemption drains."),
        ("drain_checkpoints", "drain_checkpoints_total",
         "In-flight scans checkpointed during drains."),
        ("corrupted_keys", "store_corrupted_keys_total",
         "Trusted store keys struck by corruption."),
        ("migrated_recomputed_chains", "migrated_recomputed_chains_total",
         "Chain scans re-run despite a completed pre-drain scan "
         "(the no-double-execution audit pins this at 0)."),
        ("double_billed_shards", "double_billed_shards_total",
         "Checkpointed shards billed twice on resume (audit pins 0)."),
        ("scale_outs", "scale_out_nodes_total",
         "Nodes booted by autoscaling."),
        ("scale_ins", "scale_in_nodes_total",
         "Idle nodes terminated by autoscaling."),
        ("queue_pushes", "queue_pushes_total", "Job queue admissions."),
        ("queue_requeues", "queue_requeues_total",
         "Job queue re-admissions."),
    ),
    *_rows(
        "gauge",
        ("duration_seconds", "duration_seconds",
         "Simulated makespan of the cluster run."),
        ("scan_seconds_billed", "scan_seconds_billed",
         "Node-seconds billed to MSA chain scans."),
        ("gpu_seconds_billed", "gpu_seconds_billed",
         "Node-seconds billed to GPU inference."),
        ("cost_usd", "cost_usd", "Total fleet cost, boot to termination."),
        ("cost_per_job_usd", "cost_per_job_usd",
         "Fleet cost per completed job."),
        ("throughput_jobs_per_hour", "throughput_jobs_per_hour",
         "Completed jobs per simulated hour."),
    ),
    _Metric("latency", "job_latency_seconds", "summary",
            "Arrival-to-completion latency, completed jobs.", ()),
    *(
        _Metric(f"pools.*.{field}", suffix, "gauge", help_text,
                ("pool", "spot"))
        for field, suffix, help_text in (
            ("nodes_booted", "pool_nodes_booted", "Nodes booted in the pool."),
            ("nodes_terminated", "pool_nodes_terminated",
             "Pool nodes preempted or scaled in."),
            ("peak_nodes", "pool_peak_nodes",
             "Max simultaneously-alive nodes in the pool."),
            ("busy_seconds", "pool_busy_seconds",
             "Node-seconds the pool spent on jobs."),
            ("billed_seconds", "pool_billed_seconds",
             "Node-seconds the pool was billed for."),
            ("cost_usd", "pool_cost_usd", "Pool cost over the run."),
            ("utilization", "pool_utilization_ratio",
             "Busy fraction of billed pool time."),
        )
    ),
    _FAULTS,
    _STORE,
    _Metric("compile_cache.*", "compile_cache_*", _CACHE_GAUGES,
            "Fleet-shared XLA compile-cache counter "
            "(see docs/metrics_reference.md).", ()),
)

#: ``repro.campaign.cohort_summary()``, labelled by platform.
_CAMPAIGN = (
    *_rows(
        "gauge",
        ("targets", "targets_total", "Targets in the cohort manifest."),
        ("targets_completed", "targets_completed",
         "Targets whose full stage chain finished ok."),
        ("targets_failed", "targets_failed",
         "Targets with at least one failed stage."),
        ("tasks_done", "stage_outputs_done",
         "Stage outputs persisted as ok checkpoints."),
        ("tasks_failed", "stage_outputs_failed",
         "Stage outputs persisted as failed."),
        ("msa_seconds_total", "msa_seconds",
         "Cohort simulated MSA seconds (paper Fig 7 numerator)."),
        ("inference_seconds_total", "inference_seconds",
         "Cohort simulated inference seconds."),
        ("cohort_msa_fraction", "msa_fraction_ratio",
         "MSA share of MSA+inference time across the cohort."),
        ("serial_seconds", "serial_seconds",
         "Sum of all simulated stage seconds (one-worker campaign)."),
        ("pipeline_makespan_seconds", "pipeline_makespan_seconds",
         "Modeled makespan under the configured stage pools."),
        ("pipeline_speedup", "pipeline_speedup_ratio",
         "Serial seconds over modeled makespan."),
    ),
    _Metric("phase_seconds.*", "phase_seconds", "gauge",
            "Simulated seconds per campaign stage (Fig 3).", ("stage",)),
    _Metric("figures.fig3_phase_share.*", "phase_share_ratio", "gauge",
            "Share of simulated time per stage (Fig 3).", ("stage",)),
    _Metric("complexity_histogram.*", "targets_by_complexity", "gauge",
            "Completed targets per complexity class (Table II).",
            ("complexity",)),
)


def _lookup(mapping, path: str):
    for key in path.split("."):
        if key:
            mapping = mapping[key]
    return mapping


def _families(row: _Metric, value, name: str, base: str):
    """``(name, type, samples)`` per metric one row renders; a sample
    is ``(name suffix, label set, value)``."""
    _, fan, field = row.path.partition(".*")
    if row.mtype == "summary":
        samples = [
            ("", f'{base},quantile="{quantile}"', value[key])
            for key, quantile in _QUANTILES
        ]
        samples += [(f"_{key}", base, value[key])
                    for key in ("count", "mean", "max")]
        yield name, "summary", samples
    elif not fan:
        yield name, row.mtype, [("", base, value)]
    elif row.labels:
        first, *rest = row.labels
        samples = []
        for key, entry in value.items():
            labels = f'{base},{first}="{key}"' + "".join(
                f',{label}="{str(entry[label]).lower()}"' for label in rest
            )
            samples.append(("", labels, _lookup(entry, field)))
        yield name, row.mtype, samples
    else:
        for key, entry in value.items():
            if isinstance(entry, (int, float)):
                mtype = "gauge" if key in row.mtype else "counter"
                yield name.replace("*", key), mtype, [("", base, entry)]


def _exposition(summary, prefix: str, label: str, table) -> str:
    """Render ``summary`` through ``table``: fixed names, ordering and
    label sets, so the same summary always yields the same bytes."""
    base = f'{label}="{summary[label]}"'
    lines: List[str] = []
    for row in table:
        section, nested, _ = row.path.partition(".")
        if nested and section not in summary:
            continue
        value = _lookup(summary, row.path.partition(".*")[0])
        for name, mtype, samples in _families(
            row, value, f"{prefix}_{row.suffix}", base
        ):
            lines.append(f"# HELP {name} {row.help}")
            lines.append(f"# TYPE {name} {mtype}")
            lines.extend(
                f"{name}{suffix}{{{labels}}} {value}"
                for suffix, labels, value in samples
            )
    return "\n".join(lines) + "\n"


def prometheus_metrics(report, prefix: str = "afsys_serving") -> str:
    """Prometheus text exposition of a serving report's summary.

    The source fields are exactly the golden-summary fields documented
    in ``docs/metrics_reference.md`` — a re-rendering, not a new
    metrics surface.
    """
    return _exposition(report.summary(), prefix, "platform", _SERVING)


def cluster_prometheus_metrics(report, prefix: str = "afsys_cluster") -> str:
    """Prometheus text exposition of a cluster report's summary.

    Pool-scoped metrics carry ``pool`` and ``spot`` labels; everything
    is labelled by autoscale policy.
    """
    return _exposition(report.summary(), prefix, "policy", _CLUSTER)


def campaign_prometheus_metrics(summary, prefix: str = "afsys_campaign") -> str:
    """Prometheus text exposition of a campaign cohort summary.

    Takes the :func:`repro.campaign.cohort_summary` document (already a
    plain mapping — campaigns have no live report object, the summary
    *is* the durable surface), labelled by platform.
    """
    return _exposition(summary, prefix, "platform", _CAMPAIGN)
