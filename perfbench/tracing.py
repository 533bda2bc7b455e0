"""Span tracing of the program's layers, installed from the benchmark side.

The program carries no tracing of its own here, so :class:`Tracer`
wraps each layer's public functions by patching the name where its
caller looks it up (a module global, or a class attribute).  Every
wrapped call records one span ``[name, start, end, parent, call_id]``
in memory; :meth:`Tracer.write` dumps them when the run ends.

A layer's *self time* is its span's duration minus the durations of its
direct children.  Spans are properly nested because every workload runs
on one thread (serial ``ExecutionPlan``).

Functions called more than about 10^5 times per pass are deliberately
not wrapped (``_mha_flops`` runs 5.3 M times under ``inference_costs``):
their wrapper would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, List, Tuple

#: ``(span name, module, attribute)``: the attribute is looked up on the
#: module, and a dotted attribute names a method on a class.  One span
#: name may be patched at several lookup sites (each importer binds its
#: own global).  The scalar kernels are listed next to the batched ones
#: so the spans stay right whichever ``ExecutionPlan.kernel`` runs.
SPAN_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("msa.build_database", "repro.msa.engine", "build_database"),
    ("msa.jackhmmer", "repro.msa.jackhmmer", "JackhmmerSearch.search"),
    ("msa.nhmmer", "repro.msa.nhmmer", "NhmmerSearch.search"),
    ("msa.calibrate", "repro.msa.jackhmmer", "calibrate"),
    ("msa.calibrate", "repro.msa.nhmmer", "calibrate"),
    ("msa.msv_filter", "repro.msa.kernels.cascade", "msv_filter_batch"),
    ("msa.msv_filter", "repro.msa.nhmmer", "msv_filter_batch"),
    ("msa.msv_filter", "repro.msa.jackhmmer", "msv_filter"),
    ("msa.msv_filter", "repro.msa.nhmmer", "msv_filter"),
    ("msa.calc_band_9", "repro.msa.kernels.cascade", "calc_band_9_batch"),
    ("msa.calc_band_9", "repro.msa.nhmmer", "calc_band_9_batch"),
    ("msa.calc_band_9", "repro.msa.jackhmmer", "calc_band_9"),
    ("msa.calc_band_9", "repro.msa.nhmmer", "calc_band_9"),
    ("msa.calc_band_10", "repro.msa.kernels.cascade", "calc_band_10_batch"),
    ("msa.calc_band_10", "repro.msa.nhmmer", "calc_band_10_batch"),
    ("msa.calc_band_10", "repro.msa.jackhmmer", "calc_band_10"),
    ("msa.calc_band_10", "repro.msa.nhmmer", "calc_band_10"),
    ("msa.global_align", "repro.msa.aligner", "global_align"),
    ("msa.features", "repro.msa.engine", "build_assembly_features"),
    ("parallel.run_sharded", "repro.msa.jackhmmer", "run_sharded"),
    ("parallel.run_sharded", "repro.msa.nhmmer", "run_sharded"),
    ("parallel.run_sharded", "repro.campaign.runner", "run_sharded"),
    ("hardware.cpu_simulate", "repro.hardware.cpu", "CpuSimulator.simulate"),
    ("hardware.inference_run", "repro.hardware.gpu", "InferenceSimulator.run"),
    ("hardware.compute_seconds", "repro.hardware.gpu",
     "InferenceSimulator.compute_seconds"),
    ("model.inference_costs", "repro.hardware.gpu", "inference_costs"),
    ("core.serve_batch", "repro.core.server", "InferenceServer.serve_batch"),
    ("serving.gateway", "repro.serving.gateway", "ServingGateway.run"),
    ("serving.chain_content_key", "repro.serving.gateway",
     "chain_content_key"),
    ("serving.chain_content_key", "repro.serving.queueing",
     "chain_content_key"),
    ("store.open", "repro.store.feature_store", "FeatureStore.__init__"),
    ("store.put", "repro.store.feature_store", "FeatureStore.put"),
    ("store.get", "repro.store.feature_store", "FeatureStore.get"),
    ("campaign.runner", "repro.campaign.runner", "run_campaign"),
    ("campaign.stage", "repro.campaign.runner", "run_stage_shard"),
    ("campaign.checkpoint", "repro.campaign.state",
     "CampaignState.save_output"),
    ("campaign.adopt", "repro.campaign.state", "CampaignState.adopt"),
    ("campaign.load", "repro.campaign.state", "CampaignState.load_outputs"),
    ("campaign.report", "repro.campaign", "cohort_summary"),
    ("cluster.scheduler", "repro.cluster.scheduler", "ClusterScheduler.run"),
)

#: Every span name, in report order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(s for s, _, _ in SPAN_SITES))

#: Counts and ratios measured where the work happens (see ``Counts``).
COUNT_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("msa.dp_cells", "count", "lower"),
    ("msa.msv_pass_ratio", "ratio", "lower"),
    ("msa.pad_waste_ratio", "ratio", "lower"),
    ("model.inference_costs.distinct_ratio", "ratio", "lower"),
    ("serving.cache_hit_rate", "ratio", "higher"),
    ("store.hit_rate", "ratio", "higher"),
    ("store.bytes_written", "bytes", "lower"),
    ("campaign.stages_executed", "count", "lower"),
    ("cluster.migrations", "count", "lower"),
)

#: The root span the benchmark opens around each top-level call.
ROOT = "bench.call"


def resolve(module: str, attribute: str) -> Tuple[object, str]:
    """``(owner, name)`` for a ``SPAN_SITES`` entry."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, name: str, make: Callable) -> None:
        """Replace ``owner.name`` with ``make(original)``.

        Static methods stay static; everything else is replaced as a
        plain function (a function on a class binds as a method).
        """
        raw = owner.__dict__[name]
        if isinstance(raw, staticmethod):
            setattr(owner, name, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, name, make(raw))
        self._undo.append((owner, name, raw))

    def restore(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)


class Counts:
    """Per-layer counts, fed by the return values of wrapped calls."""

    def __init__(self) -> None:
        self.dp_cells = 0
        self.msv_candidates = 0
        self.msv_survivors = 0
        self.padded_tokens = 0
        self.waste_tokens = 0
        self.cost_args: set = set()
        self.cost_calls = 0
        self.cache_hits = 0
        self.cache_lookups = 0
        self.store_hits = 0
        self.store_gets = 0
        self.bytes_written = 0
        self.stages_executed = 0
        self.migrations = 0

    def search(self, result) -> None:
        stats = result.stats
        self.dp_cells += (
            stats.msv.cells + stats.viterbi.cells + stats.forward.cells
        )
        self.msv_candidates += stats.msv.candidates
        self.msv_survivors += stats.msv.survivors
        waste = getattr(result, "scan_waste", None) or {}
        self.padded_tokens += int(waste.get("padded_tokens", 0))
        self.waste_tokens += int(waste.get("waste_tokens", 0))

    def metrics(self, calls: int) -> Dict[str, float]:
        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        per_call = max(calls, 1)
        return {
            "msa.dp_cells": self.dp_cells / per_call,
            "msa.msv_pass_ratio": ratio(
                self.msv_survivors, self.msv_candidates
            ),
            "msa.pad_waste_ratio": ratio(
                self.waste_tokens, self.padded_tokens
            ),
            "model.inference_costs.distinct_ratio": ratio(
                len(self.cost_args), self.cost_calls
            ),
            "serving.cache_hit_rate": ratio(
                self.cache_hits, self.cache_lookups
            ),
            "store.hit_rate": ratio(self.store_hits, self.store_gets),
            "store.bytes_written": self.bytes_written / per_call,
            "campaign.stages_executed": self.stages_executed / per_call,
            "cluster.migrations": self.migrations / per_call,
        }


def _cost_key(args, kwargs):
    try:
        key = (args, tuple(sorted(kwargs.items())))
        hash(key)
        return key
    except TypeError:
        return repr((args, sorted(kwargs.items())))


class Tracer:
    """In-memory span recorder over the ``SPAN_SITES`` lookup sites."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT, *SPAN_NAMES]
        self._index = {name: i for i, name in enumerate(self.names)}
        #: ``[name index, start, end, parent span index, call id]``.
        self.spans: List[list] = []
        self._stack: List[int] = [-1]
        self.call_id = -1
        self.counts = Counts()
        self._patches = Patches()

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn: Callable, on_return=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_index = self._index[name]

        def traced(*args, **kwargs):
            if stack[-1] < 0 and name_index:
                # Outside a top-level call: untimed benchmark work.
                return fn(*args, **kwargs)
            span = [name_index, 0.0, 0.0, stack[-1], self.call_id]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, fn: Callable, *args, **kwargs):
        """Run one top-level call under a fresh root span."""
        self.call_id += 1
        return self._wrap(ROOT, fn)(*args, **kwargs)

    # -- installation --------------------------------------------------

    def _hooks(self) -> Dict[str, Callable]:
        counts = self.counts

        def search(result, _args, _kwargs):
            counts.search(result)

        def costs(_result, args, kwargs):
            counts.cost_calls += 1
            counts.cost_args.add(_cost_key(args, kwargs))

        def gateway(report, _args, _kwargs):
            counts.cache_hits += report.cache_hits
            counts.cache_lookups += report.cache_hits + report.cache_misses

        def get(payload, _args, _kwargs):
            counts.store_gets += 1
            counts.store_hits += payload is not None

        def runner(report, _args, _kwargs):
            counts.stages_executed += report.stages_executed

        def scheduler(report, _args, _kwargs):
            counts.migrations += report.migrations

        return {
            "msa.jackhmmer": search,
            "msa.nhmmer": search,
            "model.inference_costs": costs,
            "serving.gateway": gateway,
            "store.get": get,
            "campaign.runner": runner,
            "cluster.scheduler": scheduler,
        }

    def install(self) -> None:
        hooks = self._hooks()
        for name, module, attribute in SPAN_SITES:
            owner, attr = resolve(module, attribute)
            self._patches.replace(
                owner, attr,
                lambda fn, name=name: self._wrap(name, fn, hooks.get(name)),
            )
        # Bytes written by the store: every object and index rewrite
        # goes through its atomic-write helper (counted, not spanned).
        from repro.store.feature_store import FeatureStore

        counts, stack = self.counts, self._stack

        def count_writes(fn):
            def write(path, text):
                if stack[-1] >= 0:
                    counts.bytes_written += len(text)
                return fn(path, text)
            return write

        self._patches.replace(FeatureStore, "_atomic_write", count_writes)

    def uninstall(self) -> None:
        self._patches.restore()

    # -- reporting -----------------------------------------------------

    def self_times(self) -> Tuple[List[float], List[int]]:
        """Per name: total self seconds and span count."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _call in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = [0.0] * len(self.names)
        counts = [0] * len(self.names)
        for i, (name, start, end, _parent, _call) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
            counts[name] += 1
        return totals, counts

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric: ``X.s``, ``X.calls``, counts, trace."""
        totals, counts = self.self_times()
        calls = counts[0]
        out: Dict[str, float] = {}
        for i, name in enumerate(self.names[1:], start=1):
            out[f"{name}.s"] = totals[i] / counts[i] if counts[i] else 0.0
            out[f"{name}.calls"] = counts[i] / max(calls, 1)
        out.update(self.counts.metrics(calls))
        wall = sum(
            end - start for name, start, end, _p, _c in self.spans
            if name == 0
        )
        out["trace.call_s"] = wall / max(calls, 1)
        out["trace.coverage"] = 1.0 - totals[0] / wall if wall else 0.0
        return out

    def write(self, path) -> None:
        """Dump the spans: ``{"names": [...], "spans": [[...], ...]}``."""
        with open(path, "w") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle,
                      separators=(",", ":"))


def per_layer_spec() -> List[Tuple[str, str, str]]:
    """Every per-layer metric ``(name, unit, better)``, in the order
    ``BENCHMARK.json`` lists them."""
    spec = []
    for name in SPAN_NAMES:
        spec.append((f"{name}.s", "s", "lower"))
        spec.append((f"{name}.calls", "count", "lower"))
    spec.extend(COUNT_METRICS)
    spec.append(("trace.call_s", "s", "lower"))
    spec.append(("trace.coverage", "ratio", "higher"))
    return spec


class CallCounter:
    """Count-only wrapper used as a fresh-state guard with tracing off."""

    def __init__(self, module: str, attribute: str) -> None:
        self.calls = 0
        self._patches = Patches()
        owner, name = resolve(module, attribute)

        def make(fn):
            def counted(*args, **kwargs):
                self.calls += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        self._patches.replace(owner, name, make)

    def restore(self) -> None:
        self._patches.restore()

