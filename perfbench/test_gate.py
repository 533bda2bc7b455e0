"""Self-test of the benchmark gate: it must catch a known regression.

A slowdown is injected from the benchmark side -- ``global_align`` runs
three times per call -- and the gate must flag ``pipeline`` and no other
workload, while the traced run must put the added time in
``msa.global_align.s``.  A rerun with no change must stay inside every
bound.  Slow (about 20 minutes on 2 cores); run it explicitly::

    python3 -m pytest perfbench/test_gate.py -q
"""

from __future__ import annotations

import os

import pytest

from compare import gate, run_once, spec

SEEDS = (1, 2, 3)
SECONDS = spec()["run_seconds"]
INJECT = "repro.msa.aligner:global_align:3"
WORKLOADS = [w["name"] for w in spec()["workloads"]]


def injected_env():
    return dict(os.environ, PERFBENCH_INJECT_REPEAT=INJECT)


@pytest.fixture(scope="module")
def untraced():
    """``(base, rerun, slow)`` runs, interleaved per seed and workload.

    The host's speed drifts over minutes, so the three sets run side by
    side, alternating which goes first, rather than one after another.
    """
    base, rerun, slow = [], [], []
    for seed in SEEDS:
        for workload in WORKLOADS:
            order = [(base, None), (rerun, None), (slow, injected_env())]
            if seed % 2:
                order.reverse()
            for runs, env in order:
                runs.append(run_once(workload, seed, SECONDS, 0, env))
    return base, rerun, slow


def test_runs_are_correct(untraced):
    for runs in untraced:
        for run in runs:
            assert run["result"]["correct"], run["details"]["errors"]


def test_rerun_without_change_stays_within_bounds(untraced):
    base, rerun, _slow = untraced
    assert gate(base, rerun) == {w: [] for w in WORKLOADS}


def test_injected_slowdown_flags_pipeline_only(untraced):
    base, _rerun, slow = untraced
    flagged = gate(base, slow)
    assert "items_per_s" in flagged.pop("pipeline")
    assert flagged == {w: [] for w in WORKLOADS if w != "pipeline"}


def test_trace_puts_added_time_in_global_align():
    seed = SEEDS[0]
    base = run_once("pipeline", seed, SECONDS, 1)["result"]["metrics"]
    slow = run_once("pipeline", seed, SECONDS, 1,
                    injected_env())["result"]["metrics"]

    def total(metrics, span):
        return (metrics[f"{span}.s"]["value"]
                * metrics[f"{span}.calls"]["value"])

    added = (slow["trace.call_s"]["value"] - base["trace.call_s"]["value"])
    align_added = total(slow, "msa.global_align") - total(
        base, "msa.global_align")
    assert slow["msa.global_align.calls"] == base["msa.global_align.calls"]
    assert slow["msa.global_align.s"]["value"] > 2.5 * base[
        "msa.global_align.s"]["value"]
    # The added self time sits in global_align, not in another layer.
    assert align_added > 0.8 * added
