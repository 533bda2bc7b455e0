"""Byte-for-byte pins of the three Prometheus expositions.

Each seeded run below is chosen so that, together, they reach every
section the exporter renders: the serving store, ``bucket_waste`` and
``compile_cache`` blocks; the fault block including the per-kind
``fault_planned_total`` family; the cluster's per-pool labels with a
store and a shared compile cache; and the campaign's labelled stage
and complexity families.  The goldens live in ``tests/golden`` and are
compared with ``==``: any change to a metric name, help text, type,
label or ordering fails here.
"""

import json
import pathlib
from collections import OrderedDict

import pytest

from repro.buckets import fit_buckets
from repro.cluster import ClusterChaosConfig, ClusterScheduler
from repro.cluster.chaos import build_campaign
from repro.faults import FaultPlan
from repro.hardware.platform import get_platform
from repro.observability import (
    campaign_prometheus_metrics,
    cluster_prometheus_metrics,
    prometheus_metrics,
)
from repro.sequences.builtin import builtin_samples
from repro.serving import (
    GatewayConfig,
    PoissonArrivals,
    ServingGateway,
    build_request_stream,
)
from repro.store import FeatureStore

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _stream(n, seed):
    return build_request_stream(
        list(builtin_samples().values()), n=n,
        arrivals=PoissonArrivals(0.02, seed=seed), seed=seed,
    )


def serving_exposition(store_dir):
    """Fault-free run with a store, fitted buckets and a shared
    compile cache: the store, bucket-waste and compile-cache blocks."""
    stream = _stream(24, 7)
    config = GatewayConfig(
        num_gpu_workers=2, num_msa_workers=2,
        buckets=fit_buckets([r.num_tokens for r in stream]),
        compile_cache="shared",
    )
    gateway = ServingGateway(
        get_platform("Server"), config, store=FeatureStore(store_dir)
    )
    return prometheus_metrics(gateway.run(stream))


def serving_chaos_exposition(store_dir):
    """A fault storm over a store-backed gateway: the fault block
    (planned events by kind, recovery counters) next to the store."""
    stream = _stream(30, 13)
    plan = FaultPlan.generate(
        seed=13, horizon_seconds=stream[-1].arrival_seconds * 0.9,
        num_gpu_workers=3, num_msa_workers=3,
        crashes=3, preemptions=2, oom_spikes=2, db_stalls=3,
        db_corruptions=2, slow_nodes=2, store_corruptions=2,
    )
    gateway = ServingGateway(
        get_platform("Server"),
        GatewayConfig(num_gpu_workers=3, num_msa_workers=3),
        fault_plan=plan, store=FeatureStore(store_dir),
    )
    return prometheus_metrics(gateway.run(stream))


def cluster_exposition(store_dir):
    """The default cluster fault mix with a store and a shared compile
    cache: counters, pools, faults, store and compile-cache blocks."""
    jobs, plan, cluster_config = build_campaign(
        ClusterChaosConfig(seed=0, num_jobs=30, compile_cache="shared")
    )
    scheduler = ClusterScheduler(
        cluster_config, store=FeatureStore(store_dir), fault_plan=plan
    )
    return cluster_prometheus_metrics(scheduler.run(jobs))


def campaign_exposition(_store_dir):
    """The golden cohort summary, rendered."""
    summary = json.loads(
        (GOLDEN / "campaign_summary.json").read_text(),
        object_pairs_hook=OrderedDict,
    )
    return campaign_prometheus_metrics(summary)


EXPOSITIONS = {
    "prometheus_serving.txt": serving_exposition,
    "prometheus_serving_chaos.txt": serving_chaos_exposition,
    "prometheus_cluster.txt": cluster_exposition,
    "prometheus_campaign.txt": campaign_exposition,
}


@pytest.mark.parametrize("golden", sorted(EXPOSITIONS))
def test_exposition_matches_golden(golden, tmp_path):
    text = EXPOSITIONS[golden](tmp_path / "store")
    assert text == (GOLDEN / golden).read_text()


def test_goldens_reach_every_section():
    """The pins are only as strong as the sections they cover."""
    text = "".join(
        (GOLDEN / name).read_text() for name in sorted(EXPOSITIONS)
    )
    for needle in (
        "afsys_serving_store_hits ",
        "afsys_serving_bucket_waste_ratio",
        'afsys_serving_bucket_requests{platform="Server",bucket=',
        "afsys_serving_compile_cache_hits ",
        'afsys_serving_fault_planned_total{platform="Server",kind=',
        "afsys_serving_fault_store_corruptions ",
        "afsys_cluster_store_hits ",
        "afsys_cluster_compile_cache_hits ",
        "afsys_cluster_fault_rewarm_seconds ",
        'afsys_cluster_pool_cost_usd{policy="queue-depth",pool=',
        'afsys_campaign_targets_by_complexity{platform="Server",',
    ):
        assert needle in text, needle
