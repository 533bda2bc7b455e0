"""Property and unit tests for the disk feature store stack.

Covers the invariants the store's design promises:

* the size-bounded LRU never holds more than its byte budget;
* a persisted-then-reopened store serves bit-identical payloads;
* key-range sharding is a partition, stable across processes;
* degraded entries are rejected exactly as ``MsaResultCache.insert``
  rejects them (and overwrite-with-different counts an invalidation
  in both tiers);
* corruption is detected, invalidated and never served;
* several processes can open and fill one store at once;
* precompute is checkpointed through the store: a killed-and-restarted
  campaign recomputes zero already-stored chains.
"""

import hashlib
import json
import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import ExecutionPlan
from repro.sequences.alphabets import MoleculeType
from repro.sequences.chain import Assembly, Chain
from repro.sequences.sample import ComplexityClass, InputSample
from repro.serving import (
    CachedMsa,
    MsaResultCache,
    chain_content_key,
    chain_feature_key,
    chain_store_payload,
)
from repro.store import (
    SHARD_SPACE,
    FeatureStore,
    InflightLeases,
    collect_chains,
    partition_keys,
    payload_checksum,
    precompute_msas,
    shard_counts,
    shard_for,
    shard_ranges,
)
from repro.store.feature_store import atomic_write_text

# -- strategies ---------------------------------------------------------

hex_keys = st.text(alphabet="0123456789abcdef", min_size=32, max_size=32)


def _key(n: int) -> str:
    return hashlib.sha256(f"key-{n}".encode()).hexdigest()[:32]


def _payload(n: int, pad: int = 0) -> dict:
    return {"n": n, "pad": "x" * pad}


#: Processes filling one store at once, and puts each makes.
WRITERS = 4
PUTS_PER_WRITER = 30


def _store_writer(root: str, worker: int, barrier) -> None:
    """One of ``WRITERS`` processes opening and filling one store."""
    barrier.wait(timeout=60)
    store = FeatureStore(root)
    for i in range(PUTS_PER_WRITER):
        n = worker * PUTS_PER_WRITER + i
        store.put(_key(n), _payload(n))
        if i % 10 == 9:
            store = FeatureStore(root)


def _chain(i: int, length: int = 24) -> Chain:
    return Chain(
        chain_id=f"C{i}",
        molecule_type=MoleculeType.PROTEIN,
        sequence="ACDEFGHIKLMNPQRSTVWY"[i % 7:][:4] * (length // 4),
    )


def _sample(i: int) -> InputSample:
    return InputSample(
        name=f"s{i}",
        assembly=Assembly(name=f"s{i}", chains=[_chain(i)]),
        complexity=ComplexityClass.LOW,
        target_characteristic="test",
    )


# -- keys ---------------------------------------------------------------

class TestChainFeatureKey:
    def test_matches_solo_assembly_content_key(self):
        chain = _chain(1)
        solo = Assembly(name="solo", chains=[
            Chain("A", chain.molecule_type, chain.sequence, copies=1)
        ])
        assert chain_feature_key(chain) == chain_content_key(solo)

    def test_copy_count_normalised(self):
        chain = _chain(2)
        dimer = Chain("A", chain.molecule_type, chain.sequence, copies=2)
        assert chain_feature_key(chain) == chain_feature_key(dimer)

    def test_store_payload_is_content_only(self):
        chain = _chain(3)
        renamed = Chain("Z", chain.molecule_type, chain.sequence)
        assert chain_store_payload(chain) == chain_store_payload(renamed)


# -- LRU byte budget ----------------------------------------------------

class TestByteBudget:
    @given(
        st.lists(
            st.tuples(st.integers(0, 19), st.integers(0, 120)),
            min_size=1, max_size=60,
        ),
        st.integers(300, 2000),
    )
    @settings(max_examples=40, deadline=None)
    def test_total_never_exceeds_budget(self, tmp_path_factory, ops, budget):
        root = tmp_path_factory.mktemp("budget")
        store = FeatureStore(root, byte_budget=budget)
        for n, pad in ops:
            store.put(_key(n), _payload(n, pad))
            assert store.total_bytes <= budget
            assert store.total_bytes == sum(
                store._index[k] for k in store.keys()
            )

    def test_eviction_is_oldest_first(self, tmp_path):
        store = FeatureStore(tmp_path, byte_budget=10_000)
        for n in range(4):
            store.put(_key(n), _payload(n))
        store.get(_key(0))  # refresh 0: key 1 is now oldest
        big = store.byte_budget - store.total_bytes + 1
        store.put(_key(9), _payload(9, pad=big - 90))
        assert _key(1) not in store
        assert _key(0) in store
        assert store.evictions >= 1

    def test_oversize_entry_rejected_not_destructive(self, tmp_path):
        store = FeatureStore(tmp_path, byte_budget=500)
        store.put(_key(0), _payload(0))
        held = store.keys()
        assert not store.put(_key(1), _payload(1, pad=600))
        assert store.oversize_rejected == 1
        assert store.keys() == held


# -- persistence / reopen ----------------------------------------------

class TestPersistence:
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_reopened_store_bit_identical(self, tmp_path_factory, ns):
        root = tmp_path_factory.mktemp("reopen")
        store = FeatureStore(root)
        live = {}
        for n in ns:
            store.put(_key(n), _payload(n, pad=n))
            live[_key(n)] = store.get(_key(n))
        store.sync()
        reopened = FeatureStore(root)
        assert reopened.keys() == store.keys()
        for key, payload in live.items():
            again = reopened.get(key)
            assert again == payload
            assert (
                json.dumps(again, sort_keys=True)
                == json.dumps(payload, sort_keys=True)
            )

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        store = FeatureStore(tmp_path)
        for n in range(8):
            store.put(_key(n), _payload(n))
        assert not list(tmp_path.rglob("*.tmp"))

    def test_atomic_write_keeps_plain_write_mode(self, tmp_path):
        plain = tmp_path / "plain.json"
        plain.write_text("{}")
        atomic_write_text(tmp_path / "atomic.json", "{}")
        assert (
            (tmp_path / "atomic.json").stat().st_mode
            == plain.stat().st_mode
        )

    def test_failed_atomic_write_keeps_target_and_no_tmp(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_text(target, "old")
        with pytest.raises(TypeError):
            atomic_write_text(target, None)
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_concurrent_processes_share_one_store(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(WRITERS)
        procs = [
            ctx.Process(target=_store_writer,
                        args=(str(tmp_path), worker, barrier))
            for worker in range(WRITERS)
        ]
        for proc in procs:
            proc.start()
        try:
            for proc in procs:
                proc.join(timeout=120)
            assert not any(proc.is_alive() for proc in procs)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.kill()
                    proc.join()
        assert [proc.exitcode for proc in procs] == [0] * WRITERS
        store = FeatureStore(tmp_path)
        written = range(WRITERS * PUTS_PER_WRITER)
        assert sorted(store.keys()) == sorted(_key(n) for n in written)
        for n in written:
            assert store.get(_key(n)) == _payload(n)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_orphaned_object_adopted(self, tmp_path):
        store = FeatureStore(tmp_path)
        store.put(_key(0), _payload(0))
        # Simulate a crash after the object write but before the index
        # write: drop the index, reopen, and the entry must survive.
        (tmp_path / "index.json").unlink()
        reopened = FeatureStore(tmp_path)
        assert reopened.get(_key(0)) == store.get(_key(0))

    def test_recency_sync_is_lazy_but_durable(self, tmp_path):
        store = FeatureStore(tmp_path)
        for n in range(3):
            store.put(_key(n), _payload(n))
        store.get(_key(0))
        store.sync()
        assert FeatureStore(tmp_path).keys() == store.keys()


# -- MsaResultCache parity ---------------------------------------------

class TestCacheParity:
    def test_degraded_rejected_both_tiers(self, tmp_path):
        cache = MsaResultCache()
        store = FeatureStore(tmp_path)
        key = _key(0)
        assert not cache.insert(key, CachedMsa(10.0, 64, degraded=True))
        assert not store.put(key, _payload(0), degraded=True)
        assert not store.put(key, {"n": 0, "degraded": True})
        assert key not in cache
        assert key not in store
        assert cache.degraded_rejected == 1
        assert store.degraded_rejected == 2

    def test_overwrite_with_different_counts_invalidation(self, tmp_path):
        cache = MsaResultCache()
        store = FeatureStore(tmp_path)
        key = _key(1)
        cache.insert(key, CachedMsa(10.0, 64))
        store.put(key, _payload(1))
        # Identical re-insert: a refresh, not an invalidation.
        cache.insert(key, CachedMsa(10.0, 64))
        store.put(key, _payload(1))
        assert cache.invalidations == 0
        assert store.invalidations == 0
        # Different content under a live key retires served results.
        cache.insert(key, CachedMsa(11.0, 64))
        store.put(key, _payload(2))
        assert cache.invalidations == 1
        assert store.invalidations == 1

    def test_explicit_invalidate(self, tmp_path):
        store = FeatureStore(tmp_path)
        store.put(_key(2), _payload(2))
        assert store.invalidate(_key(2))
        assert not store.invalidate(_key(2))
        assert store.invalidations == 1
        assert store.get(_key(2)) is None


# -- corruption detection ----------------------------------------------

class TestCorruption:
    def test_corrupt_entry_never_served(self, tmp_path):
        store = FeatureStore(tmp_path)
        store.put(_key(0), _payload(0))
        assert store.corrupt(_key(0))
        assert store.get(_key(0)) is None
        assert store.corruption_detected == 1
        assert _key(0) not in store          # invalidated, not retained
        assert not store._object_path(_key(0)).exists()

    def test_corruption_survives_reopen(self, tmp_path):
        store = FeatureStore(tmp_path)
        store.put(_key(1), _payload(1))
        store.corrupt(_key(1))
        reopened = FeatureStore(tmp_path)
        assert reopened.get(_key(1)) is None
        assert reopened.corruption_detected == 1

    def test_checksum_definition(self):
        payload = {"b": 2, "a": 1}
        expected = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            .encode()
        ).hexdigest()
        assert payload_checksum(payload) == expected

    def test_bad_key_rejected(self, tmp_path):
        store = FeatureStore(tmp_path)
        with pytest.raises(ValueError):
            store.put("not-a-key", {})


# -- sharding -----------------------------------------------------------

class TestSharding:
    @given(st.lists(hex_keys, max_size=40), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, keys, num_shards):
        shards = partition_keys(keys, num_shards)
        assert len(shards) == num_shards
        # Every key lands in exactly one shard...
        flat = [k for shard in shards for k in shard]
        assert sorted(flat) == sorted(keys)
        # ... the one shard_for names.
        for i, shard in enumerate(shards):
            for key in shard:
                assert shard_for(key, num_shards) == i

    @given(hex_keys, st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_assignment_matches_ranges(self, key, num_shards):
        shard = shard_for(key, num_shards)
        lo, hi = shard_ranges(num_shards)[shard]
        assert lo <= int(key[:8], 16) < hi

    def test_ranges_tile_the_space(self):
        for num_shards in (1, 2, 3, 7, 16):
            ranges = shard_ranges(num_shards)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == SHARD_SPACE
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo

    def test_stable_across_processes(self):
        # shard_for must be a pure function of (key, num_shards) — no
        # per-process salt (PYTHONHASHSEED) may leak in, or two workers
        # would disagree about ownership.  Run it in a subprocess with
        # a different hash seed and compare.
        import os
        import subprocess
        import sys

        keys = [_key(n) for n in range(20)]
        code = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.store import shard_for\n"
            "print([shard_for(k, 8) for k in sys.argv[2].split(',')])"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        out = subprocess.run(
            [sys.executable, "-c", code, src, ",".join(keys)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": "12345"},
            check=True,
        )
        assert json.loads(out.stdout) == [shard_for(k, 8) for k in keys]

    def test_shard_counts(self):
        keys = [_key(n) for n in range(100)]
        counts = shard_counts(keys, 4)
        assert sum(counts.values()) == 100
        assert sorted(counts) == [0, 1, 2, 3]


# -- in-flight leases ---------------------------------------------------

class TestInflightLeases:
    def test_acquire_release_roundtrip(self):
        leases = InflightLeases()
        got = leases.acquire(["a", "b"], owner="r1")
        assert got == ["a", "b"]
        assert leases.owner_of("a") == "r1"
        assert sorted(leases.chains_of("r1")) == ["a", "b"]
        assert leases.release("r1") == ["a", "b"]
        assert leases.owner_of("a") is None
        assert len(leases) == 0

    def test_contention_skips_leased_chains(self):
        leases = InflightLeases()
        leases.acquire(["a", "b"], owner="r1")
        got = leases.acquire(["b", "c"], owner="r2")
        assert got == ["c"]
        assert leases.owner_of("b") == "r1"
        assert leases.contended == 1
        # Releasing r1 frees only r1's chains.
        assert leases.release("r1") == ["a", "b"]
        assert leases.owner_of("c") == "r2"

    def test_reacquire_by_same_owner_not_contended(self):
        leases = InflightLeases()
        leases.acquire(["a"], owner="r1")
        assert leases.acquire(["a"], owner="r1") == []
        assert leases.contended == 0


# -- precompute ---------------------------------------------------------

class TestPrecompute:
    def test_collect_chains_dedups_by_content(self):
        samples = [_sample(0), _sample(0), _sample(1)]
        chains = collect_chains(samples)
        assert len(chains) == 2
        for key, chain in chains.items():
            assert key == chain_feature_key(chain)

    def test_fill_then_restart_recomputes_zero(self, tmp_path):
        samples = [_sample(i) for i in range(6)]
        store = FeatureStore(tmp_path)
        first = precompute_msas(samples, store)
        assert first.computed == first.distinct_chains > 0
        assert first.already_stored == 0
        # "Kill and restart": a fresh process reopens the same root and
        # reruns the same campaign — nothing is recomputed.
        reopened = FeatureStore(tmp_path)
        second = precompute_msas(samples, reopened)
        assert second.already_stored == first.distinct_chains
        assert second.computed == 0
        assert second.stored == 0

    def test_partial_fill_resumes(self, tmp_path):
        samples = [_sample(i) for i in range(6)]
        store = FeatureStore(tmp_path)
        precompute_msas(samples[:3], store)
        done = set(store.keys())
        report = precompute_msas(samples, FeatureStore(tmp_path))
        assert report.already_stored == len(done)
        assert report.computed == report.distinct_chains - len(done)

    def test_sharded_equals_serial(self, tmp_path):
        samples = [_sample(i) for i in range(8)]
        serial_store = FeatureStore(tmp_path / "serial")
        sharded_store = FeatureStore(tmp_path / "sharded")
        precompute_msas(samples, serial_store)
        report = precompute_msas(
            samples, sharded_store,
            plan=ExecutionPlan(workers=3, backend="thread"),
        )
        assert report.num_shards == 3
        assert sum(report.shard_sizes) == report.computed
        assert sorted(serial_store.keys()) == sorted(sharded_store.keys())
        for key in serial_store.keys():
            assert serial_store.get(key) == sharded_store.get(key)

    def test_gateway_payload_equals_precompute_payload(self, tmp_path):
        # A store filled offline must be byte-compatible with what a
        # gateway leader publishes: both write chain_store_payload.
        store = FeatureStore(tmp_path)
        precompute_msas([_sample(4)], store)
        chain = _sample(4).assembly.msa_chains()[0]
        assert (
            store.get(chain_feature_key(chain))
            == chain_store_payload(chain)
        )
