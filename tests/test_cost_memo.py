"""The analytic GPU cost model is computed once per shape.

``inference_costs`` and ``InferenceSimulator.compute_seconds`` remember
their results per argument tuple.  These tests pin what makes that
exact: a remembered result equals a fresh computation for every shape,
a caller cannot change what the next caller gets, errors are never
remembered, and the closed-form local-attention cost equals the
per-window sum it replaced.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import gpu as gpu_module
from repro.hardware.gpu import (
    H100,
    RTX_4080,
    GpuOutOfMemoryError,
    InferenceSimulator,
)
from repro.model import flops
from repro.model.config import ModelConfig
from repro.model.flops import (
    FP_BYTES,
    ScopeCost,
    _mha_flops,
    inference_costs,
    local_attention_cost,
)

#: Every model config the repo ships (the what-if studies and the
#: serving/cluster layers all run the AF3 default).
SHIPPED_CONFIGS = (ModelConfig.af3(), ModelConfig.tiny())


def local_attention_loop(num_atoms: int, cfg: ModelConfig) -> ScopeCost:
    """Reference: the per-window sum ``local_attention_cost`` replaced."""
    ca, heads = cfg.c_atom, cfg.num_heads
    w = cfg.local_attn_window
    k = min(cfg.local_attn_keys, num_atoms)
    a = float(num_atoms)
    num_windows = math.ceil(num_atoms / w)
    flops_ = 8.0 * a * ca
    for widx in range(num_windows):
        wlen = min(w, num_atoms - widx * w)
        flops_ += _mha_flops(1, wlen, k, ca, heads)
    bytes_ = (a * ca * 10.0 + a * k * heads * 2.0) * FP_BYTES
    return ScopeCost(flops=flops_, bytes=bytes_,
                     activation_bytes=a * ca * FP_BYTES * 2.0)


def clear_cost_caches() -> None:
    flops._inference_costs.cache_clear()
    gpu_module._kernel_seconds.cache_clear()


@st.composite
def atom_configs(draw):
    """Configs the functional network could run: heads divide c_atom."""
    heads = draw(st.integers(1, 16))
    return dataclasses.replace(
        ModelConfig.af3(),
        num_heads=heads,
        c_pair=heads * draw(st.integers(1, 16)),
        c_atom=heads * draw(st.integers(1, 32)),
        local_attn_window=draw(st.integers(1, 64)),
        local_attn_keys=draw(st.integers(1, 256)),
    )


class TestClosedFormLocalAttention:
    @given(cfg=st.sampled_from(SHIPPED_CONFIGS),
           num_atoms=st.integers(0, 60_000))
    @settings(max_examples=200, deadline=None)
    def test_equals_window_loop_for_shipped_configs(self, cfg, num_atoms):
        assert (local_attention_cost(num_atoms, cfg)
                == local_attention_loop(num_atoms, cfg))

    @given(cfg=atom_configs(), num_atoms=st.integers(0, 5_000))
    @settings(max_examples=200, deadline=None)
    def test_equals_window_loop_for_any_config(self, cfg, num_atoms):
        assert (local_attention_cost(num_atoms, cfg)
                == local_attention_loop(num_atoms, cfg))

    @pytest.mark.parametrize("cfg", SHIPPED_CONFIGS)
    def test_window_boundaries(self, cfg):
        w = cfg.local_attn_window
        for num_atoms in (0, 1, w - 1, w, w + 1, 2 * w, 2 * w + 1):
            assert (local_attention_cost(num_atoms, cfg)
                    == local_attention_loop(num_atoms, cfg))


class TestInferenceCostsMemo:
    @given(cfg=st.sampled_from(SHIPPED_CONFIGS),
           n=st.integers(1, 3_000),
           msa_depth=st.integers(1, 600),
           steps=st.sampled_from((0, 1, 8, 16)),
           with_profile=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_cached_equals_uncached(self, cfg, n, msa_depth, steps,
                                    with_profile):
        fresh = flops._inference_costs.__wrapped__(
            n, cfg, msa_depth, steps or cfg.num_diffusion_steps,
            with_profile,
        )
        for _ in range(2):
            assert inference_costs(
                n, cfg, msa_depth=msa_depth, num_diffusion_steps=steps,
                with_profile=with_profile,
            ) == fresh

    def test_default_steps_share_one_entry(self):
        cfg = ModelConfig.af3()
        clear_cost_caches()
        inference_costs(300, cfg)
        inference_costs(300, cfg, num_diffusion_steps=cfg.num_diffusion_steps)
        assert flops._inference_costs.cache_info().currsize == 1

    def test_mutating_result_does_not_leak(self):
        cfg = ModelConfig.af3()
        first = inference_costs(400, cfg)
        expected = dict(first)
        first.clear()
        first["pairformer.triangle_mult_outgoing"] = ScopeCost()
        assert inference_costs(400, cfg) == expected

    def test_scope_cost_is_frozen(self):
        cost = inference_costs(64, ModelConfig.tiny())["heads.distogram"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            cost.flops = 0.0

    def test_cache_is_bounded(self):
        assert (flops._inference_costs.cache_info().maxsize
                == flops.COST_CACHE_ENTRIES)


def _simulator(args) -> InferenceSimulator:
    gpu, chunked, block = args["sim"]
    return InferenceSimulator(gpu, 2.0e9, chunked_triangle=chunked,
                              attention_block=block)


def _compute(args):
    return _simulator(args).compute_seconds(**args["call"])


#: One compute_seconds call: the simulator's immutable inputs plus the
#: call's arguments, over both GPUs, batching, fault slowdown, external
#: memory pressure and (on the RTX 4080 past ~1200 tokens) the
#: unified-memory spill path.  Few shapes, so that calls differing in
#: one argument only are common and a key missing it would collide.
compute_calls = st.fixed_dictionaries({
    "sim": st.tuples(
        st.sampled_from((H100, RTX_4080)),
        st.booleans(),
        st.sampled_from((None, 1, 4, 64)),
    ),
    "call": st.fixed_dictionaries({
        "num_tokens": st.sampled_from((16, 200, 857, 1_395)),
        "msa_depth": st.sampled_from((1, 64, 600)),
        "allow_unified_memory": st.just(True),
        "batch_size": st.integers(1, 4),
        "memory_pressure_bytes": st.sampled_from(
            (0.0, 2.0 * 1024 ** 3, 12.0 * 1024 ** 3)),
        "slowdown": st.sampled_from((1.0, 1.5, 3.0)),
    }),
})


class TestComputeSecondsMemo:
    @given(calls=st.lists(compute_calls, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_cached_equals_uncached(self, calls):
        # Warm results come from a cache shared by every earlier call;
        # each must equal a computation from empty caches.
        warm = [_compute(args) for args in calls]
        for args, got in zip(calls, warm):
            clear_cost_caches()
            assert _compute(args) == got
            assert _compute(args) == got

    def test_spill_path_is_cached_separately(self):
        sim = InferenceSimulator(RTX_4080, 2.0e9)
        fits = sim.compute_seconds(857)
        spilled = sim.compute_seconds(
            857, memory_pressure_bytes=12.0 * 1024 ** 3)
        assert spilled == {
            scope: seconds * RTX_4080.unified_memory_slowdown
            for scope, seconds in fits.items()
        }
        assert sim.compute_seconds(857) == fits

    def test_mutating_result_does_not_leak(self):
        sim = InferenceSimulator(H100, 2.0e9)
        first = sim.compute_seconds(500, msa_depth=64)
        expected = dict(first)
        for scope in first:
            first[scope] = 0.0
        assert sim.compute_seconds(500, msa_depth=64) == expected

    def test_oom_raises_on_every_call(self):
        sim = InferenceSimulator(RTX_4080, 2.0e9)
        for _ in range(3):
            with pytest.raises(GpuOutOfMemoryError):
                sim.compute_seconds(1395, allow_unified_memory=False)
        for _ in range(3):
            with pytest.raises(GpuOutOfMemoryError, match="external"):
                sim.compute_seconds(
                    857, allow_unified_memory=False,
                    memory_pressure_bytes=12.0 * 1024 ** 3,
                )
        # The same shape still prices once unified memory is allowed.
        assert sim.compute_seconds(1395)

    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0},
        {"memory_pressure_bytes": -1.0},
        {"slowdown": 0.0},
    ])
    def test_argument_checks_fire_on_every_call(self, kwargs):
        sim = InferenceSimulator(H100, 2.0e9)
        sim.compute_seconds(200)
        for _ in range(2):
            with pytest.raises(ValueError):
                sim.compute_seconds(200, **kwargs)

    def test_cache_is_bounded(self):
        assert (gpu_module._kernel_seconds.cache_info().maxsize
                == gpu_module.COMPUTE_CACHE_ENTRIES)
