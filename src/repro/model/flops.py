"""Analytic per-layer cost formulas for the AF3 architecture.

The numpy network counts its operations via :class:`OpCounter`; this
module predicts those counts *analytically* for any configuration and
token count.  Tests validate the formulas exactly (FLOPs) against the
tiny-config functional network; the inference timing model then
evaluates them at the published AF3 dimensions and paper-scale inputs,
where a functional run would be impractical.

Scope names match the OpCounter scopes one-for-one, so the paper's
Figure 9 / Table VI layer breakdowns read straight out of this table.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict

from .config import ModelConfig
from .embedding import NUM_TOKEN_CLASSES, RELPOS_CLIP
from .heads import NUM_DISTOGRAM_BINS, NUM_PAE_BINS, NUM_PLDDT_BINS

FP_BYTES = 4.0  # float32 activations

#: Distinct shapes :func:`inference_costs` remembers (a few KiB each).
#: A serving run prices about 5 shapes and a 1000-job cluster run about
#: 70; a longer sweep only pays the misses, each O(1).
COST_CACHE_ENTRIES = 256


@dataclasses.dataclass(frozen=True)
class ScopeCost:
    """Analytic cost of one scope (possibly over many invocations)."""

    flops: float = 0.0
    bytes: float = 0.0           # read + write traffic
    activation_bytes: float = 0.0  # peak live activations

    def __add__(self, other: "ScopeCost") -> "ScopeCost":
        return ScopeCost(
            flops=self.flops + other.flops,
            bytes=self.bytes + other.bytes,
            activation_bytes=max(self.activation_bytes, other.activation_bytes),
        )

    def __mul__(self, k: float) -> "ScopeCost":
        return ScopeCost(self.flops * k, self.bytes * k, self.activation_bytes)

    __rmul__ = __mul__


def _linear_flops(batch: float, c_in: float, c_out: float) -> float:
    return 2.0 * batch * c_in * c_out


def _mha_flops(batch: float, lq: float, lk: float, channels: float,
               heads: float) -> float:
    """MultiHeadAttention as implemented in attention.py.

    q on (batch, lq), k/v on (batch, lk); logits + softmax + context;
    gate + out projections on the query side.
    """
    qkv = (
        _linear_flops(batch * lq, channels, channels)
        + 2 * _linear_flops(batch * lk, channels, channels)
    )
    head_dim = channels / heads
    logits = 2.0 * batch * heads * lq * lk * head_dim
    soft = 5.0 * batch * heads * lq * lk
    context = 2.0 * batch * heads * lq * head_dim * lk
    gate = _linear_flops(batch * lq, channels, channels) + 4.0 * batch * lq * channels
    out = _linear_flops(batch * lq, channels, channels)
    return qkv + logits + soft + context + gate + out


def triangle_multiplication_cost(n: int, cfg: ModelConfig) -> ScopeCost:
    """One TriangleMultiplication call (either variant)."""
    c, h = cfg.c_pair, cfg.c_tri
    n2 = float(n) * n
    flops = (
        8.0 * n2 * c                       # input layer norm
        + 4.0 * _linear_flops(n2, c, h)    # proj_a/b + gate_a/b
        + 2.0 * 4.0 * n2 * h               # two sigmoids
        + 2.0 * n2 * n * h                 # triangle einsum
        + 8.0 * n2 * h                     # output layer norm
        + _linear_flops(n2, c, c)          # gate_out
        + 4.0 * n2 * c                     # sigmoid(gate_out)
        + _linear_flops(n2, h, c)          # proj_out
    )
    act = n2 * max(c, h) * FP_BYTES * 3.0
    bytes_ = (n2 * c * 6.0 + n2 * h * 6.0 + n2 * h * 2.0) * FP_BYTES
    return ScopeCost(flops=flops, bytes=bytes_, activation_bytes=act)


def triangle_attention_cost(n: int, cfg: ModelConfig) -> ScopeCost:
    """One TriangleAttention call (either variant)."""
    c, heads = cfg.c_pair, cfg.num_heads
    n2 = float(n) * n
    flops = (
        8.0 * n2 * c                          # layer norm
        + _linear_flops(n2, c, heads)         # bias projection
        + _mha_flops(n, n, n, c, heads)       # attention over rows
    )
    # Fused/chunked attention keeps most of the (H, N, N, N) logit
    # tensor in registers/SRAM; only a fraction spills to HBM.
    logit_bytes = 0.6 * heads * float(n) ** 3
    act = heads * float(n) ** 3 * FP_BYTES / 8.0 + n2 * c * FP_BYTES * 2.0
    bytes_ = logit_bytes + 8.0 * n2 * c * FP_BYTES
    return ScopeCost(flops=flops, bytes=bytes_, activation_bytes=act)


def transition_cost(batch: float, channels: int, factor: int = 4) -> ScopeCost:
    flops = (
        8.0 * batch * channels
        + _linear_flops(batch, channels, channels * factor)
        + factor * channels * batch          # relu
        + _linear_flops(batch, channels * factor, channels)
    )
    bytes_ = batch * channels * (2.0 + 2.0 * factor) * FP_BYTES * 2.0
    return ScopeCost(flops=flops, bytes=bytes_,
                     activation_bytes=batch * channels * factor * FP_BYTES)


def single_attention_cost(n: int, cfg: ModelConfig) -> ScopeCost:
    cs, cp, heads = cfg.c_single, cfg.c_pair, cfg.num_heads
    n2 = float(n) * n
    flops = (
        8.0 * n * cs
        + _linear_flops(n2, cp, heads)        # pair bias
        + _mha_flops(1, n, n, cs, heads)
    )
    bytes_ = (n2 * heads * 3.0 + n * cs * 10.0 + n2 * cp) * FP_BYTES
    return ScopeCost(flops=flops, bytes=bytes_,
                     activation_bytes=n2 * heads * FP_BYTES)


def pairformer_block_costs(n: int, cfg: ModelConfig) -> Dict[str, ScopeCost]:
    """Costs of one Pairformer block, keyed by OpCounter scope."""
    n2 = float(n) * n
    return {
        "pairformer.triangle_mult_outgoing": triangle_multiplication_cost(n, cfg),
        "pairformer.triangle_mult_incoming": triangle_multiplication_cost(n, cfg),
        "pairformer.triangle_attention_starting": triangle_attention_cost(n, cfg),
        "pairformer.triangle_attention_ending": triangle_attention_cost(n, cfg),
        "pairformer.pair_transition": transition_cost(n2, cfg.c_pair),
        "pairformer.single_attention": single_attention_cost(n, cfg),
        "pairformer.single_transition": transition_cost(float(n), cfg.c_single),
    }


def local_attention_cost(num_atoms: int, cfg: ModelConfig) -> ScopeCost:
    """One LocalAttention call over the atom stream.

    q/gate/out run on each window's atoms and k/v on its key span: one
    attention per full window plus one for the shorter tail window.
    With the heads dividing ``c_atom`` (as the head split requires),
    every term is an integer-valued float far below 2**53, so the
    product equals the per-window sum exactly.
    """
    ca, heads = cfg.c_atom, cfg.num_heads
    w = cfg.local_attn_window
    k = min(cfg.local_attn_keys, num_atoms)
    a = float(num_atoms)
    full_windows, tail = divmod(num_atoms, w)
    flops = 8.0 * a * ca  # layer norm
    flops += full_windows * _mha_flops(1, w, k, ca, heads)
    if tail:
        flops += _mha_flops(1, tail, k, ca, heads)
    bytes_ = (a * ca * 10.0 + a * k * heads * 2.0) * FP_BYTES
    return ScopeCost(flops=flops, bytes=bytes_,
                     activation_bytes=a * ca * FP_BYTES * 2.0)


def diffusion_step_costs(n: int, cfg: ModelConfig) -> Dict[str, ScopeCost]:
    """Costs of ONE denoiser evaluation, keyed by scope."""
    num_atoms = cfg.num_atoms(n)
    a, ca, ct, cp, heads = (
        float(num_atoms), cfg.c_atom, cfg.c_single, cfg.c_pair, cfg.num_heads,
    )
    nf = float(n)
    costs: Dict[str, ScopeCost] = {}
    costs["diffusion.atom_embedding"] = ScopeCost(
        flops=_linear_flops(a, 3, ca) + _linear_flops(a, 1, ca),
        bytes=a * ca * 4.0 * FP_BYTES,
        activation_bytes=a * ca * FP_BYTES,
    )
    costs["diffusion.local_attention_encoder"] = (
        cfg.num_atom_encoder_blocks * local_attention_cost(num_atoms, cfg)
    )
    costs["diffusion.atom_aggregation"] = ScopeCost(
        flops=a * ca + _linear_flops(nf, ca, ct) + _linear_flops(nf, ct, ct),
        bytes=(a * ca + nf * ct * 4.0) * FP_BYTES,
        activation_bytes=nf * ct * FP_BYTES,
    )
    global_attn = ScopeCost(
        flops=8.0 * nf * ct + _linear_flops(nf * nf, cp, heads)
        + _mha_flops(1, n, n, ct, heads),
        # Global attention's poor locality: pair bias (N^2 cp) plus
        # logits/weights (H N^2) stream through every block.
        bytes=(nf * nf * (cp + 3.0 * heads) + nf * ct * 10.0) * FP_BYTES,
        activation_bytes=nf * nf * heads * FP_BYTES,
    )
    token_transition = ScopeCost(
        flops=_linear_flops(nf, ct, 2 * ct) + 5.0 * nf * 2 * ct
        + _linear_flops(nf, 2 * ct, ct),
        bytes=nf * ct * 8.0 * FP_BYTES,
        activation_bytes=nf * ct * 2 * FP_BYTES,
    )
    blocks = cfg.num_diffusion_transformer_blocks
    costs["diffusion.global_attention"] = blocks * global_attn
    costs["diffusion.token_transition"] = blocks * token_transition
    costs["diffusion.token_broadcast"] = ScopeCost(
        flops=_linear_flops(nf, ct, ca),
        bytes=(nf * ct + a * ca) * FP_BYTES,
        activation_bytes=a * ca * FP_BYTES,
    )
    costs["diffusion.local_attention_decoder"] = (
        cfg.num_atom_decoder_blocks * local_attention_cost(num_atoms, cfg)
    )
    costs["diffusion.coord_output"] = ScopeCost(
        flops=a * ca + _linear_flops(a, ca, 3),
        bytes=a * ca * 2.0 * FP_BYTES,
        activation_bytes=a * 3 * FP_BYTES,
    )
    return costs


def embedder_costs(n: int, cfg: ModelConfig, with_profile: bool = True
                   ) -> Dict[str, ScopeCost]:
    nf = float(n)
    num_bins = 2 * RELPOS_CLIP + 2
    single = ScopeCost(
        flops=_linear_flops(nf, NUM_TOKEN_CLASSES, cfg.c_single)
        * (2.0 if with_profile else 1.0),
        bytes=nf * cfg.c_single * 4.0 * FP_BYTES,
        activation_bytes=nf * cfg.c_single * FP_BYTES,
    )
    pair = ScopeCost(
        flops=_linear_flops(nf * nf, num_bins, cfg.c_pair)
        + 2.0 * _linear_flops(nf, cfg.c_single, cfg.c_pair),
        bytes=nf * nf * (num_bins + cfg.c_pair * 2.0) * FP_BYTES,
        activation_bytes=nf * nf * cfg.c_pair * FP_BYTES,
    )
    return {"embedder.single": single, "embedder.pair": pair}


def msa_module_costs(n: int, msa_depth: int, cfg: ModelConfig
                     ) -> Dict[str, ScopeCost]:
    m = float(min(msa_depth, cfg.msa_depth_cap))
    nf, cm, cp = float(n), cfg.c_msa, cfg.c_pair
    h = 8.0  # OuterProductMean hidden width
    row_embed = ScopeCost(
        flops=_linear_flops(m * nf, NUM_TOKEN_CLASSES, cm),
        bytes=m * nf * cm * 2.0 * FP_BYTES,
        activation_bytes=m * nf * cm * FP_BYTES,
    )
    opm = ScopeCost(
        flops=8.0 * m * nf * cm + 2.0 * _linear_flops(m * nf, cm, h)
        + 2.0 * m * nf * nf * h * h + _linear_flops(nf * nf, h * h, cp),
        bytes=(m * nf * cm * 4.0 + nf * nf * h * h * 2.0) * FP_BYTES,
        activation_bytes=nf * nf * h * h * FP_BYTES,
    )
    row_update = ScopeCost(
        flops=8.0 * m * nf * cm + 5.0 * nf * nf
        + 2.0 * m * nf * nf * cm + _linear_flops(nf, cp, cm)
        + _linear_flops(m * nf, cm, cm) + m * nf * cm,
        bytes=(m * nf * cm * 6.0 + nf * nf * 2.0) * FP_BYTES,
        activation_bytes=m * nf * cm * FP_BYTES,
    )
    blocks = float(cfg.num_msa_blocks)
    return {
        "msa_module.row_embed": row_embed,
        "msa_module.outer_product_mean": blocks * opm,
        "msa_module.pair_weighted_row_update": blocks * row_update,
    }


def head_costs(n: int, cfg: ModelConfig) -> Dict[str, ScopeCost]:
    nf = float(n)
    n2 = nf * nf
    distogram = ScopeCost(
        flops=_linear_flops(n2, cfg.c_pair, NUM_DISTOGRAM_BINS)
        + 5.0 * n2 * NUM_DISTOGRAM_BINS,
        bytes=n2 * NUM_DISTOGRAM_BINS * 3.0 * FP_BYTES,
        activation_bytes=n2 * NUM_DISTOGRAM_BINS * FP_BYTES,
    )
    confidence = ScopeCost(
        flops=_linear_flops(nf, cfg.c_single, cfg.c_single)
        + nf * cfg.c_single
        + _linear_flops(nf, cfg.c_single, NUM_PLDDT_BINS)
        + 5.0 * nf * NUM_PLDDT_BINS
        + _linear_flops(n2, cfg.c_pair, NUM_PAE_BINS)
        + 5.0 * n2 * NUM_PAE_BINS,
        bytes=n2 * NUM_PAE_BINS * 3.0 * FP_BYTES,
        activation_bytes=n2 * NUM_PAE_BINS * FP_BYTES,
    )
    return {"heads.distogram": distogram, "heads.confidence": confidence}


def inference_costs(
    n: int,
    cfg: ModelConfig,
    msa_depth: int = 1,
    num_diffusion_steps: int = 0,
    with_profile: bool = True,
) -> Dict[str, ScopeCost]:
    """Full forward-pass cost table, keyed by OpCounter scope.

    ``num_diffusion_steps=0`` uses the config default.  Pairformer
    scopes aggregate all blocks; diffusion scopes aggregate all
    denoising iterations.

    The table is a pure function of its arguments, so it is computed
    once per shape and remembered; each call gets its own dict (the
    shared :class:`ScopeCost` values are frozen).
    """
    steps = num_diffusion_steps or cfg.num_diffusion_steps
    return dict(_inference_costs(n, cfg, msa_depth, steps, with_profile))


@functools.lru_cache(maxsize=COST_CACHE_ENTRIES, typed=True)
def _inference_costs(
    n: int, cfg: ModelConfig, msa_depth: int, steps: int, with_profile: bool,
) -> Dict[str, ScopeCost]:
    costs: Dict[str, ScopeCost] = {}
    costs.update(embedder_costs(n, cfg, with_profile))
    if msa_depth > 1:
        costs.update(msa_module_costs(n, msa_depth, cfg))
    for name, cost in pairformer_block_costs(n, cfg).items():
        costs[name] = cfg.num_pairformer_blocks * cost
    for name, cost in diffusion_step_costs(n, cfg).items():
        costs[name] = steps * cost
    costs.update(head_costs(n, cfg))
    return costs


def total_flops(costs: Dict[str, ScopeCost]) -> float:
    return sum(c.flops for c in costs.values())


def total_bytes(costs: Dict[str, ScopeCost]) -> float:
    return sum(c.bytes for c in costs.values())


def peak_activation_bytes(costs: Dict[str, ScopeCost]) -> float:
    return max((c.activation_bytes for c in costs.values()), default=0.0)
