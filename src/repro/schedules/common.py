"""Shared schedule utilities (the template library of paper §5.3).

"Certain schedules can be shared among models with similar architectures" —
these helpers are that shared layer: attention-core replacement, fused-QKV
row interleaving for tensor parallelism, checkpoint-ratio selection, and
the :class:`Layout` driver every family recipe runs through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.framework import functional as F
from repro.kernels import FlashAttention
from repro.slapo.pattern import call_module


def attention_core(q, k, v, scale):
    """Vanilla attention with a dropout module on the probabilities."""
    attn = q @ k.transpose(-2, -1)
    attn = attn / scale
    attn = call_module(r".*dropout.*", F.softmax(attn, dim=-1))
    return attn @ v


def attention_core_nodrop(q, k, v, scale):
    attn = q @ k.transpose(-2, -1)
    attn = attn / scale
    return F.softmax(attn, dim=-1) @ v


def causal_attention_core(q, k, v, scale):
    attn = q @ k.transpose(-2, -1)
    attn = attn / scale
    attn = F.apply_causal_mask(attn)
    attn = call_module(r".*dropout.*", F.softmax(attn, dim=-1))
    return attn @ v


def causal_attention_core_nodrop(q, k, v, scale):
    attn = q @ k.transpose(-2, -1)
    attn = attn / scale
    attn = F.apply_causal_mask(attn)
    return F.softmax(attn, dim=-1) @ v


def t5_attention_core(q, k, v):
    """T5 attention: unscaled, optional causal mask handled separately."""
    return F.softmax(q @ k.transpose(-2, -1), dim=-1) @ v


def bias_gelu(x, bias):
    return F.gelu(x + bias)


def bias_relu(x, bias):
    return F.relu(x + bias)


def swiglu(x):
    """LLaMA's gated MLP entry: silu(gate(x)) * up(x) reads x once."""
    return F.silu(call_module(r".*gate_proj.*", x)) \
        * call_module(r".*up_proj.*", x)


def dropout_residual_ln(x, residual):
    """dropout → residual add → LayerNorm epilogue (post-LN models)."""
    return call_module(r".*LayerNorm.*",
                       call_module(r".*dropout.*", x) + residual)


def dropout_add(x, residual):
    """dropout → residual add (pre-LN models like GPT/OPT)."""
    return call_module(r".*dropout.*", x) + residual


def fuse_matches(sch, pattern, name: str,
                 compiler: str = "TorchInductor") -> int:
    """Fuse every occurrence of ``pattern``; returns the match count."""
    matches = sch.find(pattern)
    if matches:
        sch.fuse(matches, compiler=compiler, name=name)
    return len(matches)


ATTENTION_PATTERNS = (
    attention_core,
    causal_attention_core,
    attention_core_nodrop,
    causal_attention_core_nodrop,
)


def replace_attention_core(attn_sch, is_causal: bool = False,
                           name: str = "FA") -> bool:
    """Trace an attention module and swap its core for flash attention.

    Returns True when a core was found and replaced.  Works on vanilla and
    causal variants, with or without attention-probability dropout.
    """
    attn_sch.trace(flatten=True)
    for pattern in ATTENTION_PATTERNS:
        matches = attn_sch.find(pattern)
        if matches:
            attn_sch.replace(FlashAttention(is_causal=is_causal), matches,
                             name=name)
            return True
    matches = attn_sch.find(t5_attention_core)
    if matches:
        attn_sch.replace(FlashAttention(is_causal=is_causal, scale=1.0),
                         matches, name=name)
        return True
    return False


def interleave_qkv_rows(linear, num_shards: int) -> None:
    """Permute a fused-QKV linear's rows so contiguous row sharding keeps
    [q; k; v] grouped per shard (Megatron's fused-QKV storage layout)."""
    if num_shards == 1 or linear.weight.is_meta:
        return
    out = linear.out_features
    h = out // 3
    block = h // num_shards
    order = np.concatenate([
        np.concatenate([
            np.arange(part * h + r * block, part * h + (r + 1) * block)
            for part in range(3)
        ])
        for r in range(num_shards)
    ])
    linear.weight.data[...] = linear.weight.data[order]
    # Record the permutation so the verifier can map a shard's gradient
    # rows back to the vanilla model's row order.
    linear.weight._slapo_row_perm = order
    if linear._parameters.get("bias") is not None:
        linear.bias.data[...] = linear.bias.data[order]
        linear.bias._slapo_row_perm = order


def shard_pair(block, column: str, row: str,
               column_params=("weight", "bias"),
               row_params=("weight",)) -> None:
    """Megatron's column→row parallel pair with both syncs.

    ``column`` projects into the parallel region (output-sharded, gradient
    all-reduce on backward); ``row`` projects out of it (input-sharded,
    activation all-reduce on forward).
    """
    block[column].shard(list(column_params), axis=0)
    block[column].sync(mode="bwd_post")
    block[row].shard(list(row_params), axis=1)
    block[row].sync(mode="fwd_post")


def shard_vocab(sch, embed_path: str, head_path: str,
                head_params=("weight",)) -> None:
    """Vocab-parallel embedding + output head (paper Fig. 9, step 4)."""
    import repro.slapo as slapo

    sch[embed_path].shard("weight", axis=0)
    sch[embed_path].sync(mode="fwd_pre", sync_op_or_fn=slapo.op.embed_fwd_hook)
    sch[embed_path].sync(mode="fwd_post", sync_op_or_fn=slapo.op.embed_bwd_hook)
    sch[head_path].shard(list(head_params), axis=0)
    sch[head_path].sync(mode="fwd_post", sync_op_or_fn="all_gather")
    # The head is a column-parallel linear: each rank's backward yields only
    # its vocab shard's contribution to the input gradient, so the hidden
    # states entering the head need the Megatron-style all-reduce or every
    # upstream parameter trains on a 1/tp-scaled gradient.
    sch[head_path].sync(mode="bwd_post")


def set_local_heads(attn_sch, config, tp: int,
                    attr: str = "num_heads") -> None:
    """After sharding q/k/v, the module computes with its local heads."""
    setattr(attn_sch.mod, attr, getattr(config, "num_heads") // tp)


def checkpoint_layers(sch, layer_paths: list[str], ratio: float) -> int:
    """Checkpoint the first ``ratio`` fraction of the given layers.

    Every path is also marked as a checkpoint *unit* — the layer-region
    marker the simulator records as an op span — so the planner can
    re-price any other ratio analytically from a single ratio-0 trace
    (:func:`repro.sim.compiled.reprice_checkpoint_ratio`).
    """
    count = int(round(ratio * len(layer_paths)))
    for i, path in enumerate(layer_paths):
        layer = sch[path]
        layer.mod._slapo_meta["ckpt_unit"] = True
        if i < count:
            layer.checkpoint()
    return count


@dataclass(frozen=True)
class Layout:
    """One model family's parallel layout, written once.

    The family's recipe (:func:`apply_layout`), the fuzzer's macros
    (:data:`repro.slapo.verify.spec.MACROS`) and the baselines all read
    it.  A step the family does not have is ``None``.  Layer steps take
    ``(layer, config, tp)``; ``vocab`` takes ``(sch, prefix)``.
    """

    #: module path the layer paths and the embedding hang off
    prefix: str
    #: ``(config, prefix)`` → the layer schedule paths, in forward order
    layer_paths: Callable
    #: vocab-parallel embedding and output head, on the root schedule
    vocab: Callable | None = None
    attention: Callable | None = None
    mlp: Callable | None = None
    #: WideResNet's channel-parallel bottleneck convolutions
    conv_pair: Callable | None = None
    #: flash-attention core replacement
    flash: Callable | None = None
    #: MoE experts partitioned over the mesh's ep axis
    experts: Callable | None = None
    #: epilogue fusion through the stand-in compilers
    fusion: Callable | None = None

    def layers(self, config) -> list[str]:
        return self.layer_paths(config, self.prefix)


#: the per-layer steps in the order :func:`apply_layout` applies them
LAYER_STEPS = ("attention", "mlp", "conv_pair", "flash", "experts", "fusion")


def apply_layout(sch, layout: Layout, config, ckpt_ratio: float = 0.0, *,
                 use_flash: bool = True, use_fusion: bool = True,
                 use_tp: bool = True, shard_embedding: bool = True):
    """Apply a family's layout: the vocab shards, then each layer's
    steps in :data:`LAYER_STEPS` order, then checkpointing.

    Tensor-parallel steps run when ``use_tp`` and the mesh's tp > 1;
    ``experts`` when the mesh's ep > 1.
    """
    tp = sch.mesh.tp_group.size if use_tp else 1
    enabled = {"attention": tp > 1, "mlp": tp > 1, "conv_pair": tp > 1,
               "flash": use_flash, "experts": sch.mesh.ep_group.size > 1,
               "fusion": use_fusion}
    if layout.vocab and shard_embedding and tp > 1:
        layout.vocab(sch, layout.prefix)
    layers = layout.layers(config)
    for path in layers:
        layer = sch[path]
        for name in LAYER_STEPS:
            step = getattr(layout, name)
            if step and enabled[name]:
                step(layer, config, tp)
    checkpoint_layers(sch, layers, ckpt_ratio)
    return sch
