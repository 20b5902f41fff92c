"""LLaMA layout (paper Table 4: 11 LoC).

The paper highlights LLaMA as the "emerging model" Slapo supports without
Megatron-style reimplementation (§5.2): sharding SwiGLU needs gate and up
projections split column-wise and the down projection row-wise.
"""

from __future__ import annotations

from dataclasses import replace

from . import common


# <schedule>
def vocab(sch, prefix):
    common.shard_vocab(sch, f"{prefix}.embed_tokens", "lm_head")


def attention(layer, config, tp):
    for proj in ("q_proj", "k_proj", "v_proj"):
        layer[f"self_attn.{proj}"].shard("weight", axis=0)
    layer["self_attn"].sync(mode="bwd_post")
    layer["self_attn.o_proj"].shard("weight", axis=1)
    layer["self_attn.o_proj"].sync(mode="fwd_post")
    common.set_local_heads(layer["self_attn"], config, tp)


def mlp(layer, config, tp):
    layer["mlp.gate_proj"].shard("weight", axis=0)
    layer["mlp.up_proj"].shard("weight", axis=0)
    layer["mlp"].sync(mode="bwd_post")
    layer["mlp.down_proj"].shard("weight", axis=1)
    layer["mlp.down_proj"].sync(mode="fwd_post")


def flash(layer, config, tp):
    common.replace_attention_core(layer["self_attn"], is_causal=True)


def fusion(layer, config, tp):
    layer["mlp"].trace(flatten=True)
    common.fuse_matches(layer["mlp"], common.swiglu, "SwiGLU")
# </schedule>


LAYOUT = common.Layout(
    prefix="model",
    layer_paths=lambda config, prefix: [f"{prefix}.layers.{i}"
                                        for i in range(config.num_layers)],
    vocab=vocab, attention=attention, mlp=mlp, flash=flash, fusion=fusion)


def schedule_llama(sch, config, ckpt_ratio: float = 0.0,
                   use_flash: bool = True, use_fusion: bool = True,
                   use_tp: bool = True, prefix: str = "model"):
    return common.apply_layout(sch, replace(LAYOUT, prefix=prefix), config,
                               ckpt_ratio, use_flash=use_flash,
                               use_fusion=use_fusion, use_tp=use_tp)
