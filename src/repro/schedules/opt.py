"""OPT layout (paper Table 4: 10 LoC)."""

from __future__ import annotations

from dataclasses import replace

from . import common


# <schedule>
def vocab(sch, prefix):
    common.shard_vocab(sch, f"{prefix}.embed_tokens", "lm_head")


def attention(layer, config, tp):
    for proj in ("q_proj", "k_proj", "v_proj"):
        layer[f"self_attn.{proj}"].shard(["weight", "bias"], axis=0)
    layer["self_attn"].sync(mode="bwd_post")
    layer["self_attn.out_proj"].shard("weight", axis=1)
    layer["self_attn.out_proj"].sync(mode="fwd_post")
    common.set_local_heads(layer["self_attn"], config, tp)


def mlp(layer, config, tp):
    common.shard_pair(layer, "fc1", "fc2")


def flash(layer, config, tp):
    common.replace_attention_core(layer["self_attn"], is_causal=True)


def fusion(layer, config, tp):
    layer["fc1"].decompose()
    layer.trace(flatten=True)
    common.fuse_matches(layer, common.bias_relu, "BiasReLU")
    common.fuse_matches(layer, common.dropout_add, "DropoutAdd")
# </schedule>


LAYOUT = common.Layout(
    prefix="model.decoder",
    layer_paths=lambda config, prefix: [f"{prefix}.layers.{i}"
                                        for i in range(config.num_layers)],
    vocab=vocab, attention=attention, mlp=mlp, flash=flash, fusion=fusion)


def schedule_opt(sch, config, ckpt_ratio: float = 0.0,
                 use_flash: bool = True, use_fusion: bool = True,
                 use_tp: bool = True, prefix: str = "model.decoder"):
    return common.apply_layout(sch, replace(LAYOUT, prefix=prefix), config,
                               ckpt_ratio, use_flash=use_flash,
                               use_fusion=use_fusion, use_tp=use_tp)
