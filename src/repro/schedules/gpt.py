"""GPT-2 layout (paper Table 4: 10 LoC).

GPT-2 already fuses QKV into ``c_attn``; the schedule interleaves its rows
per shard (Megatron's fused-QKV layout), shards attention + MLP + vocab,
swaps the attention core for flash attention, and fuses the MLP epilogues.
"""

from __future__ import annotations

from dataclasses import replace

from . import common


# <schedule>
def vocab(sch, prefix):
    common.shard_vocab(sch, f"{prefix}.wte", "lm_head")


def attention(block, config, tp):
    common.interleave_qkv_rows(block["attn.c_attn"].mod, tp)
    common.shard_pair(block, "attn.c_attn", "attn.c_proj")
    common.set_local_heads(block["attn"], config, tp)
    block["attn"].mod.hidden_size = config.hidden_size // tp


def mlp(block, config, tp):
    common.shard_pair(block, "mlp.c_fc", "mlp.c_proj")


def flash(block, config, tp):
    common.replace_attention_core(block["attn"], is_causal=True)


def fusion(block, config, tp):
    block["mlp.c_fc"].decompose()
    block.trace(flatten=True)
    common.fuse_matches(block, common.bias_gelu, "BiasGeLU")
    common.fuse_matches(block, common.dropout_add, "DropoutAdd")
# </schedule>


LAYOUT = common.Layout(
    prefix="transformer",
    layer_paths=lambda config, prefix: [f"{prefix}.h.{i}"
                                        for i in range(config.num_layers)],
    vocab=vocab, attention=attention, mlp=mlp, flash=flash, fusion=fusion)


def schedule_gpt(sch, config, ckpt_ratio: float = 0.0,
                 use_flash: bool = True, use_fusion: bool = True,
                 use_tp: bool = True, prefix: str = "transformer"):
    return common.apply_layout(sch, replace(LAYOUT, prefix=prefix), config,
                               ckpt_ratio, use_flash=use_flash,
                               use_fusion=use_fusion, use_tp=use_tp)
