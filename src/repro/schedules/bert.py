"""BERT layout (paper appendix A / Table 4: 21 LoC).

Vocab-parallel embedding, Megatron-style TP on attention + FFN, flash
attention via subgraph replacement, Bias-GeLU and dropout-residual-LN
fusion via the stand-in compilers, and selective activation checkpointing.
"""

from __future__ import annotations

from dataclasses import replace

from . import common


# <schedule>
def vocab(sch, prefix):
    head = "cls.decoder" if prefix == "bert" else "lm_head.decoder"
    common.shard_vocab(sch, f"{prefix}.embeddings.word_embeddings", head,
                       head_params=("weight", "bias"))


def attention(layer, config, tp):
    attn = layer["attention"]
    for proj in ("self.query", "self.key", "self.value"):
        attn[proj].shard(["weight", "bias"], axis=0)
    attn["self"].sync(mode="bwd_post")
    common.set_local_heads(attn["self"], config, tp,
                           attr="num_attention_heads")
    attn["output.dense"].shard("weight", axis=1)
    attn["output.dense"].sync(mode="fwd_post")


def mlp(layer, config, tp):
    common.shard_pair(layer, "intermediate.dense", "output.dense")


def flash(layer, config, tp):
    common.replace_attention_core(layer["attention.self"])


def fusion(layer, config, tp):
    layer["intermediate.dense"].decompose()
    layer.trace(flatten=True)
    # Under tensor parallelism the sharded linear carries a backward-sync
    # hook and stays opaque to the trace, so the Bias-GeLU pattern
    # (correctly) finds no match — fuse what matched rather than assuming
    # both patterns always appear.
    common.fuse_matches(layer, common.bias_gelu, "BiasGeLU")
    common.fuse_matches(layer, common.dropout_residual_ln, "LNResidual")
# </schedule>


LAYOUT = common.Layout(
    prefix="bert",
    layer_paths=lambda config, prefix: [f"{prefix}.encoder.layer.{i}"
                                        for i in range(config.num_layers)],
    vocab=vocab, attention=attention, mlp=mlp, flash=flash, fusion=fusion)


def schedule_bert(sch, config, ckpt_ratio: float = 0.0,
                  use_flash: bool = True, use_fusion: bool = True,
                  use_tp: bool = True, shard_embedding: bool = True,
                  prefix: str = "bert"):
    """Apply the BERT training schedule (also used verbatim for RoBERTa)."""
    return common.apply_layout(sch, replace(LAYOUT, prefix=prefix), config,
                               ckpt_ratio, use_flash=use_flash,
                               use_fusion=use_fusion, use_tp=use_tp,
                               shard_embedding=shard_embedding)


def schedule_roberta(sch, config, **kwargs):
    """RoBERTa shares BERT's architecture — and therefore its schedule
    (paper §5.3: "certain schedules can be shared among models")."""
    return schedule_bert(sch, config, prefix="roberta", **kwargs)
