"""T5 layout (paper Table 4: 11 LoC): encoder + decoder + cross attention."""

from __future__ import annotations

from . import common


# <schedule>
def _is_decoder(block) -> bool:
    return block.path.startswith("decoder.")


def _shard_attention(attn, config, tp):
    for proj in ("q", "k", "v"):
        attn[proj].shard("weight", axis=0)
    attn.sync(mode="bwd_post")
    attn["o"].shard("weight", axis=1)
    attn["o"].sync(mode="fwd_post")
    common.set_local_heads(attn, config, tp)


def vocab(sch, prefix):
    common.shard_vocab(sch, "shared", "lm_head")


def attention(block, config, tp):
    _shard_attention(block["layer.0.SelfAttention"], config, tp)
    if _is_decoder(block):
        _shard_attention(block["layer.1.EncDecAttention"], config, tp)


def mlp(block, config, tp):
    ff = block[f"layer.{2 if _is_decoder(block) else 1}.DenseReluDense"]
    common.shard_pair(ff, "wi", "wo", column_params=("weight",))


def flash(block, config, tp):
    decoder = _is_decoder(block)
    common.replace_attention_core(block["layer.0.SelfAttention"],
                                  is_causal=decoder)
    if decoder:
        cross = block["layer.1.EncDecAttention"]
        cross.trace(flatten=True, include_defaults=("key_value_states",))
        common.replace_attention_core(cross)
# </schedule>


LAYOUT = common.Layout(
    prefix="",
    layer_paths=lambda config, prefix: (
        [f"encoder.block.{i}" for i in range(config.num_layers)]
        + [f"decoder.block.{i}" for i in range(config.num_decoder_layers)]),
    vocab=vocab, attention=attention, mlp=mlp, flash=flash)


def schedule_t5(sch, config, ckpt_ratio: float = 0.0,
                use_flash: bool = True, use_tp: bool = True):
    return common.apply_layout(sch, LAYOUT, config, ckpt_ratio,
                               use_flash=use_flash, use_tp=use_tp)
