"""Megatron-LM-style baseline: *manually* tensor-parallel Transformers.

This is the comparison system of paper §5.1: a framework that ships its own
model implementations with hand-wired column/row-parallel linears, fused
softmax and bias-GELU kernels, and full-layer activation checkpointing —
but **no** flash attention (the (s × s) probability tensor is materialised)
and **only three supported model families** (BERT, GPT, T5).  Asking it for
RoBERTa/OPT/WideResNet raises :class:`UnsupportedModelError`, reproducing
the "X" bars of Fig. 7.

The parallel layers run real collectives under a LocalCluster ThreadGroup
(used in tests to validate numerics against single-device models) and
record communication events under a SimGroup for the performance model.
"""

from __future__ import annotations

from repro import framework as fw
from repro.distributed.group import BaseGroup, SingleGroup
from repro.framework import events
from repro.framework import functional as F
from repro.models.configs import TransformerConfig
from repro.slapo.op import vocab_shard


class UnsupportedModelError(NotImplementedError):
    """Megatron-LM has no implementation for this model family."""


class ColumnParallelLinear(fw.Module):
    """Output dimension sharded; optionally gathers at the end."""

    def __init__(self, in_features: int, out_features: int, group: BaseGroup,
                 bias: bool = True, dtype=fw.float16, device: str = "cpu"):
        super().__init__()
        if out_features % group.size:
            raise ValueError("out_features not divisible by TP size")
        self.group = group
        self.linear = fw.Linear(in_features, out_features // group.size,
                                bias=bias, dtype=dtype, device=device)

    def forward(self, x):
        return self.linear(self.group.copy_to_group(x))


class RowParallelLinear(fw.Module):
    """Input dimension sharded; all-reduces partial outputs, then bias."""

    def __init__(self, in_features: int, out_features: int, group: BaseGroup,
                 bias: bool = True, dtype=fw.float16, device: str = "cpu"):
        super().__init__()
        if in_features % group.size:
            raise ValueError("in_features not divisible by TP size")
        self.group = group
        self.linear = fw.Linear(in_features // group.size, out_features,
                                bias=False, dtype=dtype, device=device)
        if bias:
            self.bias = fw.Parameter.from_tensor(
                fw.init.zeros((out_features,), dtype, device))
        else:
            self.register_parameter("bias", None)

    def forward(self, x):
        out = self.group.all_reduce(self.linear(x))
        bias = self._parameters.get("bias")
        return out if bias is None else out + bias


class MegatronParallelAttention(fw.Module):
    """Fused-QKV column-parallel attention with Megatron's fused softmax.

    The softmax/scale/mask sequence runs as one fused kernel (Megatron's
    ``scaled_masked_softmax``) but the attention matrix still materialises —
    no flash attention in this baseline.
    """

    def __init__(self, config: TransformerConfig, group: BaseGroup,
                 device: str = "cpu", causal: bool | None = None):
        super().__init__()
        h, dtype = config.hidden_size, config.dtype
        inner = config.attention_dim
        self.group = group
        self.num_heads_local = config.num_heads // group.size
        self.head_dim = config.head_dim
        self.causal = config.causal if causal is None else causal
        self.qkv = ColumnParallelLinear(h, 3 * inner, group, dtype=dtype,
                                        device=device)
        self.dense = RowParallelLinear(inner, h, group, dtype=dtype,
                                       device=device)
        self.dropout = fw.Dropout(config.dropout)

    def forward(self, hidden_states):
        qkv = self.qkv(hidden_states)
        local = self.num_heads_local * self.head_dim
        q = F.split_heads(qkv[..., :local], self.num_heads_local)
        k = F.split_heads(qkv[..., local:2 * local], self.num_heads_local)
        v = F.split_heads(qkv[..., 2 * local:], self.num_heads_local)
        scores = q @ k.transpose(-2, -1)
        with events.fused_region("scaled_masked_softmax", backend="custom"):
            scores = scores / (self.head_dim ** 0.5)
            if self.causal:
                scores = F.apply_causal_mask(scores)
            probs = F.softmax(scores, dim=-1)
        probs = self.dropout(probs)
        return self.dense(F.merge_heads(probs @ v))


class MegatronParallelMLP(fw.Module):
    """Column→row parallel MLP with the fused bias-GELU kernel."""

    def __init__(self, config: TransformerConfig, group: BaseGroup,
                 device: str = "cpu"):
        super().__init__()
        h, inter, dtype = (config.hidden_size, config.intermediate_size,
                           config.dtype)
        self.dense_h_to_4h = ColumnParallelLinear(h, inter, group,
                                                  dtype=dtype, device=device)
        self.dense_4h_to_h = RowParallelLinear(inter, h, group, dtype=dtype,
                                               device=device)

    def forward(self, hidden_states):
        with events.fused_region("bias_gelu", backend="custom"):
            inter = F.gelu(self.dense_h_to_4h(hidden_states))
        return self.dense_4h_to_h(inter)


class MegatronCrossAttention(fw.Module):
    """Cross attention for the T5 decoder: q from x, kv from encoder."""

    def __init__(self, config: TransformerConfig, group: BaseGroup,
                 device: str = "cpu"):
        super().__init__()
        h, dtype = config.hidden_size, config.dtype
        inner = config.attention_dim
        self.group = group
        self.num_heads_local = config.num_heads // group.size
        self.head_dim = config.head_dim
        self.q = ColumnParallelLinear(h, inner, group, dtype=dtype,
                                      device=device)
        self.kv = ColumnParallelLinear(h, 2 * inner, group, dtype=dtype,
                                       device=device)
        self.dense = RowParallelLinear(inner, h, group, dtype=dtype,
                                       device=device)

    def forward(self, hidden_states, encoder_states):
        local = self.num_heads_local * self.head_dim
        q = F.split_heads(self.q(hidden_states), self.num_heads_local)
        kv = self.kv(encoder_states)
        k = F.split_heads(kv[..., :local], self.num_heads_local)
        v = F.split_heads(kv[..., local:], self.num_heads_local)
        scores = q @ k.transpose(-2, -1)
        with events.fused_region("scaled_masked_softmax", backend="custom"):
            probs = F.softmax(scores / (self.head_dim ** 0.5), dim=-1)
        return self.dense(F.merge_heads(probs @ v))


class MegatronTransformerLayer(fw.Module):
    def __init__(self, config: TransformerConfig, group: BaseGroup,
                 device: str = "cpu"):
        super().__init__()
        h, dtype, eps = config.hidden_size, config.dtype, config.layer_norm_eps
        self.input_layernorm = fw.LayerNorm(h, eps=eps, dtype=dtype,
                                            device=device)
        self.attention = MegatronParallelAttention(config, group, device)
        self.hidden_dropout = fw.Dropout(config.dropout)
        self.post_attention_layernorm = fw.LayerNorm(h, eps=eps, dtype=dtype,
                                                     device=device)
        self.mlp = MegatronParallelMLP(config, group, device)

    def forward(self, hidden_states):
        attn = self.attention(self.input_layernorm(hidden_states))
        # Megatron's fused bias_dropout_add epilogues.
        with events.fused_region("bias_dropout_add", backend="custom"):
            hidden_states = hidden_states + self.hidden_dropout(attn)
        mlp = self.mlp(self.post_attention_layernorm(hidden_states))
        with events.fused_region("bias_dropout_add", backend="custom"):
            return hidden_states + self.hidden_dropout(mlp)


class VocabParallelEmbedding(fw.Module):
    def __init__(self, vocab_size: int, hidden: int, group: BaseGroup,
                 dtype=fw.float16, device: str = "cpu"):
        super().__init__()
        if vocab_size % group.size:
            raise ValueError("vocab not divisible by TP size")
        self.group = group
        shard = vocab_size // group.size
        index = group.ranks.index(group.rank) if group.size > 1 else 0
        self.vocab_start = index * shard
        self.vocab_end = (index + 1) * shard
        self.embedding = fw.Embedding(shard, hidden, dtype=dtype,
                                      device=device)

    def forward(self, input_ids):
        local, mask = vocab_shard(input_ids, self.vocab_start,
                                  self.vocab_end, self.embedding.weight.dtype)
        return self.group.all_reduce(self.embedding(local) * mask)


class MegatronLanguageModel(fw.Module):
    """Megatron's BERT/GPT trunk (the supported families share it)."""

    def __init__(self, config: TransformerConfig, group: BaseGroup,
                 device: str = "cpu"):
        super().__init__()
        h, dtype = config.hidden_size, config.dtype
        self.config = config
        self.group = group
        self.word_embeddings = VocabParallelEmbedding(
            config.vocab_size, h, group, dtype=dtype, device=device)
        self.position_embeddings = fw.Embedding(config.max_seq_len, h,
                                                dtype=dtype, device=device)
        self.layers = fw.ModuleList([
            MegatronTransformerLayer(config, group, device)
            for _ in range(config.num_layers)
        ])
        self.final_layernorm = fw.LayerNorm(h, eps=config.layer_norm_eps,
                                            dtype=dtype, device=device)
        self.lm_head = ColumnParallelLinear(h, config.vocab_size, group,
                                            bias=False, dtype=dtype,
                                            device=device)

    def forward(self, input_ids):
        positions = fw.arange(input_ids.shape[-1])
        x = self.word_embeddings(input_ids) \
            + self.position_embeddings(positions)
        for layer in self.layers:
            x = layer(x)
        x = self.final_layernorm(x)
        logits = self.lm_head(x)  # stays vocab-sharded, like Megatron
        return self.group.all_gather(logits, axis=-1)

    def set_checkpointing(self, enabled: bool = True) -> None:
        """Megatron checkpoints whole layers — all of them or none."""
        for layer in self.layers:
            layer._slapo_meta["ckpt_unit"] = True  # simulator layer marker
            if enabled:
                layer._slapo_meta["checkpoint"] = True
            else:
                layer._slapo_meta.pop("checkpoint", None)


class MegatronT5DecoderLayer(fw.Module):
    def __init__(self, config: TransformerConfig, group: BaseGroup,
                 device: str = "cpu"):
        super().__init__()
        h, dtype, eps = config.hidden_size, config.dtype, config.layer_norm_eps
        self.input_layernorm = fw.LayerNorm(h, eps=eps, dtype=dtype,
                                            device=device)
        self.attention = MegatronParallelAttention(config, group, device,
                                                   causal=True)
        self.cross_layernorm = fw.LayerNorm(h, eps=eps, dtype=dtype,
                                            device=device)
        self.cross_attention = MegatronCrossAttention(config, group, device)
        self.post_attention_layernorm = fw.LayerNorm(h, eps=eps, dtype=dtype,
                                                     device=device)
        self.mlp = MegatronParallelMLP(config, group, device)

    def forward(self, hidden_states, encoder_states):
        attn = self.attention(self.input_layernorm(hidden_states))
        hidden_states = hidden_states + attn
        cross = self.cross_attention(self.cross_layernorm(hidden_states),
                                     encoder_states)
        hidden_states = hidden_states + cross
        mlp = self.mlp(self.post_attention_layernorm(hidden_states))
        return hidden_states + mlp


class MegatronT5Model(fw.Module):
    """Megatron's encoder-decoder (T5) variant."""

    def __init__(self, config: TransformerConfig, group: BaseGroup,
                 device: str = "cpu"):
        super().__init__()
        h, dtype = config.hidden_size, config.dtype
        self.config = config
        self.group = group
        self.word_embeddings = VocabParallelEmbedding(
            config.vocab_size, h, group, dtype=dtype, device=device)
        self.position_embeddings = fw.Embedding(config.max_seq_len, h,
                                                dtype=dtype, device=device)
        self.encoder = fw.ModuleList([
            MegatronTransformerLayer(config, group, device)
            for _ in range(config.num_layers)
        ])
        self.decoder = fw.ModuleList([
            MegatronT5DecoderLayer(config, group, device)
            for _ in range(config.num_decoder_layers)
        ])
        self.final_layernorm = fw.LayerNorm(h, eps=config.layer_norm_eps,
                                            dtype=dtype, device=device)
        self.lm_head = ColumnParallelLinear(h, config.vocab_size, group,
                                            bias=False, dtype=dtype,
                                            device=device)

    def forward(self, input_ids, decoder_input_ids):
        positions = fw.arange(input_ids.shape[-1])
        enc = self.word_embeddings(input_ids) \
            + self.position_embeddings(positions)
        for layer in self.encoder:
            enc = layer(enc)
        dec_positions = fw.arange(decoder_input_ids.shape[-1])
        dec = self.word_embeddings(decoder_input_ids) \
            + self.position_embeddings(dec_positions)
        for layer in self.decoder:
            dec = layer(dec, enc)
        logits = self.lm_head(self.final_layernorm(dec))
        return self.group.all_gather(logits, axis=-1)

    def set_checkpointing(self, enabled: bool = True) -> None:
        for layer in list(self.encoder) + list(self.decoder):
            layer._slapo_meta["ckpt_unit"] = True  # simulator layer marker
            if enabled:
                layer._slapo_meta["checkpoint"] = True
            else:
                layer._slapo_meta.pop("checkpoint", None)


#: the only families Megatron-LM ships implementations for (paper Fig. 7)
SUPPORTED_FAMILIES = ("BERT", "GPT", "T5", "GPT-10B")


def build_megatron_model(family: str, config: TransformerConfig,
                         group: BaseGroup | None = None,
                         device: str = "cpu") -> fw.Module:
    if family not in SUPPORTED_FAMILIES:
        raise UnsupportedModelError(
            f"Megatron-LM does not implement {family!r}; supported: "
            f"{SUPPORTED_FAMILIES}"
        )
    group = group or SingleGroup(tag="tp")
    if family == "T5":
        return MegatronT5Model(config, group, device=device)
    return MegatronLanguageModel(config, group, device=device)
