"""Model configurations (paper Table 3 plus multi-node and tuning models).

Sizes are chosen so total parameter counts land on the paper's reported
billions (checked by ``tests/models/test_configs_table3.py``); vocabulary
sizes follow the original HuggingFace checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.framework import dtype as dtypes
from repro.framework.dtype import DType


@dataclass(frozen=True)
class TransformerConfig:
    """Shared hyper-parameters for the Transformer family."""

    name: str
    vocab_size: int
    hidden_size: int
    num_layers: int
    num_heads: int
    intermediate_size: int
    max_seq_len: int
    dtype: DType = dtypes.float16
    dropout: float = 0.1
    layer_norm_eps: float = 1e-5
    #: decoder models apply a causal mask
    causal: bool = False
    #: T5-style models have a decoder stack of this many layers
    num_decoder_layers: int = 0
    #: attention inner width (T5-3B projects 1024 → 4096); None = hidden
    kv_dim: int | None = None
    #: share the LM head with the token embedding (HF default for
    #: BERT/RoBERTa/GPT-2/OPT/T5; LLaMA keeps them separate)
    tie_embeddings: bool = True

    @property
    def attention_dim(self) -> int:
        return self.kv_dim or self.hidden_size

    @property
    def head_dim(self) -> int:
        return self.attention_dim // self.num_heads

    def tiny(self, **overrides) -> "TransformerConfig":
        """A functional-test-sized variant of this architecture."""
        defaults = {
            "name": f"{self.name}-tiny",
            "vocab_size": 64,
            "hidden_size": 16,
            "num_layers": 2,
            "num_heads": 2,
            "intermediate_size": 32,
            "max_seq_len": 16,
            "dtype": dtypes.float32,
            "dropout": 0.0,
        }
        if self.num_decoder_layers:
            defaults["num_decoder_layers"] = 2
        defaults.update(overrides)
        return replace(self, **defaults)


@dataclass(frozen=True)
class ResNetConfig:
    """WideResNet configuration (bottleneck ResNet with widened channels)."""

    name: str
    layers: tuple[int, int, int, int]
    width_per_group: int
    num_classes: int = 1000
    image_size: int = 224
    dtype: DType = dtypes.float32

    def tiny(self) -> "ResNetConfig":
        return ResNetConfig(name=f"{self.name}-tiny", layers=(1, 1, 1, 1),
                            width_per_group=16, num_classes=10,
                            image_size=32, dtype=dtypes.float32)


# --------------------------------------------------------------------- #
# Table 3: single-node evaluation models
# --------------------------------------------------------------------- #
# Vocabulary sizes are padded to multiples of 1024 (Megatron's
# make-vocab-divisible convention) so embeddings shard across 8 GPUs.
BERT_1B = TransformerConfig(
    name="bert-0.96b", vocab_size=30720, hidden_size=1792, num_layers=24,
    num_heads=32, intermediate_size=7168, max_seq_len=512)

ROBERTA_1_3B = TransformerConfig(
    name="roberta-1.3b", vocab_size=50304, hidden_size=2048, num_layers=24,
    num_heads=32, intermediate_size=8192, max_seq_len=512)

GPT_2_9B = TransformerConfig(
    name="gpt-2.9b", vocab_size=50304, hidden_size=2560, num_layers=36,
    num_heads=32, intermediate_size=10240, max_seq_len=1024, causal=True)

OPT_2_7B = TransformerConfig(
    name="opt-2.7b", vocab_size=50272, hidden_size=2560, num_layers=32,
    num_heads=32, intermediate_size=10240, max_seq_len=1024, causal=True)

T5_2_9B = TransformerConfig(
    name="t5-2.9b", vocab_size=32128, hidden_size=1024, num_layers=24,
    num_heads=32, intermediate_size=16384, max_seq_len=1024,
    num_decoder_layers=24, kv_dim=4096)

WIDERESNET_2_4B = ResNetConfig(
    name="wideresnet-2.4b", layers=(3, 4, 23, 3), width_per_group=480)

# --------------------------------------------------------------------- #
# Multi-node evaluation models (paper §5.2)
# --------------------------------------------------------------------- #
GPT_10B = TransformerConfig(
    name="gpt-10b", vocab_size=50304, hidden_size=4096, num_layers=48,
    num_heads=32, intermediate_size=16384, max_seq_len=1024, causal=True)

LLAMA_7B = TransformerConfig(
    name="llama-7b", vocab_size=32000, hidden_size=4096, num_layers=32,
    num_heads=32, intermediate_size=11008, max_seq_len=1024, causal=True,
    layer_norm_eps=1e-6, tie_embeddings=False)

@dataclass(frozen=True)
class MoEConfig(TransformerConfig):
    """Transformer with mixture-of-experts feed-forward layers.

    ``intermediate_size`` is the *per-expert* FFN width.  Every decoder
    block's MLP is a top-k gated :class:`~repro.framework.layers
    .MoEFeedForward`; tokens above an expert's capacity
    (``capacity_factor · seq · top_k / num_experts`` per sample) are
    dropped and ride the residual connection.
    """

    num_experts: int = 8
    top_k: int = 2
    capacity_factor: float = 1.25

    def tiny(self, **overrides) -> "MoEConfig":
        defaults = {"num_experts": 4}
        defaults.update(overrides)
        return super().tiny(**defaults)


# --------------------------------------------------------------------- #
# Mixture-of-experts study model (GShard/Switch-style GPT)
# --------------------------------------------------------------------- #
# Dense GPT-350M-scale trunk; 8 experts make the FFN parameters dominate,
# which is what makes the expert-parallel axis worth searching.
MOE_GPT_8E = MoEConfig(
    name="moe-gpt-8e", vocab_size=50304, hidden_size=1024, num_layers=12,
    num_heads=16, intermediate_size=4096, max_seq_len=1024, causal=True,
    num_experts=8, top_k=2, capacity_factor=1.25)


# --------------------------------------------------------------------- #
# Auto-tuning study model (paper §5.4)
# --------------------------------------------------------------------- #
OPT_350M = TransformerConfig(
    name="opt-350m", vocab_size=50272, hidden_size=1024, num_layers=24,
    num_heads=16, intermediate_size=4096, max_seq_len=1024, causal=True)

# --------------------------------------------------------------------- #
# Eager training sizes
# --------------------------------------------------------------------- #
#: ``GPT_2_9B.tiny(**sizes)`` overrides of the eager GPT tp=2 training
#: step, a copy of ``SIZES`` in ``perfbench/train.py`` (a test keeps the
#: two equal): ``full`` is the ``train_gpt_tp2`` benchmark, ``tiny`` its
#: smoke size
GPT_TRAIN_SIZES = {
    "full": dict(hidden_size=256, num_layers=4, num_heads=8,
                 intermediate_size=1024, max_seq_len=128, vocab_size=1024),
    "tiny": dict(hidden_size=32, num_layers=2, num_heads=4,
                 intermediate_size=64, max_seq_len=16, vocab_size=64),
}


TABLE3_CONFIGS = {
    "BERT": BERT_1B,
    "RoBERTa": ROBERTA_1_3B,
    "GPT": GPT_2_9B,
    "OPT": OPT_2_7B,
    "T5": T5_2_9B,
    "WideResNet": WIDERESNET_2_4B,
}

#: parameter counts the paper reports (billions)
TABLE3_PARAMS_BILLION = {
    "BERT": 0.96,
    "RoBERTa": 1.3,
    "GPT": 2.86,
    "OPT": 2.69,
    "T5": 2.85,
    "WideResNet": 2.4,
}
