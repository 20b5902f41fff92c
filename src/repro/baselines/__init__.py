"""repro.baselines — the comparison systems of the paper's evaluation."""

from .megatron import (
    SUPPORTED_FAMILIES,
    ColumnParallelLinear,
    MegatronLanguageModel,
    MegatronParallelAttention,
    MegatronParallelMLP,
    RowParallelLinear,
    UnsupportedModelError,
    VocabParallelEmbedding,
    build_megatron_model,
)
from .pipeline_runtime import PipelineRuntime
from .systems import (
    EVALUATORS,
    PIPELINE_FAMILIES,
    SystemResult,
    evaluate_deepspeed,
    evaluate_megatron,
    evaluate_slapo_pp,
    evaluate_slapo_tp,
    evaluate_slapo_zero3,
)
from .zero import ZeroOptimizer

__all__ = [
    "build_megatron_model", "MegatronLanguageModel", "UnsupportedModelError",
    "ColumnParallelLinear", "RowParallelLinear", "VocabParallelEmbedding",
    "MegatronParallelAttention", "MegatronParallelMLP", "SUPPORTED_FAMILIES",
    "ZeroOptimizer", "PipelineRuntime",
    "SystemResult", "EVALUATORS", "evaluate_megatron", "evaluate_deepspeed",
    "evaluate_slapo_tp", "evaluate_slapo_zero3", "evaluate_slapo_pp",
    "PIPELINE_FAMILIES",
]
