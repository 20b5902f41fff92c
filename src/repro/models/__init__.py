"""repro.models — HuggingFace/torchvision-style model zoo (paper Table 3)."""

from . import data
from .bert import BertLMHeadModel, BertModel
from .configs import (
    BERT_1B,
    GPT_2_9B,
    GPT_10B,
    GPT_TRAIN_SIZES,
    LLAMA_7B,
    MOE_GPT_8E,
    OPT_2_7B,
    OPT_350M,
    ROBERTA_1_3B,
    T5_2_9B,
    TABLE3_CONFIGS,
    TABLE3_PARAMS_BILLION,
    WIDERESNET_2_4B,
    MoEConfig,
    ResNetConfig,
    TransformerConfig,
)
from .gpt import GPT2LMHeadModel, GPT2Model
from .moe_gpt import MoEGPTLMHeadModel, MoEGPTModel
from .llama import LlamaForCausalLM, LlamaModel
from .opt import OPTForCausalLM, OPTModel
from .roberta import RobertaLMHeadModel, RobertaModel
from .t5 import T5ForConditionalGeneration
from .wideresnet import WideResNet

#: model family name → (constructor, paper config)
MODEL_ZOO = {
    "BERT": (BertLMHeadModel, BERT_1B),
    "RoBERTa": (RobertaLMHeadModel, ROBERTA_1_3B),
    "GPT": (GPT2LMHeadModel, GPT_2_9B),
    "OPT": (OPTForCausalLM, OPT_2_7B),
    "T5": (T5ForConditionalGeneration, T5_2_9B),
    "WideResNet": (WideResNet, WIDERESNET_2_4B),
    "GPT-10B": (GPT2LMHeadModel, GPT_10B),
    "LLaMA-7B": (LlamaForCausalLM, LLAMA_7B),
    "OPT-350M": (OPTForCausalLM, OPT_350M),
    "MoE-GPT": (MoEGPTLMHeadModel, MOE_GPT_8E),
}

__all__ = [
    "BertModel", "BertLMHeadModel", "RobertaModel", "RobertaLMHeadModel",
    "GPT2Model", "GPT2LMHeadModel", "OPTModel", "OPTForCausalLM",
    "T5ForConditionalGeneration", "LlamaModel", "LlamaForCausalLM",
    "WideResNet", "MoEGPTModel", "MoEGPTLMHeadModel",
    "TransformerConfig", "ResNetConfig", "MoEConfig",
    "BERT_1B", "ROBERTA_1_3B", "GPT_2_9B", "OPT_2_7B", "T5_2_9B",
    "WIDERESNET_2_4B", "GPT_10B", "LLAMA_7B", "OPT_350M", "MOE_GPT_8E",
    "GPT_TRAIN_SIZES",
    "TABLE3_CONFIGS", "TABLE3_PARAMS_BILLION", "MODEL_ZOO",
    "data",
]
