"""repro.schedules — per-model Slapo schedules (the paper's Table 4 artifacts)."""

from dataclasses import replace

from . import bert, common, gpt, llama, moe_gpt, opt, t5, wideresnet
from .bert import schedule_bert, schedule_roberta
from .gpt import schedule_gpt
from .llama import schedule_llama
from .loc import PAPER_LOC, SCHEDULE_SOURCES, schedule_loc, table4
from .moe_gpt import schedule_moe_gpt
from .opt import schedule_opt
from .t5 import schedule_t5
from .wideresnet import schedule_wideresnet

#: family name → schedule function over the matching zoo model
SCHEDULES = {
    "BERT": schedule_bert,
    "RoBERTa": schedule_roberta,
    "GPT": schedule_gpt,
    "OPT": schedule_opt,
    "T5": schedule_t5,
    "WideResNet": schedule_wideresnet,
    "GPT-10B": schedule_gpt,
    "LLaMA-7B": schedule_llama,
    "OPT-350M": schedule_opt,
    "MoE-GPT": schedule_moe_gpt,
}

#: family name → the layout its schedule applies: the layer paths and
#: steps the recipes, the fuzzer's macros and the baselines share
LAYOUTS = {
    "BERT": bert.LAYOUT,
    "RoBERTa": replace(bert.LAYOUT, prefix="roberta"),
    "GPT": gpt.LAYOUT,
    "OPT": opt.LAYOUT,
    "T5": t5.LAYOUT,
    "WideResNet": wideresnet.LAYOUT,
    "GPT-10B": gpt.LAYOUT,
    "LLaMA-7B": llama.LAYOUT,
    "OPT-350M": opt.LAYOUT,
    "MoE-GPT": moe_gpt.LAYOUT,
}

__all__ = [
    "schedule_bert", "schedule_roberta", "schedule_gpt", "schedule_opt",
    "schedule_t5", "schedule_wideresnet", "schedule_llama",
    "schedule_moe_gpt",
    "SCHEDULES", "LAYOUTS", "SCHEDULE_SOURCES", "PAPER_LOC", "schedule_loc",
    "table4",
    "common",
]
