"""MoE-GPT layout: dense-GPT sharding plus the expert-parallel axis.

The vocab, attention and flash steps are the GPT-2 layout's (the trunk is
the same model); each block's feed-forward is a mixture-of-experts layer
whose experts' FFN pairs are tensor-parallelised column→row inside each
expert, and which ``shard_experts`` partitions across the mesh's ``ep``
axis.
"""

from __future__ import annotations

from dataclasses import replace

from . import common, gpt


# <schedule>
def mlp(block, config, tp):
    for index in range(len(block["moe"].mod.experts)):
        common.shard_pair(block["moe"], f"experts.{index}.fc1",
                          f"experts.{index}.fc2")


def experts(block, config, tp):
    block["moe"].shard_experts()
# </schedule>


LAYOUT = replace(gpt.LAYOUT, mlp=mlp, experts=experts, fusion=None)


def schedule_moe_gpt(sch, config, ckpt_ratio: float = 0.0,
                     use_flash: bool = True, use_tp: bool = True,
                     prefix: str = "transformer"):
    return common.apply_layout(sch, replace(LAYOUT, prefix=prefix), config,
                               ckpt_ratio, use_flash=use_flash,
                               use_tp=use_tp)
