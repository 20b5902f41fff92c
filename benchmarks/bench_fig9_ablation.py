"""Figure 9 — ablation of the BERT schedule's optimization steps.

Starting from vanilla HuggingFace BERT on one V100 and progressively
applying the schedule primitives:

    vanilla → +kernel opt → +attn/FFN TP (8 GPUs) → +embedding TP

Paper speedups: 1.00× → 1.18× → 4.21× → 5.69×.  The assertions check the
progression is monotone and each step lands in a generous band around the
paper's factor.
"""

import pytest

import repro.slapo as slapo
from repro.distributed import DeviceMesh, P3DN_NODE, ParallelConfig
from repro.models import MODEL_ZOO, data
from repro.schedules import SCHEDULES
from repro.sim import plan_micro_batch, trace_model
from repro.sim.kernel_cost import cost_model_for

FAMILY = "BERT"


def _throughput(parallel, framework, **schedule_kwargs):
    cls, config = MODEL_ZOO[FAMILY]
    best = 0.0
    for ratio in (0.0, 0.25, 0.5, 1.0):
        model = cls(config, device="meta")
        mesh = DeviceMesh(parallel, rank=0, sim=True)
        sch = slapo.create_schedule(model, mesh=mesh)
        SCHEDULES[FAMILY](sch, config, ckpt_ratio=ratio, **schedule_kwargs)
        trace = trace_model(
            model, *data.example_inputs(FAMILY, config, device="meta"))
        plan = plan_micro_batch(trace, model, P3DN_NODE, parallel,
                                cost_model=cost_model_for(framework))
        if plan is not None:
            best = max(best, plan.throughput)
    return best


def _ablation():
    one = ParallelConfig()
    eight = ParallelConfig(tp=8)
    steps = {}
    steps["vanilla"] = _throughput(one, "hf", use_flash=False,
                                   use_fusion=False, use_tp=False)
    steps["+kernel opt"] = _throughput(one, "slapo", use_flash=True,
                                       use_fusion=True, use_tp=False)
    steps["+attn/FFN TP"] = _throughput(eight, "slapo", use_flash=True,
                                        use_fusion=True, use_tp=True,
                                        shard_embedding=False)
    steps["+embedding TP"] = _throughput(eight, "slapo", use_flash=True,
                                         use_fusion=True, use_tp=True,
                                         shard_embedding=True)
    return steps


PAPER_SPEEDUPS = {
    "vanilla": 1.00,
    "+kernel opt": 1.18,
    "+attn/FFN TP": 4.21,
    "+embedding TP": 5.69,
}


def test_fig9_ablation(benchmark):
    steps = benchmark.pedantic(_ablation, rounds=1, iterations=1)
    base = steps["vanilla"]
    print("\nFig.9 BERT ablation (speedup over vanilla):")
    print(f"{'step':>16} {'samples/s':>10} {'measured':>9} {'paper':>7}")
    speedups = {}
    for name, rate in steps.items():
        speedups[name] = rate / base
        print(f"{name:>16} {rate:>10.1f} {speedups[name]:>8.2f}x "
              f"{PAPER_SPEEDUPS[name]:>6.2f}x")

    order = list(steps.values())
    assert order == sorted(order), "each schedule step must help"
    # Kernel optimizations alone: paper 1.18× (allow 1.05-1.6).
    assert 1.05 <= speedups["+kernel opt"] <= 1.6
    # TP to 8 GPUs: paper 4.21× (allow 2.5-6.5).
    assert 2.5 <= speedups["+attn/FFN TP"] <= 6.5
    # Embedding sharding adds a further jump: paper 5.69× total (3.5-8).
    assert 3.5 <= speedups["+embedding TP"] <= 8.0
    assert speedups["+embedding TP"] > speedups["+attn/FFN TP"]
