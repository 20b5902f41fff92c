"""Pipeline-parallel GPT: .pipeline_split() + the 1F1B micro-batch runtime.

Demonstrates paper §3.3.2: annotate stage boundaries on the *hierarchical*
model, let build() propagate the annotations and partition with liveness
analysis, then train with micro-batched 1F1B — gradients must equal
full-batch training.

Run:  python examples/pipeline_gpt.py
"""

import numpy as np

import repro.slapo as slapo
from repro import framework as fw
from repro.baselines import PipelineRuntime
from repro.distributed import DeviceMesh, ParallelConfig
from repro.framework import functional as F
from repro.models import GPT_2_9B, GPT2LMHeadModel
from repro.pipeline import simulate_program


def main():
    config = GPT_2_9B.tiny(num_layers=4, hidden_size=16, num_heads=2,
                           vocab_size=64)
    fw.manual_seed(0)
    model = GPT2LMHeadModel(config)
    model.eval()

    mesh = DeviceMesh(ParallelConfig(pp=2), rank=0, sim=True)
    sch = slapo.create_schedule(model, mesh=mesh)
    sch["transformer.h.1"].pipeline_split()
    built = slapo.build(sch, target="deepspeed")
    print(f"partitioned into {built.model.num_stages} stages "
          f"(DeepSpeed tuple-I/O dialect)")
    for i, stage in enumerate(built.stages):
        mods = [n.target for n in stage.graph if n.op == "call_module"]
        print(f"  stage {i}: {len(mods)} modules "
              f"({mods[0]} .. {mods[-1]})")

    ids = fw.randint(0, config.vocab_size, (4, 6))
    labels = fw.randint(0, config.vocab_size, (4 * 6,))

    # Full-batch reference gradients.
    logits = built(ids)
    loss = F.cross_entropy(logits.view(-1, config.vocab_size), labels)
    loss.backward()
    reference = {name: p.grad.numpy().copy()
                 for name, p in model.named_parameters()
                 if p.grad is not None}
    model.zero_grad()

    # 1F1B over 2 micro-batches must produce identical gradients.
    runtime = PipelineRuntime(built.stages, num_micro_batches=2,
                              schedule="1f1b")
    micro_inputs = [(ids[0:2],), (ids[2:4],)]
    micro_labels = [labels[0:12], labels[12:24]]

    def loss_fn(output, micro):
        return F.cross_entropy(
            output.view(-1, config.vocab_size), micro_labels[micro])

    mean_loss = runtime.train_step(micro_inputs, loss_fn)
    print(f"1F1B mean micro-batch loss: {mean_loss:.4f} "
          f"(full-batch: {loss.item():.4f})")
    timeline = simulate_program(runtime.program(), {"F": 1.0, "B": 1.0})
    print(f"pipeline bubble fraction: {timeline.bubble_fraction:.2f}")

    worst = 0.0
    for name, p in model.named_parameters():
        if name in reference and p.grad is not None:
            worst = max(worst, float(np.max(np.abs(
                p.grad.numpy() - reference[name]))))
    print(f"max gradient deviation vs full batch: {worst:.2e}")
    assert worst < 1e-4
    print("micro-batched pipeline training matches full-batch gradients ✓")


if __name__ == "__main__":
    main()
