"""What a rank keeps between steps: ``tracemalloc`` against the simulator.

After build, one training step and one ``AdamW.step()``, a
tensor-parallel rank should hold its parameter shards, their gradients
and AdamW's two moments: 16 B per local fp32 parameter, the ZeRO-0 terms
of :func:`repro.sim.memory.fixed_state_bytes`.  Both ``LocalCluster``
rank threads allocate into one trace, counted from before the build, so
anything a built model still pins of the unscheduled one (a full-size
parameter behind each shard, say) shows up as excess here.
"""

import gc
import tracemalloc

import pytest

import repro.slapo as slapo
from repro import framework as fw
from repro.distributed import DeviceMesh, LocalCluster, ParallelConfig
from repro.framework import functional as F
from repro.models import GPT_TRAIN_SIZES, MODEL_ZOO, data
from repro.schedules import SCHEDULES
from repro.sim.memory import compute_model_stats, fixed_state_bytes

TP = ParallelConfig(tp=2)
BATCH = 4
REL = 0.05
#: the sizes ``test_saved_bytes.py`` measures activations at
SIZES = dict(GPT_TRAIN_SIZES["full"], hidden_size=128, num_heads=4,
             intermediate_size=512, max_seq_len=64)
#: WideResNet's schedule shards no parameter
FAMILIES = sorted(family for family in MODEL_ZOO if family != "WideResNet")


def _config(family):
    extra = {"kv_dim": None} if family == "T5" else {}
    return MODEL_ZOO[family][1].tiny(**SIZES, **extra)


def _batch(family, config, device="cpu"):
    seq = config.max_seq_len
    if family == "T5":
        src, tgt, labels = data.seq2seq_batch(config, BATCH, seq, seq // 2,
                                              device=device)
        return (src, tgt), labels
    ids, labels = data.lm_batch(config, BATCH, seq, device=device)
    return (ids,), labels


def _build(family, config, mesh, device="cpu"):
    fw.manual_seed(0)  # every rank builds identical full weights
    sch = slapo.create_schedule(MODEL_ZOO[family][0](config, device=device),
                                mesh=mesh)
    SCHEDULES[family](sch, config)
    return slapo.build(sch).model


def _predicted(family, config) -> float:
    """The simulator's params + grads + optimizer bytes, both ranks."""
    model = _build(family, config, DeviceMesh(TP, rank=0, sim=True), "meta")
    stats = compute_model_stats(model)
    params, grads, optimizer, _ = fixed_state_bytes(
        stats.param_bytes, stats.param_count, stats.layer_count,
        zero_stage=0, dp_size=1)
    return TP.tp * (params + grads + optimizer)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_rank_keeps_only_the_priced_fixed_state(family):
    config = _config(family)
    args, labels = _batch(family, config)

    def rank(ctx):
        group = ctx.world_group()
        group.barrier()
        if ctx.rank == 0:
            tracemalloc.start()
        group.barrier()
        model = _build(family, config, DeviceMesh(TP, ctx=ctx))
        opt = fw.AdamW(model.parameters(), lr=1e-3)
        out = model(*args)
        F.cross_entropy(out.reshape(-1, out.shape[-1]), labels).backward()
        del out
        opt.step()
        gc.collect()
        group.barrier()
        live = tracemalloc.get_traced_memory()[0] if ctx.rank == 0 else 0
        group.barrier()
        if ctx.rank == 0:
            tracemalloc.stop()
        return live

    measured = LocalCluster(TP.tp).run(rank)[0]
    predicted = _predicted(family, config)
    print(f"{family} tp=2: predicted {predicted / 1e6:.2f} MB, measured "
          f"{measured / 1e6:.2f} MB ({measured / predicted:.3f})")
    assert measured == pytest.approx(predicted, rel=REL)
