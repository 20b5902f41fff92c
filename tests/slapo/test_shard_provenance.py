"""What a shard remembers of the parameter it was sliced from.

A shard records its source as an :class:`Origin` (the source's ``id()``,
the source's own record and its row permutation), never the source
itself, so a built model pins nothing of the unscheduled one.
``verify()`` pins the pre-schedule parameters itself and maps shards
back to them through the records.
"""

import gc
import weakref

import numpy as np
import pytest

import repro.slapo as slapo
from repro import framework as fw
from repro.distributed import DeviceMesh, LocalCluster, ParallelConfig
from repro.framework.layers import Linear
from repro.models import MODEL_ZOO
from repro.schedules import SCHEDULES
from repro.slapo.primitives.sharding import _shard_parameter
from repro.slapo.verify.core import _build_param_map


@pytest.mark.parametrize("family,parallel", [
    ("GPT", ParallelConfig(tp=2)),  # fused QKV: interleaved, then sharded
    ("BERT", ParallelConfig(tp=2)),
    ("LLaMA-7B", ParallelConfig(tp=2)),
    ("MoE-GPT", ParallelConfig(tp=2, ep=2)),
], ids=["GPT", "BERT", "LLaMA-7B", "MoE-GPT-ep2"])
def test_a_built_model_pins_no_parameter_it_replaced(family, parallel):
    config = MODEL_ZOO[family][1].tiny()

    def rank(ctx):
        fw.manual_seed(0)
        model = MODEL_ZOO[family][0](config)
        refs = [weakref.ref(p) for p in model.parameters()]
        sch = slapo.create_schedule(model,
                                    mesh=DeviceMesh(parallel, ctx=ctx))
        SCHEDULES[family](sch, config)
        built = slapo.build(sch).model
        del model, sch
        kept = {id(p) for p in built.parameters()}
        replaced = [ref for ref in refs if id(ref()) not in kept]
        shards = sum(getattr(p, "shard_spec", None) is not None
                     and p.shard_spec.num_shards > 1
                     for p in built.parameters())
        gc.collect()
        return len(replaced), shards, sum(ref() is not None
                                          for ref in replaced)

    for replaced, shards, alive in LocalCluster(parallel.world_size).run(
            rank):
        assert replaced > 0 and shards > 0
        assert alive == 0, f"{alive} of {replaced} replaced parameters live"


def test_a_twice_sharded_parameter_maps_to_its_vanilla_name_and_perm():
    fw.manual_seed(0)
    model = Linear(8, 6)
    pre_names = {id(p): name for name, p in model.named_parameters()}
    keepalive = list(model.parameters())  # as verify() pins them
    perm = np.array([1, 0, 3, 2, 5, 4])
    model.weight._slapo_row_perm = perm
    first = _shard_parameter(model.weight, 1, 2, 1)
    second = _shard_parameter(first, 0, 3, 2)
    first_ref = weakref.ref(first)
    del first
    assert first_ref() is None  # the chain does not need it alive
    model._parameters["weight"] = second

    mapped, unmatched = _build_param_map(pre_names, model)
    assert not unmatched
    (weight, param, spec, row_perm), (bias, *_, bias_perm) = mapped
    assert (weight, bias) == ("weight", "bias")
    assert param is second and spec.full_shape == (6, 4)
    assert row_perm == tuple(perm) and bias_perm is None
    assert keepalive[0].shape == (6, 8)
