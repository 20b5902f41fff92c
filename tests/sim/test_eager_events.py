"""An eager trace equals the meta trace, event for event.

The simulator prices the meta-device trace, while ``verify()``, the
fuzzer and every measured step run the eager engine.  Each op states its
event once, so a forward plus loss records the same ``OpEvent`` fields on
both paths: a calibration fitted to eager per-op events fits the events
the simulator prices.  The same holds on a sharded mesh: rank 0 of a
``LocalCluster`` records the op and ``CommEvent``\\ s that the
``DeviceMesh(..., sim=True)`` meta trace records, since the vocab hooks,
the collectives and the MoE padding run one path on both devices.
"""

import pytest

import repro.slapo as slapo
from repro import framework as fw
from repro.distributed import DeviceMesh, LocalCluster, ParallelConfig
from repro.framework import events
from repro.models import MODEL_ZOO
from repro.schedules import LAYOUTS, SCHEDULES
from repro.sim import TraceRecorder, trace_model
from test_saved_bytes import _WithLoss, _batch, _first_of_each_class

FIELDS = ("name", "out_shape", "dtype_name", "flops", "bytes_moved",
          "kernel", "saved_bytes")
COMM_FIELDS = ("kind", "bytes_moved", "group_tag", "ranks", "in_checkpoint")


def _events(family, device):
    config = MODEL_ZOO[family][1].tiny()
    fw.manual_seed(0)
    model = _WithLoss(MODEL_ZOO[family][0](config, device=device))
    args, labels = _batch(family, config, 2, device)
    return [tuple(getattr(op, f) for f in FIELDS)
            for op in trace_model(model, *args, labels).ops]


def _differing(eager, meta, fields):
    assert len(eager) == len(meta), (len(eager), len(meta))
    return [(i, field, e, m)
            for i, (eager_ev, meta_ev) in enumerate(zip(eager, meta))
            for field, e, m in zip(fields, eager_ev, meta_ev) if e != m]


@pytest.mark.parametrize("family", _first_of_each_class())
def test_eager_events_equal_meta_events(family):
    differing = _differing(_events(family, "cpu"), _events(family, "meta"),
                           FIELDS)
    assert not differing, differing[:10]


# ---------------------------------------------------------------------- #
# Sharded meshes: rank 0 of a LocalCluster against the sim mesh
# ---------------------------------------------------------------------- #
def _sharded_events(family, mesh, device):
    """(op events, comm events) of one scheduled forward plus loss."""
    config = MODEL_ZOO[family][1].tiny()
    fw.manual_seed(0)
    sch = slapo.create_schedule(MODEL_ZOO[family][0](config, device=device),
                                mesh=mesh)
    SCHEDULES[family](sch, config)
    model = _WithLoss(slapo.build(sch).model)
    args, labels = _batch(family, config, 2, device)
    recorder = TraceRecorder()
    with events.recording(recorder):
        model(*args, labels)
    trace = recorder.finish()
    return ([tuple(getattr(op, f) for f in FIELDS) for op in trace.ops],
            [tuple(getattr(c, f) for f in COMM_FIELDS) for c in trace.comms])


def _rank0_eager_events(family, parallel):
    def rank(ctx):
        return _sharded_events(family, DeviceMesh(parallel, ctx=ctx), "cpu")

    return LocalCluster(parallel.world_size).run(rank)[0]


SHARDED = [pytest.param(family, ParallelConfig(tp=2), id=f"{family}-tp2")
           for family in SCHEDULES if LAYOUTS[family].vocab]
SHARDED += [
    pytest.param("MoE-GPT", ParallelConfig(ep=2), id="MoE-GPT-ep2"),
    pytest.param("MoE-GPT", ParallelConfig(tp=2, ep=2), id="MoE-GPT-tp2ep2"),
]


@pytest.mark.parametrize("family,parallel", SHARDED)
def test_rank0_eager_events_equal_sim_mesh_events(family, parallel):
    eager_ops, eager_comms = _rank0_eager_events(family, parallel)
    meta_ops, meta_comms = _sharded_events(
        family, DeviceMesh(parallel, rank=0, sim=True), "meta")
    differing = _differing(eager_ops, meta_ops, FIELDS)
    assert not differing, differing[:10]
    differing = _differing(eager_comms, meta_comms, COMM_FIELDS)
    assert not differing, differing[:10]
