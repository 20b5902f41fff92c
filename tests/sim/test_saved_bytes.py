"""What backward keeps: the ops' declarations against the engine's tape.

Every op that builds a tape node declares, on its meta path, what its
eager backward closure keeps (``meta["saved"]``); the trace recorder
counts each buffer once per trace.  Two oracles hold the simulator to it:
the closures of an eager tape, op by op and byte for byte, and the
``tracemalloc`` bytes live when backward starts.
"""

import tracemalloc
import types
import weakref

import numpy as np
import pytest

import repro.slapo as slapo
from repro import framework as fw
from repro.distributed import DeviceMesh, LocalCluster, ParallelConfig
from repro.framework import autograd, events
from repro.framework import functional as F
from repro.framework.parameter import Parameter
from repro.framework.tensor import Tensor
from repro.models import GPT_TRAIN_SIZES, MODEL_ZOO, ResNetConfig, data
from repro.schedules import SCHEDULES, schedule_gpt
from repro.sim import TraceRecorder, model_memory, trace_model


# ---------------------------------------------------------------------- #
# The recorder's counting rules
# ---------------------------------------------------------------------- #
def _record(fn):
    rec = TraceRecorder()
    with events.recording(rec):
        fn()
    return [op.saved_bytes for op in rec.finish().ops]


def test_a_buffer_is_counted_once_and_a_view_shares_it():
    x = Tensor.meta((4, 8))
    saved = _record(lambda: (F.mul(x, x), F.relu(F.reshape(x, (8, 4)))))
    assert saved == [x.nbytes, 0.0, 0.0]  # mul, reshape, relu


def test_a_copying_reshape_is_a_new_buffer():
    x = Tensor.meta((2, 3, 4))
    y = F.permute(x, (0, 2, 1))  # strided: numpy's reshape copies it
    saved = _record(lambda: (F.relu(F.reshape(y, (2, 12))), F.relu(y)))
    assert saved == [0.0, x.nbytes, x.nbytes]


def test_parameters_are_not_activations():
    x, w = Tensor.meta((4, 8)), Parameter.meta((3, 8))
    assert _record(lambda: F.linear(x, w)) == [x.nbytes]


def test_a_fused_launch_keeps_what_its_members_keep():
    x = Tensor.meta((4, 8))
    rec = TraceRecorder()
    with events.recording(rec):
        with events.fused_region("BiasGeLU"):
            F.gelu(F.add(x, 1.0))
    (fused,) = rec.finish().ops
    assert fused.saved_bytes == 2 * x.nbytes  # gelu's input and 1+erf


def test_the_trace_holds_numbers_not_tensors():
    rec = TraceRecorder()
    x = Tensor.meta((4, 8))
    with events.recording(rec):
        F.mul(x, x)
    ref = weakref.ref(x)
    trace = rec.finish()
    del x
    assert ref() is None
    assert trace.ops[0].saved_bytes == 128.0


@pytest.mark.parametrize("p,training,saved", [(0.0, True, 0), (0.1, False, 0),
                                              (0.1, True, 32)])
def test_dropout_keeps_a_bool_mask_only_when_it_drops(p, training, saved):
    x = Tensor.meta((4, 8))
    assert _record(lambda: F.dropout(x, p, training)) == [saved]


def test_the_tiny_gpt_prices_no_dropout():
    config = MODEL_ZOO["GPT"][1].tiny()  # dropout 0.0
    model = MODEL_ZOO["GPT"][0](config, device="meta")
    ids, _ = data.lm_batch(config, 2, device="meta")
    trace = trace_model(model, ids)
    dropouts = [op.saved_bytes for op in trace.ops if op.name == "dropout"]
    assert dropouts and not any(dropouts)


# ---------------------------------------------------------------------- #
# Oracle 1: the eager tape, op by op
# ---------------------------------------------------------------------- #
def _closure_arrays(fn, seen):
    """Every numpy array ``fn`` reaches through its closure cells."""
    if id(fn) in seen:
        return
    seen.add(id(fn))
    stack = [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, types.FunctionType):
            yield from _closure_arrays(value, seen)
        elif isinstance(value, (tuple, list)):
            stack.extend(value)


def _owner(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _batch(family, config, batch, device, seq=8):
    if family == "T5":
        src, tgt, labels = data.seq2seq_batch(config, batch, seq, seq // 2,
                                              device=device)
        return (src, tgt), labels
    if family == "WideResNet":
        images, labels = data.image_batch(config, batch, device=device)
        return (images,), labels
    ids, labels = data.lm_batch(config, batch, seq, device=device)
    return (ids,), labels


def _loss(out, labels):
    return F.cross_entropy(out.reshape(-1, out.shape[-1]), labels)


class _WithLoss(fw.Module):
    """Trace the loss too: the eager step computes it before backward."""

    def __init__(self, model):
        super().__init__()
        self.model = model

    def forward(self, *args):
        *args, labels = args
        return _loss(self.model(*args), labels)


class _OpLog:
    def __init__(self):
        self.names = []

    def record_op(self, name, *_):
        self.names.append(name)

    def record_comm(self, *_):
        pass


def _tape_bytes(family, config):
    """(op names, bytes each op's tape node holds) of one eager forward.

    A buffer is counted at the first node holding it; parameters are not
    counted.  Ops without a node hold nothing.
    """
    fw.manual_seed(0)
    model = MODEL_ZOO[family][0](config)
    args, labels = _batch(family, config, 2, "cpu")
    log, nodes = _OpLog(), []

    class Node(autograd.GradNode):  # remembers which op built it
        __slots__ = ()

        def __init__(self, *node_args):
            super().__init__(*node_args)
            nodes.append((len(log.names) - 1, self))

    F.GradNode = Node
    try:
        with events.recording(log):
            loss = _loss(model(*args), labels)
    finally:
        F.GradNode = autograd.GradNode
    held = [0] * len(log.names)
    seen = {id(_owner(p.data)): p for p in model.parameters()}
    for index, node in nodes:
        for array in _closure_arrays(node.backward_fn, set()):
            owner = _owner(array)
            if id(owner) not in seen:
                seen[id(owner)] = owner
                held[index] += owner.nbytes
    del loss
    return log.names, held


def _first_of_each_class():
    families, classes = [], set()
    for family, (cls, _) in MODEL_ZOO.items():
        if cls not in classes:
            classes.add(cls)
            families.append(family)
    return families


@pytest.mark.parametrize("family", _first_of_each_class())
def test_declared_saves_match_the_tape(family):
    config = MODEL_ZOO[family][1].tiny()
    names, held = _tape_bytes(family, config)
    model = MODEL_ZOO[family][0](config, device="meta")
    args, labels = _batch(family, config, 2, "meta")
    trace = trace_model(_WithLoss(model), *args, labels)
    assert [op.name for op in trace.ops] == names
    declared = [int(op.saved_bytes) for op in trace.ops]
    mismatches = [(i, name, want, got) for i, (name, want, got)
                  in enumerate(zip(names, held, declared)) if want != got]
    assert not mismatches, mismatches
    assert sum(held) > 0


# ---------------------------------------------------------------------- #
# Oracle 2: tracemalloc, live when backward starts
# ---------------------------------------------------------------------- #
BATCH = 4
REL = 0.10
#: about 10 MB of activations at ratio 0, well above allocator noise
SIZES = dict(GPT_TRAIN_SIZES["full"], hidden_size=128, num_heads=4,
             intermediate_size=512, max_seq_len=64)


def _measure_config(family):
    if family == "WideResNet":
        return ResNetConfig(name="wrn-measure", layers=(1, 1, 1, 1),
                            width_per_group=16, num_classes=10,
                            image_size=64)
    extra = {"kv_dim": None} if family == "T5" else {}
    return MODEL_ZOO[family][1].tiny(**SIZES, **extra)


def _scheduled(family, config, ratio, device):
    fw.manual_seed(0)
    sch = slapo.create_schedule(MODEL_ZOO[family][0](config, device=device))
    SCHEDULES[family](sch, config, ckpt_ratio=ratio, use_tp=False)
    return slapo.build(sch).model


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("family", sorted(MODEL_ZOO))
def test_predicted_activations_match_tracemalloc(family, ratio):
    config = _measure_config(family)
    seq = getattr(config, "max_seq_len", 0)
    model = _scheduled(family, config, ratio, "cpu")
    args, labels = _batch(family, config, BATCH, "cpu", seq)
    _loss(model(*args), labels).backward()  # warm any lazily built state
    model.zero_grad()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = _loss(model(*args), labels)
        measured = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    loss.backward()
    meta_model = _scheduled(family, config, ratio, "meta")
    meta_args, meta_labels = _batch(family, config, BATCH, "meta", seq)
    trace = trace_model(_WithLoss(meta_model), *meta_args, meta_labels,
                        ref_batch=BATCH)
    predicted = model_memory(meta_model, trace, BATCH).activations
    if ratio == 0.0:
        assert measured >= 4e6
    print(f"{family} ckpt {ratio}: predicted {predicted / 1e6:.2f} MB, "
          f"measured {measured / 1e6:.2f} MB")
    assert predicted == pytest.approx(measured, rel=REL)


def test_predicted_activations_match_tracemalloc_tp2():
    """GPT sharded over two ``LocalCluster`` rank threads, half the layers
    checkpointed; both ranks allocate into one trace, so the prediction
    is one rank's activations twice."""
    config = MODEL_ZOO["GPT"][1].tiny(**SIZES)
    ids, labels = data.lm_batch(config, BATCH)
    vocab = config.vocab_size

    def rank(ctx):
        fw.manual_seed(0)
        sch = slapo.create_schedule(
            MODEL_ZOO["GPT"][0](config),
            mesh=DeviceMesh(ParallelConfig(tp=2), ctx=ctx))
        schedule_gpt(sch, config, ckpt_ratio=0.5)
        model = slapo.build(sch).model
        group = ctx.world_group()
        F.cross_entropy(model(ids).reshape(-1, vocab), labels).backward()
        model.zero_grad()
        group.barrier()
        if ctx.rank == 0:
            tracemalloc.start()
        group.barrier()
        before = tracemalloc.get_traced_memory()[0] if ctx.rank == 0 else 0
        group.barrier()
        loss = F.cross_entropy(model(ids).reshape(-1, vocab), labels)
        group.barrier()
        live = tracemalloc.get_traced_memory()[0] - before \
            if ctx.rank == 0 else 0
        group.barrier()
        if ctx.rank == 0:
            tracemalloc.stop()
        loss.backward()
        return live

    measured = LocalCluster(2).run(rank)[0]
    sch = slapo.create_schedule(
        MODEL_ZOO["GPT"][0](config, device="meta"),
        mesh=DeviceMesh(ParallelConfig(tp=2), rank=0, sim=True))
    schedule_gpt(sch, config, ckpt_ratio=0.5)
    model = slapo.build(sch).model
    meta_ids, meta_labels = data.lm_batch(config, BATCH, device="meta")
    trace = trace_model(_WithLoss(model), meta_ids, meta_labels,
                        ref_batch=BATCH)
    predicted = 2 * model_memory(model, trace, BATCH).activations
    print(f"GPT tp=2 ckpt 0.5: predicted {predicted / 1e6:.2f} MB, "
          f"measured {measured / 1e6:.2f} MB")
    assert predicted == pytest.approx(measured, rel=REL)
