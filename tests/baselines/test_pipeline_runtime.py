"""Pipeline runtime: gradient equivalence + 1F1B schedule properties.

Promotes the ``examples/pipeline_gpt.py`` check into the suite: micro-
batched pipeline training (GPipe *and* 1F1B, balanced and uneven cuts,
``m != num_stages``) must reproduce full-batch gradients exactly, and the
1F1B tick schedule must satisfy the structural properties the simulator's
per-stage memory accounting relies on (every backward preceded by its
forward, stage-``s`` in-flight peaking at ``min(pp - s, m)``).
"""

import numpy as np
import pytest

import repro.slapo as slapo
from repro import framework as fw
from repro.baselines import PipelineRuntime
from repro.distributed import DeviceMesh, ParallelConfig
from repro.framework import functional as F
from repro.models import GPT_2_9B, GPT2LMHeadModel
from repro.pipeline import make_program


def _build_pipeline(cut_layers, pp):
    """A tiny GPT partitioned after the given transformer blocks."""
    config = GPT_2_9B.tiny(num_layers=4, hidden_size=16, num_heads=2,
                           vocab_size=64)
    fw.manual_seed(0)
    model = GPT2LMHeadModel(config)
    model.eval()  # deterministic: no dropout
    mesh = DeviceMesh(ParallelConfig(pp=pp), rank=0, sim=True)
    sch = slapo.create_schedule(model, mesh=mesh)
    for layer in cut_layers:
        sch[f"transformer.h.{layer}"].pipeline_split()
    built = slapo.build(sch, target="deepspeed")
    return config, model, built


def _reference_gradients(config, model, built, ids, labels):
    logits = built(ids)
    loss = F.cross_entropy(logits.view(-1, config.vocab_size), labels)
    loss.backward()
    reference = {name: p.grad.numpy().copy()
                 for name, p in model.named_parameters()
                 if p.grad is not None}
    model.zero_grad()
    return loss, reference


def _max_gradient_deviation(model, reference):
    worst = 0.0
    for name, p in model.named_parameters():
        if name in reference and p.grad is not None:
            worst = max(worst, float(np.max(np.abs(
                p.grad.numpy() - reference[name]))))
    return worst


@pytest.mark.parametrize("schedule", ["1f1b", "gpipe"])
@pytest.mark.parametrize("cut_layers,pp", [
    ((1,), 2),          # balanced 2-stage
    ((0,), 2),          # uneven: 1 block vs 3 blocks + LM head
    ((0, 2), 3),        # 3 stages, uneven
])
def test_micro_batched_training_matches_full_batch(schedule, cut_layers,
                                                   pp):
    """Gradient equivalence with m != num_stages and uneven cuts."""
    config, model, built = _build_pipeline(cut_layers, pp)
    batch, seq, num_micro = 6, 5, 3  # m=3 vs pp∈{2,3}
    ids = fw.randint(0, config.vocab_size, (batch, seq))
    labels = fw.randint(0, config.vocab_size, (batch * seq,))
    full_loss, reference = _reference_gradients(config, model, built, ids,
                                                labels)

    runtime = PipelineRuntime(built.stages, num_micro_batches=num_micro,
                              schedule=schedule)
    micro = batch // num_micro
    micro_inputs = [(ids[i * micro:(i + 1) * micro],)
                    for i in range(num_micro)]
    micro_labels = [labels[i * micro * seq:(i + 1) * micro * seq]
                    for i in range(num_micro)]

    def loss_fn(output, index):
        return F.cross_entropy(output.view(-1, config.vocab_size),
                               micro_labels[index])

    mean_loss = runtime.train_step(micro_inputs, loss_fn)
    assert mean_loss == pytest.approx(float(full_loss.item()), rel=1e-4)
    assert _max_gradient_deviation(model, reference) < 1e-4


@pytest.mark.parametrize("schedule", ["1f1b", "gpipe", "zb", "interleaved"])
def test_every_registered_schedule_matches_full_batch(schedule):
    """Differential gradient equivalence for all four tick programs, with
    uneven cuts and m != physical stages (interleaved runs 2 chunks per
    stage, so its 4 modules map onto 2 physical stages)."""
    num_stages = 2
    cuts, pp = ((0, 1, 2), 4) if schedule == "interleaved" else ((0,), 2)
    config, model, built = _build_pipeline(cuts, pp)
    batch, seq, num_micro = 8, 5, 4  # m=4 vs 2 physical stages
    ids = fw.randint(0, config.vocab_size, (batch, seq))
    labels = fw.randint(0, config.vocab_size, (batch * seq,))
    full_loss, reference = _reference_gradients(config, model, built, ids,
                                                labels)

    runtime = PipelineRuntime(built.stages, num_micro_batches=num_micro,
                              schedule=schedule, num_stages=num_stages)
    micro = batch // num_micro
    micro_inputs = [(ids[i * micro:(i + 1) * micro],)
                    for i in range(num_micro)]
    micro_labels = [labels[i * micro * seq:(i + 1) * micro * seq]
                    for i in range(num_micro)]

    def loss_fn(output, index):
        return F.cross_entropy(output.view(-1, config.vocab_size),
                               micro_labels[index])

    mean_loss = runtime.train_step(micro_inputs, loss_fn)
    assert mean_loss == pytest.approx(float(full_loss.item()), rel=1e-4)
    assert _max_gradient_deviation(model, reference) < 1e-4
    # observed in-flight peaks are exactly the program's prediction
    assert runtime.last_stage_peaks == runtime.program().stage_peaks()


class _RecordingStage:
    """Transparent stage wrapper logging each invocation's virtual stage."""

    def __init__(self, stage, vstage, log):
        self._stage = stage
        self._vstage = vstage
        self._log = log

    def __call__(self, *args):
        self._log.append(self._vstage)
        return self._stage(*args)


@pytest.mark.parametrize("schedule", ["1f1b", "gpipe", "zb", "interleaved"])
def test_train_step_is_tick_driven(schedule):
    """The regression the tick-program rework exists for: ``train_step``
    must execute stages in the *schedule's* order (the old runtime
    collapsed the whole chain into stage 0's forward ticks).  Each stage
    module records its invocations; the observed per-tick activity must
    equal the program linearization's forward ops, and ``last_trace``
    must replay the full program (W ticks included)."""
    num_stages = 2
    cuts, pp = ((0, 1, 2), 4) if schedule == "interleaved" else ((0,), 2)
    config, model, built = _build_pipeline(cuts, pp)
    num_micro = 4
    log = []
    stages = [_RecordingStage(stage, vs, log)
              for vs, stage in enumerate(built.stages)]
    runtime = PipelineRuntime(stages, num_micro_batches=num_micro,
                              schedule=schedule, num_stages=num_stages)
    ids = fw.randint(0, config.vocab_size, (num_micro, 5))
    labels = fw.randint(0, config.vocab_size, (num_micro * 5,))

    def loss_fn(output, index):
        return F.cross_entropy(output.view(-1, config.vocab_size),
                               labels[index * 5:(index + 1) * 5])

    runtime.train_step([(ids[i:i + 1],) for i in range(num_micro)], loss_fn)
    program = runtime.program()
    linear = program.linearize()
    # forward ticks drove the stage calls, in exactly the schedule order
    assert log == [op.vstage(num_stages) for op in linear
                   if op.kind == "F"]
    # the trace replays the whole program, W bookkeeping ticks included
    assert runtime.last_trace == linear
    if schedule == "zb":
        assert any(t.kind == "W" for t in runtime.last_trace)


class TestTickScheduleProperties:
    """The 1F1B schedule the per-stage memory model is validated against."""

    CASES = [(p, m) for p in (1, 2, 3, 4) for m in (1, 2, 3, 4, 8)]

    @pytest.mark.parametrize("p,m", CASES)
    def test_dependencies_respected(self, p, m):
        done = set()
        for tick in make_program("1f1b", p, m).linearize():
            key = (tick.kind, tick.stage, tick.micro_batch)
            if tick.kind == "F":
                assert tick.stage == 0 or \
                    ("F", tick.stage - 1, tick.micro_batch) in done
            else:
                # every backward is preceded by its own forward and by the
                # downstream stage's backward
                assert ("F", tick.stage, tick.micro_batch) in done
                assert tick.stage == p - 1 or \
                    ("B", tick.stage + 1, tick.micro_batch) in done
            done.add(key)

    @pytest.mark.parametrize("p,m", CASES)
    def test_all_work_covered_exactly_once(self, p, m):
        for name in ("1f1b", "gpipe"):
            ticks = make_program(name, p, m).linearize()
            everything = {(s, i, kind) for s in range(p) for i in range(m)
                          for kind in ("F", "B")}
            seen = [(t.stage, t.micro_batch, t.kind) for t in ticks]
            assert len(seen) == len(everything)
            assert set(seen) == everything

    @pytest.mark.parametrize("p,m", CASES)
    def test_stage_inflight_peaks_at_pp_minus_s(self, p, m):
        """Stage s holds at most min(p - s, m) activations — the invariant
        ``repro.sim.memory.stage_inflight`` prices."""
        from repro.sim import stage_inflight

        inflight = [0] * p
        peak = [0] * p
        for tick in make_program("1f1b", p, m).linearize():
            inflight[tick.stage] += 1 if tick.kind == "F" else -1
            assert inflight[tick.stage] >= 0
            peak[tick.stage] = max(peak[tick.stage], inflight[tick.stage])
        assert peak == [stage_inflight(s, p, m) for s in range(p)]

    def test_1f1b_peaks_below_gpipe(self):
        """The point of 1F1B: bounded in-flight work (GPipe holds all m)."""
        p, m = 3, 8

        def peaks(name):
            inflight, peak = [0] * p, [0] * p
            for t in make_program(name, p, m).linearize():
                inflight[t.stage] += 1 if t.kind == "F" else -1
                peak[t.stage] = max(peak[t.stage], inflight[t.stage])
            return peak

        assert peaks("1f1b") == [3, 2, 1]
        assert peaks("gpipe") == [m, m, m]
