"""``train_gpt_tp2``: closed-loop eager training on ``LocalCluster(2)``.

Two rank threads (one per core) each zero their grads, run
``model(ids)``, the cross-entropy loss, ``loss.backward()`` and
``AdamW.step()``; the next step starts when both have finished (see
:class:`Lockstep`).  Each set-up builds and warms the model from
scratch, and set-ups must agree bit for bit on the step-1 loss, which
must also match the unscheduled single-device model.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from collections import Counter
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass

import numpy as np

import repro.slapo as slapo
from repro import framework as fw
from repro.distributed import DeviceMesh, LocalCluster, ParallelConfig
from repro.distributed.cluster import Communicator
from repro.framework import events
from repro.framework import functional as F
from repro.models import MODEL_ZOO
from repro.schedules import schedule_gpt

from .common import Outcome, SpeedProbe, end_to_end, median, ms, overhead_pct
from .tracer import Probe, Tracer, installed, maybe_span

SIZES = {
    "full": dict(hidden_size=256, num_layers=4, num_heads=8,
                 intermediate_size=1024, max_seq_len=128, vocab_size=1024),
    "tiny": dict(hidden_size=32, num_layers=2, num_heads=4,
                 intermediate_size=64, max_seq_len=16, vocab_size=64),
}
TP = 2
BATCH = 4
CKPT_RATIO = 0.5
LR = 1e-3
#: distinct seeded batches, cycled through by the steps
NUM_BATCHES = 8
SETUP_REPS = 5
#: forward ops whose per-step time is reported
OPS = ("linear", "layer_norm", "gelu", "add", "flash_attention",
       "embedding", "cross_entropy")
COLLECTIVES = ("all_reduce", "all_gather", "reduce_scatter", "broadcast",
               "all_to_all")
#: window steps hashed into the loss digest
DIGEST_STEPS = 5


class StepRecorder:
    """``framework.events`` recorder for one rank and one step.

    Counts ops and collectives, and attributes each forward gap between
    successive ``record_op`` events to the op that closed it.  Ops seen
    during ``backward()`` are checkpointed recomputation.
    """

    def __init__(self):
        self.phase = None
        self.last = 0.0
        self.fwd_ops = 0
        self.recompute_ops = 0
        self.op_seconds: Counter = Counter()
        self.collectives = 0
        self.comm_bytes = 0

    def begin(self, phase: str) -> None:
        self.phase = phase
        self.last = time.perf_counter()

    def record_op(self, name, out_shape, dtype, flops=0, bytes_moved=0,
                  meta=None):
        now = time.perf_counter()
        if self.phase == "forward":
            self.fwd_ops += 1
            self.op_seconds[name] += now - self.last
            self.last = now
        elif self.phase == "backward":
            self.recompute_ops += 1

    def record_comm(self, kind, bytes_, group_size, meta=None):
        self.collectives += 1
        self.comm_bytes += bytes_


@dataclass
class RankState:
    model: fw.Module
    opt: fw.AdamW


@dataclass
class RankStep:
    loss: np.float32
    recorder: StepRecorder | None


def model_config(size: str):
    return MODEL_ZOO["GPT"][1].tiny(**SIZES[size])


def make_batches(config, seed: int) -> list[tuple[fw.Tensor, fw.Tensor]]:
    """The seeded (ids, labels) batches every run of ``seed`` trains on."""
    rng = np.random.default_rng([seed, 1])
    seq, vocab = config.max_seq_len, config.vocab_size
    return [(fw.tensor(rng.integers(0, vocab, (BATCH, seq))),
             fw.tensor(rng.integers(0, vocab, (BATCH * seq,))))
            for _ in range(NUM_BATCHES)]


def _build_rank(ctx, config, seed: int, tracer: Tracer | None) -> RankState:
    fw.manual_seed(seed)  # every rank builds identical full weights
    model = MODEL_ZOO["GPT"][0](config)
    mesh = DeviceMesh(ParallelConfig(tp=TP), ctx=ctx)
    sch = slapo.create_schedule(model, mesh=mesh)
    with maybe_span(tracer, "slapo.schedule"):
        schedule_gpt(sch, config, ckpt_ratio=CKPT_RATIO)
    with maybe_span(tracer, "slapo.build"):
        built = slapo.build(sch)
    return RankState(built.model, fw.AdamW(built.model.parameters(), lr=LR))


def _step(state: RankState, batch, vocab: int, tracer: Tracer | None,
          step: int) -> RankStep:
    ids, labels = batch
    recorder = StepRecorder() if tracer is not None else None
    with maybe_span(tracer, "train.rank_step", step), \
            (events.recording(recorder) if recorder else nullcontext()):
        state.opt.zero_grad()
        if recorder:
            recorder.begin("forward")
        with maybe_span(tracer, "framework.forward"):
            logits = state.model(ids)
        loss = F.cross_entropy(logits.reshape(-1, vocab), labels)
        if recorder:
            recorder.begin("backward")
        with maybe_span(tracer, "framework.backward"):
            loss.backward()
        if recorder:
            recorder.begin("optimizer")
        with maybe_span(tracer, "framework.optimizer"):
            state.opt.step()
    return RankStep(np.float32(loss.numpy()), recorder)


def _collective_probes() -> list[Probe]:
    return [Probe(Communicator, kind, "distributed.collective")
            for kind in COLLECTIVES]


def _setup(config, seed: int, batches, tracer: Tracer | None):
    """Model construction, schedule, build and the first (warm-up) step."""
    def rank(ctx):
        state = _build_rank(ctx, config, seed, tracer)
        with maybe_span(tracer, "framework.first_step"):
            first = _step(state, batches[0], config.vocab_size, None, 0)
        return state, first

    start = time.perf_counter()
    cluster = LocalCluster(TP)
    states, first = zip(*cluster.run(rank))
    return cluster, states, first, time.perf_counter() - start


class Lockstep:
    """Runs the timed window's steps on persistent rank threads.

    Both ranks meet at a barrier before every step; its action (run by
    one rank while the other waits) closes the previous step's clock,
    decides whether another step starts, installs the probes for a
    traced step and samples the speed probe.  A step's time is therefore
    the slower rank's, and excludes the speed probe.
    """

    def __init__(self, seconds: float, tracer: Tracer | None,
                 probe: SpeedProbe):
        self.tracer = tracer
        self.probe = probe
        self.deadline = time.perf_counter() + seconds
        self.step = 0
        self.go = True
        self.traced = False
        #: (step, traced, seconds, probe sample) per finished step
        self.times: list[tuple[int, bool, float, int]] = []
        self.sample = 0
        self._start = None
        self._shims = ExitStack()
        self.gate = threading.Barrier(TP, action=self._advance)

    def _advance(self) -> None:
        now = time.perf_counter()
        self._shims.close()
        if self._start is not None:
            self.times.append((self.step, self.traced, now - self._start,
                               self.sample))
        self.step += 1
        self.go = now < self.deadline or self.step <= 2
        self.traced = self.go and self.tracer is not None \
            and self.step % 2 == 1
        if self.traced:
            self._shims.enter_context(
                installed(self.tracer, _collective_probes()))
        self.sample = self.probe.sample()
        self._start = time.perf_counter()

    def rank_loop(self, state: RankState, batches, vocab: int) -> dict:
        """One rank's steps: ``{step: RankStep}``."""
        results = {}
        try:
            while True:
                self.gate.wait(timeout=120)
                if not self.go:
                    return results
                step, traced = self.step, self.traced
                results[step] = _step(state, batches[step % NUM_BATCHES],
                                      vocab, self.tracer if traced else None,
                                      step)
        except BaseException:
            self.gate.abort()  # release the peer rank, then fail the run
            raise


def _reference_loss(config, seed: int, batch) -> float:
    """Step-1 loss of the unscheduled single-device model."""
    fw.manual_seed(seed)
    model = MODEL_ZOO["GPT"][0](config)
    ids, labels = batch
    with fw.no_grad():
        logits = model(ids)
        return float(F.cross_entropy(
            logits.reshape(-1, config.vocab_size), labels).numpy())


def run(seed: int, seconds: float, trace: bool, size: str = "full"
        ) -> tuple[Outcome, Tracer | None]:
    config = model_config(size)
    batches = make_batches(config, seed)
    tracer = Tracer() if trace else None
    out = Outcome()

    setup_times, first_losses = [], []
    probe = SpeedProbe()
    with (installed(tracer, _collective_probes()) if tracer
          else nullcontext()):
        for rep in range(SETUP_REPS):
            with maybe_span(tracer, "train.setup", rep):
                cluster, states, first, elapsed = _setup(
                    config, seed, batches, tracer)
            setup_times.append((elapsed, probe.sample()))
            first_losses.append([r.loss for r in first])
    out.attempted += SETUP_REPS
    for rep, losses in enumerate(first_losses):
        if not all(np.isfinite(losses)) or \
                any(loss.tobytes() != first_losses[0][0].tobytes()
                    for loss in losses):
            out.fail(f"setup {rep}: step-1 losses {losses} differ from "
                     f"{first_losses[0][0]} or are not finite")

    # -- the timed window: untraced, or alternating traced/untraced steps
    lockstep = Lockstep(seconds, tracer, probe)
    ranks = cluster.run(lambda ctx: lockstep.rank_loop(
        states[ctx.rank], batches, config.vocab_size))
    step_times = [t for _, _, t, _ in lockstep.times]
    per_rank = [[r[step] for r in ranks]
                for step, traced, _, _ in lockstep.times if traced]
    losses = []
    for step, _, _, _ in lockstep.times:
        results = [r[step] for r in ranks]
        loss = results[0].loss
        losses.append(loss)
        if not np.isfinite(loss) or \
                any(r.loss.tobytes() != loss.tobytes() for r in results):
            out.fail(f"step {step}: rank losses "
                     f"{[float(r.loss) for r in results]} mismatch or "
                     f"are not finite")
    window = sum(step_times)
    out.attempted += len(step_times)

    reference = _reference_loss(config, seed, batches[0])
    measured = float(first_losses[0][0])
    if not math.isclose(measured, reference, rel_tol=1e-5, abs_tol=1e-6):
        out.fail(f"step-1 loss {measured!r} != single-device reference "
                 f"{reference!r}")

    tokens = BATCH * config.max_seq_len
    digest = hashlib.sha256(
        b"".join(l.tobytes() for l in losses[:DIGEST_STEPS])).hexdigest()
    out.info.update(steps=len(step_times), tokens_per_step=tokens,
                    tokens_per_s=len(step_times) * tokens / window,
                    first_loss=measured, reference_loss=reference,
                    final_loss=float(losses[-1]),
                    loss_digest=digest[:16])
    if tracer is None:
        out.metrics = end_to_end(
            setup_times, [(t, 1, i) for _, _, t, i in lockstep.times],
            [("step", t, i) for _, _, t, i in lockstep.times],
            probe, out.info)
    else:
        out.metrics = _per_layer(tracer, per_rank)
        out.metrics["trace.overhead_pct"] = overhead_pct(
            [("step", t, traced) for _, traced, t, _ in lockstep.times])
    return out, tracer


def _per_step_max(tracer: Tracer, name: str) -> list[float]:
    """Per traced step: the slowest rank's total ``name`` time."""
    by_step: dict = {}
    for root in tracer.named("train.rank_step"):
        by_step.setdefault(root.rid, {})[root.tid] = 0.0
    for span in tracer.named(name):
        ranks = by_step.get(span.rid)
        if ranks is not None and span.tid in ranks:
            ranks[span.tid] += span.duration
    return [max(ranks.values()) for ranks in by_step.values()]


def _per_layer(tracer: Tracer, per_rank) -> dict:
    rank0 = [step[0].recorder for step in per_rank]
    values = {
        "framework.forward_ms": ms(median(
            _per_step_max(tracer, "framework.forward"))),
        "framework.backward_ms": ms(median(
            _per_step_max(tracer, "framework.backward"))),
        "framework.optimizer_ms": ms(median(
            _per_step_max(tracer, "framework.optimizer"))),
        "framework.first_step_ms": ms(median(
            s.duration for s in tracer.named("framework.first_step"))),
        "framework.fwd_ops_per_step": median(r.fwd_ops for r in rank0),
        "framework.recompute_ops_per_step":
            median(r.recompute_ops for r in rank0),
        "distributed.collectives_per_step":
            median(r.collectives for r in rank0),
        "distributed.collective_mb_per_step":
            median(r.comm_bytes / 1e6 for r in rank0),
        "distributed.collective_ms": ms(median(
            _per_step_max(tracer, "distributed.collective"))),
        "slapo.schedule_ms": ms(median(
            s.duration for s in tracer.named("slapo.schedule"))),
        "slapo.build_ms": ms(median(
            s.duration for s in tracer.named("slapo.build"))),
    }
    for op in OPS:
        values[f"framework.op_ms.{op}"] = ms(median(
            max(r.recorder.op_seconds[op] for r in step)
            for step in per_rank))
    return values
