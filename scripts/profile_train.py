"""Profile the eager GPT tp=2 training step: phase split and hot functions.

Builds the ``train_gpt_tp2`` benchmark configuration from public APIs
(``MODEL_ZOO["GPT"]`` at ``GPT_TRAIN_SIZES``,
``schedule_gpt(ckpt_ratio=0.5)``, ``slapo.build``, ``AdamW``,
``LocalCluster(2)``): a tiny GPT sharded over two rank threads, batch 4,
seed 0.  Each rank builds and runs one warm-up step under
``tracemalloc``, then one step under ``tracemalloc`` (both rank threads,
untimed), then ``--steps`` steps timed by phase (forward + loss,
backward, optimizer), then ``--steps`` more under its own ``cProfile``
profiler (cProfile follows one thread, so every rank thread gets one).
Prints what each rank keeps between steps (its parameter, gradient and
optimizer-state bytes, and the bytes both ranks left live after build
and warm-up) next to the simulator's ``fixed_state_bytes`` for the
shard; the traced memory of the step (bytes live when backward starts,
the step's peak, bytes live after backward, all counted from the step's
start) next to the simulator's activations for the same step
(``model_memory`` over rank 0's meta trace of model and loss, times the
two ranks); the per-rank phase split and rank 0's top ``--top``
functions by self time, in ms per step; and the process's resident set
size after imports and its peak at exit (``ru_maxrss``).

    python scripts/profile_train.py [--size tiny|full] [--steps N] [--top K]

``make profile-train`` runs the full size; ``make test`` runs
``--size tiny --steps 2`` as a smoke test.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

# One BLAS thread per rank thread, as the benchmark runs it (must be set
# before numpy loads its BLAS).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import repro.slapo as slapo  # noqa: E402
from repro import framework as fw  # noqa: E402
from repro.distributed import (DeviceMesh, LocalCluster,  # noqa: E402
                               ParallelConfig)
from repro.framework import events as fw_events  # noqa: E402
from repro.framework import functional as F  # noqa: E402
from repro.models import GPT_TRAIN_SIZES, MODEL_ZOO, data  # noqa: E402
from repro.schedules import schedule_gpt  # noqa: E402
from repro.sim import TraceRecorder, model_memory  # noqa: E402
from repro.sim.memory import (compute_model_stats,  # noqa: E402
                              fixed_state_bytes)

TP = 2
BATCH = 4
SEED = 0
PHASES = ("forward", "backward", "optimizer")
STATE = ("params", "grads", "optimizer")


def build_model(config, mesh, device="cpu"):
    fw.manual_seed(SEED)  # every rank builds identical full weights
    sch = slapo.create_schedule(MODEL_ZOO["GPT"][0](config, device=device),
                                mesh=mesh)
    schedule_gpt(sch, config, ckpt_ratio=0.5)
    return slapo.build(sch).model


def build_rank(ctx, config):
    model = build_model(config, DeviceMesh(ParallelConfig(tp=TP), ctx=ctx))
    return model, fw.AdamW(model.parameters(), lr=1e-3)


def step_loss(model, batch, vocab: int):
    ids, labels = batch
    return F.cross_entropy(model(ids).reshape(-1, vocab), labels)


def predicted(config) -> dict:
    """The simulator's numbers for rank 0's shard: ``fixed_state_bytes``
    at ZeRO 0 by term, and the step's activations times the two ranks."""
    model = build_model(config, DeviceMesh(ParallelConfig(tp=TP), rank=0,
                                           sim=True), device="meta")
    recorder = TraceRecorder()
    with fw_events.recording(recorder):
        step_loss(model, data.lm_batch(config, BATCH, device="meta"),
                  config.vocab_size)
    trace = recorder.finish()
    trace.ref_batch = BATCH
    stats = compute_model_stats(model)
    fixed = fixed_state_bytes(stats.param_bytes, stats.param_count,
                              stats.layer_count, zero_stage=0, dp_size=1)
    return dict(zip(STATE, fixed),
                activations=TP * model_memory(model, trace,
                                              BATCH).activations)


def resident_state(model, opt) -> dict:
    """Bytes of this rank's parameters, their gradients and its optimizer
    state."""
    params = list({id(p): p for p in model.parameters()}.values())
    return {
        "params": sum(p.data.nbytes for p in params),
        "grads": sum(p.grad.data.nbytes for p in params
                     if p.grad is not None),
        "optimizer": sum(value.nbytes for state in opt.state.values()
                         for value in state.values()
                         if isinstance(value, np.ndarray)),
    }


def train_step(model, opt, batch, vocab: int) -> dict:
    """One step; returns seconds per phase."""
    times = {}
    start = time.perf_counter()
    opt.zero_grad()
    loss = step_loss(model, batch, vocab)
    times["forward"] = time.perf_counter() - start
    start = time.perf_counter()
    loss.backward()
    times["backward"] = time.perf_counter() - start
    start = time.perf_counter()
    opt.step()
    times["optimizer"] = time.perf_counter() - start
    return times


def traced_step(ctx, model, opt, batch, vocab: int) -> dict:
    """One step under ``tracemalloc``; returns traced bytes by moment.

    Both rank threads allocate into the one process-wide trace, so the
    ranks start and stop it together, between barriers.  Bytes count from
    the step's start: ``backward_start`` is what the forward left live,
    ``after_backward`` what backward left live before the optimizer runs,
    ``peak`` the step's high-water mark, optimizer included.
    """
    group = ctx.world_group()
    opt.zero_grad()
    group.barrier()
    if ctx.rank == 0:
        tracemalloc.start()
    group.barrier()
    loss = step_loss(model, batch, vocab)
    group.barrier()
    memory = {"backward_start": tracemalloc.get_traced_memory()[0]}
    group.barrier()
    loss.backward()
    group.barrier()
    memory["after_backward"] = tracemalloc.get_traced_memory()[0]
    group.barrier()
    opt.step()
    group.barrier()
    memory["peak"] = tracemalloc.get_traced_memory()[1]
    group.barrier()
    if ctx.rank == 0:
        tracemalloc.stop()
    return memory


def profile(size: str, steps: int):
    """Run the profile; returns (traced step memory, per-rank phase times,
    per-rank pstats)."""
    config = MODEL_ZOO["GPT"][1].tiny(**GPT_TRAIN_SIZES[size])
    rng = np.random.default_rng([SEED, 1])
    seq, vocab = config.max_seq_len, config.vocab_size
    batches = [(fw.tensor(rng.integers(0, vocab, (BATCH, seq))),
                fw.tensor(rng.integers(0, vocab, (BATCH * seq,))))
               for _ in range(2 * steps + 1)]

    def rank(ctx):
        group = ctx.world_group()
        group.barrier()
        if ctx.rank == 0:
            tracemalloc.start()
        group.barrier()
        model, opt = build_rank(ctx, config)
        train_step(model, opt, batches[0], vocab)  # warm-up
        group.barrier()
        state = dict(resident_state(model, opt),
                     live=tracemalloc.get_traced_memory()[0])
        group.barrier()
        if ctx.rank == 0:
            tracemalloc.stop()
        memory = traced_step(ctx, model, opt, batches[0], vocab)
        phases = [train_step(model, opt, batch, vocab)
                  for batch in batches[1:steps + 1]]
        profiler = cProfile.Profile()
        profiler.enable()
        for batch in batches[steps + 1:]:
            train_step(model, opt, batch, vocab)
        profiler.disable()
        return state, memory, phases, pstats.Stats(profiler)

    state, memory, phases, stats = zip(*LocalCluster(TP).run(rank))
    return state, dict(memory[0], predicted=predicted(config)), phases, \
        stats


def _where(func) -> str:
    filename, line, name = func
    if filename == "~":
        return name  # a builtin, e.g. <method 'astype' of ...>
    path = Path(filename)
    try:
        path = path.resolve().relative_to(SRC)
    except ValueError:
        path = Path(path.name)
    return f"{path}:{line}({name})"


def report(state, memory, phases, stats, steps: int, top: int) -> str:
    sim = memory["predicted"]
    lines = ["what each rank keeps after build + warm-up (MB):",
             f"{'':<12}" + "".join(f"{key:>11}" for key in STATE + ("total",))]
    for label, row in [(f"rank{r}", s) for r, s in enumerate(state)] + [
            ("simulator", sim)]:
        values = [row[key] for key in STATE]
        lines.append(f"  {label:<10}" + "".join(
            f"{v / 1e6:>11.2f}" for v in values + [sum(values)]))
    lines += [f"  {'live after build + warm-up, both ranks':<40}"
              f"{state[0]['live'] / 1e6:>8.2f}",
              f"  {'simulator, both ranks':<40}"
              f"{TP * sum(sim[key] for key in STATE) / 1e6:>8.2f}",
              "", "traced memory of one step, both ranks (MB, from the "
              "step's start):"]
    for label, value in (("live when backward starts",
                          memory["backward_start"]),
                         ("simulator's activations", sim["activations"]),
                         ("step peak", memory["peak"]),
                         ("live after backward", memory["after_backward"])):
        lines.append(f"  {label:<26}{value / 1e6:>8.1f}")
    lines += ["", f"{'phase':<10}" + "".join(f"{f'rank{r} ms/step':>16}"
                                         for r in range(len(phases)))]
    for phase in PHASES + ("step",):
        row = [statistics.median(
                   sum(t.values()) if phase == "step" else t[phase]
                   for t in rank_phases) * 1e3
               for rank_phases in phases]
        lines.append(f"{phase:<10}" + "".join(f"{v:>16.1f}" for v in row))
    table = stats[0].stats  # {func: (prim calls, calls, self s, cum s, _)}
    total = sum(entry[2] for entry in table.values())
    lines += ["", f"rank 0 under cProfile: {total / steps * 1e3:.1f} ms/step;"
              f" top {top} functions by self time (per step)",
              f"{'self_ms':>9}{'cum_ms':>9}{'calls':>8}  function"]
    ranked = sorted(table.items(), key=lambda kv: kv[1][2], reverse=True)
    for func, (_, calls, self_s, cum_s, _) in ranked[:top]:
        lines.append(f"{self_s / steps * 1e3:>9.2f}{cum_s / steps * 1e3:>9.2f}"
                     f"{calls / steps:>8.0f}  {_where(func)}")
    return "\n".join(lines)


def peak_rss_mb() -> float:
    """This process's high-water resident set size so far, in MB (the
    instrument behind ``perfbench``'s ``peak_rss_mb``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    import_rss = peak_rss_mb()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=sorted(GPT_TRAIN_SIZES),
                        default="full")
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    if args.steps < 1 or args.top < 1:
        parser.error("--steps and --top must be positive")
    state, memory, phases, stats = profile(args.size, args.steps)
    print(f"GPT tp={TP} training step, size={args.size}, batch {BATCH}, "
          f"{args.steps} timed + {args.steps} profiled steps per rank\n")
    print(report(state, memory, phases, stats, args.steps, args.top))
    print(f"\nprocess RSS (MB): {import_rss:.1f} after imports, "
          f"{peak_rss_mb():.1f} peak at exit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
