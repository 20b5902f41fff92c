"""Profile the eager GPT tp=2 training step: phase split and hot functions.

Builds the ``train_gpt_tp2`` benchmark configuration from public APIs
(``MODEL_ZOO["GPT"]`` at ``GPT_TRAIN_SIZES``,
``schedule_gpt(ckpt_ratio=0.5)``, ``slapo.build``, ``AdamW``,
``LocalCluster(2)``): a tiny GPT sharded over two rank threads, batch 4,
seed 0.  Each rank runs one warm-up step, then one step under
``tracemalloc`` (both rank threads, untimed), then ``--steps`` steps timed
by phase (forward + loss, backward, optimizer), then
``--steps`` more under its own ``cProfile`` profiler (cProfile follows
one thread, so every rank thread gets one).  Prints the traced memory
of the step (bytes live when backward starts, the step's peak, bytes
live after backward, all counted from the step's start), the per-rank
phase split and rank 0's top ``--top`` functions by self time, in ms
per step.

    python scripts/profile_train.py [--size tiny|full] [--steps N] [--top K]

``make profile-train`` runs the full size; ``make test`` runs
``--size tiny --steps 2`` as a smoke test.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
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
from repro.framework import functional as F  # noqa: E402
from repro.models import GPT_TRAIN_SIZES, MODEL_ZOO  # noqa: E402
from repro.schedules import schedule_gpt  # noqa: E402

TP = 2
BATCH = 4
SEED = 0
PHASES = ("forward", "backward", "optimizer")


def build_rank(ctx, config):
    fw.manual_seed(SEED)  # every rank builds identical full weights
    model = MODEL_ZOO["GPT"][0](config)
    sch = slapo.create_schedule(
        model, mesh=DeviceMesh(ParallelConfig(tp=TP), ctx=ctx))
    schedule_gpt(sch, config, ckpt_ratio=0.5)
    model = slapo.build(sch).model
    return model, fw.AdamW(model.parameters(), lr=1e-3)


def train_step(model, opt, batch, vocab: int) -> dict:
    """One step; returns seconds per phase."""
    ids, labels = batch
    times = {}
    start = time.perf_counter()
    opt.zero_grad()
    loss = F.cross_entropy(model(ids).reshape(-1, vocab), labels)
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
    ids, labels = batch
    opt.zero_grad()
    group.barrier()
    if ctx.rank == 0:
        tracemalloc.start()
    group.barrier()
    loss = F.cross_entropy(model(ids).reshape(-1, vocab), labels)
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
        model, opt = build_rank(ctx, config)
        train_step(model, opt, batches[0], vocab)  # warm-up
        memory = traced_step(ctx, model, opt, batches[0], vocab)
        phases = [train_step(model, opt, batch, vocab)
                  for batch in batches[1:steps + 1]]
        profiler = cProfile.Profile()
        profiler.enable()
        for batch in batches[steps + 1:]:
            train_step(model, opt, batch, vocab)
        profiler.disable()
        return memory, phases, pstats.Stats(profiler)

    memory, phases, stats = zip(*LocalCluster(TP).run(rank))
    return memory[0], phases, stats


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


def report(memory, phases, stats, steps: int, top: int) -> str:
    lines = ["traced memory of one step, both ranks (MB, from the step's "
             "start):"]
    for key, label in (("backward_start", "live when backward starts"),
                       ("peak", "step peak"),
                       ("after_backward", "live after backward")):
        lines.append(f"  {label:<26}{memory[key] / 1e6:>8.1f}")
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=sorted(GPT_TRAIN_SIZES),
                        default="full")
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    if args.steps < 1 or args.top < 1:
        parser.error("--steps and --top must be positive")
    memory, phases, stats = profile(args.size, args.steps)
    print(f"GPT tp={TP} training step, size={args.size}, batch {BATCH}, "
          f"{args.steps} timed + {args.steps} profiled steps per rank\n")
    print(report(memory, phases, stats, args.steps, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
