"""perfbench: the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # each workload in its own process

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The line before it (``{"info": ...}``) records ``nproc``,
the thread-pool settings, ``failed_frac`` and the run's output digests.
A traced run also writes its spans as Chrome trace-event JSON under
``.perfbench_work/``.

Workloads, and why each was chosen
----------------------------------
* ``train_gpt_tp2`` times the eager engine: GPT (hidden 256, 4 layers,
  8 heads, FFN 1024, sequence 128, vocab 1024, fp32, dropout 0, batch 4)
  scheduled by the repo's own ``schedule_gpt(ckpt_ratio=0.5)`` (tp=2
  sharding, flash attention, BiasGeLU/DropoutAdd fusion, checkpointing
  of half the layers) and trained with AdamW on ``LocalCluster(2)``.
  The size keeps a step near 0.2 s on 2 cores, so a 20 s window holds
  about 100 steps, while every op the ROADMAP wants to speed up (linear,
  layer_norm, gelu, flash attention) still does real work.  tp=2 gives
  one rank thread per core.  The planner does no work here.
* ``plan_predict`` times the planning path alone: prediction-only
  queries for GPT, BERT, LLaMA-7B and OPT at world sizes 32, 128 and
  256, each with micro-batch menus (1,2,4,8) and (1,2,4), so 24 distinct
  requests, from 2 closed-loop clients.  The world sizes span spaces of
  594 to 1836 configs and pipelines up to 256 stages deep; the cold pass
  still builds 1F1B tick programs for seconds (``setup_s``,
  ``peak_rss_mb``).  Larger worlds are left out for their cold pass
  alone: 15-18 s and 1.5 GB at 512, 74 s and 6 GB at 1024 on this
  2-core, 8 GB machine, paid twice per run (two set-ups) and 22 runs per
  workload.  A later change can add them once that cold start is fixed.
  The eager engine does no work here.
* ``tune_budgeted`` uses the same service with writes beside reads:
  budgets cycling 4/8/16 over GPT@64, BERT@32, LLaMA-7B@128 and OPT@16,
  a fresh on-disk ``TrialCache`` per set-up and per episode, learned
  refits on, and trials in a 2-worker ``MeasurementPool``.  Each world
  size is paired with exactly one family because ``TrialCache`` keys
  ignore the request context: two families at one world size would read
  each other's measurements.  It exercises the cache, learned and
  workers layers, which ``plan_predict`` never touches.

How the numbers are made steady
-------------------------------
* End-to-end metrics use names common to all workloads: a training step
  or a plan query is the unit of ``throughput_per_s`` and of the
  ``latency_*`` percentiles.  Failed outputs are reported through
  ``failed``/``attempted`` rather than as a metric, since they are 0.
* ``setup_s`` is the median of several fresh set-ups in one run (model
  build and warm-up step; or service, traces and the cold pass over
  every distinct request, with the process-wide tick-program caches
  emptied first).
* Every unit of work repeats exactly: the training step; the plan
  round, whose two clients issue it in lockstep pairs so the same two
  requests always overlap; the tuning episode, replayed from a fresh
  cache.  Latency percentiles are taken per position in that unit and
  combined by geometric mean, so a mix of requests whose costs differ
  tenfold cannot put a percentile in the gap between two of them.
* The host this was built on drifts in speed by up to 40% from one
  minute to the next.  Between units of work each run times a fixed
  reference computation, and every reported time is restated at the
  reference speed (``common.REFERENCE_S``).  The info line keeps the
  wall-clock values and the scale used.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads: the default pool makes
# the two rank threads oversubscribe 2 cores (a tp=2 step then runs at
# ~400 ms instead of ~200 ms, with ~8% run-to-run spread instead of ~1%).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_gpt_tp2", "plan_predict", "tune_budgeted")
WORKDIR = ROOT / ".perfbench_work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run for tests")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process: process-wide caches (the
    tick-program ``lru_cache`` above all) must not leak between them."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
        status |= subprocess.run(command, check=False).returncode
    return status


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common, plan, train, tune

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "train_gpt_tp2":
            out, tracer = train.run(args.seed, args.seconds, bool(args.trace),
                                    args.size)
        elif args.workload == "plan_predict":
            out, tracer = plan.run(args.seed, args.seconds, bool(args.trace),
                                   args.size)
        else:
            out, tracer = tune.run(args.seed, args.seconds, bool(args.trace),
                                   args.size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = common.emit(out.metrics, kind)
    if tracer is not None:
        tracer.write_chrome(
            WORKDIR / f"spans-{args.workload}-seed{args.seed}.json")
    for error in out.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "failed_frac": out.failed / max(out.attempted, 1),
        **out.info,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": out.failed == 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0 if out.failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
