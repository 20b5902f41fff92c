"""Time the simulator's pricing entry points, µs per call.

Over the prediction-only plan spaces of GPT at world 64 and LLaMA-7B at
world 128 (``PlanRequest(family, world).space_fn()``, the tiny meta
traces the plan service prices, ``p3dn_cluster`` sized to the world),
prints the median of 5 timed passes, after one warm-up pass, for:

* scalar ``predict_config`` over every row, and over the priced rows
  only (those that fit, so ``step_time`` runs);
* ``step_time`` on the priced rows with ``pp == 1``;
* ``predict_batch`` on one config at a time (lowering included);
* ``predict_batch`` on the whole pre-lowered space (its ``BatchPoints``
  built once, as the plan service memoizes them);
* ``predict_batch`` on the whole space with fresh ``BatchPoints`` built
  from its columns on every call, so the per-points grouping is paid
  each time (the cold path a new space shape takes);
* the residual correction of the feasible rows' rates through the plan
  service's memoized feature block (``correct_rates``), fitted on every
  7th feasible config against a synthetic bias.

Then, for the four space shapes of the ``tune_budgeted`` benchmark, one
space build: the define-by-run replay plus ``BatchPoints.from_configs``
against the plan service's columnar build.

BLAS is pinned to one thread.  Takes no options::

    python scripts/time_pricing.py        # or: make time-pricing
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

# must be set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import repro.slapo as slapo  # noqa: E402
from repro.distributed import p3dn_cluster  # noqa: E402
from repro.models import MODEL_ZOO, data  # noqa: E402
from repro.schedules import SCHEDULES  # noqa: E402
from repro.sim import (BatchPoints, predict_batch,  # noqa: E402
                       predict_config, step_time, trace_model)
from repro.sim.memory import model_stats_for  # noqa: E402
from repro.slapo import PlanRequest  # noqa: E402
from repro.slapo import service as service_module  # noqa: E402
from repro.slapo.tuner import (ResidualCostModel,  # noqa: E402
                               SimCostModel, enumerate_space)

SPACES = (("GPT", 64), ("LLaMA-7B", 128))
#: the (family, world) shapes a ``tune_budgeted`` episode queries
TUNE_SHAPES = (("GPT", 64), ("BERT", 32), ("LLaMA-7B", 128), ("OPT", 16))
RUNS = 5


def build_trace(family: str) -> tuple:
    """The tiny meta-device trace a plan query prices."""
    cls, config = MODEL_ZOO[family]
    config = config.tiny()
    model = cls(config, device="meta")
    sch = slapo.create_schedule(model)
    SCHEDULES[family](sch, config, ckpt_ratio=0.0, use_tp=False)
    ids, _ = data.lm_batch(config, 1, device="meta")
    return model, trace_model(model, ids)


def per_call_us(fn, args: list) -> float:
    """Median over ``RUNS`` passes of µs per ``fn(*a)`` for ``a`` in
    ``args``, after one untimed warm-up pass."""
    for a in args:
        fn(*a)
    samples = []
    for _ in range(RUNS):
        start = time.perf_counter()
        for a in args:
            fn(*a)
        samples.append((time.perf_counter() - start) / len(args) * 1e6)
    return statistics.median(samples)


def time_space(family: str, world: int) -> None:
    model, trace = build_trace(family)
    cluster = p3dn_cluster(max(1, (world + 7) // 8))
    parallel_fn = SimCostModel.parallel_fn(world)
    configs = list(enumerate_space(PlanRequest(family, world).space_fn()))
    rows = []
    for config in configs:
        try:
            rows.append((config, parallel_fn(config)))
        except ValueError:
            continue

    def scalar(config, parallel):
        return predict_config(
            trace, model, cluster, parallel, config["micro_batch"],
            zero_stage=config["zero_stage"],
            num_micro_batches=config.get("num_micro_batches", 1))

    priced = [row for row in rows if scalar(*row).fits]
    flat = [(parallel, config["micro_batch"], config["zero_stage"])
            for config, parallel in priced if parallel.pp == 1]
    points = BatchPoints.from_configs(configs, parallel_fn=parallel_fn)
    columns = vars(service_module.enumerate_space(PlanRequest(family, world)))
    ones = np.ones(len(configs), np.int64)
    timings = (
        ("predict_config, all rows", scalar, rows),
        ("predict_config, priced rows", scalar, priced),
        ("step_time, priced pp=1 rows",
         lambda parallel, micro, zero: step_time(
             trace, model, cluster, parallel, micro, zero), flat),
        ("predict_batch, one row",
         lambda config: predict_batch(trace, model, cluster, [config],
                                      parallel_fn=parallel_fn),
         [(config,) for config in configs]),
        (f"predict_batch, {len(configs)} rows",
         lambda: predict_batch(trace, model, cluster, points), [()]),
        ("predict_batch, fresh points",
         lambda: predict_batch(trace, model, cluster,
                               BatchPoints(ep=ones, **columns)), [()]),
    )
    print(f"{family} @ world {world}: {len(configs)} configs, "
          f"{len(priced)} priced, {len(flat)} at pp=1")
    for name, fn, args in timings:
        print(f"  {name:<40} {per_call_us(fn, args):10.1f} µs/call")
    time_correction(family, world, model, trace, cluster)


def time_correction(family: str, world: int, model, trace,
                    cluster) -> None:
    """µs per residual correction of a shape's feasible rows through the
    memoized feature block."""
    request = PlanRequest(family, world)
    shape = service_module.SpaceShape.of(
        service_module.enumerate_space(request))
    batch = predict_batch(trace, model, cluster, shape.points)
    feasible = [i for i in range(len(batch)) if batch.fits[i]]
    configs = [shape.columns.config(i) for i in feasible]
    rates = batch.throughput[feasible]
    residual = ResidualCostModel(SimCostModel(
        lambda _config: (model, trace), cluster,
        parallel=SimCostModel.parallel_fn(world), pipeline_cuts=None,
        trace_key_fn=lambda _config: family))
    corpus = configs[::7]
    residual.learned.fit(residual.features_many(corpus), [
        0.05 * config["zero_stage"] - 0.1 * config["pp"] / config["tp"]
        for config in corpus])
    stats = model_stats_for(trace, model)
    block = shape.features[feasible]
    name = f"correction, feature block ({len(feasible)} rows)"
    us = per_call_us(lambda: residual.correct_rates(block, stats, rates),
                     [()])
    print(f"  {name:<40} {us:10.1f} µs/call")


def time_space_builds() -> None:
    """µs per space build of each tune_budgeted shape."""
    print("space builds of the tune_budgeted shapes:")
    for family, world in TUNE_SHAPES:
        request = PlanRequest(family, world)
        parallel_fn = SimCostModel.parallel_fn(world)
        for name, fn in (
                ("replay + from_configs",
                 lambda: BatchPoints.from_configs(
                     enumerate_space(request.space_fn()),
                     parallel_fn=parallel_fn)),
                ("columnar", lambda: service_module.SpaceShape.of(
                    service_module.enumerate_space(request)))):
            print(f"  {f'{family} @ {world}, {name}':<40} "
                  f"{per_call_us(fn, [()]):10.1f} µs/call")


def main() -> None:
    for family, world in SPACES:
        time_space(family, world)
    time_space_builds()


if __name__ == "__main__":
    main()
