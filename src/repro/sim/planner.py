"""Micro-batch planning: pick the fastest configuration that fits in memory.

Mirrors the paper's methodology ("the micro-batch size is selected based on
the memory footprint maximizing the system performance", §5) — every system
in the benchmarks gets the same planner so comparisons are fair.

Pipeline parallelism is a first-class planning dimension: ``pp`` and the
number of micro-batches are jointly swept (a pipeline must hold at least
``pp`` micro-batches to fill — enforced on *every* path), and with
``pipeline_cuts="auto"`` the stage-balancing planner
(:func:`repro.sim.pipeline.plan_pipeline_cuts`) picks cut points per
candidate so throughput and memory are priced off the actual bottleneck
stage rather than a uniform ``/pp`` slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.distributed.mesh import ParallelConfig
from repro.distributed.topology import ClusterSpec
from repro.pipeline import DEFAULT_SCHEDULE, schedule_info
# Bound here so perfbench's traced run can probe planner-side builds; the
# planner itself only asks GeneratorInfo.check.
from repro.pipeline import make_program  # noqa: F401

from .events import ModelTrace
from .kernel_cost import KernelCostModel
from .memory import MemoryBreakdown, model_memory, model_stats_for
from .throughput import DEFAULT_BUCKET_MB, throughput

#: candidate micro-batch sizes swept by the planner
MICRO_BATCH_CANDIDATES = (1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128)

#: micro-batch-count multiples of ``pp`` swept when the count is free
NUM_MICRO_BATCH_FACTORS = (1, 2, 4, 8)


def micro_batch_count_candidates(pp: int) -> tuple[int, ...]:
    """Micro-batch counts worth sweeping for a depth-``pp`` pipeline."""
    if pp <= 1:
        return (1,)
    return tuple(pp * f for f in NUM_MICRO_BATCH_FACTORS)


@dataclass
class Plan:
    micro_batch: int
    throughput: float
    memory: MemoryBreakdown
    num_micro_batches: int = 1
    #: stage cut points used for pricing (empty = uniform /pp estimate)
    pipeline_cuts: tuple = ()
    #: tick program the pipeline was priced under
    pipeline_schedule: str = DEFAULT_SCHEDULE

    @property
    def fits(self) -> bool:
        return self.micro_batch > 0


@dataclass
class Prediction:
    """The simulator's answer to "how would this configuration perform?".

    This is the auto-tuner's pruning-and-ranking oracle (paper §3.4 /
    Fig. 10): ``fits=False`` configurations can be rejected without paying
    for a measurement, and feasible ones can be ordered by ``throughput``
    so only the most promising are measured.
    """

    throughput: float
    fits: bool
    memory: MemoryBreakdown | None = None
    micro_batch: int = 0
    num_micro_batches: int = 1
    #: stage cut points used for pricing (empty = uniform /pp estimate)
    pipeline_cuts: tuple = ()
    #: tick program the pipeline was priced under
    pipeline_schedule: str = DEFAULT_SCHEDULE

    @property
    def memory_bytes(self) -> float:
        return 0.0 if self.memory is None else self.memory.total


class _InvalidCuts(ValueError):
    """Explicit cuts that cannot describe a ``pp``-stage partition."""


def _resolve_cuts(pipeline_cuts, trace: ModelTrace, model,
                  cluster: ClusterSpec, parallel: ParallelConfig,
                  micro_batch: int, num_micro_batches: int,
                  zero_stage: int,
                  cost_model: KernelCostModel | None) -> tuple | None:
    """Normalize a ``pipeline_cuts`` argument to a concrete tuple.

    ``None`` → uniform pricing; ``"auto"`` → run the stage-balancing
    planner (falling back to uniform when the trace has no layer marks);
    a sequence → validated verbatim.  Explicit cuts that are malformed or
    whose stage count disagrees with ``pp`` raise :class:`_InvalidCuts`,
    which the planner entry points report as an infeasible configuration
    (the tuner's oracle must never crash mid-sweep on a bad coordinate).
    """
    if pipeline_cuts is None or parallel.pp <= 1:
        return None
    from .pipeline import plan_pipeline_cuts, validate_cuts

    if pipeline_cuts == "auto":
        plan = plan_pipeline_cuts(trace, model, cluster, parallel,
                                  micro_batch, num_micro_batches,
                                  zero_stage, cost_model)
        return plan.cuts if plan is not None else None
    try:
        cuts = validate_cuts(tuple(pipeline_cuts), len(trace.layers))
    except ValueError as error:
        raise _InvalidCuts(str(error)) from None
    if len(cuts) + 1 != parallel.pp:
        raise _InvalidCuts(
            f"{len(cuts)} pipeline cuts make {len(cuts) + 1} stages but "
            f"the parallel config has pp={parallel.pp}"
        )
    return cuts


def _pipeline_peak_memory(trace: ModelTrace, cuts: tuple,
                          micro_batch: int, num_micro_batches: int,
                          zero_stage: int, dp_size: int,
                          schedule: str = DEFAULT_SCHEDULE
                          ) -> MemoryBreakdown:
    """The worst stage's peak memory under the schedule's in-flight counts."""
    from .pipeline import stage_memory, stage_profiles

    breakdowns = [
        stage_memory(trace, profile, micro_batch, num_micro_batches,
                     zero_stage, dp_size, schedule=schedule)
        for profile in stage_profiles(trace, cuts)
    ]
    return max(breakdowns, key=lambda b: b.total)


def _uniform_memory(trace: ModelTrace, model, parallel: ParallelConfig,
                    micro_batch: int, num_micro_batches: int,
                    zero_stage: int, schedule: str) -> MemoryBreakdown:
    """Cut-less peak memory: uniform ``/pp`` slice, schedule-aware in-flight.

    The legacy path priced 1F1B's first stage (``pp`` in flight); other
    schedules rescale the activation term by their own worst-stage peak
    (:func:`repro.sim.pipeline.schedule_stage_inflight`) — GPipe holds all
    ``m``, zero-bubble matches 1F1B, interleaved pays its chunk tax.
    """
    pp = parallel.pp
    memory = model_memory(model, trace, micro_batch, zero_stage,
                          parallel.dp, pp, inflight_micro_batches=pp)
    if schedule != DEFAULT_SCHEDULE and pp > 1:
        from .pipeline import schedule_stage_inflight

        peak_units = max(
            schedule_stage_inflight(schedule, s, pp, num_micro_batches)
            for s in range(pp))
        memory = memory.scaled_activations(peak_units / pp)
    return memory


def _schedule_expressible(schedule: str, pp: int,
                          num_micro_batches: int) -> bool:
    """Whether the named schedule has a program for this (pp, m) point.

    Unknown names and structurally impossible combinations (interleaved
    with ``m % pp != 0``) make a configuration infeasible, never a
    mid-sweep crash — the tuner's oracle contract.  Asks the generator's
    ``check`` precondition; no tick program is built.
    """
    try:
        info = schedule_info(schedule)
        if pp > 1:
            info.check(pp, num_micro_batches)
    except ValueError:
        return False
    return True


def predict_config(trace: ModelTrace, model, cluster: ClusterSpec,
                   parallel: ParallelConfig, micro_batch: int | None = None,
                   zero_stage: int = 0, num_micro_batches: int = 1,
                   global_batch: int | None = None,
                   cost_model: KernelCostModel | None = None,
                   pipeline_cuts: Sequence[int] | str | None = None,
                   pipeline_schedule: str = DEFAULT_SCHEDULE,
                   overlap_grad_sync: bool = False,
                   overlap_bucket_mb: float = DEFAULT_BUCKET_MB
                   ) -> Prediction:
    """Price one configuration: predicted throughput + memory feasibility.

    With ``micro_batch=None`` the planner sweeps
    :data:`MICRO_BATCH_CANDIDATES` and reports the best feasible choice;
    otherwise exactly the requested micro-batch is priced (the tuner's
    usual case, where the batch size is itself a search coordinate).
    ``global_batch`` derives the micro-batch count exactly as
    :func:`plan_micro_batch` does — an indivisible split or a pipeline
    that cannot be filled is reported infeasible.  A pipeline is also
    unfillable with an *explicitly* requested ``num_micro_batches < pp``
    (1F1B/GPipe can never hide the bubble without at least one micro-batch
    per stage), so that is rejected on every path, not just the
    ``global_batch`` one.  ``pipeline_schedule`` prices the pipeline
    under a named tick program (memory *and* bubble — see
    :mod:`repro.sim.pipeline`); a schedule the configuration cannot
    express is reported infeasible, never raised.
    """
    if micro_batch is None:
        plan = plan_micro_batch(trace, model, cluster, parallel, zero_stage,
                                num_micro_batches, global_batch, cost_model,
                                pipeline_cuts=pipeline_cuts,
                                pipeline_schedule=pipeline_schedule,
                                overlap_grad_sync=overlap_grad_sync,
                                overlap_bucket_mb=overlap_bucket_mb)
        if plan is None:
            return Prediction(throughput=0.0, fits=False,
                              pipeline_schedule=pipeline_schedule)
        return Prediction(throughput=plan.throughput, fits=True,
                          memory=plan.memory, micro_batch=plan.micro_batch,
                          num_micro_batches=plan.num_micro_batches,
                          pipeline_cuts=plan.pipeline_cuts,
                          pipeline_schedule=plan.pipeline_schedule)
    if global_batch is not None:
        denom = parallel.dp * micro_batch
        if global_batch % denom != 0:
            return Prediction(throughput=0.0, fits=False,
                              micro_batch=micro_batch,
                              pipeline_schedule=pipeline_schedule)
        num_micro_batches = global_batch // denom
    if parallel.pp > 1 and num_micro_batches < parallel.pp:
        # an unfillable pipeline is infeasible, with or without a
        # global-batch constraint
        return Prediction(throughput=0.0, fits=False,
                          micro_batch=micro_batch,
                          num_micro_batches=num_micro_batches,
                          pipeline_schedule=pipeline_schedule)
    if not _schedule_expressible(pipeline_schedule, parallel.pp,
                                 num_micro_batches):
        return Prediction(throughput=0.0, fits=False,
                          micro_batch=micro_batch,
                          num_micro_batches=num_micro_batches,
                          pipeline_schedule=pipeline_schedule)
    try:
        cuts = _resolve_cuts(pipeline_cuts, trace, model, cluster, parallel,
                             micro_batch, num_micro_batches, zero_stage,
                             cost_model)
    except _InvalidCuts:
        return Prediction(throughput=0.0, fits=False,
                          micro_batch=micro_batch,
                          num_micro_batches=num_micro_batches,
                          pipeline_schedule=pipeline_schedule)
    if cuts:
        memory = _pipeline_peak_memory(trace, cuts, micro_batch,
                                       num_micro_batches, zero_stage,
                                       parallel.dp,
                                       schedule=pipeline_schedule)
    else:
        memory = _uniform_memory(trace, model, parallel, micro_batch,
                                 num_micro_batches, zero_stage,
                                 pipeline_schedule)
    if memory.total > cluster.gpu.usable_memory:
        return Prediction(throughput=0.0, fits=False, memory=memory,
                          micro_batch=micro_batch,
                          num_micro_batches=num_micro_batches,
                          pipeline_cuts=cuts or (),
                          pipeline_schedule=pipeline_schedule)
    rate = throughput(trace, model, cluster, parallel, micro_batch,
                      zero_stage, num_micro_batches, cost_model,
                      pipeline_cuts=cuts, pipeline_schedule=pipeline_schedule,
                      overlap_grad_sync=overlap_grad_sync,
                      overlap_bucket_mb=overlap_bucket_mb)
    return Prediction(throughput=rate, fits=True, memory=memory,
                      micro_batch=micro_batch,
                      num_micro_batches=num_micro_batches,
                      pipeline_cuts=cuts or (),
                      pipeline_schedule=pipeline_schedule)


def plan_micro_batch(trace: ModelTrace, model, cluster: ClusterSpec,
                     parallel: ParallelConfig, zero_stage: int = 0,
                     num_micro_batches: int | None = 1,
                     global_batch: int | None = None,
                     cost_model: KernelCostModel | None = None,
                     candidates=MICRO_BATCH_CANDIDATES,
                     pipeline_cuts: Sequence[int] | str | None = None,
                     pipeline_schedule: str = DEFAULT_SCHEDULE,
                     overlap_grad_sync: bool = False,
                     overlap_bucket_mb: float = DEFAULT_BUCKET_MB
                     ) -> Plan | None:
    """Best feasible micro-batch (None if even batch 1 overflows memory).

    With ``global_batch`` set (strong scaling, paper §5.2), the number of
    micro-batches is derived as ``global / (dp × micro)`` and infeasible
    divisions are skipped; with ``num_micro_batches=None`` the count is
    swept jointly with the micro-batch size over multiples of ``pp``
    (:func:`micro_batch_count_candidates`).  Either way a pipeline is
    only fillable with at least ``pp`` micro-batches — explicit counts
    below that are rejected rather than priced with a fictitious bubble.
    The sweep prices every candidate from the trace's compiled aggregates
    and cached :class:`ModelStats` — the model itself is never re-walked
    per candidate.
    """
    model_stats_for(trace, model)  # compute statics once, before the sweep
    try:
        schedule_info(pipeline_schedule)
    except ValueError:
        return None  # unknown schedule: no candidate can be feasible
    best: Plan | None = None
    budget = cluster.gpu.usable_memory
    pp = parallel.pp
    for micro in candidates:
        if global_batch is not None:
            denom = parallel.dp * micro
            if global_batch % denom != 0:
                continue
            counts = (global_batch // denom,)
        elif num_micro_batches is None:
            counts = micro_batch_count_candidates(pp)
        else:
            counts = (num_micro_batches,)
        for m in counts:
            if pp > 1 and m < pp:
                continue  # not enough micro-batches to fill the pipeline
            if not _schedule_expressible(pipeline_schedule, pp, m):
                continue  # e.g. interleaved with m not a multiple of pp
            try:
                cuts = _resolve_cuts(pipeline_cuts, trace, model, cluster,
                                     parallel, micro, m, zero_stage,
                                     cost_model)
            except _InvalidCuts:
                return None  # no candidate can fix a malformed partition
            if cuts:
                memory = _pipeline_peak_memory(trace, cuts, micro, m,
                                               zero_stage, parallel.dp,
                                               schedule=pipeline_schedule)
            else:
                memory = _uniform_memory(trace, model, parallel, micro, m,
                                         zero_stage, pipeline_schedule)
            if memory.total > budget:
                continue
            rate = throughput(trace, model, cluster, parallel, micro,
                              zero_stage, m, cost_model, pipeline_cuts=cuts,
                              pipeline_schedule=pipeline_schedule,
                              overlap_grad_sync=overlap_grad_sync,
                              overlap_bucket_mb=overlap_bucket_mb)
            if best is None or rate > best.throughput:
                best = Plan(micro_batch=micro, throughput=rate,
                            memory=memory, num_micro_batches=m,
                            pipeline_cuts=cuts or (),
                            pipeline_schedule=pipeline_schedule)
    return best
