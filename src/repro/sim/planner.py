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
from .pipeline import (
    _check_stage_count,
    plan_pipeline_cuts,
    schedule_stage_inflight,
    stage_memory,
    stage_profiles,
    validate_cuts,
)
from .throughput import DEFAULT_BUCKET_MB, bucket_valid, throughput

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
class Prediction:
    """The simulator's answer to "how would this configuration perform?".

    This is the auto-tuner's pruning-and-ranking oracle (paper §3.4 /
    Fig. 10): ``fits=False`` configurations can be rejected without paying
    for a measurement, and feasible ones can be ordered by ``throughput``
    so only the most promising are measured.  :func:`plan_micro_batch`
    answers with the best fitting one.
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
    if pipeline_cuts == "auto":
        plan = plan_pipeline_cuts(trace, model, cluster, parallel,
                                  micro_batch, num_micro_batches,
                                  zero_stage, cost_model)
        return plan.cuts if plan is not None else None
    try:
        return _check_stage_count(
            validate_cuts(pipeline_cuts, len(trace.layers)), parallel.pp)
    except ValueError as error:
        raise _InvalidCuts(str(error)) from None


def _peak_memory(trace: ModelTrace, model, parallel: ParallelConfig,
                 cuts: tuple | None, micro_batch: int, num_micro_batches: int,
                 zero_stage: int, schedule: str) -> MemoryBreakdown:
    """The worst stage's peak memory under the schedule's in-flight counts.

    With cuts every stage is priced on its actual slice.  Without, the
    uniform ``/pp`` slice is priced at 1F1B's first stage (``pp`` in
    flight); other schedules rescale the activation term by their own
    worst-stage peak (:func:`repro.sim.pipeline.schedule_stage_inflight`)
    — GPipe holds all ``m``, zero-bubble matches 1F1B, interleaved pays
    its chunk tax.
    """
    if cuts:
        return max((stage_memory(trace, profile, micro_batch,
                                 num_micro_batches, zero_stage, parallel.dp,
                                 schedule=schedule)
                    for profile in stage_profiles(trace, cuts)),
                   key=lambda b: b.total)
    pp = parallel.pp
    memory = model_memory(model, trace, micro_batch, zero_stage,
                          parallel.dp, pp, inflight_micro_batches=pp)
    if schedule != DEFAULT_SCHEDULE and pp > 1:
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


def _micro_batch_counts(parallel: ParallelConfig, micro_batch: int,
                        global_batch: int | None,
                        num_micro_batches: int | None) -> tuple[int, ...]:
    """Micro-batch counts to price at ``micro_batch``: derived from
    ``global_batch`` (none when the split is indivisible), swept over
    multiples of ``pp`` when ``num_micro_batches`` is None, else the
    requested count."""
    if global_batch is not None:
        denom = parallel.dp * micro_batch
        if denom < 1 or global_batch % denom != 0:
            return ()
        return (global_batch // denom,)
    if num_micro_batches is None:
        return micro_batch_count_candidates(parallel.pp)
    return (num_micro_batches,)


def _price_point(trace: ModelTrace, model, cluster: ClusterSpec,
                 parallel: ParallelConfig, micro_batch: int,
                 num_micro_batches: int, zero_stage: int,
                 cost_model: KernelCostModel | None, pipeline_cuts,
                 pipeline_schedule: str, overlap_grad_sync: bool,
                 overlap_bucket_mb: float) -> Prediction:
    """Price one (micro-batch, micro-batch count) point.

    The single per-point pricer behind :func:`predict_config` and
    :func:`plan_micro_batch`.  Its checks run once, in order:
    unfillable (fewer than one micro-batch, or fewer than ``pp`` of
    them) or an invalid overlap bucket → schedule expressible → cuts
    valid → memory → OOM → rate.  Every failed check is reported
    infeasible, never raised.
    """
    pp = parallel.pp
    if micro_batch < 1 or num_micro_batches < pp \
            or not bucket_valid(overlap_bucket_mb) \
            or not _schedule_expressible(pipeline_schedule, pp,
                                         num_micro_batches):
        return Prediction(0.0, False, None, micro_batch, num_micro_batches,
                          (), pipeline_schedule)
    try:
        cuts = _resolve_cuts(pipeline_cuts, trace, model, cluster, parallel,
                             micro_batch, num_micro_batches, zero_stage,
                             cost_model)
    except _InvalidCuts:
        return Prediction(0.0, False, None, micro_batch, num_micro_batches,
                          (), pipeline_schedule)
    memory = _peak_memory(trace, model, parallel, cuts, micro_batch,
                          num_micro_batches, zero_stage, pipeline_schedule)
    fits = memory.total <= cluster.gpu.usable_memory
    rate = throughput(trace, model, cluster, parallel, micro_batch,
                      zero_stage, num_micro_batches, cost_model,
                      pipeline_cuts=cuts, pipeline_schedule=pipeline_schedule,
                      overlap_grad_sync=overlap_grad_sync,
                      overlap_bucket_mb=overlap_bucket_mb) if fits else 0.0
    return Prediction(rate, fits, memory, micro_batch, num_micro_batches,
                      cuts or (), pipeline_schedule)


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
    ``global_batch`` one; so are micro-batch sizes or counts below one.
    ``pipeline_schedule`` prices the pipeline under a named tick program
    (memory *and* bubble — see :mod:`repro.sim.pipeline`); a schedule the
    configuration cannot express is reported infeasible, never raised.
    """
    if micro_batch is None:
        best = plan_micro_batch(trace, model, cluster, parallel, zero_stage,
                                num_micro_batches, global_batch, cost_model,
                                pipeline_cuts=pipeline_cuts,
                                pipeline_schedule=pipeline_schedule,
                                overlap_grad_sync=overlap_grad_sync,
                                overlap_bucket_mb=overlap_bucket_mb)
        return best or Prediction(throughput=0.0, fits=False,
                                  pipeline_schedule=pipeline_schedule)
    counts = _micro_batch_counts(parallel, micro_batch, global_batch,
                                 num_micro_batches)
    if not counts:
        return Prediction(throughput=0.0, fits=False,
                          micro_batch=micro_batch,
                          pipeline_schedule=pipeline_schedule)
    return _price_point(trace, model, cluster, parallel, micro_batch,
                        counts[0], zero_stage, cost_model, pipeline_cuts,
                        pipeline_schedule, overlap_grad_sync,
                        overlap_bucket_mb)


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
                     ) -> Prediction | None:
    """The best fitting :class:`Prediction` over micro-batch candidates
    (None if nothing fits).

    With ``global_batch`` set (strong scaling, paper §5.2), the number of
    micro-batches is derived as ``global / (dp × micro)`` and infeasible
    divisions are skipped; with ``num_micro_batches=None`` the count is
    swept jointly with the micro-batch size over multiples of ``pp``
    (:func:`micro_batch_count_candidates`).  Every point goes through the
    same pricer as :func:`predict_config`, so a pipeline is only fillable
    with at least ``pp`` micro-batches on this path too.  The sweep
    prices every candidate from the trace's compiled aggregates and
    cached :class:`ModelStats` — the model itself is never re-walked per
    candidate.
    """
    model_stats_for(trace, model)  # compute statics once, before the sweep
    try:
        schedule_info(pipeline_schedule)
    except ValueError:
        return None  # unknown schedule: no candidate can be feasible
    best: Prediction | None = None
    for micro in candidates:
        for m in _micro_batch_counts(parallel, micro, global_batch,
                                     num_micro_batches):
            pred = _price_point(trace, model, cluster, parallel, micro, m,
                                zero_stage, cost_model, pipeline_cuts,
                                pipeline_schedule, overlap_grad_sync,
                                overlap_bucket_mb)
            if pred.fits and (best is None
                              or pred.throughput > best.throughput):
                best = pred
    return best
