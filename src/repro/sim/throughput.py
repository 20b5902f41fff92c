"""Training-step time composition and throughput estimation.

One optimizer step processes ``dp × micro_batch × num_micro_batches``
samples.  The step time composes:

* forward + backward compute (from the kernel cost model, including
  checkpoint recompute),
* tensor-parallel collectives (from trace comm events; each forward
  all-reduce has a backward twin),
* expert-parallel collectives (MoE dispatch/combine all-to-alls and the
  output-replication all-reduce, priced over the ``ep`` rank group the
  same way),
* ZeRO-3 parameter all-gathers (forward and backward) and gradient
  reduce-scatter, partially overlapped with compute via prefetching,
* data-parallel gradient all-reduce (overlapped with backward),
* the pipeline bubble,
* the optimizer update.

Comm/compute overlap is modelled per stream: each axis's collectives run
on their own timeline against the backward-compute window, and only the
**exposed** remainder lands on the critical path — the hidden portion is
reported separately (``StepBreakdown.*_comm_hidden``) so planners can see
what overlap bought.  With ``overlap_grad_sync`` the dp gradient
all-reduce is bucketed (:func:`overlap_exposed`): buckets launch as their
gradients become ready during the last micro-batch's backward, the final
bucket is always exposed, and the α-per-bucket latency makes the bucket
size a real trade-off.  Without it the fractional model applies, driven
by the ``ClusterSpec.dp_sync_overlap`` / ``zero_prefetch_overlap`` knobs.

Every pipeline is priced as a list of per-stage
:class:`~repro.sim.pipeline.StageTime` entries.  Without cut points the
model is assumed to split uniformly: ``pp`` equal stages, each a ``1/pp``
share of the whole trace's compute, collectives and parameters, sending
the trace's typical boundary tensor.  With ``pipeline_cuts``
(leading-layer counts, see :mod:`repro.sim.pipeline`) each stage is its
actual slice of the trace — its compute, its collectives, its parameters
and the true cut-tensor bytes crossing its boundaries.  One composition
then prices both: the **bottleneck stage** paces the step, 1F1B's bubble
is the closed form ``(pp-1)/m`` of that stage's steady work, and every
other schedule is list-scheduled on the tick timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.distributed.mesh import ParallelConfig, axis_ranks, axis_stride
from repro.distributed.topology import ClusterSpec
from repro.pipeline import DEFAULT_SCHEDULE, schedule_info

from .events import ModelTrace
from .kernel_cost import KernelCostModel
from .memory import model_stats_for
from .pipeline import (
    StageTime,
    schedule_timeline,
    stage_profiles,
    stage_step_times,
)

#: default gradient bucket for ``overlap_grad_sync`` pricing (MiB),
#: matching the runtime primitive's default
DEFAULT_BUCKET_MB = 25.0


@dataclass
class StepBreakdown:
    forward: float = 0.0
    backward: float = 0.0
    tp_comm: float = 0.0
    #: expert-parallel traffic: MoE dispatch/combine all-to-alls and the
    #: output-replication all-reduce, each with its backward twin
    ep_comm: float = 0.0
    zero_comm: float = 0.0
    dp_comm: float = 0.0
    pp_comm: float = 0.0
    bubble: float = 0.0
    optimizer: float = 0.0
    #: comm seconds *hidden* under compute, per stream — informational
    #: companions to the exposed ``*_comm`` components above; they are
    #: NOT part of :meth:`components` / :attr:`total`
    tp_comm_hidden: float = 0.0
    ep_comm_hidden: float = 0.0
    zero_comm_hidden: float = 0.0
    dp_comm_hidden: float = 0.0
    detail: dict = field(default_factory=dict)

    def components(self) -> dict[str, float]:
        """Named additive parts, independent of ``total``'s own sum.

        The fuzzer's simulator cross-check asserts ``total`` equals the
        sum of these for every sampled configuration — because the two
        are written out separately, a future field added to one but
        forgotten in the other is caught rather than silently dropped.
        """
        return {"forward": self.forward, "backward": self.backward,
                "tp_comm": self.tp_comm, "ep_comm": self.ep_comm,
                "zero_comm": self.zero_comm,
                "dp_comm": self.dp_comm, "pp_comm": self.pp_comm,
                "bubble": self.bubble, "optimizer": self.optimizer}

    def hidden_components(self) -> dict[str, float]:
        """Per-stream comm hidden under compute (not additive to total)."""
        return {"tp_comm_hidden": self.tp_comm_hidden,
                "ep_comm_hidden": self.ep_comm_hidden,
                "zero_comm_hidden": self.zero_comm_hidden,
                "dp_comm_hidden": self.dp_comm_hidden}

    @property
    def total(self) -> float:
        return (self.forward + self.backward + self.tp_comm + self.ep_comm
                + self.zero_comm + self.dp_comm + self.pp_comm + self.bubble
                + self.optimizer)


def overlap_exposed(alpha, beta, nbytes, bucket_bytes, window):
    """(exposed, total) seconds of a bucketed collective inside a window.

    ``nbytes`` of traffic is split into ``ceil(nbytes / bucket_bytes)``
    buckets, each costing ``α + β·bucket``; buckets launch as their
    inputs become ready during ``window`` seconds of compute, so at most
    ``window`` of the total hides — except the **final** bucket, whose
    inputs only exist when the window ends, so it is always exposed.
    Smaller buckets hide more but pay more α; a single huge bucket
    degenerates to fully-exposed (the pre-overlap serial model).
    Traffic of ``nbytes <= 0`` costs nothing.

    Every argument may be a scalar or a numpy array (broadcast
    elementwise), so the scalar step time and the columnar
    :func:`repro.sim.predict_batch` share this one formula.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        buckets = np.ceil(nbytes / bucket_bytes)
    total = buckets * alpha + beta * nbytes
    tail = alpha + beta * np.minimum(bucket_bytes, nbytes)
    exposed = np.maximum(total - window, tail)
    empty = np.less_equal(nbytes, 0)
    # ``[()]`` unwraps 0-d results to numpy scalars, leaves arrays as-is
    return (np.where(empty, 0.0, exposed)[()],
            np.where(empty, 0.0, total)[()])


def _uniform_stage_time(trace: ModelTrace, cluster: ClusterSpec,
                        parallel: ParallelConfig, micro_batch: int,
                        cost: KernelCostModel) -> StageTime:
    """One of ``pp`` equal stages: whole-trace aggregates ÷ ``pp``.

    The trace's comm events are pre-folded into per-(tag, kind)
    (count, byte-sum) pairs; each collective is affine in its size
    (α latency + β·bytes), so the per-event scan collapses to one α–β
    evaluation per collective kind over that axis's rank group.  The
    stage hop sends :attr:`CompiledTrace.boundary_bytes` (the typical
    hidden activation) one pp-axis stride away.
    """
    pp = parallel.pp
    scale = micro_batch / trace.ref_batch
    compiled = trace.compiled()
    groups = None
    comm = {"tp": 0.0, "ep": 0.0}
    for (tag, kind), (count, total) in compiled.comm_totals.items():
        if tag not in comm or count == 0 or getattr(parallel, tag) <= 1:
            continue
        groups = groups or axis_ranks(0, parallel)
        alpha, beta = cluster.collective_coeffs(kind, groups[tag])
        comm[tag] += count * alpha + beta * (total * scale)
    hop = cluster.p2p_time(compiled.boundary_bytes * scale, 0,
                           axis_stride(parallel, "pp")) if pp > 1 else 0.0
    # forward collectives + their backward counterparts; fwd + bwd hops
    return StageTime(forward=cost.forward_time(trace, scale) / pp,
                     backward=cost.backward_time(trace, scale) / pp,
                     tp_comm=2 * comm["tp"] / pp, pp_comm=2 * hop,
                     ep_comm=2 * comm["ep"] / pp)


def step_time(trace: ModelTrace, model, cluster: ClusterSpec,
              parallel: ParallelConfig, micro_batch: int,
              zero_stage: int = 0, num_micro_batches: int = 1,
              cost_model: KernelCostModel | None = None,
              pipeline_cuts: Sequence[int] | None = None,
              pipeline_schedule: str = DEFAULT_SCHEDULE,
              overlap_grad_sync: bool = False,
              overlap_bucket_mb: float = DEFAULT_BUCKET_MB
              ) -> StepBreakdown:
    """Seconds per optimizer step for the bottleneck stage's GPU.

    The pipeline is a list of per-stage times: ``pp`` equal stages
    without cuts, the actual trace slices with ``pipeline_cuts`` (and
    ``pp > 1``).  ``pipeline_schedule`` names a registered tick program
    (:data:`repro.pipeline.SCHEDULE_NAMES`): the default ``"1f1b"``
    prices the bubble in closed form off the slowest stage, any other
    schedule is priced by the exact per-stage timeline
    (:func:`repro.sim.pipeline.schedule_timeline` — see
    :func:`_schedule_breakdown`).  ``overlap_grad_sync`` prices the
    bucketed dp gradient sync of the schedule primitive of the same name.
    ``detail`` reports the per-stage steady times, the bottleneck stage
    and the cuts (empty when uniform).
    """
    if micro_batch < 1 or num_micro_batches < 1:
        name, value = ("micro_batch", micro_batch) if micro_batch < 1 \
            else ("num_micro_batches", num_micro_batches)
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    schedule_info(pipeline_schedule)  # reject unknown schedules up front
    if isinstance(pipeline_cuts, str):
        raise ValueError(
            f"step_time/throughput take concrete cut points, got "
            f"{pipeline_cuts!r}; \"auto\" cut planning is resolved by "
            f"predict_config/plan_micro_batch (or call "
            f"repro.sim.plan_pipeline_cuts yourself and pass plan.cuts)"
        )
    cost = cost_model or KernelCostModel(cluster.gpu)
    stats = model_stats_for(trace, model)
    pp, m = parallel.pp, num_micro_batches
    if pp > 1 and pipeline_cuts:
        cuts = tuple(pipeline_cuts)
        profiles = stage_profiles(trace, cuts)
        if len(profiles) != pp:
            raise ValueError(
                f"{len(cuts)} pipeline cuts make {len(profiles)} stages "
                f"but the parallel config has pp={pp}"
            )
        times = stage_step_times(trace, profiles, cluster, parallel,
                                 micro_batch, cost)
        shards = [(p.param_bytes, p.param_count) for p in profiles]
        steady = [t.steady for t in times]
    else:
        cuts = ()
        times = [_uniform_stage_time(trace, cluster, parallel, micro_batch,
                                     cost)] * pp
        shards = [(stats.param_bytes / pp, stats.param_count / pp)] * pp
        steady = [times[0].steady] * pp

    breakdown = StepBreakdown()
    if pp > 1 and pipeline_schedule != DEFAULT_SCHEDULE:
        b, chunks, bubble = _schedule_breakdown(breakdown, times, m,
                                                pipeline_schedule)
    else:
        b, chunks, bubble = steady.index(max(steady)), 1, None
    t = times[b]
    breakdown.forward = t.forward * m
    breakdown.backward = t.backward * m
    breakdown.tp_comm = t.tp_comm * m
    breakdown.ep_comm = t.ep_comm * m
    breakdown.pp_comm = t.pp_comm * m * chunks
    if bubble is None:  # 1F1B's closed form — exact on equal stages
        bubble = (breakdown.forward + breakdown.backward + breakdown.tp_comm
                  + breakdown.ep_comm + breakdown.pp_comm) * (pp - 1) / m
    breakdown.bubble = bubble
    param_bytes, param_count = shards[b]
    _shared_step_terms(breakdown, cluster, parallel, param_bytes,
                       param_count, zero_stage, cost,
                       backward_window=t.backward,
                       overlap_grad_sync=overlap_grad_sync,
                       overlap_bucket_mb=overlap_bucket_mb)
    breakdown.detail.update(stage_times=tuple(steady), bottleneck_stage=b,
                            pipeline_cuts=cuts)
    return breakdown


def _schedule_breakdown(breakdown: StepBreakdown, times, num_micro_batches,
                        schedule: str) -> tuple[int, int, float]:
    """(bottleneck stage, chunks per stage, bubble) off the exact timeline.

    Replaces the closed-form ``steady · (pp-1)/m`` bubble: the tick
    program is list-scheduled over the per-stage times, the bottleneck
    is the *busiest* stage of the timeline, and the bubble becomes that
    stage's true idle time (``makespan − busy``).  The chunk count is the
    schedule's boundary-traffic factor (interleaved chunks each cross
    GPUs).  The timeline lands in ``breakdown.detail``.
    """
    timeline = schedule_timeline(times, num_micro_batches, schedule)
    busy = timeline.stage_busy
    b = busy.index(max(busy))
    breakdown.detail.update(
        pipeline_schedule=schedule,
        pipeline_makespan=timeline.makespan,
        stage_busy=busy,
        stage_idle=timeline.stage_idle,
        num_chunks=timeline.program.num_chunks,
    )
    return (b, timeline.program.num_chunks,
            max(timeline.makespan - busy[b], 0.0))


def _shared_step_terms(breakdown: StepBreakdown, cluster: ClusterSpec,
                       parallel: ParallelConfig, param_bytes: float,
                       param_count: float, zero_stage: int,
                       cost: KernelCostModel,
                       backward_window: float = 0.0,
                       overlap_grad_sync: bool = False,
                       overlap_bucket_mb: float = DEFAULT_BUCKET_MB
                       ) -> None:
    """ZeRO / DP gradient traffic and the optimizer update, for one
    stage's local parameter shard.

    ``backward_window`` is the backward-compute time of **one**
    micro-batch — under gradient accumulation the sync only runs during
    the last micro-batch's backward (``no_sync`` on the others), so that
    is the window bucketed comm can hide in.
    """
    bucket_bytes = overlap_bucket_mb * float(1 << 20)
    dp_ranks = axis_ranks(0, parallel)["dp"] if parallel.dp > 1 else ()
    if zero_stage >= 3 and parallel.dp > 1:
        gather = cluster.all_gather_time(param_bytes, dp_ranks)
        if overlap_grad_sync:
            # the gradient reduce-scatter rides the bucketed overlap
            # stream; gathers keep the prefetch model
            alpha, beta = cluster.collective_coeffs(
                "reduce_scatter", dp_ranks)
            exposed_s, total_s = overlap_exposed(
                alpha, beta, param_bytes, bucket_bytes, backward_window)
            hidden_g = 2 * gather * cluster.zero_prefetch_overlap
            breakdown.zero_comm = 2 * gather - hidden_g + exposed_s
            breakdown.zero_comm_hidden = hidden_g + (total_s - exposed_s)
        else:
            scatter = cluster.reduce_scatter_time(param_bytes, dp_ranks)
            exposed = (2 * gather + scatter) \
                * (1 - cluster.zero_prefetch_overlap)
            breakdown.zero_comm = exposed
            breakdown.zero_comm_hidden = (2 * gather + scatter) - exposed
    elif parallel.dp > 1:
        # plain data parallelism: all-reduce full local gradients
        if overlap_grad_sync:
            alpha, beta = cluster.collective_coeffs("all_reduce", dp_ranks)
            exposed, total = overlap_exposed(
                alpha, beta, param_bytes, bucket_bytes, backward_window)
            breakdown.dp_comm = exposed
            breakdown.dp_comm_hidden = total - exposed
        else:
            comm = cluster.all_reduce_time(param_bytes, dp_ranks)
            breakdown.dp_comm = max(
                comm * (1 - cluster.dp_sync_overlap),
                comm - breakdown.backward * cluster.dp_sync_overlap,
            )
            breakdown.dp_comm_hidden = comm - breakdown.dp_comm
    opt_params = param_count
    if zero_stage >= 1 and parallel.dp > 1:
        opt_params /= parallel.dp
    breakdown.optimizer = cost.optimizer_time(opt_params)


def throughput(trace: ModelTrace, model, cluster: ClusterSpec,
               parallel: ParallelConfig, micro_batch: int,
               zero_stage: int = 0, num_micro_batches: int = 1,
               cost_model: KernelCostModel | None = None,
               pipeline_cuts: Sequence[int] | None = None,
               pipeline_schedule: str = DEFAULT_SCHEDULE,
               overlap_grad_sync: bool = False,
               overlap_bucket_mb: float = DEFAULT_BUCKET_MB) -> float:
    """Training throughput in samples/second."""
    breakdown = step_time(trace, model, cluster, parallel, micro_batch,
                          zero_stage, num_micro_batches, cost_model,
                          pipeline_cuts=pipeline_cuts,
                          pipeline_schedule=pipeline_schedule,
                          overlap_grad_sync=overlap_grad_sync,
                          overlap_bucket_mb=overlap_bucket_mb)
    samples = parallel.dp * micro_batch * num_micro_batches
    return samples / breakdown.total
