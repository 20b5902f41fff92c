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
and the true cut-tensor bytes crossing its boundaries.  The **bottleneck
stage** paces the step, 1F1B's bubble is the closed form ``(pp-1)/m`` of
that stage's steady work, and every other schedule is list-scheduled on
the tick timeline.

One composition, two callers: :func:`~repro.sim.pipeline.stage_time`
and :func:`compose_step` take floats (:func:`step_time`, one config) or
numpy columns (:func:`repro.sim.predict_batch`, a space).  Cut slicing
and tick timelines are per-row work that feeds the same composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.distributed.mesh import ParallelConfig
from repro.distributed.topology import ClusterSpec
from repro.pipeline import DEFAULT_SCHEDULE, schedule_info

from .events import ModelTrace
from .kernel_cost import KernelCostModel
from .memory import _any, _where, model_stats_for
from .pipeline import (
    MeshTerms,
    StageTime,
    _check_stage_count,
    mesh_terms,
    schedule_timeline,
    shard_sync,
    stage_profiles,
    stage_step_times,
    stage_time,
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
    buckets (at least one), each costing ``α + β·bucket``; buckets launch
    as their inputs become ready during ``window`` seconds of compute, so
    at most ``window`` of the total hides — except the **final** bucket,
    whose inputs only exist when the window ends, so it is always exposed.
    Smaller buckets hide more but pay more α; a single huge bucket
    degenerates to fully-exposed (the pre-overlap serial model).
    Traffic of ``nbytes <= 0`` costs nothing.

    Every argument may be a scalar or a numpy array (broadcast
    elementwise).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        buckets = np.maximum(np.ceil(nbytes / bucket_bytes), 1)
    total = buckets * alpha + beta * nbytes
    tail = alpha + beta * np.minimum(bucket_bytes, nbytes)
    exposed = np.maximum(total - window, tail)
    empty = np.less_equal(nbytes, 0)
    # ``[()]`` unwraps 0-d results to numpy scalars, leaves arrays as-is
    return (np.where(empty, 0.0, exposed)[()],
            np.where(empty, 0.0, total)[()])


def bucket_valid(bucket_mb):
    """Whether ``overlap_bucket_mb`` is usable (> 0; ``inf`` is one
    bucket, NaN is invalid), for a number or a column."""
    return bucket_mb > 0


def compose_step(stage: StageTime, mesh: MeshTerms, cluster: ClusterSpec,
                 pp, dp, num_micro_batches, zero_stage, overlap_grad_sync,
                 overlap_bucket_mb, chunks=1, bubble=None) -> StepBreakdown:
    """The step of the bottleneck ``stage`` — the one composition, on
    floats (:func:`step_time`) or numpy columns (``predict_batch``).

    ``bubble=None`` is 1F1B's closed form ``(pp-1)/m`` of the stage's
    steady work; a timeline-priced schedule passes its own bubble and
    chunk count.  Gradient sync runs on ``mesh``'s shard: fractional
    ``ClusterSpec`` overlap knobs, or with ``overlap_grad_sync`` the
    bucketed stream (:func:`overlap_exposed`) inside the **last**
    micro-batch's backward (the others run ``no_sync``); ZeRO-3's
    gathers keep the prefetch model either way.
    """
    m = num_micro_batches
    step = StepBreakdown(forward=stage.forward * m,
                         backward=stage.backward * m,
                         tp_comm=stage.tp_comm * m, ep_comm=stage.ep_comm * m,
                         pp_comm=stage.pp_comm * m * chunks)
    if bubble is None:
        bubble = (step.forward + step.backward + step.tp_comm + step.ep_comm
                  + step.pp_comm) * (pp - 1) / m
    step.bubble = bubble

    prefetch, dp_overlap = (cluster.zero_prefetch_overlap,
                            cluster.dp_sync_overlap)
    zero3 = (zero_stage >= 3) & (dp > 1)
    plain = (zero_stage < 3) & (dp > 1)
    two_gather = 2 * mesh.gather
    zero_total = two_gather + mesh.scatter
    zero_comm = zero_total * (1 - prefetch)
    zero_hidden = zero_total - zero_comm
    fraction = mesh.allreduce * (1 - dp_overlap)
    beyond = mesh.allreduce - step.backward * dp_overlap
    dp_comm = _where(fraction >= beyond, fraction, beyond)
    dp_hidden = mesh.allreduce - dp_comm
    bucket_bytes = overlap_bucket_mb * float(1 << 20)
    if _any(zero3 & overlap_grad_sync):
        exposed, total = overlap_exposed(mesh.rs_alpha, mesh.rs_beta,
                                         mesh.param_bytes, bucket_bytes,
                                         stage.backward)
        hidden_gather = two_gather * prefetch
        zero_comm = _where(overlap_grad_sync,
                           two_gather - hidden_gather + exposed, zero_comm)
        zero_hidden = _where(overlap_grad_sync,
                             hidden_gather + (total - exposed), zero_hidden)
    if _any(plain & overlap_grad_sync):
        exposed, total = overlap_exposed(mesh.ar_alpha, mesh.ar_beta,
                                         mesh.param_bytes, bucket_bytes,
                                         stage.backward)
        dp_comm = _where(overlap_grad_sync, exposed, dp_comm)
        dp_hidden = _where(overlap_grad_sync, total - exposed, dp_hidden)
    step.zero_comm = _where(zero3, zero_comm, 0.0)
    step.zero_comm_hidden = _where(zero3, zero_hidden, 0.0)
    step.dp_comm = _where(plain, dp_comm, 0.0)
    step.dp_comm_hidden = _where(plain, dp_hidden, 0.0)
    step.optimizer = _where((zero_stage >= 1) & (dp > 1), mesh.opt_sharded,
                            mesh.opt_full)
    return step


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
    bucketed dp gradient sync of the schedule primitive of the same name
    (``overlap_bucket_mb`` must be > 0).  ``detail`` reports the
    per-stage steady times, the bottleneck stage and the cuts (empty
    when uniform).
    """
    if micro_batch < 1 or num_micro_batches < 1:
        name, value = ("micro_batch", micro_batch) if micro_batch < 1 \
            else ("num_micro_batches", num_micro_batches)
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    if not bucket_valid(overlap_bucket_mb):
        raise ValueError(f"overlap_bucket_mb must be > 0, "
                         f"got {overlap_bucket_mb!r}")
    schedule_info(pipeline_schedule)  # reject unknown schedules up front
    if isinstance(pipeline_cuts, str):
        raise ValueError(
            f"step_time/throughput take concrete cut points, got "
            f"{pipeline_cuts!r}; \"auto\" cut planning is resolved by "
            f"predict_config/plan_micro_batch (or call "
            f"repro.sim.plan_pipeline_cuts yourself and pass plan.cuts)"
        )
    cost = cost_model or KernelCostModel(cluster.gpu)
    model_stats_for(trace, model)  # mesh_terms prices off the cached stats
    pp, m = parallel.pp, num_micro_batches
    mesh = mesh_terms(trace, cluster, parallel, cost)
    if pp > 1 and pipeline_cuts:
        cuts = tuple(pipeline_cuts)
        profiles = stage_profiles(trace, cuts)
        _check_stage_count(cuts, pp)
        times = stage_step_times(trace, profiles, cluster, parallel,
                                 micro_batch, cost)
        steady = [t.steady for t in times]
    else:
        cuts = ()
        scale = micro_batch / trace.ref_batch
        compiled = trace.compiled()
        times = [stage_time(mesh, cost.forward_time(trace, scale),
                            cost.backward_time(trace, scale),
                            compiled.axis_kinds,
                            (compiled.boundary_bytes,), scale, pp)] * pp
        steady = [times[0].steady] * pp

    detail: dict = {}
    if pp > 1 and pipeline_schedule != DEFAULT_SCHEDULE:
        b, chunks, bubble = _schedule_breakdown(detail, times, m,
                                                pipeline_schedule)
    else:
        b, chunks, bubble = steady.index(max(steady)), 1, None
    if cuts:  # the bottleneck stage's own parameter shard
        mesh = replace(mesh, **shard_sync(cluster, parallel,
                                          profiles[b].param_bytes,
                                          profiles[b].param_count, cost))
    breakdown = compose_step(times[b], mesh, cluster, pp, parallel.dp, m,
                             zero_stage, overlap_grad_sync,
                             overlap_bucket_mb, chunks, bubble)
    breakdown.detail.update(detail, stage_times=tuple(steady),
                            bottleneck_stage=b, pipeline_cuts=cuts)
    return breakdown


def _schedule_breakdown(detail: dict, times, num_micro_batches,
                        schedule: str) -> tuple[int, int, float]:
    """(bottleneck stage, chunks per stage, bubble) off the exact timeline.

    Replaces the closed-form ``steady · (pp-1)/m`` bubble: the tick
    program is list-scheduled over the per-stage times, the bottleneck
    is the *busiest* stage of the timeline, and the bubble becomes that
    stage's true idle time (``makespan − busy``).  The chunk count is the
    schedule's boundary-traffic factor (interleaved chunks each cross
    GPUs).  The timeline lands in ``detail``.
    """
    timeline = schedule_timeline(times, num_micro_batches, schedule)
    busy = timeline.stage_busy
    b = busy.index(max(busy))
    detail.update(
        pipeline_schedule=schedule,
        pipeline_makespan=timeline.makespan,
        stage_busy=busy,
        stage_idle=timeline.stage_idle,
        num_chunks=timeline.program.num_chunks,
    )
    return (b, timeline.program.num_chunks,
            max(timeline.makespan - busy[b], 0.0))


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
