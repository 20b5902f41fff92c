"""Stage-accurate pipeline pricing and cut planning (paper §3.3.2).

A ``.pipeline_split()`` boundary always falls between two *layer units*
(the modules ``checkpoint_layers`` marks ``ckpt_unit``), and a traced
model records one :class:`~repro.sim.events.LayerSpan` per unit — so a
pipeline partition is fully described by **cut points**: a strictly
increasing tuple of layer counts, ``cuts[k]`` = number of leading layers
placed before boundary ``k``.  Stage ``i`` of ``len(cuts) + 1`` then owns
the contiguous op/comm range between its boundary layers, stage 0
additionally owns everything before the first layer (embeddings), and the
last stage everything after (pooler / LM head).

This module slices a trace's :class:`~repro.sim.compiled.CompiledTrace`
into per-stage sub-aggregates (:func:`stage_profiles`), prices each
stage's compute, TP collectives, boundary sends and peak memory
(:func:`stage_step_times`, :func:`stage_memory`), and searches cut
placements with a dynamic program that minimizes the *bottleneck* stage
time under per-stage memory budgets (:func:`plan_pipeline_cuts`) — the
stage-imbalance-aware view Megatron-LM and OptPipe show matters beyond
the ``(p-1)/(m+p-1)`` bubble.

All aggregates are differences of prefix sums built once per trace
(``CompiledTrace.activation_cumsum`` / ``comm_cumsums`` /
``KernelCostModel.op_time_cumsums``), so the O(L²·pp) planner prices each
candidate span in O(1) — the DP and the public per-stage helpers share
one profile constructor and one steady-time formula, so they can never
disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.distributed.mesh import ParallelConfig, axis_ranks, axis_stride
from repro.distributed.topology import ClusterSpec
from repro.pipeline import (
    DEFAULT_SCHEDULE,
    SCHEDULE_NAMES,
    ZB_WEIGHT_FRACTION,
    ProgramTimeline,
    TickOp,
    make_program,
    schedule_info,
    schedule_peak_chunks,
    simulate_program,
)

from .events import ModelTrace
from .kernel_cost import KernelCostModel
from .memory import (
    MemoryBreakdown,
    fixed_state_bytes,
    model_stats_for,
    shard_memory,
    stage_inflight,
)


@dataclass(frozen=True)
class StageProfile:
    """Per-stage sub-aggregates of one trace, at the reference batch."""

    index: int
    num_stages: int
    #: layer-unit range [layer_start, layer_end) owned by this stage
    layer_start: int
    layer_end: int
    #: op/comm index ranges (half-open) of the stage's slice of the trace
    op_start: int
    op_end: int
    comm_start: int
    comm_end: int
    #: bytes of the activation tensor this stage sends to the next (the
    #: actual cut-tensor size — not the trace-median heuristic); 0 for the
    #: last stage
    send_bytes: float
    #: bytes of the activation tensor received from the previous stage
    recv_bytes: float
    #: retained activation bytes of this stage's ops
    activation_bytes: float
    #: parameter bytes (layer units exactly; the non-layer residual —
    #: embeddings/head — is split evenly between first and last stage)
    param_bytes: float
    #: scalar parameter count (bytes scaled by the model's bytes/param)
    param_count: float


def validate_cuts(cuts: Sequence[int], num_layers: int) -> tuple[int, ...]:
    """Check that ``cuts`` is a strictly increasing tuple inside (0, L)."""
    cuts = tuple(int(c) for c in cuts)
    if any(c <= 0 or c >= num_layers for c in cuts):
        raise ValueError(
            f"pipeline cuts must lie strictly inside (0, {num_layers}): "
            f"{cuts}"
        )
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError(f"pipeline cuts must strictly increase: {cuts}")
    return cuts


def _check_stage_count(cuts: tuple[int, ...], pp: int) -> tuple[int, ...]:
    """``cuts``, if they make the ``pp`` stages of the parallel config."""
    if len(cuts) + 1 != pp:
        raise ValueError(f"{len(cuts)} pipeline cuts make {len(cuts) + 1} "
                         f"stages but the parallel config has pp={pp}")
    return cuts


def even_cuts(num_layers: int, num_stages: int) -> tuple[int, ...]:
    """The naive balanced-layer-count split (the planner's baseline)."""
    if num_stages <= 1:
        return ()
    if num_layers < num_stages:
        raise ValueError(
            f"cannot cut {num_layers} layers into {num_stages} stages"
        )
    return tuple(round(k * num_layers / num_stages)
                 for k in range(1, num_stages))


class _StageSlicer:
    """Builds :class:`StageProfile` objects for arbitrary layer spans.

    Holds the prefix sums a span profile needs (activation bytes, layer
    parameter bytes) so each span costs O(1).  Shared by
    :func:`stage_profiles` and the planner's DP — one constructor, one
    set of attribution rules.
    """

    def __init__(self, trace: ModelTrace):
        layers = trace.layers
        if not layers:
            raise ValueError(
                "stage slicing needs a layer-marked trace (no LayerSpans "
                "recorded; are the model's layer units tagged ckpt_unit?)"
            )
        self.trace = trace
        self.layers = layers
        self.num_layers = len(layers)
        self.compiled = trace.compiled()
        self.act_cum = self.compiled.activation_cumsum()
        self.n_ops = len(trace.ops)
        self.n_comms = len(trace.comms)
        self.layer_param_cum = [0.0]
        for span in layers:
            self.layer_param_cum.append(self.layer_param_cum[-1]
                                        + span.param_bytes)
        stats = trace.stats
        total_bytes = stats.param_bytes if stats is not None else 0.0
        self.residual = max(total_bytes - self.layer_param_cum[-1], 0.0)
        self.bytes_per_param = (
            total_bytes / stats.param_count
            if stats is not None and stats.param_count else 2.0)

    def profile(self, lo: int, hi: int, index: int,
                num_stages: int) -> StageProfile:
        """The stage profile of layer span [lo, hi) at stage ``index``."""
        layers, compiled = self.layers, self.compiled
        op_start = 0 if index == 0 else layers[lo].op_start
        op_end = self.n_ops if index == num_stages - 1 \
            else layers[hi].op_start
        comm_start = 0 if index == 0 else layers[lo].comm_start
        comm_end = self.n_comms if index == num_stages - 1 \
            else layers[hi].comm_start
        send = 0.0 if index == num_stages - 1 or op_end == 0 \
            else float(compiled.out_bytes[op_end - 1])
        recv = 0.0 if index == 0 or op_start == 0 \
            else float(compiled.out_bytes[op_start - 1])
        params = self.layer_param_cum[hi] - self.layer_param_cum[lo]
        if index == 0:
            params += self.residual / 2
        if index == num_stages - 1:
            params += self.residual / 2
        return StageProfile(
            index=index, num_stages=num_stages,
            layer_start=lo, layer_end=hi,
            op_start=op_start, op_end=op_end,
            comm_start=comm_start, comm_end=comm_end,
            send_bytes=send, recv_bytes=recv,
            activation_bytes=float(self.act_cum[op_end]
                                   - self.act_cum[op_start]),
            param_bytes=params,
            param_count=params / self.bytes_per_param
            if self.bytes_per_param else 0.0,
        )


def stage_profiles(trace: ModelTrace, cuts: Sequence[int]
                   ) -> list[StageProfile]:
    """Slice a layer-marked trace into per-stage sub-aggregates.

    ``cuts`` are leading-layer counts (see module docstring); the
    returned profiles partition the trace's ops and comms exactly.
    """
    slicer = _StageSlicer(trace)
    cuts = validate_cuts(cuts, slicer.num_layers)
    bounds = (0,) + cuts + (slicer.num_layers,)
    num_stages = len(bounds) - 1
    return [slicer.profile(bounds[i], bounds[i + 1], i, num_stages)
            for i in range(num_stages)]


@dataclass(frozen=True)
class StageTime:
    """Per-micro-batch seconds of one stage's slice of the step."""

    forward: float
    backward: float
    tp_comm: float
    pp_comm: float
    #: expert-parallel (MoE dispatch/combine) collectives of this stage
    ep_comm: float = 0.0

    @property
    def steady(self) -> float:
        return (self.forward + self.backward + self.tp_comm + self.ep_comm
                + self.pp_comm)


@dataclass(frozen=True)
class MeshTerms:
    """Per-mesh constants of the step-time model, memoized by
    :func:`mesh_terms`: they depend only on the cluster, the cost model
    and the :class:`ParallelConfig` (whose ``order`` decides the tier
    each group crosses).  Floats, or numpy columns in a batch."""

    #: α and β of each :attr:`CompiledTrace.axis_kinds` entry (0 where
    #: the axis has one rank)
    axis_alpha: tuple
    axis_beta: tuple
    #: one stage hop, a pp-axis stride (``inf``/0 without pipelining)
    hop_bw: float
    hop_lat: float
    #: the ``1/pp`` parameter shard (see :func:`shard_sync`): ZeRO-3
    #: gather/scatter, dp all-reduce, bucketed-stream α–β, optimizer
    param_bytes: float
    gather: float
    scatter: float
    allreduce: float
    ar_alpha: float
    ar_beta: float
    rs_alpha: float
    rs_beta: float
    opt_full: float
    opt_sharded: float

    def row(self) -> list[float]:
        """The terms flattened to one row of numbers."""
        return [*self.axis_alpha, *self.axis_beta,
                *(getattr(self, f.name) for f in fields(self)[2:])]

    @classmethod
    def from_columns(cls, columns: np.ndarray) -> "MeshTerms":
        """Columnar terms from a ``(width, n)`` matrix: :meth:`row`'s
        entries down, one mesh per column."""
        columns = list(columns)
        kinds = (len(columns) - len(fields(cls)) + 2) // 2
        return cls(tuple(columns[:kinds]), tuple(columns[kinds:2 * kinds]),
                   *columns[2 * kinds:])


def shard_sync(cluster: ClusterSpec, parallel: ParallelConfig,
               param_bytes: float, param_count: float,
               cost: KernelCostModel) -> dict[str, float]:
    """The :class:`MeshTerms` fields of a ``param_bytes`` shard."""
    ranks = axis_ranks(0, parallel)["dp"]
    ar_alpha, ar_beta = cluster.collective_coeffs("all_reduce", ranks)
    rs_alpha, rs_beta = cluster.collective_coeffs("reduce_scatter", ranks)
    return dict(param_bytes=param_bytes,
                gather=cluster.all_gather_time(param_bytes, ranks),
                scatter=cluster.reduce_scatter_time(param_bytes, ranks),
                allreduce=cluster.all_reduce_time(param_bytes, ranks),
                ar_alpha=ar_alpha, ar_beta=ar_beta,
                rs_alpha=rs_alpha, rs_beta=rs_beta,
                opt_full=cost.optimizer_time(param_count),
                opt_sharded=cost.optimizer_time(param_count / parallel.dp))


def mesh_terms(trace: ModelTrace, cluster: ClusterSpec,
               parallel: ParallelConfig, cost: KernelCostModel
               ) -> MeshTerms:
    """The mesh's memoized :class:`MeshTerms` (rank groups from
    :func:`repro.distributed.mesh.axis_ranks`, never hand-rolled)."""
    compiled = trace.compiled()
    key = ("mesh", cluster, cost, parallel)
    terms = compiled._time_cache.get(key)
    if terms is None:
        if trace.stats is None:
            raise ValueError("pricing needs ModelStats: use trace_model")
        groups = axis_ranks(0, parallel)
        coeffs = [cluster.collective_coeffs(kind, groups[tag])
                  if getattr(parallel, tag) > 1 else (0.0, 0.0)
                  for tag, kind, _, _ in compiled.axis_kinds]
        pp = parallel.pp
        hop = cluster.tier_for((0, axis_stride(parallel, "pp"))) \
            if pp > 1 else None
        terms = compiled._time_cache[key] = MeshTerms(
            tuple(alpha for alpha, _ in coeffs),
            tuple(beta for _, beta in coeffs),
            hop.bandwidth if hop else math.inf, hop.latency if hop else 0.0,
            **shard_sync(cluster, parallel, trace.stats.param_bytes / pp,
                         trace.stats.param_count / pp, cost))
    return terms


def stage_time(mesh: MeshTerms, forward, backward, comms, sends, scale,
               pp=1) -> StageTime:
    """Per-micro-batch times of one stage — the one stage formula.

    ``comms`` (one entry per ``axis_kinds`` kind) and ``sends`` (its
    boundary tensors) are in reference-batch bytes that ``scale``
    rescales; a collective kind prices in one α–β evaluation, and every
    forward collective and send has a backward twin.  The uniform
    estimate passes the whole trace and ``pp``.  Numbers or columns.
    """
    comm = {"tp": 0.0, "ep": 0.0}
    for (tag, _, count, nbytes), alpha, beta in zip(
            comms, mesh.axis_alpha, mesh.axis_beta):
        comm[tag] += count * alpha + beta * (nbytes * scale)
    hops = sum((nbytes * scale / mesh.hop_bw + mesh.hop_lat
                for nbytes in sends if nbytes), 0.0)
    return StageTime(forward=forward / pp, backward=backward / pp,
                     tp_comm=2 * comm["tp"] / pp, pp_comm=2 * hops,
                     ep_comm=2 * comm["ep"] / pp)


class _StageTimer:
    """Prices a stage profile's per-micro-batch steady time.

    Built once per (trace, cluster, parallel, micro-batch, cost model):
    kernel-time and per-kind comm prefix sums plus the mesh's
    :class:`MeshTerms`, so pricing a span is O(kinds).
    """

    def __init__(self, trace: ModelTrace, cluster: ClusterSpec,
                 parallel: ParallelConfig, micro_batch: int,
                 cost_model: KernelCostModel | None = None):
        self.cost = cost_model or KernelCostModel(cluster.gpu)
        self.scale = micro_batch / trace.ref_batch
        self.time_cum, self.ckpt_cum = \
            self.cost.op_time_cumsums(trace, self.scale)
        self.mesh = mesh_terms(trace, cluster, parallel, self.cost)
        compiled = trace.compiled()
        self.comm_cums = [(tag, kind, *compiled.comm_cumsums(tag)[kind])
                          for tag, kind, _, _ in compiled.axis_kinds]

    def stage_time(self, p: StageProfile) -> StageTime:
        fwd = float(self.time_cum[p.op_end] - self.time_cum[p.op_start])
        recompute = float(self.ckpt_cum[p.op_end]
                          - self.ckpt_cum[p.op_start])
        comms = [(tag, kind, counts[p.comm_end] - counts[p.comm_start],
                  nbytes[p.comm_end] - nbytes[p.comm_start])
                 for tag, kind, counts, nbytes in self.comm_cums]
        return stage_time(self.mesh, fwd,
                          fwd * self.cost.backward_multiplier + recompute,
                          comms, (p.send_bytes, p.recv_bytes), self.scale)


def stage_step_times(trace: ModelTrace, profiles: Sequence[StageProfile],
                     cluster: ClusterSpec, parallel: ParallelConfig,
                     micro_batch: int,
                     cost_model: KernelCostModel | None = None
                     ) -> list[StageTime]:
    """Price each stage's per-micro-batch compute, TP comm and P2P sends."""
    timer = _StageTimer(trace, cluster, parallel, micro_batch, cost_model)
    return [timer.stage_time(p) for p in profiles]


def schedule_stage_inflight(schedule: str, stage_index: int,
                            num_stages: int, num_micro_batches: int
                            ) -> float:
    """Peak in-flight micro-batches of activations one stage holds.

    For the default 1F1B schedule this is the closed form
    :func:`repro.sim.memory.stage_inflight` (``min(p - s, m)``).  For
    every other registered schedule the count is *derived from the tick
    program* (:func:`repro.pipeline.schedule_peak_chunks`): peak
    concurrent chunks on the physical stage, divided by the schedule's
    chunks per stage so interleaved programs are measured in full-stage
    activation units (a chunk retains ``1/v`` of the stage's
    activations).
    """
    if schedule == DEFAULT_SCHEDULE:
        return stage_inflight(stage_index, num_stages, num_micro_batches)
    info = schedule_info(schedule)
    peaks = schedule_peak_chunks(schedule, num_stages, num_micro_batches)
    return max(peaks[stage_index], 1) / info.num_chunks


def stage_memory(trace: ModelTrace, profile: StageProfile, micro_batch: int,
                 num_micro_batches: int, zero_stage: int = 0,
                 dp_size: int = 1,
                 schedule: str = DEFAULT_SCHEDULE) -> MemoryBreakdown:
    """Peak memory of the GPU holding one pipeline stage.

    Mirrors :func:`repro.sim.memory.model_memory` but with the stage's
    *actual* parameter/activation slice and the schedule's per-stage
    in-flight count (for 1F1B, stage ``s`` holds up to ``pp - s``
    micro-batches of activations, not a flat ``min(inflight, pp)``; for
    other schedules the count comes from the tick program — see
    :func:`schedule_stage_inflight`).
    """
    scale = micro_batch / trace.ref_batch
    inflight = schedule_stage_inflight(schedule, profile.index,
                                       profile.num_stages,
                                       num_micro_batches)
    return shard_memory(
        trace, fixed_state_bytes(profile.param_bytes, profile.param_count,
                                 profile.layer_end - profile.layer_start,
                                 zero_stage, dp_size),
        profile.activation_bytes * scale * inflight, scale)


# --------------------------------------------------------------------- #
# Tick-program pricing: per-stage timeline simulation
# --------------------------------------------------------------------- #
def tick_cost_fn(times: Sequence[StageTime], schedule: str):
    """Seconds per tick op of ``schedule``, from per-stage steady times.

    Compute and the tensor/expert collectives divide by the schedule's
    chunks per stage (each chunk owns ``1/v`` of the stage's layers);
    the P2P boundary hop does *not* — every chunk boundary crosses GPUs,
    which is exactly interleaving's ``v×`` communication tax.  Forward
    ticks carry the forward halves (compute, collective, send+recv),
    backward ticks the backward halves; backward-splitting schedules
    put :data:`repro.pipeline.ZB_WEIGHT_FRACTION` of the backward
    compute on the ``W`` tick and leave the communication on ``B`` (the
    input-gradient pass is the one on the inter-stage critical path).
    Summed over a micro-batch, every stage's tick costs add up to its
    :attr:`StageTime.steady` plus ``(v - 1)×`` its P2P term — so the
    timeline and the closed forms price the same steady work.
    """
    info = schedule_info(schedule)
    v = info.num_chunks
    times = list(times)

    def cost(op: TickOp) -> float:
        t = times[op.stage]
        if op.kind == "F":
            return (t.forward + (t.tp_comm + t.ep_comm) / 2) / v \
                + t.pp_comm / 2
        if op.kind == "W":
            return t.backward * ZB_WEIGHT_FRACTION / v
        backward = t.backward * (1 - ZB_WEIGHT_FRACTION) \
            if info.split_backward else t.backward
        return (backward + (t.tp_comm + t.ep_comm) / 2) / v + t.pp_comm / 2

    return cost


def schedule_timeline(times: Sequence[StageTime], num_micro_batches: int,
                      schedule: str) -> ProgramTimeline:
    """Simulate ``schedule`` over stages priced by ``times``.

    The exact per-stage busy/idle replay of the tick program
    (:func:`repro.pipeline.simulate_program`) — the pricing ground truth
    for schedules with no closed-form bubble (zero-bubble ``W``
    filling, interleaved chunks) and for imbalanced stage cuts.
    """
    program = make_program(schedule, len(times), num_micro_batches)
    return simulate_program(program, tick_cost_fn(times, schedule))


@dataclass(frozen=True)
class PipelinePlan:
    """The cut placement chosen by :func:`plan_pipeline_cuts`."""

    cuts: tuple[int, ...]
    #: per-micro-batch steady seconds of each stage
    stage_times: tuple[float, ...]
    #: index of the slowest (bottleneck) stage
    bottleneck: int
    #: does every stage fit its memory budget?
    fits: bool
    #: the worst stage's peak memory (bytes)
    peak_memory: float

    @property
    def bottleneck_time(self) -> float:
        return self.stage_times[self.bottleneck]


def plan_pipeline_cuts(trace: ModelTrace, model, cluster: ClusterSpec,
                       parallel: ParallelConfig, micro_batch: int = 1,
                       num_micro_batches: int | None = None,
                       zero_stage: int = 0,
                       cost_model: KernelCostModel | None = None
                       ) -> PipelinePlan | None:
    """Choose cut points minimizing the bottleneck stage's steady time.

    Classic contiguous-partition DP: ``f[k][j]`` = the best achievable
    max-stage-time covering the first ``j`` layer units with ``k``
    stages, where a stage is only admissible if its peak memory (with
    its 1F1B in-flight count) fits the GPU.  If no placement fits, the
    unconstrained optimum is returned with ``fits=False`` so callers can
    still report the least-bad split.  Returns ``None`` when the trace
    has no layer spans or fewer layers than stages.

    Segment admissibility and cost go through the same
    :class:`StageProfile` / :func:`stage_memory` / steady-time helpers
    the rest of the module exposes, so the DP's view of a stage is the
    planner's view by construction.
    """
    pp = parallel.pp
    num_layers = len(trace.layers)
    if pp <= 1 or num_layers < pp:
        return None
    model_stats_for(trace, model)  # pin statics before slicing params
    m = num_micro_batches if num_micro_batches is not None else pp
    budget = cluster.gpu.usable_memory
    # Planner sweeps call this once per (micro, m) candidate; the DP and
    # its result are pure functions of the arguments, so memoize on the
    # trace's compiled view (which lives and dies with the trace).
    cost_key = cost_model if cost_model is not None else cluster.gpu
    cache_key = ("plan", cluster, parallel, micro_batch, m, zero_stage,
                 cost_key)
    cache = trace.compiled()._cumulative
    if cache_key in cache:
        return cache[cache_key]

    slicer = _StageSlicer(trace)
    timer = _StageTimer(trace, cluster, parallel, micro_batch, cost_model)

    def span_time(i: int, j: int, stage_index: int) -> float:
        return timer.stage_time(slicer.profile(i, j, stage_index,
                                               pp)).steady

    def span_fits(i: int, j: int, stage_index: int) -> bool:
        profile = slicer.profile(i, j, stage_index, pp)
        return stage_memory(trace, profile, micro_batch, m, zero_stage,
                            parallel.dp).total <= budget

    INF = float("inf")

    def solve(constrained: bool) -> tuple[int, ...] | None:
        # f[j] after k segments = best max-time covering layers [0, j)
        f = [INF] * (num_layers + 1)
        choice: list[list[int]] = [[-1] * (num_layers + 1)
                                   for _ in range(pp)]
        f[0] = 0.0
        prev = f
        for k in range(pp):
            cur = [INF] * (num_layers + 1)
            # segment k covers [i, j); the last segment must end at L and
            # every later segment still needs at least one layer
            j_range = range(k + 1, num_layers - (pp - 1 - k) + 1) \
                if k < pp - 1 else (num_layers,)
            for j in j_range:
                for i in range(k, j):  # earlier segments need ≥1 layer each
                    if prev[i] == INF:
                        continue
                    if constrained and not span_fits(i, j, k):
                        continue
                    value = max(prev[i], span_time(i, j, k))
                    if value < cur[j]:
                        cur[j] = value
                        choice[k][j] = i
            prev = cur
        if prev[num_layers] == INF:
            return None
        cuts = []
        j = num_layers
        for k in reversed(range(pp)):
            i = choice[k][j]
            if k > 0:
                cuts.append(i)
            j = i
        return tuple(reversed(cuts))

    def evaluate(cuts: tuple[int, ...]) -> PipelinePlan:
        profiles = stage_profiles(trace, cuts)
        steady = tuple(timer.stage_time(p).steady for p in profiles)
        peaks = [stage_memory(trace, p, micro_batch, m, zero_stage,
                              parallel.dp).total for p in profiles]
        bottleneck = max(range(pp), key=lambda i: steady[i])
        return PipelinePlan(cuts=cuts, stage_times=steady,
                            bottleneck=bottleneck,
                            fits=max(peaks) <= budget,
                            peak_memory=max(peaks))

    cuts = solve(constrained=True)
    if cuts is None:
        cuts = solve(constrained=False)
    plan = evaluate(cuts) if cuts is not None else None
    cache[cache_key] = plan
    return plan


# --------------------------------------------------------------------- #
# Schedule search: which tick program under a per-stage memory budget?
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScheduleCandidate:
    """One schedule's price at a fixed (cuts, micro-batch) operating point."""

    schedule: str
    #: timeline makespan of the pipeline phase, seconds per step
    step_seconds: float
    #: the worst stage's peak memory under this schedule's in-flight counts
    peak_memory: float
    #: does every stage fit the memory budget?
    fits: bool
    #: per-stage idle seconds (the schedule's actual bubble)
    stage_idle: tuple[float, ...]


@dataclass(frozen=True)
class SchedulePlan:
    """The tick program chosen by :func:`plan_pipeline_schedule`."""

    schedule: str
    cuts: tuple[int, ...]
    step_seconds: float
    peak_memory: float
    fits: bool
    #: every schedule considered, in registry order (for reporting)
    candidates: tuple[ScheduleCandidate, ...]

    def candidate(self, name: str) -> ScheduleCandidate | None:
        for row in self.candidates:
            if row.schedule == name:
                return row
        return None


def plan_pipeline_schedule(trace: ModelTrace, model, cluster: ClusterSpec,
                           parallel: ParallelConfig, micro_batch: int = 1,
                           num_micro_batches: int | None = None,
                           zero_stage: int = 0,
                           cost_model: KernelCostModel | None = None,
                           pipeline_cuts="auto",
                           schedules: Sequence[str] = SCHEDULE_NAMES,
                           memory_budget: float | None = None
                           ) -> SchedulePlan | None:
    """Choose the fastest tick program that fits a per-stage memory budget.

    The sibling of :func:`plan_pipeline_cuts` along the schedule axis:
    cut placement fixes *where* the stage boundaries fall (``"auto"``
    delegates to the cut planner; an explicit tuple is used verbatim),
    and this search decides *how* the stages execute — every registered
    schedule (or the ``schedules`` subset) is priced with the exact
    per-stage timeline (:func:`schedule_timeline`) and its own
    program-derived in-flight memory (:func:`stage_memory` with
    ``schedule=``), then the fastest one whose worst stage fits
    ``memory_budget`` (default: the cluster GPU's usable memory) wins.
    Schedules a configuration cannot express (e.g. interleaved with
    ``m % pp != 0``) are skipped.  If nothing fits, the fastest
    candidate overall is returned with ``fits=False``.  Returns ``None``
    when ``pp <= 1`` or the trace has no usable stage partition.
    """
    pp = parallel.pp
    if pp <= 1 or not trace.layers or len(trace.layers) < pp:
        return None
    m = num_micro_batches if num_micro_batches is not None else pp
    budget = memory_budget if memory_budget is not None \
        else cluster.gpu.usable_memory
    model_stats_for(trace, model)
    if pipeline_cuts == "auto" or pipeline_cuts is None:
        plan = plan_pipeline_cuts(trace, model, cluster, parallel,
                                  micro_batch, m, zero_stage, cost_model)
        if plan is None:
            return None
        cuts = plan.cuts
    else:
        cuts = _check_stage_count(
            validate_cuts(pipeline_cuts, len(trace.layers)), pp)
    profiles = stage_profiles(trace, cuts)
    times = stage_step_times(trace, profiles, cluster, parallel,
                             micro_batch, cost_model)
    candidates: list[ScheduleCandidate] = []
    for name in schedules:
        try:
            timeline = schedule_timeline(times, m, name)
        except ValueError:
            continue  # the schedule cannot express this (p, m)
        peak = max(
            stage_memory(trace, profile, micro_batch, m, zero_stage,
                         parallel.dp, schedule=name).total
            for profile in profiles
        )
        candidates.append(ScheduleCandidate(
            schedule=name, step_seconds=timeline.makespan,
            peak_memory=peak, fits=peak <= budget,
            stage_idle=timeline.stage_idle))
    if not candidates:
        return None
    fitting = [c for c in candidates if c.fits]
    best = min(fitting or candidates, key=lambda c: c.step_seconds)
    return SchedulePlan(schedule=best.schedule, cuts=cuts,
                        step_seconds=best.step_seconds,
                        peak_memory=best.peak_memory, fits=best.fits,
                        candidates=tuple(candidates))
