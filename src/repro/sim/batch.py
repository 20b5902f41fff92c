"""Vectorized batch prediction: price an entire config space in one pass.

:func:`predict_config` answers one configuration in ~tens of µs of
scalar Python.  That is fine for a coordinate-descent probe but not for
exhaustive-by-prediction ranking of Megatron-scale spaces (tp × pp × dp
× ep × micro-batch × schedule at world size 1024 is >10⁴ points).
:func:`predict_batch` prices the whole enumerated space as numpy array
expressions over the trace's :class:`~repro.sim.compiled.CompiledTrace`
aggregates and :class:`~repro.sim.memory.ModelStats`:

* per-config *compute* collapses to a lookup: forward/backward kernel
  sums depend only on the micro-batch scale, of which a sweep has ~10
  distinct values (each memoized on the compiled trace);
* per-config *collectives* are affine (α·count + β·bytes) with
  coefficients that depend only on the parallel mesh **and its axis
  placement** (``ParallelConfig.order`` decides which topology tier each
  group crosses), of which a space has a few dozen distinct values —
  gathered from small tables that are themselves memoized on the
  compiled trace, so steady-state pricing never re-derives a mesh it has
  seen;
* per-config *overlap* (``overlap_grad_sync``) is an affine bucketed
  expression over the per-mesh dp α-β coefficients and the per-row
  backward window, so overlap × placement spaces vectorize too;
* per-config *memory* is the fixed ZeRO state (a function of the
  distinct (pp, dp, zero) triples) plus activation/workspace terms
  linear in the micro-batch.

Configurations that genuinely need per-config work — explicit pipeline
cuts, stage-balancing "auto" cuts on a layer-marked trace, non-default
tick-program timelines, planner sweeps (``micro_batch=None``) and
``global_batch`` derivations — fall back to the scalar oracle, so the
batch result **equals** :func:`predict_config` on every config:
identical feasibility, throughput within 1e-9 (the vectorized rows
replicate the scalar expression trees operation-for-operation in IEEE
float64, so they are in fact bit-identical).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.distributed.mesh import (
    DEFAULT_AXIS_ORDER,
    ParallelConfig,
    axis_ranks,
    axis_stride,
)
from repro.distributed.topology import ClusterSpec
from repro.pipeline import DEFAULT_SCHEDULE

from .events import ModelTrace
from .kernel_cost import KernelCostModel
from .memory import MemoryBreakdown, fixed_state_bytes, model_stats_for
from .planner import Prediction, _schedule_expressible, predict_config
from .throughput import DEFAULT_BUCKET_MB, overlap_exposed

#: packing radix for composite integer group keys (axis degrees, micro
#: counts and ZeRO stages are all far below 2^13; four 13-bit fields
#: plus a 5-bit placement index fit one int64)
_PACK = 1 << 13

#: all 24 axis placements, in a canonical order so a placement is one
#: small integer in the packed mesh key
_ORDERS: tuple[tuple[str, ...], ...] = tuple(
    sorted(itertools.permutations(DEFAULT_AXIS_ORDER)))
_ORDER_INDEX: dict[tuple[str, ...], int] = {
    order: i for i, order in enumerate(_ORDERS)}
_DEFAULT_PLACE = _ORDER_INDEX[DEFAULT_AXIS_ORDER]
_PLACE = 32


@dataclass
class BatchPoints:
    """Struct-of-arrays view of N configurations to price.

    The columnar twin of :func:`predict_config`'s keyword arguments.
    Build one directly from arrays (the zero-per-row-Python fast path a
    benchmark or service wants), or normalize a sequence of tuner-style
    config mappings with :meth:`from_configs`.
    """

    tp: np.ndarray
    dp: np.ndarray
    pp: np.ndarray
    ep: np.ndarray
    micro_batch: np.ndarray
    num_micro_batches: np.ndarray | None = None
    zero_stage: np.ndarray | None = None
    #: one schedule name for every row, or a per-row list
    schedules: str | Sequence[str] = DEFAULT_SCHEDULE
    #: per-row axis placement index into the canonical permutation table
    place: np.ndarray | None = None
    #: per-row ``overlap_grad_sync`` flag (bucketed dp grad sync pricing)
    overlap: np.ndarray | None = None
    #: per-row overlap bucket size (MiB)
    bucket_mb: np.ndarray | None = None
    #: rows whose parallel resolver failed (infeasible, never priced)
    invalid: np.ndarray | None = None
    #: (row, predict_config kwargs) pairs needing the scalar oracle
    scalar_rows: list = field(default_factory=list)

    def __post_init__(self):
        as_ints = lambda v: np.asarray(v, dtype=np.int64)  # noqa: E731
        self.tp, self.dp = as_ints(self.tp), as_ints(self.dp)
        self.pp, self.ep = as_ints(self.pp), as_ints(self.ep)
        self.micro_batch = as_ints(self.micro_batch)
        n = self.tp.shape[0]
        self.num_micro_batches = np.ones(n, np.int64) \
            if self.num_micro_batches is None \
            else as_ints(self.num_micro_batches)
        self.zero_stage = np.zeros(n, np.int64) \
            if self.zero_stage is None else as_ints(self.zero_stage)
        self.place = np.full(n, _DEFAULT_PLACE, np.int64) \
            if self.place is None else as_ints(self.place)
        self.overlap = np.zeros(n, bool) if self.overlap is None \
            else np.asarray(self.overlap, dtype=bool)
        self.bucket_mb = np.full(n, DEFAULT_BUCKET_MB, np.float64) \
            if self.bucket_mb is None \
            else np.asarray(self.bucket_mb, dtype=np.float64)
        if self.invalid is None:
            self.invalid = np.zeros(n, bool)

    def __len__(self) -> int:
        return int(self.tp.shape[0])

    def schedule_at(self, index: int) -> str:
        if isinstance(self.schedules, str):
            return self.schedules
        return self.schedules[index]

    @classmethod
    def from_configs(cls, configs: Sequence[Mapping],
                     parallel_fn: Callable[[Mapping], ParallelConfig]
                     | None = None,
                     zero_stage: int = 0,
                     num_micro_batches: int = 1,
                     pipeline_cuts=None,
                     pipeline_schedule: str = DEFAULT_SCHEDULE,
                     num_layers: int = 0,
                     overlap_grad_sync: bool = False,
                     overlap_bucket_mb: float = DEFAULT_BUCKET_MB
                     ) -> "BatchPoints":
        """Normalize config mappings (``predict_config`` keyword names,
        plus ``parallel``/``tp``/``dp``/``pp``/``ep`` mesh coordinates).

        ``parallel_fn`` resolves mesh coordinates the way
        :meth:`SimCostModel.parallel_fn` does; a resolver ``ValueError``
        marks the row infeasible rather than raising (the tuner's oracle
        contract).  Rows needing the scalar oracle — planner sweeps
        (``micro_batch=None``), ``global_batch`` derivations, resolved
        pipeline cuts (``num_layers`` gates "auto") and non-default
        expressible timelines — are collected into ``scalar_rows``.
        """
        n = len(configs)
        tp = np.ones(n, np.int64)
        dp = np.ones(n, np.int64)
        pp = np.ones(n, np.int64)
        ep = np.ones(n, np.int64)
        micro = np.ones(n, np.int64)
        m = np.ones(n, np.int64)
        zero = np.zeros(n, np.int64)
        place = np.full(n, _DEFAULT_PLACE, np.int64)
        overlap = np.zeros(n, bool)
        bucket = np.full(n, overlap_bucket_mb, np.float64)
        invalid = np.zeros(n, bool)
        schedules: list[str] = []
        scalar_rows: list[tuple[int, dict]] = []
        for i, config in enumerate(configs):
            schedule = str(config.get("pipeline_schedule",
                                      pipeline_schedule))
            schedules.append(schedule)
            parallel = config.get("parallel")
            if parallel is None:
                try:
                    if parallel_fn is not None:
                        parallel = parallel_fn(config)
                    else:
                        parallel = ParallelConfig(
                            tp=int(config.get("tp", 1)),
                            dp=int(config.get("dp", 1)),
                            pp=int(config.get("pp", 1)),
                            ep=int(config.get("ep", 1)))
                except ValueError:
                    invalid[i] = True
                    micro[i] = 0
                    continue
            tp[i], dp[i] = parallel.tp, parallel.dp
            pp[i], ep[i] = parallel.pp, parallel.ep
            place[i] = _ORDER_INDEX[parallel.order]
            zero[i] = int(config.get("zero_stage", zero_stage))
            m[i] = int(config.get("num_micro_batches", num_micro_batches))
            overlap[i] = bool(config.get("overlap_grad_sync",
                                         overlap_grad_sync))
            bucket[i] = float(config.get("overlap_bucket_mb",
                                         overlap_bucket_mb))
            micro_arg = config.get("micro_batch")
            global_batch = config.get("global_batch")
            cuts_arg = config.get("pipeline_cuts", pipeline_cuts)
            needs_scalar = micro_arg is None or global_batch is not None
            if micro_arg is not None:
                micro[i] = int(micro_arg)
            if not needs_scalar and parallel.pp > 1 and \
                    m[i] >= parallel.pp:
                # Cut-resolved ("auto" on a layer-marked trace, or
                # explicit cuts) and non-1F1B timelines are genuinely
                # per-config work.
                staged = cuts_arg is not None and not (
                    cuts_arg == "auto" and num_layers < parallel.pp)
                timeline = schedule != DEFAULT_SCHEDULE and \
                    _schedule_expressible(schedule, parallel.pp,
                                          int(m[i]))
                needs_scalar = staged or timeline
            if needs_scalar:
                scalar_rows.append((i, dict(
                    parallel=parallel, micro_batch=micro_arg,
                    zero_stage=int(zero[i]),
                    num_micro_batches=int(m[i]),
                    global_batch=global_batch, pipeline_cuts=cuts_arg,
                    pipeline_schedule=schedule,
                    overlap_grad_sync=bool(overlap[i]),
                    overlap_bucket_mb=float(bucket[i]))))
        uniform = {pipeline_schedule}.issuperset(schedules)
        return cls(tp=tp, dp=dp, pp=pp, ep=ep, micro_batch=micro,
                   num_micro_batches=m, zero_stage=zero,
                   schedules=pipeline_schedule if uniform else schedules,
                   place=place, overlap=overlap, bucket_mb=bucket,
                   invalid=invalid, scalar_rows=scalar_rows)


@dataclass
class BatchPrediction:
    """Array-of-structs answer to "price these N configurations".

    Columns are aligned with the ``configs`` sequence passed to
    :func:`predict_batch`.  ``memory_total`` is 0.0 for rows whose
    memory was never priced (early-infeasible configs, exactly as
    :func:`predict_config` reports ``memory=None`` for them);
    :meth:`prediction` reconstructs the full scalar
    :class:`~repro.sim.planner.Prediction` for any row.
    """

    #: predicted samples/sec per config (0.0 where infeasible)
    throughput: np.ndarray
    #: memory-feasibility verdict per config
    fits: np.ndarray
    #: peak memory bytes per config (0.0 where memory was not priced)
    memory_total: np.ndarray
    #: micro-batch size priced per config (0 where unresolvable)
    micro_batch: np.ndarray
    #: micro-batch count priced per config
    num_micro_batches: np.ndarray
    #: rows priced by the vectorized path
    num_vectorized: int
    #: rows delegated to the scalar oracle (cuts/timelines/sweeps)
    num_fallback: int
    _has_memory: np.ndarray
    #: (N, 5) params/grads/optimizer/activations/workspace columns
    _memory: np.ndarray
    _points: BatchPoints
    #: scalar-oracle Prediction objects for fallback rows, by index
    _scalar: dict

    def __len__(self) -> int:
        return int(self.throughput.shape[0])

    @property
    def num_feasible(self) -> int:
        return int(self.fits.sum())

    def best_index(self) -> int | None:
        """Index of the fastest feasible config (None if nothing fits)."""
        if not self.fits.any():
            return None
        rates = np.where(self.fits, self.throughput, -np.inf)
        return int(rates.argmax())

    def prediction(self, index: int) -> Prediction:
        """The scalar :class:`Prediction` equivalent for one row."""
        scalar = self._scalar.get(index)
        if scalar is not None:
            return scalar
        memory = None
        if self._has_memory[index]:
            memory = MemoryBreakdown(*(float(v)
                                       for v in self._memory[index]))
        return Prediction(
            throughput=float(self.throughput[index]),
            fits=bool(self.fits[index]),
            memory=memory,
            micro_batch=int(self.micro_batch[index]),
            num_micro_batches=int(self.num_micro_batches[index]),
            pipeline_cuts=(),
            pipeline_schedule=self._points.schedule_at(index),
        )

    def predictions(self) -> list:
        return [self.prediction(i) for i in range(len(self))]


def _parallel_terms(cluster: ClusterSpec, parallel: ParallelConfig,
                    stats, cost: KernelCostModel, compiled) -> dict:
    """Per-mesh constants of the step-time model, computed once per
    distinct (:class:`ParallelConfig`, placement) with the exact scalar
    routines — the rank groups (and therefore the topology tier each
    axis pays) follow ``parallel.order``."""
    groups = axis_ranks(0, parallel)
    pp = parallel.pp
    param_bytes = stats.param_bytes / pp
    param_count = stats.param_count / pp
    coeffs: dict[tuple[str, str], tuple[float, float]] = {}
    for axis in ("tp", "ep"):
        if getattr(parallel, axis) <= 1:
            continue
        for (tag, kind), (count, _total) in compiled.comm_totals.items():
            if tag != axis or count == 0:
                continue
            coeffs[(axis, kind)] = cluster.collective_coeffs(
                kind, groups[axis])
    dp_ranks = groups["dp"]
    gather = cluster.all_gather_time(param_bytes, dp_ranks)
    scatter = cluster.reduce_scatter_time(param_bytes, dp_ranks)
    ar_alpha, ar_beta = cluster.collective_coeffs("all_reduce", dp_ranks)
    rs_alpha, rs_beta = cluster.collective_coeffs("reduce_scatter",
                                                  dp_ranks)
    # adjacent pipeline stages sit one pp-axis stride apart
    hop_tier = cluster.tier_for((0, axis_stride(parallel, "pp")))
    return {
        "axis_coeffs": coeffs,
        "param_bytes": param_bytes,
        "zero_gather": gather,
        "zero_exposed": (2 * gather + scatter)
        * (1 - cluster.zero_prefetch_overlap),
        "dp_allreduce": cluster.all_reduce_time(param_bytes, dp_ranks),
        "dp_ar_alpha": ar_alpha, "dp_ar_beta": ar_beta,
        "dp_rs_alpha": rs_alpha, "dp_rs_beta": rs_beta,
        "opt_full": cost.optimizer_time(param_count),
        "opt_sharded": cost.optimizer_time(param_count / parallel.dp),
        "hop_bw": hop_tier.bandwidth,
        "hop_lat": hop_tier.latency,
    }


def predict_batch(trace: ModelTrace, model, cluster: ClusterSpec,
                  configs: Sequence[Mapping] | BatchPoints,
                  cost_model: KernelCostModel | None = None,
                  parallel_fn: Callable[[Mapping], ParallelConfig]
                  | None = None,
                  zero_stage: int = 0,
                  num_micro_batches: int = 1,
                  pipeline_cuts=None,
                  pipeline_schedule: str = DEFAULT_SCHEDULE,
                  overlap_grad_sync: bool = False,
                  overlap_bucket_mb: float = DEFAULT_BUCKET_MB
                  ) -> BatchPrediction:
    """Price ``configs`` in one vectorized pass — :func:`predict_config`
    semantics, array answers.

    ``configs`` is either a sequence of config mappings (see
    :meth:`BatchPoints.from_configs` for the accepted keys; the keyword
    defaults mirror the scalar signature) or a pre-built columnar
    :class:`BatchPoints` — the latter skips all per-row Python and is
    how a >10⁴-config space is priced in milliseconds.
    """
    cost = cost_model or KernelCostModel(cluster.gpu)
    stats = model_stats_for(trace, model)
    compiled = trace.compiled()
    if isinstance(configs, BatchPoints):
        points = configs
    else:
        points = BatchPoints.from_configs(
            configs, parallel_fn=parallel_fn, zero_stage=zero_stage,
            num_micro_batches=num_micro_batches,
            pipeline_cuts=pipeline_cuts,
            pipeline_schedule=pipeline_schedule,
            num_layers=len(trace.layers),
            overlap_grad_sync=overlap_grad_sync,
            overlap_bucket_mb=overlap_bucket_mb)
    n = len(points)
    tp, dp, pp, ep = points.tp, points.dp, points.pp, points.ep
    place = points.place
    micro = points.micro_batch.copy()
    m = points.num_micro_batches.copy()
    zero = points.zero_stage
    invalid = points.invalid
    memo = compiled._time_cache  # per-trace memo shared across calls

    # -- per-mesh lookup tables (memoized per distinct ParallelConfig) --- #
    mesh_key = ((((tp * _PACK + dp) * _PACK + pp) * _PACK + ep)
                * _PLACE + place)
    mesh_unique, mesh_first, mesh_inv = np.unique(
        mesh_key, return_index=True, return_inverse=True)
    par_table: list[dict] = []
    for first in mesh_first:
        key = ("batch_mesh", cluster, cost, int(mesh_key[first]))
        entry = memo.get(key)
        if entry is None:
            parallel = ParallelConfig(tp=int(tp[first]), dp=int(dp[first]),
                                      pp=int(pp[first]), ep=int(ep[first]),
                                      order=_ORDERS[int(place[first])])
            entry = memo[key] = _parallel_terms(cluster, parallel, stats,
                                                cost, compiled)
        par_table.append(entry)

    def gather_column(name: str) -> np.ndarray:
        return np.array([entry[name] for entry in par_table])[mesh_inv]

    # -- compute: one kernel-sum pair per distinct micro-batch scale ----- #
    micro_unique, micro_inv = np.unique(micro, return_inverse=True)
    fwd_u = np.empty(micro_unique.shape[0])
    bwd_u = np.empty(micro_unique.shape[0])
    for u, value in enumerate(micro_unique):
        batch_scale = int(value) / trace.ref_batch
        fwd_u[u] = cost.forward_time(trace, batch_scale)
        bwd_u[u] = cost.backward_time(trace, batch_scale)
    scale = micro.astype(np.float64) / trace.ref_batch
    forward = fwd_u[micro_inv] / pp * m
    backward = bwd_u[micro_inv] / pp * m

    # -- tensor-/expert-parallel collectives (α·count + β·bytes) --------- #
    per_micro = {"tp": np.zeros(n), "ep": np.zeros(n)}
    for (tag, kind), (count, total) in compiled.comm_totals.items():
        if tag not in per_micro or count == 0:
            continue
        ab = np.array([entry["axis_coeffs"].get((tag, kind), (0.0, 0.0))
                       for entry in par_table])
        alpha = ab[mesh_inv, 0]
        beta = ab[mesh_inv, 1]
        per_micro[tag] += count * alpha + beta * (total * scale)
    tp_comm = 2 * per_micro["tp"] / pp * m
    ep_comm = 2 * per_micro["ep"] / pp * m

    # -- ZeRO / DP gradient traffic and the optimizer update ------------- #
    # Bucketed overlap is throughput.overlap_exposed over columns: the
    # window is the last micro-batch's backward (bwd/pp — the same lookup
    # the scalar path divides).
    zero3 = (zero >= 3) & (dp > 1)
    dp_plain = ~zero3 & (dp > 1)
    overlap = points.overlap
    window = bwd_u[micro_inv] / pp
    bucket_bytes = points.bucket_mb * float(1 << 20)
    param_bytes = gather_column("param_bytes")
    ar_exposed, _ = overlap_exposed(
        gather_column("dp_ar_alpha"), gather_column("dp_ar_beta"),
        param_bytes, bucket_bytes, window)
    rs_exposed, _ = overlap_exposed(
        gather_column("dp_rs_alpha"), gather_column("dp_rs_beta"),
        param_bytes, bucket_bytes, window)

    two_gather = 2 * gather_column("zero_gather")
    zero_hidden_g = two_gather * cluster.zero_prefetch_overlap
    zero_comm = np.where(
        zero3,
        np.where(overlap,
                 two_gather - zero_hidden_g + rs_exposed,
                 gather_column("zero_exposed")),
        0.0)
    allreduce = gather_column("dp_allreduce")
    dp_comm = np.where(
        dp_plain,
        np.where(overlap,
                 ar_exposed,
                 np.maximum(allreduce * (1 - cluster.dp_sync_overlap),
                            allreduce
                            - backward * cluster.dp_sync_overlap)),
        0.0)
    optimizer = np.where((zero >= 1) & (dp > 1),
                         gather_column("opt_sharded"),
                         gather_column("opt_full"))

    # -- pipeline boundary sends + closed-form 1F1B bubble --------------- #
    pipelined = pp > 1
    boundary = compiled.boundary_bytes * scale
    hop = np.where(boundary != 0.0,
                   boundary / gather_column("hop_bw")
                   + gather_column("hop_lat"),
                   0.0)
    pp_comm = np.where(pipelined, 2 * hop * m, 0.0)
    steady = forward + backward + tp_comm + ep_comm + pp_comm
    bubble = np.where(pipelined,
                      steady * (pp - 1) / np.maximum(m, 1),
                      0.0)

    total_time = (forward + backward + tp_comm + ep_comm + zero_comm
                  + dp_comm + pp_comm + bubble + optimizer)
    samples = dp * micro * m
    with np.errstate(divide="ignore", invalid="ignore"):
        throughput = samples / total_time
    throughput = np.nan_to_num(throughput, nan=0.0, posinf=0.0)

    # -- memory: fixed ZeRO state + linear activation/workspace terms ---- #
    fs_key = (pp * _PACK + dp) * _PACK + zero
    fs_unique, fs_first, fs_inv = np.unique(
        fs_key, return_index=True, return_inverse=True)
    fs_rows = []
    for first in fs_first:
        key = ("batch_fixed", int(fs_key[first]))
        row = memo.get(key)
        if row is None:
            row = memo[key] = fixed_state_bytes(
                stats.param_bytes / int(pp[first]),
                stats.param_count / int(pp[first]),
                stats.layer_count, int(zero[first]), int(dp[first]))
        fs_rows.append(row)
    fixed = np.array(fs_rows, dtype=np.float64)[fs_inv]
    act_scale = scale * pp
    activations = trace.activation_bytes() / pp * act_scale
    workspace = fixed[:, 3] + compiled.max_out_bytes * scale * 2
    memory = np.column_stack(
        (fixed[:, 0], fixed[:, 1], fixed[:, 2], activations, workspace))
    memory_total = (fixed[:, 0] + fixed[:, 1] + fixed[:, 2]
                    + activations + workspace)

    # -- feasibility verdicts, in the scalar oracle's check order -------- #
    fits = np.ones(n, bool)
    has_memory = np.ones(n, bool)
    oom = memory_total > cluster.gpu.usable_memory
    fits[oom] = False
    throughput = np.where(oom, 0.0, throughput)
    # fewer than one micro-batch (or than pp of them) cannot fill a step;
    # invalid rows already carry micro 0 and are reported as such
    unfillable = ~invalid & ((micro < 1) | (m < pp))
    inexpressible = np.zeros(n, bool)
    if isinstance(points.schedules, str):
        expr_key = pp * _PACK * _PACK + m
        for unique, first in zip(*np.unique(expr_key,
                                            return_index=True)[:2]):
            key = ("batch_expr", points.schedules, int(unique))
            ok = memo.get(key)
            if ok is None:
                ok = memo[key] = _schedule_expressible(
                    points.schedules, int(pp[first]), int(m[first]))
            if not ok:
                inexpressible |= expr_key == unique
    else:
        expr_cache: dict[tuple, bool] = {}
        for i in np.flatnonzero(~invalid & ~unfillable):
            key = (points.schedules[i], int(pp[i]), int(m[i]))
            ok = expr_cache.get(key)
            if ok is None:
                ok = expr_cache[key] = _schedule_expressible(*key)
            inexpressible[i] = not ok
    early = invalid | unfillable | inexpressible
    fits[early] = False
    throughput = np.where(early, 0.0, throughput)
    has_memory[early] = False
    memory_total = np.where(early, 0.0, memory_total)

    # -- scalar fallback: cuts, timelines, sweeps ------------------------ #
    scalar_predictions: dict[int, Prediction] = {}
    for i, kwargs in points.scalar_rows:
        pred = predict_config(trace, model, cluster, cost_model=cost,
                              **kwargs)
        scalar_predictions[i] = pred
        throughput[i] = pred.throughput
        fits[i] = pred.fits
        has_memory[i] = pred.memory is not None
        memory_total[i] = pred.memory_bytes
        micro[i] = pred.micro_batch
        m[i] = pred.num_micro_batches

    return BatchPrediction(
        throughput=throughput,
        fits=fits,
        memory_total=memory_total,
        micro_batch=micro,
        num_micro_batches=m,
        num_vectorized=n - len(points.scalar_rows) - int(invalid.sum()),
        num_fallback=len(points.scalar_rows),
        _has_memory=has_memory,
        _memory=memory,
        _points=points,
        _scalar=scalar_predictions,
    )
