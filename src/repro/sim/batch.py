"""Vectorized batch prediction: price an entire config space in one pass.

:func:`predict_config` answers one configuration in ~tens of µs of
scalar Python.  That is fine for a coordinate-descent probe but not for
exhaustive-by-prediction ranking of Megatron-scale spaces (tp × pp × dp
× ep × micro-batch × schedule at world size 1024 is >10⁴ points).
:func:`predict_batch` prices the whole enumerated space with the
simulator's **one** step-time composition — the same
:func:`~repro.sim.pipeline.stage_time`,
:func:`~repro.sim.throughput.compose_step` and
:func:`~repro.sim.memory.model_memory` that :func:`step_time` and
:func:`predict_config` call with floats, called here with numpy columns.

Work that runs once per *distinct* value, not once per row, is done
once and kept where its inputs live:

* **per points** — a :class:`BatchPoints` is immutable, so it computes
  on first use, and keeps for its lifetime, its distinct meshes (tp, dp,
  pp, ep and axis placement, packed into one integer key), its distinct
  micro-batch sizes (each as sorted keys, first rows and the inverse
  index) and its early-infeasible mask (resolver failures, fewer than
  one micro-batch or than ``pp`` of them, an unusable overlap bucket, an
  inexpressible schedule);
* **per trace** — :func:`predict_batch` keeps two tables in the compiled
  trace's ``_time_cache``, living as long as the trace: the
  :class:`~repro.sim.pipeline.MeshTerms` of each distinct mesh (collective
  α–β, stage hop, dp collectives, optimizer update), keyed by
  (cluster, cost model, the distinct mesh keys), and the forward/backward
  kernel sums of each distinct micro-batch size, keyed by (cost model,
  the distinct sizes).

A call on points whose tables exist therefore makes two dictionary
lookups and then only row formulas: the tables are gathered into columns
through the cached inverse indices.  Outputs — throughput, fits, memory
— are never cached; every call evaluates them.

Configurations that genuinely need per-config work — explicit pipeline
cuts, stage-balancing "auto" cuts on a layer-marked trace, non-default
tick-program timelines, planner sweeps (``micro_batch=None``) and
``global_batch`` derivations — are priced by :func:`predict_config`
itself, so every row gets the same answer either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.distributed.mesh import DEFAULT_AXIS_ORDER, ParallelConfig
from repro.distributed.topology import ClusterSpec
from repro.pipeline import DEFAULT_SCHEDULE

from .events import ModelTrace
from .kernel_cost import KernelCostModel
from .memory import MemoryBreakdown, model_memory, model_stats_for
from .planner import Prediction, _schedule_expressible, predict_config
from .pipeline import MeshTerms, mesh_terms, stage_time
from .throughput import DEFAULT_BUCKET_MB, bucket_valid, compose_step

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

#: (name, dtype, default) of every column; ``None`` marks a required one
_COLUMNS = (
    ("tp", np.int64, None), ("dp", np.int64, None), ("pp", np.int64, None),
    ("ep", np.int64, None), ("micro_batch", np.int64, None),
    ("num_micro_batches", np.int64, 1), ("zero_stage", np.int64, 0),
    ("place", np.int64, _DEFAULT_PLACE), ("overlap", bool, False),
    ("bucket_mb", np.float64, DEFAULT_BUCKET_MB), ("invalid", bool, False))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _column(name: str, value, dtype, rows: int | None) -> np.ndarray:
    """``value`` as a read-only 1-D ``dtype`` column no caller can
    write: an array that is writeable, or a view, is copied.  Raises
    ``ValueError`` naming the column if it is not 1-D, has other than
    ``rows`` rows, or (for an integer column) holds a non-integral
    value."""
    raw = np.asarray(value)
    if raw.ndim != 1:
        raise ValueError(f"BatchPoints.{name} must be 1-D, "
                         f"got shape {raw.shape}")
    if rows is not None and raw.shape[0] != rows:
        raise ValueError(f"BatchPoints.{name} has {raw.shape[0]} rows, "
                         f"tp has {rows}")
    if raw.dtype == dtype:
        writable_elsewhere = raw is value and (raw.flags.writeable
                                               or raw.base is not None)
        return _frozen(raw.copy() if writable_elsewhere else raw)
    if raw.dtype.kind not in "biuf":
        raise ValueError(f"BatchPoints.{name} must hold numbers, "
                         f"got {raw.dtype}")
    if dtype is np.int64 and raw.dtype.kind == "f":
        wrong = ~(np.isfinite(raw) & (raw == np.floor(raw)))
        if wrong.any():
            raise ValueError(f"BatchPoints.{name} must hold integers, "
                             f"got {raw[wrong][0]!r}")
    return _frozen(raw.astype(dtype))


class Groups(NamedTuple):
    """A column's distinct values, as :func:`numpy.unique` finds them.
    Read-only, like the column."""

    #: the sorted distinct values' bytes: a memo key, hashed once
    key: bytes
    #: row of each distinct value's first occurrence
    first: np.ndarray
    #: row → index of its distinct value
    inverse: np.ndarray

    @classmethod
    def of(cls, column: np.ndarray) -> "Groups":
        unique, first, inverse = np.unique(column, return_index=True,
                                           return_inverse=True)
        return cls(unique.tobytes(), _frozen(first), _frozen(inverse))


@dataclass(frozen=True, eq=False)
class BatchPoints:
    """Struct-of-arrays view of N configurations to price.

    The columnar twin of :func:`predict_config`'s keyword arguments.
    Build one directly from arrays (the zero-per-row-Python fast path a
    benchmark or service wants), or normalize a sequence of tuner-style
    config mappings with :meth:`from_configs`.

    Immutable, and owner of its columns: each is a read-only array that
    no caller can write (a writeable array or a view is copied).
    Malformed columns — not 1-D, of another length than ``tp``, or
    non-integral where an integer is meant — raise ``ValueError`` naming
    the column.
    What depends on the points alone (:attr:`mesh_groups`,
    :attr:`micro_groups`, :attr:`early`) is computed once, on first use.
    """

    tp: np.ndarray
    dp: np.ndarray
    pp: np.ndarray
    ep: np.ndarray
    micro_batch: np.ndarray
    num_micro_batches: np.ndarray | None = None
    zero_stage: np.ndarray | None = None
    #: one schedule name for every row, or a per-row sequence
    schedules: str | Sequence[str] = DEFAULT_SCHEDULE
    #: per-row axis placement index into the canonical permutation table
    place: np.ndarray | None = None
    #: per-row ``overlap_grad_sync`` flag (bucketed dp grad sync pricing)
    overlap: np.ndarray | None = None
    #: per-row overlap bucket size (MiB)
    bucket_mb: np.ndarray | None = None
    #: rows whose parallel resolver failed (infeasible, never priced)
    invalid: np.ndarray | None = None
    #: (row, predict_config kwargs) pairs needing per-row scalar work
    scalar_rows: Sequence = field(default_factory=tuple)

    def __post_init__(self):
        rows = None
        for name, dtype, default in _COLUMNS:
            value = getattr(self, name)
            column = _frozen(np.full(rows, default, dtype)) \
                if value is None and default is not None \
                else _column(name, value, dtype, rows)
            object.__setattr__(self, name, column)
            rows = column.shape[0]
        if not ((0 <= self.place) & (self.place < len(_ORDERS))).all():
            raise ValueError(f"BatchPoints.place must index the "
                             f"{len(_ORDERS)} axis placements")
        if not isinstance(self.schedules, str):
            object.__setattr__(self, "schedules", tuple(self.schedules))
            if len(self.schedules) != rows:
                raise ValueError(f"BatchPoints.schedules has "
                                 f"{len(self.schedules)} rows, tp has {rows}")
        object.__setattr__(self, "scalar_rows", tuple(self.scalar_rows))

    def __len__(self) -> int:
        return int(self.tp.shape[0])

    def schedule_at(self, index: int) -> str:
        if isinstance(self.schedules, str):
            return self.schedules
        return self.schedules[index]

    @cached_property
    def mesh_groups(self) -> Groups:
        """The distinct meshes: (tp, dp, pp, ep, placement) packed."""
        return Groups.of(((((self.tp * _PACK + self.dp) * _PACK + self.pp)
                           * _PACK + self.ep) * _PLACE + self.place))

    @cached_property
    def micro_groups(self) -> Groups:
        """The distinct micro-batch sizes."""
        return Groups.of(self.micro_batch)

    @cached_property
    def early(self) -> np.ndarray:
        """Rows infeasible before any pricing, in :func:`predict_config`'s
        check order: a failed resolver, fewer than one micro-batch (or
        than ``pp`` of them), an unusable overlap bucket, a schedule with
        no program for the row's (pp, m)."""
        pp, m = self.pp, self.num_micro_batches
        if isinstance(self.schedules, str):
            names, code = [self.schedules], np.zeros(len(self), np.int64)
        else:
            names, code = np.unique(self.schedules, return_inverse=True)
        groups = Groups.of((code * _PACK + pp) * _PACK + m)
        expressible = np.array([
            _schedule_expressible(str(names[code[i]]), int(pp[i]), int(m[i]))
            for i in groups.first], bool)
        return _frozen(self.invalid | (self.micro_batch < 1) | (m < pp)
                       | ~bucket_valid(self.bucket_mb)
                       | ~expressible[groups.inverse])

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
        contract).  Rows needing per-row scalar work — planner sweeps
        (``micro_batch=None``), ``global_batch`` derivations, resolved
        pipeline cuts (``num_layers`` gates "auto"), non-default
        expressible timelines and fractional micro-batch sizes or counts
        — are collected into ``scalar_rows``.
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
            count = config.get("num_micro_batches", num_micro_batches)
            m[i] = int(count)
            overlap[i] = bool(config.get("overlap_grad_sync",
                                         overlap_grad_sync))
            bucket[i] = float(config.get("overlap_bucket_mb",
                                         overlap_bucket_mb))
            micro_arg = config.get("micro_batch")
            global_batch = config.get("global_batch")
            cuts_arg = config.get("pipeline_cuts", pipeline_cuts)
            if micro_arg is not None:
                micro[i] = int(micro_arg)
            # sweeps, derivations and fractional sizes or counts (which
            # the integer columns would truncate) are per-row work
            fractional = m[i] != count or (
                micro_arg is not None and micro[i] != micro_arg)
            needs_scalar = micro_arg is None or global_batch is not None \
                or fractional
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
                    num_micro_batches=count if fractional else int(m[i]),
                    global_batch=global_batch, pipeline_cuts=cuts_arg,
                    pipeline_schedule=schedule,
                    overlap_grad_sync=bool(overlap[i]),
                    overlap_bucket_mb=float(bucket[i]))))
        for column in (tp, dp, pp, ep, micro, m, zero, place, overlap,
                       bucket, invalid):
            _frozen(column)  # ours alone: the points need not copy it
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
    #: rows priced by predict_config (cuts/timelines/sweeps)
    num_fallback: int
    _has_memory: np.ndarray
    #: (N, 5) params/grads/optimizer/activations/workspace columns
    _memory: np.ndarray
    _points: BatchPoints
    #: predict_config answers for the fallback rows, by index
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
    model_stats_for(trace, model)  # mesh_terms prices off the cached stats
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
    if n == 0:  # nothing to price, and no mesh row to size tables by
        none, no = np.zeros(0), np.zeros(0, bool)
        return BatchPrediction(none, no, none, points.micro_batch,
                               points.num_micro_batches, 0, 0, no,
                               np.zeros((0, 5)), points, {})
    tp, dp, pp, ep = points.tp, points.dp, points.pp, points.ep
    place = points.place
    micro = points.micro_batch.copy()
    m = points.num_micro_batches.copy()
    zero = points.zero_stage
    invalid = points.invalid
    memo = compiled._time_cache  # per-trace memo shared across calls

    # -- per-mesh terms: one (width, meshes) table per distinct mesh set - #
    meshes = points.mesh_groups
    key = ("batch_mesh", cluster, cost, meshes.key)
    table = memo.get(key)
    if table is None:
        table = memo[key] = _frozen(np.array([
            mesh_terms(trace, cluster, ParallelConfig(
                tp=int(tp[i]), dp=int(dp[i]), pp=int(pp[i]), ep=int(ep[i]),
                order=_ORDERS[int(place[i])]),
                cost).row()
            for i in meshes.first]).T)
    mesh = MeshTerms.from_columns(table[:, meshes.inverse])

    # -- compute: one kernel-sum pair per distinct micro-batch scale ----- #
    sizes = points.micro_groups
    key = ("batch_kernel", cost, sizes.key)
    kernel = memo.get(key)
    if kernel is None:
        kernel = memo[key] = _frozen(np.array([
            (cost.forward_time(trace, s), cost.backward_time(trace, s))
            for s in (int(micro[i]) / trace.ref_batch
                      for i in sizes.first)]).T)
    scale = micro / trace.ref_batch

    # -- the step: step_time's own composition, over columns ------------ #
    stage = stage_time(mesh, *kernel[:, sizes.inverse],
                       compiled.axis_kinds, (compiled.boundary_bytes,),
                       scale, pp)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = compose_step(stage, mesh, cluster, pp, dp, m, zero,
                            points.overlap, points.bucket_mb)
        throughput = dp * micro * m / step.total
    throughput = np.nan_to_num(throughput, nan=0.0, posinf=0.0)

    # -- memory: the uniform shard's peak, 1F1B's pp micro-batches alive -- #
    breakdown = model_memory(model, trace, micro, zero, dp, pp, pp)
    memory = np.column_stack(tuple(breakdown.components().values()))
    memory_total = breakdown.total

    # -- feasibility verdicts, in predict_config's check order ---------- #
    early = points.early
    has_memory = ~early
    fits = has_memory & (memory_total <= cluster.gpu.usable_memory)
    throughput = np.where(fits, throughput, 0.0)
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
