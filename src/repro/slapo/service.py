"""Planner-as-a-service: (family, cluster, budget) → plan, concurrently.

The ROADMAP's north star is answering "how should I parallelize this
model on this cluster?" at interactive latency.  The pieces exist —
:func:`repro.sim.predict_batch` prices a whole config space in
milliseconds, the :class:`~repro.slapo.tuner.cache.TrialCache` makes
measurements durable, :class:`~repro.slapo.tuner.workers.MeasurementPool`
survives crashed trials — and :class:`PlanService` glues them behind one
concurrent query API:

* **queries** are :class:`PlanRequest` values (model family, world
  size, measurement budget, space bounds) answered on a thread pool;
* **traces are shared**: each family is traced once, under a build
  lock, and every subsequent query against that family prices off the
  cached trace;
* **spaces are shared**: each space *shape* (world size, mesh bounds,
  micro-batch and ZeRO menus) is built once per service straight as
  columns — its :class:`~repro.sim.batch.BatchPoints` and its config
  feature block with it — so a repeat query costs one ``predict_batch``
  call plus an argsort, and config dicts are built only for the answer
  and the measured candidates;
* **identical in-flight queries coalesce**: a request equal to one
  currently being answered joins its future instead of re-pricing the
  space, so a thundering herd of identical queries does the work once
  (:attr:`PlanService.coalesced` counts the piggybacks);
* **budget > 0** spends real measurements on the top predicted
  configs, consulting the shared :class:`TrialCache` first and writing
  new measurements back under the (family, world size) context, so
  repeated queries converge to measured answers at zero extra cost.

::

    with plan_service(trace_fn, cache=TrialCache(path)) as service:
        response = service.query(PlanRequest("GPT", world_size=64))
        response.config        # best plan found
        response.throughput    # predicted (or measured) samples/sec
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.distributed.topology import ClusterSpec, p3dn_cluster

from ..sim.batch import BatchPoints, predict_batch
from ..sim.memory import model_stats_for
from .tuner.cache import TrialCache
from .tuner.cost_model import SimCostModel
from .tuner.learned import ResidualCostModel, config_features
from .tuner.space import (
    SpaceColumns,
    factorization_columns,
    parallelism_symbols,
)
from .tuner.workers import MeasurementPool, measure


#: ZeRO stages a request may ask for
ZERO_STAGES = frozenset({0, 1, 2, 3})

#: space shapes a service keeps built (LRU beyond this)
_SPACE_MEMO_SIZE = 64


class UnknownFamilyError(KeyError):
    """The service's ``trace_fn`` does not know the requested family."""


@dataclass(frozen=True)
class PlanRequest:
    """One plan query.  Frozen and hashable: equal requests coalesce.

    Validated on construction: list-valued menus are coerced to tuples of
    ints, and out-of-range fields raise a ``ValueError`` naming the field.
    """

    #: model family name, resolved by the service's ``trace_fn``
    family: str
    #: total GPU count to plan for
    world_size: int
    #: measured trials to spend on the top predicted configs
    #: (0 = answer from prediction alone)
    budget: int = 0
    max_tp: int | None = None
    max_pp: int | None = None
    micro_batches: tuple = (1, 2, 4, 8)
    zero_stages: tuple = (0, 1, 3)

    def __post_init__(self):
        for name in ("micro_batches", "zero_stages"):
            values = getattr(self, name)
            try:
                coerced = tuple(operator.index(v) for v in values)
            except TypeError:
                raise TypeError(f"PlanRequest.{name} must be a sequence of "
                                f"ints, got {values!r}") from None
            object.__setattr__(self, name, coerced)
        if self.world_size <= 0:
            raise ValueError(f"PlanRequest.world_size must be positive, "
                             f"got {self.world_size}")
        if self.budget < 0:
            raise ValueError(f"PlanRequest.budget must be >= 0, "
                             f"got {self.budget}")
        for name in ("max_tp", "max_pp"):
            bound = getattr(self, name)
            if bound is not None and bound < 1:
                raise ValueError(f"PlanRequest.{name} must be >= 1 or None, "
                                 f"got {bound}")
        if not self.micro_batches or min(self.micro_batches) <= 0:
            raise ValueError(f"PlanRequest.micro_batches must be a non-empty "
                             f"menu of positive sizes, "
                             f"got {self.micro_batches}")
        if not self.zero_stages or \
                not set(self.zero_stages) <= ZERO_STAGES:
            raise ValueError(f"PlanRequest.zero_stages must be a non-empty "
                             f"subset of {sorted(ZERO_STAGES)}, "
                             f"got {self.zero_stages}")

    @property
    def space_key(self) -> tuple:
        """What the space depends on.  The family is not part of it: the
        service never sets cuts or schedules, so its spaces, their
        ``BatchPoints`` and their config features are trace-independent."""
        return (self.world_size, self.max_tp, self.max_pp,
                self.micro_batches, self.zero_stages)

    def space_fn(self) -> Callable:
        """The define-by-run space this request spans."""
        def update(space):
            parallelism_symbols(space, self.world_size,
                                max_tp=self.max_tp, max_pp=self.max_pp)
            space.create_symbol("zero_stage", list(self.zero_stages))
            space.create_symbol("micro_batch", list(self.micro_batches))
        return update


def enumerate_space(request: PlanRequest) -> SpaceColumns:
    """The request's space as columns, in the row order the define-by-run
    replay ``tuner.enumerate_space(request.space_fn())`` yields."""
    return factorization_columns(request.world_size, request.max_tp,
                                 request.max_pp, request.zero_stages,
                                 request.micro_batches)


class SpaceShape(NamedTuple):
    """One memoized space shape.  Shared between queries, so every
    array is read-only."""

    columns: SpaceColumns
    points: BatchPoints
    #: the rows' config feature block (``learned.config_features``)
    features: np.ndarray

    @classmethod
    def of(cls, columns: SpaceColumns) -> "SpaceShape":
        """The shape of ``columns``, with no per-row Python.  The columns
        are frozen first, so the points need not copy those they own."""
        for array in vars(columns).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        features = config_features(len(columns), **vars(columns))
        features.flags.writeable = False
        return cls(columns,
                   BatchPoints(ep=np.ones(len(columns), np.int64),
                               **vars(columns)),
                   features)


@dataclass
class PlanResponse:
    """The service's answer to one :class:`PlanRequest`."""

    request: PlanRequest
    #: best configuration found (None when nothing fits)
    config: dict | None
    #: its samples/sec — measured when trials were spent, else predicted
    throughput: float
    space_size: int
    num_feasible: int
    #: True when the answer rests on prediction alone
    predicted: bool = True
    #: trials actually measured for this answer (cache hits excluded)
    num_measured: int = 0
    #: measured trials served from the TrialCache
    num_cache_hits: int = 0
    #: (config, throughput, valid) for every measured candidate
    measurements: list = field(default_factory=list)
    #: which model ranked the candidates: "analytic", or "residual" when
    #: a learned correction trained on this (family, world_size) corpus
    #: was active for this answer
    cost_model: str = "analytic"


class PlanService:
    """Concurrent plan-query front end over the batch planner.

    Parameters
    ----------
    trace_fn:
        ``trace_fn(family) -> (model, ModelTrace)``.  Called at most
        once per family (under a build lock); the result is cached for
        the service's lifetime.
    cluster_fn:
        ``cluster_fn(world_size) -> ClusterSpec``; defaults to p3dn
        nodes (8 V100s each, the paper's testbed).  Resolved once per
        world size; the service keeps the result.
    cache:
        Shared :class:`TrialCache` consulted before and updated after
        every measured trial, under the (family, world size) context;
        saved after each budgeted query.
    measure_fn:
        ``measure_fn(config) -> float | None`` for budgeted queries —
        either a plain callable (run on the query thread) or a
        :class:`MeasurementPool` for crash-isolated subprocess trials.
        Without it, budgets fall back to prediction-only answers.
    max_workers:
        Query threads answering in parallel.
    learned:
        Opportunistically retrain a
        :class:`~repro.slapo.tuner.learned.ResidualCostModel` per
        (family, world_size) from the shared cache's measurements and
        re-rank feasible candidates with it once the matching corpus
        reaches ``min_corpus`` rows.  Budgeted queries write their
        measurements back tagged with that context, so a service that
        keeps answering queries keeps sharpening its own ranking.
    min_corpus:
        Matching measurements required before a correction activates.
    """

    def __init__(self, trace_fn: Callable[[str], tuple],
                 cluster_fn: Callable[[int], ClusterSpec] | None = None,
                 cache: TrialCache | None = None,
                 measure_fn=None,
                 max_workers: int = 4,
                 learned: bool = True,
                 min_corpus: int = 8):
        self._trace_fn = trace_fn
        self._cluster_fn = cluster_fn or self._default_cluster
        self.cache = cache
        self._measure = measure_fn
        self.learned = learned
        self.min_corpus = min_corpus
        self._executor = ThreadPoolExecutor(max_workers=max_workers)
        self._lock = threading.RLock()
        self._inflight: dict[PlanRequest, Future] = {}
        self._traces: dict[str, tuple] = {}
        self._trace_lock = threading.Lock()
        #: world size → its ClusterSpec, resolved once so that the
        #: simulator's memo lookups match on identity
        self._clusters: dict[int, ClusterSpec] = {}
        #: PlanRequest.space_key → SpaceShape
        self._spaces: OrderedDict[tuple, SpaceShape] = OrderedDict()
        self._space_lock = threading.Lock()
        #: (family, world_size) → (matching cache rows at fit,
        #: ResidualCostModel)
        self._corrections: dict[tuple, tuple[list, ResidualCostModel]] = {}
        self._learned_lock = threading.Lock()
        #: total queries accepted (including coalesced ones)
        self.queries = 0
        #: queries answered by joining an identical in-flight future
        self.coalesced = 0
        #: traces built (≤ number of distinct families queried)
        self.traces_built = 0
        #: space shapes built (≤ distinct space shapes queried)
        self.spaces_built = 0
        #: residual-correction refits triggered by a changed corpus
        self.refits = 0

    @staticmethod
    def _default_cluster(world_size: int) -> ClusterSpec:
        return p3dn_cluster(max(1, (int(world_size) + 7) // 8))

    # ------------------------------------------------------------------ #
    def submit(self, request: PlanRequest) -> Future:
        """Enqueue a query; identical in-flight requests share a future."""
        with self._lock:
            self.queries += 1
            future = self._inflight.get(request)
            if future is not None:
                self.coalesced += 1
                return future
            future = self._executor.submit(self._answer, request)
            self._inflight[request] = future
            future.add_done_callback(
                lambda _done, key=request: self._retire(key))
            return future

    def query(self, request: PlanRequest) -> PlanResponse:
        """Blocking :meth:`submit`."""
        return self.submit(request).result()

    def _retire(self, key: PlanRequest) -> None:
        with self._lock:
            self._inflight.pop(key, None)

    # ------------------------------------------------------------------ #
    def _traced(self, family: str) -> tuple:
        entry = self._traces.get(family)
        if entry is None:
            with self._trace_lock:  # double-checked: build once only
                entry = self._traces.get(family)
                if entry is None:
                    try:
                        entry = self._trace_fn(family)
                    except KeyError as err:  # not memoized: raises again
                        raise UnknownFamilyError(
                            f"unknown model family {family!r}") from err
                    self._traces[family] = entry
                    self.traces_built += 1
        return entry

    def _cluster(self, world_size: int) -> ClusterSpec:
        cluster = self._clusters.get(world_size)
        if cluster is None:  # a racing resolve loses to the first stored
            cluster = self._clusters.setdefault(
                world_size, self._cluster_fn(world_size))
        return cluster

    def _space(self, request: PlanRequest) -> SpaceShape:
        """The request's space shape — columns, ``BatchPoints`` and
        config features — built once per shape."""
        key = request.space_key
        entry = self._spaces.get(key)
        if entry is not None:
            try:
                self._spaces.move_to_end(key)
            except KeyError:  # evicted meanwhile; the entry stays usable
                pass
            return entry
        with self._space_lock:  # double-checked: build once only
            entry = self._spaces.get(key)
            if entry is None:
                entry = SpaceShape.of(enumerate_space(request))
                self._spaces[key] = entry
                self.spaces_built += 1
                if len(self._spaces) > _SPACE_MEMO_SIZE:
                    self._spaces.popitem(last=False)
        return entry

    def _correction(self, request: PlanRequest, model, trace
                    ) -> ResidualCostModel | None:
        """The (family, world_size) residual correction, refitted from
        the shared cache whenever that context's matching corpus rows
        changed since the last fit (rows of other contexts never count).
        Returns None until the matching corpus reaches ``min_corpus``.
        """
        if self.cache is None or not self.learned:
            return None
        key = (request.family, request.world_size)
        context = {"family": request.family,
                   "world_size": request.world_size}
        with self._learned_lock:
            rows = ResidualCostModel.matching_rows(self.cache, context)
            fitted = self._corrections.get(key)
            if fitted is not None and fitted[0] == rows:
                residual = fitted[1]
            else:
                # Refit into a fresh model and swap it in whole: callers
                # predict outside this lock, and fit() mutates weights
                # in place — another thread may be mid-predict on the
                # previous residual.  The analytic model is reused (it
                # is read-only after construction).  It prices uncut, the
                # basis the service ranks its BatchPoints on.
                if fitted is None:
                    analytic = SimCostModel(
                        lambda _config, entry=(model, trace): entry,
                        self._cluster(request.world_size),
                        parallel=SimCostModel.parallel_fn(
                            request.world_size),
                        trace_key_fn=lambda _config: request.family,
                        pipeline_cuts=None)
                else:
                    analytic = fitted[1].analytic
                residual = ResidualCostModel(
                    analytic, min_samples=self.min_corpus)
                residual.fit_from_cache(self.cache, context=context)
                self.refits += 1
                # a row written since `rows` was read only costs the
                # next query one more refit
                self._corrections[key] = (rows, residual)
        return residual if residual.active else None

    def _answer(self, request: PlanRequest) -> PlanResponse:
        model, trace = self._traced(request.family)
        cluster = self._cluster(request.world_size)
        shape = self._space(request)
        batch = predict_batch(trace, model, cluster, shape.points)
        response = PlanResponse(
            request=request, config=None, throughput=0.0,
            space_size=len(shape.points), num_feasible=batch.num_feasible)
        if batch.num_feasible == 0:
            return response
        # Fastest first; a stable sort breaks ties by enumeration index.
        feasible = np.flatnonzero(batch.fits)
        feasible = feasible[np.argsort(-batch.throughput[feasible],
                                       kind="stable")]
        correction = self._correction(request, model, trace)
        if correction is not None:
            # the batch already priced these rows on the correction's
            # analytic basis: correct its rates instead of re-pricing
            rates = correction.correct_rates(
                shape.features[feasible], model_stats_for(trace, model),
                batch.throughput[feasible])
            # primary key: corrected rate; ties by enumeration index
            ranked = np.lexsort((feasible, -rates))
            feasible = feasible[ranked]
            response.cost_model = "residual"
            response.throughput = float(rates[ranked[0]])
        else:
            response.throughput = float(batch.throughput[feasible[0]])
        response.config = shape.columns.config(feasible[0])
        if request.budget > 0 and self._measure is not None:
            self._measure_top(request, shape.columns, feasible, response)
        return response

    def _measure_top(self, request: PlanRequest, columns: SpaceColumns,
                     feasible, response: PlanResponse) -> None:
        # fresh dicts, each owned by one measurement; a callable
        # measure_fn gets a copy, so what it mutates reaches neither the
        # cache nor the answer
        results = measure(
            [columns.config(i) for i in feasible[:request.budget]],
            self._measure, self.cache,
            {"family": request.family, "world_size": request.world_size})
        # cache hits first, then measurements; lost trials stay unmeasured
        for result in sorted(results, key=lambda result: not result.cached):
            if not result.lost:
                response.measurements.append(
                    (result.config, result.throughput, result.valid))
        response.num_cache_hits = sum(r.cached for r in results)
        response.num_measured = \
            len(response.measurements) - response.num_cache_hits
        winner = max((m for m in response.measurements if m[2]),
                     key=lambda m: m[1], default=None)
        if winner is not None:
            response.config, response.throughput = dict(winner[0]), winner[1]
            response.predicted = False
        if self.cache is not None and response.num_measured:
            self.cache.save()

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._executor.shutdown(wait=True)
        if isinstance(self._measure, MeasurementPool):
            self._measure.close()

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def plan_service(trace_fn: Callable[[str], tuple],
                 **kwargs) -> PlanService:
    """Build a :class:`PlanService` (usable as a context manager)."""
    return PlanService(trace_fn, **kwargs)
