"""Cost models: cheap config→prediction oracles for the auto-tuner.

A cost model maps a tuner configuration dict onto a predicted throughput
and a memory-feasibility verdict *without* running a trial.  The tuner
uses it two ways (paper §3.4; Steiner et al.'s value-function-guided
search is the same idea with a learned model):

* **pruning** — predicted-infeasible configs are rejected for free, so
  the OOM region of the space (the grey area of paper Fig. 6) never
  costs a failed launch;
* **ranking** — feasible configs are measured best-predicted-first, so
  a small measurement budget concentrates where the optimum plausibly is.

The contract is one method, which prices a whole batch::

    predict_many(configs: list[dict]) -> list[CostEstimate]

Each estimate names the model whose number it is (``ranked_by``), so a
composite model (:class:`.learned.ResidualCostModel`) says row by row
whether its correction or the analytic basis ranked the config.
:meth:`CostModel.estimate` is the one-row case.

:class:`SimCostModel` is the first-class implementation: it adapts
config dicts onto the analytical simulator in :mod:`repro.sim`
(``ModelTrace`` / ``ParallelConfig`` / ``predict_batch``).  Any callable
``config -> float`` also works (wrapped by :class:`CallableCostModel`);
return ``0``/``None`` to mark a config infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.distributed.mesh import DEFAULT_AXIS_ORDER, ParallelConfig
from repro.distributed.topology import ClusterSpec
from repro.pipeline import DEFAULT_SCHEDULE
from repro.sim.batch import predict_batch
from repro.sim.kernel_cost import KernelCostModel
from repro.sim.memory import model_stats_for
from repro.sim.throughput import DEFAULT_BUCKET_MB


@dataclass(frozen=True)
class CostEstimate:
    """A cost model's prediction for one configuration."""

    #: predicted training throughput in samples/sec (0 if infeasible)
    throughput: float
    #: does the configuration fit in device memory?
    fits: bool = True
    #: predicted peak memory in bytes (0 if the model does not track it)
    memory_bytes: float = 0.0
    #: name of the model whose number this is ("analytic", "residual",
    #: ...); empty means the model that returned the estimate
    ranked_by: str = ""


class CostModel:
    """Base contract: subclass and implement :meth:`predict_many`."""

    #: short identifier recorded by TuneReport (which model ranked a trial)
    name = "cost_model"

    def predict_many(self, configs: Sequence[dict]) -> list[CostEstimate]:
        """One estimate per config, in order.

        Tuner strategies always hand over the whole list, so a model
        with a vectorized path (:class:`SimCostModel`) prices it in one
        pass.
        """
        raise NotImplementedError

    def estimate(self, config: dict) -> CostEstimate:
        """One config's estimate: a one-row :meth:`predict_many`."""
        return self.predict_many([config])[0]

    def __call__(self, config: dict) -> float:
        """Convenience: a cost model is usable wherever an evaluate_fn is."""
        estimate = self.estimate(config)
        return estimate.throughput if estimate.fits else 0.0


class CallableCostModel(CostModel):
    """Wrap a plain ``config -> float`` callable (``<= 0``/None = infeasible)."""

    name = "callable"

    def __init__(self, fn: Callable[[dict], float | None]):
        self._fn = fn

    def predict_many(self, configs: Sequence[dict]) -> list[CostEstimate]:
        rates = [float(self._fn(config) or 0.0) for config in configs]
        return [CostEstimate(throughput=rate, fits=rate > 0,
                             ranked_by=self.name) for rate in rates]


def as_cost_model(obj) -> CostModel:
    """Normalize a CostModel instance or bare callable to the contract."""
    if isinstance(obj, CostModel):
        return obj
    if callable(obj):
        return CallableCostModel(obj)
    raise TypeError(
        f"expected a CostModel or a callable(config) -> float, "
        f"got {type(obj).__name__}"
    )


class SimCostModel(CostModel):
    """Price tuner configs with the analytical simulator (:mod:`repro.sim`).

    The micro-batch is ``config["micro_batch"]``, else
    ``config["batch_size"]`` read as a global batch and divided by the
    data-parallel degree; when neither is given the planner sweeps
    micro-batch candidates itself.

    Parameters
    ----------
    trace_fn:
        ``trace_fn(config) -> (model, ModelTrace)``.  Called lazily and
        memoized per distinct return key (see ``trace_key_fn``), so spaces
        whose trace only depends on a subset of coordinates (e.g. the
        checkpoint ratio but not the batch size) re-trace only when that
        subset changes.
    cluster:
        The :class:`~repro.distributed.topology.ClusterSpec` to price on.
    parallel:
        Fixed :class:`~repro.distributed.mesh.ParallelConfig`, or
        ``parallel_fn(config) -> ParallelConfig`` when tp/dp/pp are
        themselves search coordinates.
    zero_stage / num_micro_batches / kernel_cost:
        Forwarded to :func:`repro.sim.predict_batch`.  A
        ``num_micro_batches`` key in the config (e.g. declared by
        :func:`repro.slapo.tuner.space.parallelism_symbols`) overrides
        the fixed default, so the micro-batch count can be a search
        coordinate alongside ``pp``.  A ``pipeline_schedule`` key (the
        symbol ``parallelism_symbols(..., pipeline_schedules=...)``
        declares) likewise selects the tick program the pipeline is
        priced under — schedules the coordinate cannot express are
        reported infeasible by the simulator, pruning them for free.
    pipeline_cuts:
        Forwarded to :func:`repro.sim.predict_batch`; the default
        ``"auto"`` runs the stage-balancing cut planner whenever the
        resolved parallelism has ``pp > 1`` and the trace carries layer
        marks, so pipelined configs are priced off their bottleneck
        stage rather than a uniform ``/pp`` slice.
    trace_key_fn:
        ``trace_key_fn(config) -> hashable`` memoization key for
        ``trace_fn``.  Defaults to the full config, i.e. one trace per
        distinct configuration.
    """

    name = "analytic"

    def __init__(self, trace_fn: Callable[[dict], tuple],
                 cluster: ClusterSpec,
                 parallel: ParallelConfig | Callable[[dict], ParallelConfig]
                 = ParallelConfig(),
                 zero_stage: int = 0,
                 num_micro_batches: int = 1,
                 kernel_cost: KernelCostModel | None = None,
                 trace_key_fn: Callable[[dict], object] | None = None,
                 pipeline_cuts="auto"):
        self._trace_fn = trace_fn
        self.cluster = cluster
        self._parallel = parallel
        self.zero_stage = zero_stage
        self.num_micro_batches = num_micro_batches
        self.kernel_cost = kernel_cost
        self.pipeline_cuts = pipeline_cuts
        self._trace_key_fn = trace_key_fn
        self._traces: dict = {}
        self._estimates: dict[tuple, CostEstimate] = {}
        #: how many configs were priced (memo hits are not counted)
        self.num_estimates = 0

    # ------------------------------------------------------------------ #
    @staticmethod
    def parallel_fn(world_size: int) -> Callable[[dict], ParallelConfig]:
        """A ``parallel`` resolver reading tp/dp/pp/ep search coordinates.

        Missing axes are inferred: ``dp`` defaults to the co-factor of
        ``world_size`` over the explicitly given axes (so with only
        ``tp``/``pp``/``ep`` given the leftover becomes data
        parallelism).  A ``placement`` coordinate (a comma-joined axis
        order, innermost first — see
        :data:`repro.slapo.tuner.space.DEFAULT_PLACEMENTS`) becomes the
        mesh's ``order``, so the tuner can sweep which axes sit on
        NVLink.  A config whose axes do not factor ``world_size``
        raises ``ValueError`` (the tuner treats that as an infeasible
        trial).  Pair with
        :func:`repro.slapo.tuner.space.parallelism_symbols`, which only
        ever emits exact factorizations.
        """
        def resolve(config: dict) -> ParallelConfig:
            tp = int(config.get("tp", 1))
            pp = int(config.get("pp", 1))
            ep = int(config.get("ep", 1))
            if "dp" in config:
                dp = int(config["dp"])
            else:
                if world_size % (tp * pp * ep) != 0:
                    raise ValueError(
                        f"tp={tp} × pp={pp} × ep={ep} does not divide "
                        f"world size {world_size}"
                    )
                dp = world_size // (tp * pp * ep)
            placement = config.get("placement")
            order = tuple(str(placement).split(",")) \
                if placement is not None else DEFAULT_AXIS_ORDER
            parallel = ParallelConfig(tp=tp, dp=dp, pp=pp, ep=ep,
                                      order=order)
            parallel.validate(world_size)
            return parallel

        return resolve

    def _resolve_parallel(self, config: dict) -> ParallelConfig:
        if callable(self._parallel):
            return self._parallel(config)
        return self._parallel

    def _resolve_micro_batch(self, config: dict,
                             parallel: ParallelConfig) -> int | None:
        if "micro_batch" in config:
            return int(config["micro_batch"])
        if "batch_size" in config:
            return max(1, int(config["batch_size"]) // parallel.dp)
        return None  # let the planner sweep candidates

    def _traced(self, config: dict):
        key = tuple(sorted(config.items())) if self._trace_key_fn is None \
            else self._trace_key_fn(config)
        if key not in self._traces:
            model, trace = self._trace_fn(config)
            # Pin the model statics to the trace now, so every batch
            # served from this entry prices without re-walking parameters.
            model_stats_for(trace, model)
            self._traces[key] = (model, trace)
        return self._traces[key]

    def _point(self, config: dict) -> dict | None:
        """The config's ``predict_batch`` row: parallel mesh, micro-batch,
        ZeRO stage, micro-batch count, schedule, overlap and bucket.
        None when the mesh does not resolve (infeasible)."""
        try:
            parallel = self._resolve_parallel(config)
        except ValueError:
            return None
        return dict(
            parallel=parallel,
            micro_batch=self._resolve_micro_batch(config, parallel),
            zero_stage=int(config.get("zero_stage", self.zero_stage)),
            num_micro_batches=int(config.get("num_micro_batches",
                                             self.num_micro_batches)),
            pipeline_schedule=str(config.get("pipeline_schedule",
                                             DEFAULT_SCHEDULE)),
            overlap_grad_sync=bool(config.get("overlap_grad_sync", False)),
            overlap_bucket_mb=float(config.get("overlap_bucket_mb",
                                               DEFAULT_BUCKET_MB)),
        )

    # ------------------------------------------------------------------ #
    def predict_many(self, configs: Sequence[dict]) -> list[CostEstimate]:
        """Vectorized pricing via :func:`repro.sim.predict_batch`.

        Each config is normalized by :meth:`_point`; configs are grouped
        by trace key so each distinct trace is priced in one batched
        call, and the answers land in the estimate memo — a later
        request for any priced config is a dict hit.
        """
        results: list[CostEstimate | None] = [None] * len(configs)
        groups: dict[object, list[tuple[int, dict]]] = {}
        for i, config in enumerate(configs):
            key = tuple(sorted(config.items()))
            cached = self._estimates.get(key)
            if cached is not None:
                results[i] = cached
                continue
            self.num_estimates += 1
            row = self._point(config)
            if row is None:
                results[i] = self._estimates[key] = CostEstimate(
                    throughput=0.0, fits=False, ranked_by=self.name)
                continue
            trace_key = tuple(sorted(config.items())) \
                if self._trace_key_fn is None else self._trace_key_fn(config)
            groups.setdefault(trace_key, []).append((i, row))
        for trace_key, rows in groups.items():
            model, trace = self._traced(configs[rows[0][0]])
            batch = predict_batch(
                trace, model, self.cluster, [row for _, row in rows],
                cost_model=self.kernel_cost, zero_stage=self.zero_stage,
                pipeline_cuts=self.pipeline_cuts)
            for j, (i, _) in enumerate(rows):
                estimate = CostEstimate(
                    throughput=float(batch.throughput[j]),
                    fits=bool(batch.fits[j]),
                    memory_bytes=float(batch.memory_total[j]),
                    ranked_by=self.name)
                key = tuple(sorted(configs[i].items()))
                results[i] = self._estimates[key] = estimate
        return results
