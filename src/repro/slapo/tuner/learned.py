"""Learned cost model trained on the trial history (ROADMAP item).

The analytic simulator (:class:`.cost_model.SimCostModel`) extrapolates
well but is systematically wrong wherever the hardware deviates from its
model — kernel-efficiency profiles, recompute locality, bandwidth
saturation.  Every tuning run persists predicted-vs-measured evidence of
exactly those deviations in the :class:`.cache.TrialCache`, and this
module turns that corpus into a regressor (Steiner et al.'s
value-function idea, kept residual):

* :func:`featurize_many` maps configurations onto **stable, versioned
  feature vectors**, one ``(N, F)`` matrix filled column by column:
  config coordinates (tp/dp/pp/ep/micro/m/zero/placement/overlap/
  schedule; :func:`config_features` builds that block from columns),
  :class:`~repro.sim.memory.ModelStats`,
  :meth:`ClusterSpec.collective_coeffs` outputs and
  :class:`~repro.sim.compiled.CompiledTrace` aggregates (the latter
  blocks live in :mod:`repro.sim.features`; each is computed once per
  call and broadcast over the rows).  :func:`featurize` is its one-row
  case.  The schema is the ordered :data:`FEATURE_NAMES` tuple plus
  :data:`FEATURE_VERSION`; weights serialized under a different schema
  are refused (:class:`StaleWeightsError`).
* :class:`LearnedCostModel` is a dependency-free (numpy-only) regressor
  on feature matrices: closed-form ridge on standardized features plus
  optional gradient-boosted decision stumps on the residuals.  Each
  boosting round scores every (feature, threshold) split in one
  vectorized pass over column orders sorted once per fit.  Training is
  deterministic under its seed, weights round-trip through JSON
  byte-stably, and :meth:`LearnedCostModel.predict_features` prices a
  whole ``(N, F)`` feature matrix in one numpy pass that is bit-exact
  with one-row calls (row-wise reductions only — no shape-dependent
  BLAS reassociation).
* :class:`ResidualCostModel` composes the two: ``analytic ×
  exp(learned correction)``, where the correction is trained on
  ``log(measured / analytic)`` pairs from the cache.  A **coverage
  guard** keeps the analytic model's extrapolation strength: the
  correction only applies when the corpus is large enough
  (``min_samples``) and the config's features lie inside the trained
  distribution (``ood_margin``); predictions are always clamped to the
  residual range actually observed in training.  Features that were
  *constant* across the corpus carry exactly zero weight (their
  standardized column is zero, so ridge assigns them a zero
  coefficient and stumps never split on them) and are excluded from
  the distribution check — which is what lets a correction learned on
  one model family transfer to another: the family-identity features
  drop out, the shared configuration features carry the signal.
  Fitting and prediction featurize a whole batch at once
  (:meth:`ResidualCostModel.features_many`), and every estimate names
  the model that ranked it (``ranked_by``: ``"residual"`` where the
  correction applied, ``"analytic"`` elsewhere).  A caller that already
  priced a batch on the analytic basis hands its rates and the batch's
  config feature block to :meth:`ResidualCostModel.correct_rates`
  instead of having them re-priced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.distributed.topology import ClusterSpec
from repro.sim.events import ModelTrace
from repro.sim.features import (
    CLUSTER_FEATURE_NAMES,
    STATS_FEATURE_NAMES,
    TRACE_FEATURE_NAMES,
    cluster_features,
    stats_features,
    trace_features,
)
from repro.sim.memory import ModelStats, model_stats_for

from .cache import TrialCache
from .cost_model import CostEstimate, CostModel, as_cost_model

#: bump when FEATURE_NAMES changes meaning, length, or order — weights
#: trained under another version are refused at load time
FEATURE_VERSION = 1
#: serialization envelope version (independent of the feature schema)
WEIGHTS_VERSION = 1

#: tick-program names featurized one-hot (a stable, closed set — an
#: unknown schedule featurizes as all-zeros rather than a new column)
_SCHEDULE_NAMES = ("gpipe", "1f1b", "interleaved", "zb")
#: innermost mesh axis of the placement coordinate, one-hot
_INNERMOST_AXES = ("tp", "dp", "ep")

#: configuration-coordinate feature block
CONFIG_FEATURE_NAMES = (
    "log_tp", "log_dp", "log_pp", "log_ep",
    "log_micro_batch", "log_batch_size", "log_num_micro_batches",
    "zero_stage", "ckpt_ratio", "has_ckpt_ratio",
    "overlap_grad_sync", "overlap_bucket_mb",
) + tuple(f"schedule_{name}" for name in _SCHEDULE_NAMES) \
  + tuple(f"innermost_{axis}" for axis in _INNERMOST_AXES)

#: the full, ordered feature schema (version :data:`FEATURE_VERSION`)
FEATURE_NAMES = (CONFIG_FEATURE_NAMES + STATS_FEATURE_NAMES
                 + CLUSTER_FEATURE_NAMES + TRACE_FEATURE_NAMES)


class StaleWeightsError(ValueError):
    """Serialized weights do not match the current feature schema."""


def _log2(value) -> float:
    value = float(value)
    return math.log2(value) if value > 0 else 0.0


def _floats(values) -> np.ndarray:
    """``float(v)`` per value, with ``None`` read as 0."""
    return np.array([0.0 if v is None else v for v in values],
                    dtype=np.float64)


def _log2_column(values) -> np.ndarray:
    """:func:`_log2` per value, computed once per distinct value with the
    scalar ``math.log2`` (``np.log2`` may round a non-power of two
    differently)."""
    unique, inverse = np.unique(values, return_inverse=True)
    return np.array([_log2(v) for v in unique.tolist()],
                    dtype=np.float64)[inverse]


def config_features(n: int, tp=1, dp=1, pp=1, ep=1, micro_batch=0,
                    batch_size=0, num_micro_batches=1, zero_stage=0,
                    ckpt_ratio=0.0, has_ckpt_ratio=False,
                    overlap_grad_sync=False, overlap_bucket_mb=0.0,
                    pipeline_schedule="", innermost="") -> np.ndarray:
    """The ``(n, C)`` :data:`CONFIG_FEATURE_NAMES` block of ``n`` configs
    from per-coordinate columns, numeric or string; a scalar (each
    default is what a config without that key reads as) is broadcast
    over the rows.  ``innermost`` is the placement's innermost axis."""
    block = np.zeros((n, len(CONFIG_FEATURE_NAMES)))
    columns = [_log2_column(v) for v in (tp, dp, pp, ep, micro_batch,
                                         batch_size, num_micro_batches)]
    columns += [zero_stage, ckpt_ratio, has_ckpt_ratio, overlap_grad_sync,
                overlap_bucket_mb]
    columns += [np.asarray(pipeline_schedule) == name
                for name in _SCHEDULE_NAMES]
    columns += [np.asarray(innermost) == axis for axis in _INNERMOST_AXES]
    for j, column in enumerate(columns):
        block[:, j] = column
    return block


def feature_matrix(config_block: np.ndarray,
                   model_stats: ModelStats | None,
                   cluster: ClusterSpec | None,
                   trace: ModelTrace | None = None) -> np.ndarray:
    """``config_block`` (see :func:`config_features`) widened to the full
    ``(N, F)`` :data:`FEATURE_NAMES` matrix: the stats, cluster and trace
    blocks are each computed once and broadcast over the rows, or left
    zero when their source is ``None`` (the row length never changes —
    the schema contract the property tests pin)."""
    X = np.zeros((len(config_block), len(FEATURE_NAMES)))
    cursor = len(CONFIG_FEATURE_NAMES)
    X[:, :cursor] = config_block
    for block, names in (
        (None if model_stats is None else stats_features(model_stats),
         STATS_FEATURE_NAMES),
        (None if cluster is None else cluster_features(cluster),
         CLUSTER_FEATURE_NAMES),
        (None if trace is None else trace_features(trace),
         TRACE_FEATURE_NAMES),
    ):
        if block is not None:
            X[:, cursor:cursor + len(names)] = block
        cursor += len(names)
    return X


def featurize_many(configs: Sequence[dict],
                   model_stats: ModelStats | None,
                   cluster: ClusterSpec | None,
                   trace: ModelTrace | None = None) -> np.ndarray:
    """Configs → an ``(N, F)`` float64 matrix aligned with
    :data:`FEATURE_NAMES`: their columns' :func:`config_features` block
    widened by :func:`feature_matrix`.  Config coordinates outside the
    known set are ignored, so the schema cannot drift with the space."""
    def column(key, default=None):
        return [c.get(key, default) for c in configs]

    numeric = [_floats(column(key, default)) for key, default in (
        ("tp", 1), ("dp", 1), ("pp", 1), ("ep", 1), ("micro_batch", None),
        ("batch_size", None), ("num_micro_batches", 1), ("zero_stage", 0))]
    ckpt = column("ckpt_ratio")
    block = config_features(
        len(configs), *numeric, _floats(ckpt), [v is not None for v in ckpt],
        [bool(v) for v in column("overlap_grad_sync")],
        _floats(column("overlap_bucket_mb", 0.0)),
        np.array([str(v) for v in column("pipeline_schedule", "")], str),
        np.array(["" if v is None else str(v).split(",")[0]
                  for v in column("placement")], str))
    return feature_matrix(block, model_stats, cluster, trace)


def featurize(config: dict, model_stats: ModelStats | None,
              cluster: ClusterSpec | None,
              trace: ModelTrace | None = None) -> np.ndarray:
    """One config → one :data:`FEATURE_NAMES` vector (a one-row
    :func:`featurize_many`)."""
    return featurize_many([config], model_stats, cluster, trace=trace)[0]


@dataclass(frozen=True)
class _Stump:
    """One boosted decision stump; ``left``/``right`` already carry the
    learning rate."""

    feature: int
    threshold: float
    left: float
    right: float


class LearnedCostModel:
    """Numpy-only ridge + gradient-boosted-stump regressor on
    :data:`FEATURE_NAMES` matrices (:func:`featurize_many` rows).

    The model predicts in **log space** — :meth:`fit` takes whatever
    log-target the caller chose (log measured/analytic for the residual
    correction :class:`ResidualCostModel` fits) and
    :meth:`predict_features` returns log-space values.  Training is
    exactly reproducible: ridge is a closed-form solve, stump splits
    break ties deterministically (earliest threshold, then earliest
    feature), and the seed only enters where a caller asks for a
    held-out split (:meth:`holdout_split`).
    """

    def __init__(self, seed: int = 0, l2: float = 1e-2,
                 boost_rounds: int = 32, learning_rate: float = 0.3):
        self.seed = int(seed)
        self.l2 = float(l2)
        self.boost_rounds = int(boost_rounds)
        self.learning_rate = float(learning_rate)
        self.feature_names: tuple[str, ...] = FEATURE_NAMES
        self.num_samples = 0
        self._mean = np.zeros(len(FEATURE_NAMES))
        self._scale = np.ones(len(FEATURE_NAMES))
        self._coef = np.zeros(len(FEATURE_NAMES))
        self._intercept = 0.0
        self._stumps: list[_Stump] = []
        #: per-feature training range (the coverage-guard envelope)
        self._lo = np.zeros(len(FEATURE_NAMES))
        self._hi = np.zeros(len(FEATURE_NAMES))
        #: training-target range — predictions are clamped into it
        self._target_lo = 0.0
        self._target_hi = 0.0

    # ------------------------------------------------------------------ #
    @property
    def trained(self) -> bool:
        return self.num_samples > 0

    def fit(self, features, targets) -> "LearnedCostModel":
        """Fit on an ``(N, F)`` matrix and ``N`` log-space targets.

        Rows must arrive in a canonical order for bit-reproducible
        weights; :meth:`ResidualCostModel.fit_from_cache` orders them by
        :func:`~repro.slapo.tuner.cache.config_key` before calling.
        """
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected (N, {len(self.feature_names)}) features, "
                f"got {X.shape}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty corpus")
        n = X.shape[0]
        # Every fit starts from a clean model: unlike the scalar state
        # below, the stump list accumulates by append, and stumps from a
        # previous fit were built under that fit's standardization.
        self._stumps = []
        self.num_samples = n
        self._lo = X.min(axis=0)
        self._hi = X.max(axis=0)
        self._target_lo = float(y.min())
        self._target_hi = float(y.max())
        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        self._scale = np.where(std > 0, std, 1.0)
        Z = (X - self._mean) / self._scale
        # Closed-form ridge.  Constant features have an all-zero Z
        # column, so their normal-equation row is l2·n·e_j — their
        # coefficient is exactly 0 and they can never influence a
        # prediction (the transfer property the module docstring leans
        # on).
        self._intercept = float(y.mean())
        gram = Z.T @ Z + self.l2 * n * np.eye(Z.shape[1])
        self._coef = np.linalg.solve(gram, Z.T @ (y - self._intercept))
        residual = y - self._predict_matrix(Z)
        # Z is fixed across boosting rounds: sort every column once
        orders = np.argsort(Z, axis=0, kind="stable")
        for _ in range(self.boost_rounds):
            stump = self._fit_stump(Z, residual, orders)
            if stump is None:
                break
            self._stumps.append(stump)
            residual = residual - self._stump_column(stump, Z)
        return self

    def _fit_stump(self, Z: np.ndarray, residual: np.ndarray,
                   orders: np.ndarray) -> _Stump | None:
        """Best single split by SSE reduction, every feature scored in
        one pass over the column-wise stable sort ``orders``.
        Deterministic tie-break: the earliest threshold (ascending)
        within a feature, the earliest feature (schema order) on equal
        gain; a split must gain more than 1e-12."""
        n = Z.shape[0]
        if n < 2:
            return None
        zs = np.take_along_axis(Z, orders, axis=0)
        left_sum = np.cumsum(residual[orders], axis=0)[:-1]
        counts = np.arange(1, n)
        right_sum = residual.sum() - left_sum
        gain = left_sum ** 2 / counts[:, None] \
            + right_sum ** 2 / (n - counts)[:, None]
        gain = np.where(zs[:-1] < zs[1:], gain, -np.inf)
        picks = gain.argmax(axis=0)
        best = gain[picks, np.arange(Z.shape[1])]
        j = int(np.where(best > 1e-12, best, -np.inf).argmax())
        if not best[j] > 1e-12:
            return None
        pick = int(picks[j])
        return _Stump(
            feature=j,
            threshold=float((zs[pick, j] + zs[pick + 1, j]) / 2),
            left=self.learning_rate
            * float(left_sum[pick, j] / counts[pick]),
            right=self.learning_rate
            * float(right_sum[pick, j] / (n - counts[pick])),
        )

    @staticmethod
    def _stump_column(stump: _Stump, Z: np.ndarray) -> np.ndarray:
        return np.where(Z[:, stump.feature] <= stump.threshold,
                        stump.left, stump.right)

    def _predict_matrix(self, Z: np.ndarray) -> np.ndarray:
        # Row-wise multiply-reduce, NOT a matrix product: np.sum over the
        # last axis reduces each row independently of how many rows the
        # matrix has, so predict_features on an (N, F) batch is bit-exact
        # with N separate single-row calls (BLAS gemv/gemm would not be).
        out = self._intercept + (Z * self._coef).sum(axis=1)
        for stump in self._stumps:
            out = out + self._stump_column(stump, Z)
        return out

    # ------------------------------------------------------------------ #
    def predict_features(self, features, clamp: bool = True) -> np.ndarray:
        """Log-space predictions for an ``(N, F)`` feature matrix.

        ``clamp=True`` (the default) bounds every prediction to the
        target range seen in training — the second half of the coverage
        guard: even an in-distribution config can never receive a more
        extreme correction than the corpus ever exhibited.
        """
        if not self.trained:
            raise ValueError("predict before fit; train the model first")
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        Z = (X - self._mean) / self._scale
        out = self._predict_matrix(Z)
        if clamp:
            out = np.clip(out, self._target_lo, self._target_hi)
        return out

    def in_distribution(self, features, margin: float = 0.5) -> np.ndarray:
        """Per-row verdict: do the *varying* features lie within the
        trained range, stretched by ``margin`` × range on each side?

        Features that were constant across the corpus are ignored —
        they carry exactly zero weight (see :meth:`fit`), so excluding
        them rejects nothing the model actually knows about, and it is
        what allows cross-family / cross-cluster transfer.
        """
        if not self.trained:
            raise ValueError("in_distribution before fit")
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        span = self._hi - self._lo
        varying = span > 0
        if not varying.any():
            return np.ones(X.shape[0], dtype=bool)
        slack = margin * span[varying]
        inside = (X[:, varying] >= self._lo[varying] - slack) \
            & (X[:, varying] <= self._hi[varying] + slack)
        return inside.all(axis=1)

    def holdout_split(self, n: int, fraction: float = 0.25
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic (seeded) train/held-out index split of ``n`` rows."""
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n)
        held = max(1, int(round(fraction * n))) if n > 1 else 0
        return np.sort(order[held:]), np.sort(order[:held])

    # -- serialization -------------------------------------------------- #
    def state(self) -> dict:
        """JSON-ready weights + schema + hyperparameters."""
        return {
            "weights_version": WEIGHTS_VERSION,
            "feature_version": FEATURE_VERSION,
            "feature_names": list(self.feature_names),
            "seed": self.seed,
            "l2": self.l2,
            "boost_rounds": self.boost_rounds,
            "learning_rate": self.learning_rate,
            "num_samples": self.num_samples,
            "mean": [float(v) for v in self._mean],
            "scale": [float(v) for v in self._scale],
            "coef": [float(v) for v in self._coef],
            "intercept": float(self._intercept),
            "stumps": [[s.feature, float(s.threshold), float(s.left),
                        float(s.right)] for s in self._stumps],
            "feature_lo": [float(v) for v in self._lo],
            "feature_hi": [float(v) for v in self._hi],
            "target_lo": float(self._target_lo),
            "target_hi": float(self._target_hi),
        }

    def to_json(self) -> str:
        """Canonical JSON — two fits of the same corpus (or a round
        trip through :meth:`from_json`) produce byte-identical text."""
        return json.dumps(self.state(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_state(cls, state: dict) -> "LearnedCostModel":
        if state.get("feature_version") != FEATURE_VERSION or \
                tuple(state.get("feature_names", ())) != FEATURE_NAMES:
            raise StaleWeightsError(
                f"weights were trained under feature schema "
                f"v{state.get('feature_version')} "
                f"({len(state.get('feature_names', ()))} features); "
                f"current schema is v{FEATURE_VERSION} "
                f"({len(FEATURE_NAMES)} features) — retrain "
                f"(scripts/train_cost_model.py)")
        if state.get("weights_version") != WEIGHTS_VERSION:
            raise StaleWeightsError(
                f"unsupported weights envelope "
                f"v{state.get('weights_version')}")
        model = cls(seed=state["seed"], l2=state["l2"],
                    boost_rounds=state["boost_rounds"],
                    learning_rate=state["learning_rate"])
        model.num_samples = int(state["num_samples"])
        model._mean = np.array(state["mean"])
        model._scale = np.array(state["scale"])
        model._coef = np.array(state["coef"])
        model._intercept = float(state["intercept"])
        model._stumps = [_Stump(int(f), t, left, right)
                         for f, t, left, right in state["stumps"]]
        model._lo = np.array(state["feature_lo"])
        model._hi = np.array(state["feature_hi"])
        model._target_lo = float(state["target_lo"])
        model._target_hi = float(state["target_hi"])
        return model

    @classmethod
    def from_json(cls, text: str) -> "LearnedCostModel":
        return cls.from_state(json.loads(text))


def mean_relative_error(predicted, measured) -> float:
    """Mean |predicted − measured| / measured over positive measurements."""
    predicted = np.asarray(predicted, dtype=np.float64)
    measured = np.asarray(measured, dtype=np.float64)
    mask = measured > 0
    if not mask.any():
        return 0.0
    return float(np.mean(np.abs(predicted[mask] - measured[mask])
                         / measured[mask]))


class ResidualCostModel(CostModel):
    """``analytic × exp(learned correction)`` with a coverage guard.

    Wraps any :class:`CostModel` (in practice
    :class:`.cost_model.SimCostModel`) and multiplies its throughput
    prediction by a learned correction factor trained on
    ``log(measured / analytic)`` pairs from a
    :class:`~repro.slapo.tuner.cache.TrialCache` corpus
    (:meth:`fit_from_cache`).  Feasibility verdicts and memory always
    come from the analytic model — the learned part only ever re-ranks
    feasible configurations.

    Every estimate says which model ranked it: ``ranked_by="residual"``
    where the correction applied, ``"analytic"`` where it fell back to
    the *pure analytic* estimate (surfaced as ``TuneReport.rankers``).
    The fallback happens when:

    * the corpus holds fewer than ``min_samples`` usable pairs
      (:attr:`active` is then False and the wrapper is the identity);
    * the config's features fall outside the trained distribution by
      more than ``ood_margin`` × the per-feature training range
      (:meth:`LearnedCostModel.in_distribution`);
    * the analytic model already deems the config infeasible.

    Even when the correction applies it is clamped to the residual
    range observed in training, so a thin corpus can bend the analytic
    ranking but never overrule it with an extrapolated fantasy.

    ``featurizer`` defaults to :func:`featurize_many` over the analytic
    model's memoized stats/cluster when ``analytic`` is a
    :class:`SimCostModel`; any other analytic model needs an explicit
    one.  The default deliberately leaves the trace block zeroed: the
    correction's domain is the *configuration* (that is what the
    residual varies with), while trace aggregates are family identity
    the analytic model already priced — folding them in would pin the
    correction to the training family's absolute flop/byte counts and
    defeat cross-family transfer.  Pass an explicit featurizer with
    ``trace=`` filled to opt back in; it is applied row by row.
    """

    name = "residual"

    def __init__(self, analytic,
                 learned: LearnedCostModel | None = None,
                 min_samples: int = 8, ood_margin: float = 0.5,
                 featurizer: Callable[[dict], np.ndarray] | None = None,
                 seed: int = 0):
        self.analytic = as_cost_model(analytic)
        self.learned = learned if learned is not None \
            else LearnedCostModel(seed=seed)
        self.min_samples = int(min_samples)
        self.ood_margin = float(ood_margin)
        self._featurizer = featurizer
        #: corrections skipped by the coverage guard (OOD configs)
        self.num_fallbacks = 0
        #: corpus rows used by the last fit_from_cache
        self.corpus_size = 0

    @property
    def active(self) -> bool:
        """Is the learned correction applied at all?"""
        return self.learned.trained \
            and self.learned.num_samples >= self.min_samples

    # ------------------------------------------------------------------ #
    def features_many(self, configs: Sequence[dict]) -> np.ndarray:
        """The ``(N, F)`` feature matrix of ``configs``: one
        :func:`featurize_many` per distinct trace of the analytic model,
        or the explicit ``featurizer`` stacked row by row."""
        if self._featurizer is not None:
            if not configs:
                return np.zeros((0, len(FEATURE_NAMES)))
            return np.stack([self._featurizer(config) for config in configs])
        traced = getattr(self.analytic, "_traced", None)
        cluster = getattr(self.analytic, "cluster", None)
        if traced is None:
            raise ValueError(
                "ResidualCostModel needs an explicit featurizer when the "
                "analytic model is not a SimCostModel")
        groups: dict[int, tuple[ModelStats, list[int]]] = {}
        for i, config in enumerate(configs):
            model, trace = traced(config)
            group = groups.get(id(trace))
            if group is None:
                group = groups[id(trace)] = (model_stats_for(trace, model),
                                             [])
            group[1].append(i)
        X = np.zeros((len(configs), len(FEATURE_NAMES)))
        for stats, rows in groups.values():
            X[rows] = featurize_many([configs[i] for i in rows], stats,
                                     cluster)
        return X

    @staticmethod
    def matching_rows(cache: TrialCache, context: dict | None = None
                      ) -> list[dict]:
        """The cache rows :meth:`fit_from_cache` trains on: measured
        valid with positive throughput, and recorded under a context
        carrying every ``context`` key/value pair.  In canonical config
        key order (:meth:`TrialCache.entries` order)."""
        return [entry for entry in cache.entries()
                if entry["valid"] and entry["throughput"] > 0
                and (not context or all(
                    entry.get("context", {}).get(key) == value
                    for key, value in context.items()))]

    def fit_from_cache(self, cache: TrialCache,
                       context: dict | None = None) -> int:
        """Train the correction on every usable cached measurement.

        Usable = a :meth:`matching_rows` row *and* priced
        feasible-and-positive by the analytic model (the residual is
        undefined otherwise).  ``context`` restricts the corpus to
        entries whose recorded context carries matching key/value pairs
        (how :class:`~repro.slapo.service.PlanService` keeps families
        apart in a shared cache).  Rows are ordered by canonical config
        key, so the fitted weights are independent of the order trials
        were recorded in.  Returns the corpus size actually fitted (0
        leaves any previous fit untouched).
        """
        entries = self.matching_rows(cache, context)
        configs = [entry["config"] for entry in entries]
        estimates = self.analytic.predict_many(configs)
        rows = [(config, entry["throughput"], estimate.throughput)
                for config, entry, estimate
                in zip(configs, entries, estimates)
                if estimate.fits and estimate.throughput > 0]
        self.corpus_size = len(rows)
        if not rows:
            return 0
        X = self.features_many([config for config, _, _ in rows])
        y = np.array([math.log(measured / predicted)
                      for _, measured, predicted in rows])
        self.learned.fit(X, y)
        return len(rows)

    # ------------------------------------------------------------------ #
    def _correct(self, rates: np.ndarray, usable: np.ndarray,
                 configs: Sequence[dict] | None = None, X=None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Corrected copies of the analytic ``rates`` and the mask of
        rows the correction applied to; only ``usable`` rows are
        candidates.  Features are rows of ``X``, or those of
        ``configs``."""
        out = rates.copy()
        applied = np.zeros(len(rates), dtype=bool)
        rows = np.flatnonzero(usable)
        if len(rows) and self.active:
            X = X[rows] if configs is None else \
                self.features_many([configs[i] for i in rows])
            inside = self.learned.in_distribution(X, margin=self.ood_margin)
            corrections = np.exp(self.learned.predict_features(X))
            self.num_fallbacks += int(len(rows) - inside.sum())
            rows = rows[inside]
            out[rows] = rates[rows] * corrections[inside]
            applied[rows] = True
        return out, applied

    def predict_many(self, configs: Sequence[dict]) -> list[CostEstimate]:
        """The analytic estimates of ``configs``, corrected where the
        coverage guard lets the correction apply."""
        base = self.analytic.predict_many(configs)
        rates = np.array([estimate.throughput for estimate in base],
                         dtype=np.float64)
        usable = np.array([estimate.fits and estimate.throughput > 0
                           for estimate in base], dtype=bool)
        out, applied = self._correct(rates, usable, configs)
        return [replace(estimate, throughput=float(out[i]),
                        ranked_by="residual")
                if applied[i] else replace(estimate, ranked_by="analytic")
                for i, estimate in enumerate(base)]

    def correct_rates(self, config_block: np.ndarray,
                      model_stats: ModelStats, base) -> np.ndarray:
        """Corrected copies of the analytic rates ``base`` (positive rates
        only are candidates) of configs given by their
        :func:`config_features` block: the default featurizer's
        ``model_stats`` and cluster blocks are broadcast onto it."""
        if self._featurizer is not None:
            raise ValueError("correct_rates needs the default featurizer")
        rates = np.asarray(base, dtype=np.float64)
        X = feature_matrix(config_block, model_stats, self.analytic.cluster)
        return self._correct(rates, rates > 0, X=X)[0]
