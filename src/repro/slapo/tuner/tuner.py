"""The auto-tuner (paper §3.4): four search strategies over one space.

The tuner evaluates configurations through a user-supplied callable
returning throughput in samples/sec (``0``/``None`` means invalid — e.g.
out of memory, which the tuner prunes quickly), in process or in a
:class:`.workers.MeasurementPool`.  It records every trial and
a simulated wall-clock cost so benchmarks can report search-time savings
(paper Fig. 10: 17/91 configs, 20 vs 139 minutes).

Strategies:

* :meth:`AutoTuner.exhaustive` — measure everything (the baseline).
* :meth:`AutoTuner.coordinate_descent` — randomized coordinate descent
  (Nesterov 2012), as in the paper.
* :meth:`AutoTuner.simulator_guided` — rank the whole space with a cheap
  cost model (:mod:`.cost_model`), measure only the top-k plus a small
  exploration quota; predicted-infeasible configs are pruned for free.
* :meth:`AutoTuner.evolutionary` — mutation/crossover over space
  coordinates with the cost model as a fitness prefilter.

Every strategy returns a :class:`TuneResult` carrying a
:class:`TuneReport` (trial/prune/cache counts, predicted-vs-measured
pairs, simulated search seconds) so benchmarks compare strategies on the
same footing.  A :class:`.cache.TrialCache` makes measurements persistent
across runs: cached trials cost zero search seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cache import TrialCache
from .cost_model import CostModel, as_cost_model
from .space import enumerate_space
from .workers import MeasurementPool, measure


def _trial_key(config: dict) -> tuple:
    """In-memory identity of a configuration.

    Values need only be hashable and comparable for equality (as in the
    seed tuner); JSON-serializability is required only when a
    :class:`.cache.TrialCache` is attached.
    """
    return tuple(sorted(config.items(), key=lambda item: item[0]))


@dataclass
class Trial:
    config: dict
    throughput: float
    valid: bool
    #: cost-model prediction at measurement time (None if none was made)
    predicted: float | None = None
    #: served from the persistent TrialCache (costs zero search seconds)
    cached: bool = False
    #: the measurement never completed (worker crash/timeout); lost
    #: trials are recorded but never memoized or cached, so a later run
    #: measures them afresh
    lost: bool = False
    #: loss reason from the measurement pool
    error: str | None = None
    #: which cost model ranked this trial ("analytic", "residual", ...);
    #: None for trials no model scored (exhaustive, coordinate descent)
    ranked_by: str | None = None


@dataclass
class TuneReport:
    """Bookkeeping for one strategy run, consumed by the benchmarks.

    Covers only the trials recorded *during that run*: reusing one
    :class:`AutoTuner` across strategies accumulates trials in the
    result (measurements are shared) but each report stays scoped to
    its own strategy's work.
    """

    strategy: str
    space_size: int
    num_trials: int = 0
    #: trials actually paid for (num_trials − num_cache_hits)
    num_measured: int = 0
    num_cache_hits: int = 0
    #: configs the cost model deemed infeasible (never measured)
    num_pruned: int = 0
    #: feasible configs skipped for budget reasons (prefilter cutoff,
    #: below top-k) — distinct from cost-model rejections
    num_skipped: int = 0
    #: trials lost to worker crashes/timeouts (recorded, never cached)
    num_lost: int = 0
    search_seconds: float = 0.0
    #: estimated cost of measuring the whole space exhaustively:
    #: measured configs at their observed cost, predicted-infeasible ones
    #: at the fast-fail rate, the rest at the full-trial rate
    exhaustive_seconds: float = 0.0
    #: (predicted, measured) throughput pairs for cost-model-guided trials
    predictions: list[tuple[float, float]] = field(default_factory=list)
    #: trials carrying no prediction (cache hits resolved before the
    #: model priced them, unranked strategies) — excluded from
    #: mean_relative_error, counted here so corpus-quality stats aren't
    #: silently inflated by an error average over a subset of the run
    num_unscored: int = 0
    #: trial count per ranking source, e.g. {"analytic": 3, "residual": 11}
    rankers: dict[str, int] = field(default_factory=dict)
    #: name of the cost model the strategy ranked with (None if none)
    cost_model: str | None = None

    @property
    def seconds_saved(self) -> float:
        return self.exhaustive_seconds - self.search_seconds

    @property
    def mean_relative_error(self) -> float:
        """Mean relative |predicted − measured| / measured over valid trials.

        Covers only trials that carry a prediction; the excluded
        remainder is exposed as :attr:`num_unscored`.
        """
        pairs = [(p, m) for p, m in self.predictions if m > 0]
        if not pairs:
            return 0.0
        return sum(abs(p - m) / m for p, m in pairs) / len(pairs)


@dataclass
class TuneResult:
    best_config: dict | None
    best_throughput: float
    trials: list[Trial] = field(default_factory=list)
    #: simulated wall-clock seconds spent benchmarking
    search_seconds: float = 0.0
    report: TuneReport | None = None

    @property
    def num_trials(self) -> int:
        return len(self.trials)


#: benchmarking one configuration ≈ launching a short training job
SECONDS_PER_TRIAL = 92.0
#: invalid configs (OOM) fail fast at the first step
SECONDS_PER_FAILED_TRIAL = 20.0


class AutoTuner:
    """Search one define-by-run space with any of the four strategies.

    ``evaluate_fn`` is a ``config -> float | None`` callable or a
    :class:`.workers.MeasurementPool` (see :func:`.workers.measure`).
    ``cost_model`` is a :class:`.cost_model.CostModel` (or a bare
    ``config -> float`` callable) used by :meth:`simulator_guided` and, as
    a fitness prefilter, by :meth:`evolutionary`.  ``cache`` is an
    optional :class:`.cache.TrialCache`; hits cost zero search seconds
    and the cache is saved after every strategy run.
    """

    def __init__(self, update_space_fn: Callable,
                 evaluate_fn: Callable[[dict], float | None]
                 | MeasurementPool,
                 seed: int = 0,
                 cost_model: CostModel | Callable | None = None,
                 cache: TrialCache | None = None):
        self.update_space_fn = update_space_fn
        self.evaluate_fn = evaluate_fn
        self.configs = enumerate_space(update_space_fn)
        self.cost_model = None if cost_model is None \
            else as_cost_model(cost_model)
        self.cache = cache
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        #: memoized ResidualCostModel for cost_model="residual" runs
        self._residual = None
        self._memo: dict[tuple, Trial] = {}
        self._trials: list[Trial] = []
        #: O(|space|) passes over the config list (construction counts one)
        self.space_scans = 1
        #: feasibility probes answered (each is O(1) via the index)
        self.feasibility_checks = 0
        # One pass builds the space index: trial key -> first enumeration
        # position, plus each coordinate's distinct values.  Feasibility,
        # ranking tiebreaks and coordinate candidates are lookups in it,
        # never a rescan.
        self._position: dict[tuple, int] = {}
        self._values: dict[str, dict] = {}
        for position, config in enumerate(self.configs):
            self._position.setdefault(_trial_key(config), position)
            for coord, value in config.items():
                self._values.setdefault(coord, {})[value] = None

    def _config_rank(self, config: dict) -> tuple:
        """Deterministic tiebreak for equally-predicted configurations.

        Uses the config's enumeration position in the space — stable
        across processes, unlike ``repr`` of arbitrary candidate objects
        (whose default repr embeds memory addresses).  Configs bred
        outside the enumerated space sort after, by key repr.
        """
        index = self._position.get(_trial_key(config))
        if index is not None:
            return (0, index, "")
        return (1, 0, repr(_trial_key(config)))

    # ------------------------------------------------------------------ #
    def _evaluate(self, config: dict) -> Trial:
        return self._evaluate_many([(None, config, None)])[0]

    def _evaluate_many(self, scored: list[tuple]) -> list[Trial]:
        """Evaluate ``(predicted, config, ranked_by)`` triples (see
        :meth:`_score`; ``predicted`` and ``ranked_by`` are None where no
        model ranked the config).

        Memo hits return their recorded trial; every other distinct
        config is measured once, through :func:`.workers.measure`.  Lost
        trials are recorded with ``lost=True`` but never memoized or
        cached, so only the affected trials are forfeited — a clean
        rerun measures them.
        """
        keys = [_trial_key(config) for _, config, _ in scored]
        fresh: dict[tuple, tuple] = {}
        for key, row in zip(keys, scored):
            if key not in self._memo and key not in fresh:
                fresh[key] = row
        results = measure([config for _, config, _ in fresh.values()],
                          self.evaluate_fn, self.cache)
        batch: dict[tuple, Trial] = {}
        # cache hits are recorded first, then measurements, each in order
        for key, result in sorted(zip(fresh, results),
                                  key=lambda pair: not pair[1].cached):
            predicted, config, ranked_by = fresh[key]
            trial = batch[key] = Trial(
                config=dict(config), throughput=result.throughput,
                valid=result.valid, predicted=predicted,
                cached=result.cached, lost=result.lost, error=result.error,
                ranked_by=ranked_by)
            self._trials.append(trial)
            if not trial.lost:
                self._memo[key] = trial
        return [batch[key] if key in batch else self._memo[key]
                for key in keys]

    def _report(self, strategy: str, pruned: int = 0,
                skipped: int = 0) -> TuneReport:
        return TuneReport(strategy=strategy, space_size=len(self.configs),
                          num_pruned=pruned, num_skipped=skipped)

    def _strategy_model(self, cost_model) -> CostModel | None:
        """Resolve a strategy's ``cost_model=`` argument.

        ``None`` keeps the tuner's own model; ``"analytic"`` likewise
        (the tuner's model *is* the analytic oracle); ``"residual"``
        wraps it in a :class:`.learned.ResidualCostModel` — memoized on
        the tuner and refitted from the attached :class:`TrialCache`
        before every run, so the correction sharpens as measurements
        accumulate; anything else goes through :func:`as_cost_model`.
        """
        if cost_model is None or cost_model == "analytic":
            return self.cost_model
        if cost_model == "residual":
            if self.cost_model is None:
                raise ValueError(
                    'cost_model="residual" needs an analytic model to '
                    "correct; pass cost_model= to AutoTuner first")
            if self._residual is None:
                from .learned import ResidualCostModel
                self._residual = ResidualCostModel(self.cost_model,
                                                   seed=self._seed)
            if self.cache is not None:
                self._residual.fit_from_cache(self.cache)
            return self._residual
        return as_cost_model(cost_model)

    def _score(self, configs: list[dict], model: CostModel | None = None
               ) -> tuple[list[tuple[float, dict, str]], list[dict]]:
        """Price ``configs`` with the cost model, whole list at once.

        Goes through :meth:`CostModel.predict_many`, so a vectorized
        model (:class:`.cost_model.SimCostModel`) prices the entire
        space in one batched call — exhaustive-by-prediction ranking at
        any space size.  Returns ``(predicted, config, ranked_by)``
        triples for the feasible configs, ranked deterministically
        (predicted throughput descending, config key as the tiebreak),
        and the list of pruned ones: predicted infeasible, or predicted
        at a throughput that is not a finite positive number (the rule
        :func:`.workers.measure` applies to measurements).
        """
        model = self.cost_model if model is None else model
        scored: list[tuple[float, dict, str]] = []
        pruned: list[dict] = []
        for config, estimate in zip(configs,
                                    model.predict_many(configs)):
            rate = estimate.throughput
            if not (estimate.fits and math.isfinite(rate) and rate > 0):
                pruned.append(config)
                continue
            scored.append((rate, config, estimate.ranked_by or model.name))
        scored.sort(key=lambda row: (-row[0], self._config_rank(row[1])))
        return scored, pruned

    @staticmethod
    def _trial_seconds(trials: list[Trial]) -> float:
        return sum(
            0.0 if t.cached else
            (SECONDS_PER_TRIAL if t.valid else SECONDS_PER_FAILED_TRIAL)
            for t in trials
        )

    def _result(self, report: TuneReport | None = None,
                start: int = 0) -> TuneResult:
        """Result over all trials so far; report scoped to ``start:`` only."""
        best = max((t for t in self._trials if t.valid),
                   key=lambda t: t.throughput, default=None)
        seconds = self._trial_seconds(self._trials)
        if report is not None:
            run_trials = self._trials[start:]
            report.num_trials = len(run_trials)
            report.num_cache_hits = sum(1 for t in run_trials if t.cached)
            report.num_measured = report.num_trials - report.num_cache_hits
            report.num_lost = sum(1 for t in run_trials if t.lost)
            report.search_seconds = self._trial_seconds(run_trials)
            report.predictions = [(t.predicted, t.throughput)
                                  for t in run_trials
                                  if t.predicted is not None]
            # Trials with no prediction are excluded from the error
            # average — count them so the stats can't silently shrink
            # their denominator (e.g. cache hits served pre-ranking).
            report.num_unscored = sum(1 for t in run_trials
                                      if t.predicted is None)
            report.rankers = {}
            for t in run_trials:
                if t.ranked_by is not None:
                    report.rankers[t.ranked_by] = \
                        report.rankers.get(t.ranked_by, 0) + 1
            # Exhaustive baseline from what is actually known: measured
            # configs at their observed cost (a cached hit would still
            # cost full price without the cache), predicted-infeasible
            # unmeasured ones at the fast-fail rate, the rest assumed to
            # be full-length trials.  For the exhaustive strategy itself
            # this reduces to its own cost — seconds_saved = 0.
            known = sum(
                SECONDS_PER_TRIAL if t.valid else SECONDS_PER_FAILED_TRIAL
                for t in self._memo.values()
            )
            unknown = max(0, report.space_size - len(self._memo))
            fast_fail = min(report.num_pruned, unknown)
            report.exhaustive_seconds = (
                known + fast_fail * SECONDS_PER_FAILED_TRIAL
                + (unknown - fast_fail) * SECONDS_PER_TRIAL
            )
        if self.cache is not None:
            self.cache.save()
        return TuneResult(
            best_config=None if best is None else best.config,
            best_throughput=0.0 if best is None else best.throughput,
            trials=list(self._trials),
            search_seconds=seconds,
            report=report,
        )

    # ------------------------------------------------------------------ #
    def exhaustive(self) -> TuneResult:
        """Evaluate every configuration in the space (the baseline)."""
        start = len(self._trials)
        self._evaluate_many([(None, config, None)
                             for config in self.configs])
        return self._result(self._report("exhaustive"), start)

    def coordinate_descent(self, restarts: int = 1,
                           max_rounds: int = 8) -> TuneResult:
        """Randomized coordinate descent (Nesterov 2012), as in the paper.

        Starting from a random valid configuration, sweep one coordinate at
        a time over its feasible values (holding the rest fixed), move to
        the best, and repeat until a full round makes no progress.
        """
        start = len(self._trials)
        names = sorted({k for config in self.configs for k in config})
        self.space_scans += 1  # the coordinate-name sweep above
        for _ in range(restarts):
            start_idx = int(self._rng.integers(len(self.configs)))
            current = dict(self.configs[start_idx])
            best_here = self._evaluate(current)
            for _round in range(max_rounds):
                improved = False
                order = list(names)
                self._rng.shuffle(order)
                for coord in order:
                    candidates = self._coordinate_candidates(current, coord)
                    for value in candidates:
                        if value == current.get(coord):
                            continue
                        probe = dict(current)
                        probe[coord] = value
                        if not self._is_feasible(probe):
                            continue
                        trial = self._evaluate(probe)
                        if trial.valid and (not best_here.valid or
                                            trial.throughput >
                                            best_here.throughput):
                            best_here = trial
                            current = probe
                            improved = True
                if not improved:
                    break
        return self._result(self._report("coordinate_descent"), start)

    def simulator_guided(self, top_k: int | None = None,
                         exploration: float = 0.05,
                         cost_model=None) -> TuneResult:
        """Measure only the cost model's best picks plus an exploration quota.

        Every config is priced by the cost model first (cheap — no trial):
        predicted-infeasible configs are pruned outright, the rest are
        ranked by predicted throughput.  The top ``top_k`` (default: 15% of
        the space) are measured, plus ``exploration`` × |space| random picks
        from the remainder to hedge against cost-model ranking errors.

        ``cost_model`` overrides the ranking model for this run:
        ``"residual"`` corrects the tuner's analytic model with a
        :class:`.learned.ResidualCostModel` fitted from the attached
        trial cache (see :meth:`_strategy_model`); the report then says
        which model ranked each measured trial (``rankers``).
        """
        if self.cost_model is None and cost_model is None:
            raise ValueError(
                "simulator_guided() needs a cost model; pass cost_model= "
                "to AutoTuner (see slapo.tuner.cost_model)"
            )
        model = self._strategy_model(cost_model)
        start = len(self._trials)
        self.space_scans += 1  # one oracle pass over the whole space
        scored, pruned_configs = self._score(self.configs, model)
        pruned = len(pruned_configs)
        if top_k is None:
            top_k = max(1, math.ceil(0.15 * len(self.configs)))
        chosen = scored[:top_k]
        rest = scored[top_k:]
        quota = min(len(rest), math.ceil(exploration * len(self.configs)))
        if quota > 0:
            picks = self._rng.choice(len(rest), size=quota, replace=False)
            chosen += [rest[int(i)] for i in sorted(picks)]
        self._evaluate_many(chosen)
        skipped = len(scored) - len(chosen)
        report = self._report("simulator_guided", pruned=pruned,
                              skipped=skipped)
        report.cost_model = model.name
        return self._result(report, start)

    def evolutionary(self, population: int = 12, generations: int = 8,
                     mutation_rate: float = 0.3, elite: int = 2,
                     prefilter: float = 0.5, cost_model=None) -> TuneResult:
        """Evolutionary search over space coordinates.

        Each generation breeds ``population`` offspring by uniform
        crossover of tournament-selected parents followed by coordinate
        mutation (mutations draw from the space index, so children
        stay inside the polygon space).  With a cost model attached,
        predicted-infeasible candidates are pruned for free and each
        brood is ranked by predicted throughput with only the top
        ``prefilter`` fraction measured (the remainder count as budget
        skips).  Deterministic under a fixed construction seed.
        ``cost_model`` overrides the fitness prefilter for this run,
        same semantics as :meth:`simulator_guided`.
        """
        model = self._strategy_model(cost_model)
        start = len(self._trials)
        # Distinct configs only: the same infeasible config can be bred
        # again in a later generation but is pruned once, not per brood.
        pruned_keys: set[tuple] = set()
        skipped_keys: set[tuple] = set()
        pop_size = max(2, min(population, len(self.configs)))

        def rank_key(trial: Trial):
            return (-trial.throughput if trial.valid else math.inf,
                    self._config_rank(trial.config))

        def finish() -> TuneResult:
            skipped_keys.difference_update(self._memo)  # measured after all
            report = self._report("evolutionary", pruned=len(pruned_keys),
                                  skipped=len(skipped_keys))
            report.cost_model = None if model is None else model.name
            return self._result(report, start)

        # -- seed population ------------------------------------------- #
        sample = min(len(self.configs),
                     3 * pop_size if model else pop_size)
        picks = self._rng.choice(len(self.configs), size=sample,
                                 replace=False)
        seeds = [self.configs[int(i)] for i in sorted(picks)]
        if model is not None:
            scored, seed_pruned = self._score(seeds, model)
            pruned_keys.update(_trial_key(c) for c in seed_pruned)
            skipped_keys.update(_trial_key(c)
                                for _, c, _ in scored[pop_size:])
            current = self._evaluate_many(scored[:pop_size])
        else:
            current = self._evaluate_many([(None, c, None) for c in seeds])
        if not current:  # cost model rejected the entire sample
            return finish()

        # -- generations ------------------------------------------------ #
        for _gen in range(generations):
            parents = sorted(current, key=rank_key)
            brood: list[dict] = []
            seen_brood: set[tuple] = set()
            attempts = 0
            while len(brood) < pop_size and attempts < 20 * pop_size:
                attempts += 1
                a = parents[self._tournament(len(parents))]
                b = parents[self._tournament(len(parents))]
                child = self._crossover(a.config, b.config)
                child = self._mutate(child, mutation_rate)
                key = _trial_key(child)
                if key in seen_brood or key in self._memo:
                    continue
                seen_brood.add(key)
                brood.append(child)
            if not brood:
                break  # neighbourhood exhausted
            if model is not None:
                scored, brood_pruned = self._score(brood, model)
                pruned_keys.update(_trial_key(c) for c in brood_pruned)
                keep = max(1, math.ceil(prefilter * len(scored))) \
                    if scored else 0
                skipped_keys.update(_trial_key(c)
                                    for _, c, _ in scored[keep:])
                offspring = self._evaluate_many(scored[:keep])
            else:
                offspring = self._evaluate_many([(None, c, None)
                                                 for c in brood])
            # Generational replacement with elitism: the best `elite`
            # parents always survive, the rest of the slots go to the
            # fittest of (offspring ∪ remaining parents).
            pool = sorted(offspring + parents[elite:], key=rank_key)
            current = parents[:elite] + pool[:pop_size - elite]
        return finish()

    # ------------------------------------------------------------------ #
    # Genetic operators (all feasibility-preserving via the index)
    # ------------------------------------------------------------------ #
    def _tournament(self, size: int, k: int = 3) -> int:
        """Index of the best of ``k`` random entrants (lower index = fitter)."""
        entrants = self._rng.integers(size, size=min(k, size))
        return int(min(entrants))

    def _crossover(self, a: dict, b: dict) -> dict:
        """Uniform crossover; falls back to parent ``a`` when the mix
        leaves the polygon space (conditional candidate lists)."""
        child = {}
        for coord in a:
            take_b = coord in b and self._rng.random() < 0.5
            child[coord] = b[coord] if take_b else a[coord]
        if self._is_feasible(child):
            return child
        return dict(a)

    def _mutate(self, config: dict, rate: float) -> dict:
        """Re-draw each coordinate with probability ``rate`` from its
        feasible alternatives (holding the others fixed)."""
        mutated = dict(config)
        for coord in sorted(mutated):
            if self._rng.random() >= rate:
                continue
            candidates = self._coordinate_candidates(mutated, coord)
            others = [v for v in candidates if v != mutated[coord]]
            if others:
                mutated[coord] = others[int(self._rng.integers(len(others)))]
        return mutated

    # ------------------------------------------------------------------ #
    def _is_feasible(self, config: dict) -> bool:
        self.feasibility_checks += 1
        return _trial_key(config) in self._position

    def _coordinate_candidates(self, current: dict, coord: str) -> list:
        """The values of ``coord`` that keep ``current``'s other
        coordinates inside the space, in enumeration order."""
        if coord not in current:
            return []
        hits = []
        for value in self._values.get(coord, ()):
            position = self._position.get(
                _trial_key({**current, coord: value}))
            if position is not None:
                hits.append((position, value))
        return [value for _, value in sorted(hits, key=lambda hit: hit[0])]
