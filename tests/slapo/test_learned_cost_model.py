"""Conformance grid for the learned cost model (learned.py).

Pins the contracts the residual-correction design rests on: training is
deterministic under its seed, weights round-trip through JSON
byte-stably, the vectorized path is bit-exact with the scalar one, a
thin/absent corpus degrades to pure-analytic behaviour, and held-out
error improves monotonically as the corpus grows.  The featurize layer
gets its own property tests (stable schema across every model family
and cluster preset, permutation invariance, stale-version refusal),
and the end-to-end tests seed a cache with deliberately *biased*
measurements and check ``simulator_guided(cost_model="residual")``
reorders the search and still lands on the true optimum.
"""

import json
import math

import numpy as np
import pytest

from repro.distributed.topology import (
    P3DN_NODE,
    a100_cluster,
    h100_cluster,
    p3dn_cluster,
)
from repro.models import MODEL_ZOO
from repro.sim.memory import compute_model_stats
from repro.slapo.tuner import (
    AutoTuner,
    CallableCostModel,
    LearnedCostModel,
    ResidualCostModel,
    StaleWeightsError,
    TrialCache,
    featurize,
    featurize_many,
)
from repro.slapo.tuner.cache import config_key
from repro.slapo.tuner.learned import (
    FEATURE_NAMES,
    FEATURE_VERSION,
    mean_relative_error,
)


def fig6_space(space):
    bs = space.create_symbol("batch_size", range(104, 177, 8))
    ratios = [0.67, 0.5, 0.34, 0.25]
    if bs >= 120:
        ratios += [1.0, 0.92, 0.84]
    space.create_symbol("ckpt_ratio", ratios)
    return space


def analytic_rate(config: dict) -> float:
    """A smooth, closed-form analytic surface over the Fig. 6 polygon."""
    return 100.0 * (config["batch_size"] / 104.0) ** 0.5 \
        / (1.0 + 0.4 * config["ckpt_ratio"])


def bias(config: dict) -> float:
    """The injected measurement bias the analytic surface knows nothing
    about: recompute-heavy configs lose less than priced."""
    return 1.0 - 0.25 * (1.0 - config["ckpt_ratio"])


def measured_rate(config: dict) -> float:
    return analytic_rate(config) * bias(config)


def config_featurizer(config: dict) -> np.ndarray:
    return featurize(config, None, None)


def synthetic_corpus(n: int = 48, seed: int = 7):
    """(X, y) over random Fig. 6-style configs, log-linear target."""
    rng = np.random.default_rng(seed)
    configs = [{"batch_size": int(rng.integers(64, 256)),
                "ckpt_ratio": float(rng.choice([0.25, 0.5, 0.75, 1.0]))}
               for _ in range(n)]
    X = featurize_many(configs, None, None)
    y = np.array([math.log(measured_rate(c)) for c in configs])
    return configs, X, y


# --------------------------------------------------------------------- #
# LearnedCostModel conformance
# --------------------------------------------------------------------- #
class TestLearnedModel:
    def test_deterministic_under_seed(self):
        _, X, y = synthetic_corpus()
        first = LearnedCostModel(seed=3).fit(X, y)
        second = LearnedCostModel(seed=3).fit(X, y)
        assert first.to_json() == second.to_json()
        assert np.array_equal(first.predict_features(X),
                              second.predict_features(X))

    def test_refit_matches_fresh_fit(self):
        """Refitting the same instance must not accumulate stale
        boosting state: a second fit() on an identical corpus produces
        byte-identical weights (the tuner and PlanService refit
        long-lived models on every run)."""
        _, X, y = synthetic_corpus()
        fresh = LearnedCostModel().fit(X, y)
        refit = LearnedCostModel()
        refit.fit(X, y)
        refit.fit(X, y)
        assert refit.to_json() == fresh.to_json()
        assert np.array_equal(refit.predict_features(X),
                              fresh.predict_features(X))

    def test_json_roundtrip_byte_stable(self):
        _, X, y = synthetic_corpus()
        model = LearnedCostModel().fit(X, y)
        text = model.to_json()
        reloaded = LearnedCostModel.from_json(text)
        assert reloaded.to_json() == text
        again = LearnedCostModel.from_json(reloaded.to_json())
        assert again.to_json() == text
        assert np.array_equal(reloaded.predict_features(X),
                              model.predict_features(X))

    def test_predict_many_bit_exact_vs_scalar(self):
        _, X, y = synthetic_corpus()
        model = LearnedCostModel().fit(X, y)
        # the feature-matrix path row-for-row against 1-row calls
        batch_rows = model.predict_features(X)
        single_rows = np.array([model.predict_features(X[i][None])[0]
                                for i in range(len(X))])
        assert np.array_equal(batch_rows, single_rows)

    def test_predictions_clamped_to_trained_range(self):
        _, X, y = synthetic_corpus()
        model = LearnedCostModel().fit(X, y)
        wild = X.copy()
        wild[:, 0] += 100.0  # far outside anything seen in training
        out = model.predict_features(wild)
        assert out.min() >= y.min() and out.max() <= y.max()

    def test_refuses_stale_feature_schema(self):
        _, X, y = synthetic_corpus()
        model = LearnedCostModel().fit(X, y)
        state = json.loads(model.to_json())
        stale_version = dict(state, feature_version=FEATURE_VERSION + 1)
        with pytest.raises(StaleWeightsError):
            LearnedCostModel.from_state(stale_version)
        renamed = dict(state,
                       feature_names=["bogus"] + state["feature_names"][1:])
        with pytest.raises(StaleWeightsError):
            LearnedCostModel.from_state(renamed)

    def test_unfitted_model_refuses_predictions(self):
        model = LearnedCostModel()
        assert not model.trained
        with pytest.raises(ValueError):
            model.predict_features(np.zeros((1, len(FEATURE_NAMES))))

    def test_monotone_heldout_improvement_with_corpus_size(self):
        """More corpus → better held-out error, strictly down the grid."""
        configs, X, y = synthetic_corpus(n=96, seed=11)
        held_X, held_y = X[64:], y[64:]
        errors = []
        for size in (8, 24, 64):
            model = LearnedCostModel(boost_rounds=0)  # pure ridge
            model.fit(X[:size], y[:size])
            predicted = np.exp(model.predict_features(held_X,
                                                      clamp=False))
            errors.append(mean_relative_error(predicted,
                                              np.exp(held_y)))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.02


# --------------------------------------------------------------------- #
# featurize schema properties
# --------------------------------------------------------------------- #
class TestFeaturize:
    def test_stable_length_and_order(self):
        base = featurize({"batch_size": 104, "ckpt_ratio": 0.5},
                         None, None)
        assert base.shape == (len(FEATURE_NAMES),)
        # absent blocks are zero-filled, never dropped
        assert featurize({}, None, None).shape == base.shape
        # names are unique — the schema is an ordered set
        assert len(set(FEATURE_NAMES)) == len(FEATURE_NAMES)

    def test_stable_across_all_model_zoo_families(self):
        lengths = set()
        for family, (cls, config) in sorted(MODEL_ZOO.items()):
            model = cls(config.tiny(), device="meta")
            stats = compute_model_stats(model)
            vector = featurize({"tp": 2, "batch_size": 32}, stats,
                               P3DN_NODE)
            lengths.add(vector.shape)
            assert np.isfinite(vector).all(), family
        assert lengths == {(len(FEATURE_NAMES),)}

    def test_stable_across_flat_and_tiered_clusters(self):
        clusters = [P3DN_NODE, p3dn_cluster(4), a100_cluster(2),
                    h100_cluster(2)]
        vectors = [featurize({"tp": 4, "dp": 2}, None, cluster)
                   for cluster in clusters]
        assert {v.shape for v in vectors} == {(len(FEATURE_NAMES),)}
        # different interconnects produce different hardware features
        assert not np.array_equal(vectors[1], vectors[2])

    def test_config_coordinates_land_in_named_slots(self):
        vector = featurize(
            {"tp": 4, "dp": 2, "pp": 2, "ep": 1, "micro_batch": 8,
             "zero_stage": 3, "ckpt_ratio": 0.5,
             "pipeline_schedule": "1f1b", "placement": "tp,dp,pp",
             "overlap_grad_sync": True, "overlap_bucket_mb": 25.0},
            None, None)
        names = list(FEATURE_NAMES)
        assert vector[names.index("log_tp")] == 2.0
        assert vector[names.index("log_dp")] == 1.0
        assert vector[names.index("zero_stage")] == 3.0
        assert vector[names.index("ckpt_ratio")] == 0.5
        assert vector[names.index("has_ckpt_ratio")] == 1.0
        assert vector[names.index("schedule_1f1b")] == 1.0
        assert vector[names.index("schedule_gpipe")] == 0.0
        assert vector[names.index("innermost_tp")] == 1.0
        assert vector[names.index("overlap_grad_sync")] == 1.0


# --------------------------------------------------------------------- #
# ResidualCostModel: fallback + correction semantics
# --------------------------------------------------------------------- #
class TestResidualModel:
    def make_residual(self, **kwargs):
        analytic = CallableCostModel(analytic_rate)
        kwargs.setdefault("featurizer", config_featurizer)
        return ResidualCostModel(analytic, **kwargs)

    def seeded_cache(self, tmp_path, configs):
        cache = TrialCache(tmp_path / "trials.json")
        for config in configs:
            cache.put(config, measured_rate(config), True)
        return cache

    def test_residual_equals_analytic_on_empty_corpus(self, tmp_path):
        residual = self.make_residual()
        cache = TrialCache(tmp_path / "empty.json")
        assert residual.fit_from_cache(cache) == 0
        assert not residual.active
        config = {"batch_size": 120, "ckpt_ratio": 0.5}
        estimate = residual.estimate(config)
        assert estimate.throughput == analytic_rate(config)
        assert estimate.ranked_by == "analytic"

    def test_residual_below_min_samples_is_identity(self, tmp_path):
        residual = self.make_residual(min_samples=8)
        cache = self.seeded_cache(tmp_path, [
            {"batch_size": 104 + 8 * i, "ckpt_ratio": 0.5}
            for i in range(4)])
        assert residual.fit_from_cache(cache) == 4
        assert not residual.active
        config = {"batch_size": 120, "ckpt_ratio": 0.5}
        assert residual.estimate(config).throughput == \
            analytic_rate(config)

    def test_correction_applies_in_distribution(self, tmp_path):
        configs = [{"batch_size": batch, "ckpt_ratio": ratio}
                   for batch in range(104, 177, 8)
                   for ratio in (0.25, 0.5, 1.0)]
        residual = self.make_residual(min_samples=8)
        assert residual.fit_from_cache(
            self.seeded_cache(tmp_path, configs)) == len(configs)
        assert residual.active
        probe = {"batch_size": 128, "ckpt_ratio": 0.5}
        estimate = residual.estimate(probe)
        corrected = estimate.throughput
        assert estimate.ranked_by == "residual"
        truth = measured_rate(probe)
        assert abs(corrected - truth) / truth < \
            abs(analytic_rate(probe) - truth) / truth

    def test_fit_from_cache_order_invariant(self, tmp_path):
        configs = [{"batch_size": batch, "ckpt_ratio": ratio}
                   for batch in range(104, 177, 8)
                   for ratio in (0.25, 0.5, 1.0)]
        one = self.make_residual()
        one.fit_from_cache(self.seeded_cache(tmp_path / "a", configs))
        two = self.make_residual()
        two.fit_from_cache(self.seeded_cache(tmp_path / "b",
                                             configs[::-1]))
        assert one.learned.to_json() == two.learned.to_json()

    def test_out_of_distribution_falls_back(self, tmp_path):
        configs = [{"batch_size": batch, "ckpt_ratio": 0.5}
                   for batch in range(104, 177, 8)]
        residual = self.make_residual(min_samples=4, ood_margin=0.25)
        residual.fit_from_cache(self.seeded_cache(tmp_path, configs))
        assert residual.active
        alien = {"batch_size": 4096, "ckpt_ratio": 0.5}
        estimate = residual.estimate(alien)
        assert estimate.throughput == analytic_rate(alien)
        assert estimate.ranked_by == "analytic"
        assert residual.num_fallbacks == 1

    def test_context_filter_selects_matching_rows(self, tmp_path):
        cache = TrialCache(tmp_path / "mixed.json")
        for i, batch in enumerate(range(104, 177, 8)):
            config = {"batch_size": batch, "ckpt_ratio": 0.5}
            cache.put(config, measured_rate(config), True,
                      context={"family": "A" if i % 2 else "B"})
        residual = self.make_residual(min_samples=1)
        fitted = residual.fit_from_cache(cache, context={"family": "A"})
        assert fitted == 5
        # context survives a save/load round trip
        cache.save()
        reloaded = TrialCache(tmp_path / "mixed.json")
        again = self.make_residual(min_samples=1)
        assert again.fit_from_cache(reloaded,
                                    context={"family": "A"}) == 5


# --------------------------------------------------------------------- #
# End-to-end: residual-guided tuning on a biased cache
# --------------------------------------------------------------------- #
def run_guided(tmp_path, cost_model, pool=None, name="trials"):
    analytic = CallableCostModel(analytic_rate)
    tuner = AutoTuner(fig6_space, measured_rate if pool is None else pool,
                      seed=0, cost_model=analytic,
                      cache=TrialCache(tmp_path / f"{name}.json"))
    # make the residual featurizer config-only (no SimCostModel here)
    tuner._residual = ResidualCostModel(analytic,
                                        featurizer=config_featurizer)
    return tuner, tuner.simulator_guided(cost_model=cost_model)


class TestResidualGuidedSearch:
    def true_best_key(self, tuner):
        return max(tuner.configs, key=measured_rate)

    def test_residual_reorders_and_finds_true_optimum(self, tmp_path):
        # pass 1: analytic-guided, builds the biased corpus
        tuner, first = run_guided(tmp_path, None)
        best = max(tuner.configs, key=measured_rate)
        assert first.report.cost_model == "callable"
        assert first.report.rankers == {"callable":
                                        first.report.num_trials}
        analytic_order = [t.config for t in first.trials]

        # pass 2: residual-guided over the shared cache
        tuner2, second = run_guided(tmp_path, "residual")
        assert second.report.cost_model == "residual"
        assert second.report.rankers.get("residual", 0) > 0
        residual_order = [t.config for t in second.trials]
        assert second.best_config == best
        # the learned correction must actually change the measured set
        # or its order vs the analytic pass
        assert [config_key(c) for c in residual_order] != \
            [config_key(c) for c in analytic_order]
        # and its predictions are sharper where it ranked
        assert second.report.mean_relative_error < \
            first.report.mean_relative_error

    def test_num_unscored_counts_cache_hits(self, tmp_path):
        _, first = run_guided(tmp_path, None)
        assert first.report.num_unscored == 0
        # exhaustive over the same cache: every trial is unscored (no
        # model ranked it), several are cache hits — both visible now
        tuner = AutoTuner(fig6_space, measured_rate, seed=0,
                          cache=TrialCache(tmp_path / "trials.json"))
        result = tuner.exhaustive()
        assert result.report.num_unscored == result.report.num_trials
        assert result.report.num_cache_hits == first.report.num_trials
        assert result.report.mean_relative_error == 0.0

    @pytest.mark.slow
    def test_residual_guided_with_measurement_pool(self, tmp_path):
        from repro.slapo.tuner import MeasurementPool

        pool = MeasurementPool(measured_rate, num_workers=2)
        try:
            tuner, first = run_guided(tmp_path, None, pool=pool,
                                      name="pooled")
            assert first.report.num_measured > 0
            tuner2, second = run_guided(tmp_path, "residual", pool=pool,
                                        name="pooled")
            assert second.best_config == \
                max(tuner2.configs, key=measured_rate)
            assert second.report.cost_model == "residual"
            assert second.report.num_lost == 0
        finally:
            pool.close()


# --------------------------------------------------------------------- #
# Vectorized stump search vs the scalar oracle
# --------------------------------------------------------------------- #
def oracle_stump(model, Z, residual):
    """The scalar per-feature split scan the vectorized search replaced:
    strictly-greater gain, features in schema order, thresholds
    ascending, gains <= 1e-12 skipped."""
    from repro.slapo.tuner.learned import _Stump

    n = Z.shape[0]
    total = residual.sum()
    best = None
    for j in range(Z.shape[1]):
        order = np.argsort(Z[:, j], kind="stable")
        zs = Z[order, j]
        left_sum = np.cumsum(residual[order])[:-1]
        counts = np.arange(1, n)
        splittable = zs[:-1] < zs[1:]
        if not splittable.any():
            continue
        right_sum = total - left_sum
        gain = left_sum ** 2 / counts + right_sum ** 2 / (n - counts)
        gain = np.where(splittable, gain, -np.inf)
        pick = int(gain.argmax())
        if gain[pick] <= 1e-12:
            continue
        if best is None or gain[pick] > best[0]:
            stump = _Stump(
                feature=j,
                threshold=float((zs[pick] + zs[pick + 1]) / 2),
                left=model.learning_rate
                * float(left_sum[pick] / counts[pick]),
                right=model.learning_rate
                * float(right_sum[pick] / (n - counts[pick])),
            )
            best = (float(gain[pick]), stump)
    return None if best is None else best[1]


class TestStumpSearch:
    def search(self, Z, residual):
        Z = np.asarray(Z, dtype=np.float64)
        residual = np.asarray(residual, dtype=np.float64)
        model = LearnedCostModel()
        got = model._fit_stump(Z, residual,
                               np.argsort(Z, axis=0, kind="stable"))
        assert got == oracle_stump(model, Z, residual)
        return got

    def test_single_row_never_splits(self):
        assert self.search([[0.5, -1.0]], [2.0]) is None

    def test_two_rows(self):
        stump = self.search([[1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0])
        assert stump.feature == 0 and stump.threshold == 0.0
        # a tied pair of rows cannot be split
        assert self.search([[1.0], [1.0]], [1.0, -1.0]) is None

    def test_constant_columns_never_split(self):
        assert self.search(np.zeros((6, 3)), [1, -2, 3, 0, 5, -1]) is None

    def test_zero_gain_is_skipped(self):
        Z = np.arange(12.0).reshape(6, 2)
        assert self.search(Z, np.zeros(6)) is None

    def test_equal_gain_across_features_takes_the_first(self):
        column = np.array([0.0, 1.0, 2.0, 3.0])
        Z = np.stack([np.zeros(4), column, column, -column], axis=1)
        stump = self.search(Z, [3.0, 1.0, -1.0, -3.0])
        assert stump.feature == 1

    def test_equal_gain_within_a_feature_takes_the_lowest_threshold(self):
        stump = self.search([[0.0], [1.0], [2.0], [3.0]],
                            [1.0, -1.0, -1.0, 1.0])
        assert stump.threshold == 0.5

    @pytest.mark.parametrize("seed", range(8))
    def test_random_corpora(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 60))
        # few distinct levels per column: many tied thresholds
        Z = rng.integers(0, 4, size=(n, 7)).astype(np.float64)
        Z[:, 2] = 0.0
        Z[:, 5] = rng.normal(size=n)
        residual = rng.normal(size=n)
        self.search(Z, residual)

    def test_fitted_weights_match_an_oracle_driven_fit(self, monkeypatch):
        _, X, y = synthetic_corpus(n=40, seed=5)
        fast = LearnedCostModel(boost_rounds=16).fit(X, y)
        monkeypatch.setattr(
            LearnedCostModel, "_fit_stump",
            lambda self, Z, residual, orders: oracle_stump(self, Z,
                                                           residual))
        slow = LearnedCostModel(boost_rounds=16).fit(X, y)
        assert fast._stumps
        assert fast.to_json() == slow.to_json()


# --------------------------------------------------------------------- #
# Batch featurization and correcting a priced batch
# --------------------------------------------------------------------- #
class TestBatchFeatures:
    def test_rows_do_not_depend_on_the_batch(self):
        configs = [{"tp": 4, "micro_batch": 3, "ckpt_ratio": 0.5},
                   {"tp": 4.0, "micro_batch": None, "placement": "dp,tp"},
                   {"tp": True, "batch_size": "96", "zero_stage": 1},
                   {"pipeline_schedule": "1f1b", "overlap_grad_sync": 1,
                    "overlap_bucket_mb": 2.5},
                   {}]
        X = featurize_many(configs, None, P3DN_NODE)
        for k, config in enumerate(configs):
            assert np.array_equal(X[k], featurize(config, None, P3DN_NODE))
            assert np.array_equal(
                X[k], featurize_many(configs[k::-1], None, P3DN_NODE)[0])
        assert featurize_many([], None, None).shape == \
            (0, len(FEATURE_NAMES))

    def test_log_features_are_scalar_log2(self):
        values = [1, 3, 5, 6, 7, 12, 96, 100, 1000]
        X = featurize_many([{"micro_batch": v} for v in values], None, None)
        column = X[:, list(FEATURE_NAMES).index("log_micro_batch")]
        assert column.tolist() == [math.log2(v) for v in values]

    def test_features_many_groups_configs_by_trace(self):
        from repro.models import data
        from repro.sim import trace_model
        from repro.slapo.tuner import SimCostModel

        traced = {}
        for family in ("GPT", "BERT"):
            cls, config = MODEL_ZOO[family]
            model = cls(config.tiny(), device="meta")
            ids, _ = data.lm_batch(config.tiny(), 1, device="meta")
            traced[family] = (model, trace_model(model, ids))
        analytic = SimCostModel(
            lambda config: traced[config["family"]], P3DN_NODE,
            trace_key_fn=lambda config: config["family"])
        residual = ResidualCostModel(analytic)
        configs = [{"family": family, "micro_batch": micro}
                   for micro in (1, 2, 4) for family in ("GPT", "BERT")]
        X = residual.features_many(configs)
        for row, config in zip(X, configs):
            model, trace = traced[config["family"]]
            stats = compute_model_stats(model)
            assert np.array_equal(row, featurize(config, stats, P3DN_NODE))
        assert not np.array_equal(X[0], X[1])


class TestCorrectPricedBatch:
    def trained(self, tmp_path):
        configs = [{"batch_size": batch, "ckpt_ratio": ratio}
                   for batch in range(104, 177, 8)
                   for ratio in (0.25, 0.5, 1.0)]
        cache = TrialCache(tmp_path / "trials.json")
        for config in configs:
            cache.put(config, measured_rate(config), True)
        residual = ResidualCostModel(CallableCostModel(analytic_rate),
                                     featurizer=config_featurizer)
        residual.fit_from_cache(cache)
        assert residual.active
        return residual

    def test_concurrent_batches_keep_their_own_ranked_by(self, tmp_path):
        """Two threads predicting on one shared, fitted model each get
        the ``ranked_by`` list a lone call gets."""
        import sys
        import threading

        residual = self.trained(tmp_path)
        batches = [[{"batch_size": batch, "ckpt_ratio": ratio}
                    for batch in range(104 + 4 * k, 177, 8)
                    for ratio in (0.25, 0.34, 0.5, 0.67, 1.0)]
                   + [{"batch_size": 4096 * (k + 1), "ckpt_ratio": 0.5}]
                   for k in (0, 1)]
        alone = [[e.ranked_by for e in residual.predict_many(batch)]
                 for batch in batches]
        assert all({"analytic", "residual"} == set(sources)
                   for sources in alone)

        def predict(k, got):
            got[k] = [e.ranked_by for e in
                      residual.predict_many(batches[k])]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                got = [None, None]
                threads = [threading.Thread(target=predict, args=(k, got))
                           for k in (0, 1)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert got == alone
        finally:
            sys.setswitchinterval(interval)
