"""Cost-model-guided tuning: new strategies, trial cache, coordinate index.

Covers the §3.4 extensions: the simulator-guided and evolutionary
strategies, the CostModel adapter contract, the persistent JSON trial
cache, the TuneReport bookkeeping, and the O(1) coordinate-index
regression for coordinate descent.
"""

import json
import math

import pytest

from repro.slapo.tuner import (
    AutoTuner,
    CallableCostModel,
    CostEstimate,
    CostModel,
    SimCostModel,
    TrialCache,
    as_cost_model,
    config_key,
)


def paper_fig6_space(space):
    """The paper's Fig. 6 conditional (polygon) space."""
    bs = space.create_symbol("batch_size", range(104, 177, 8))
    ckpt_ratio_cand = [0.67, 0.5, 0.34, 0.25]
    if bs >= 120:
        ckpt_ratio_cand += [1.0, 0.92, 0.84]
    space.create_symbol("ckpt_ratio", ckpt_ratio_cand)
    return space


def mesh_space(space):
    """A conditional mesh space: keys differ on either side of pp == 1."""
    from repro.pipeline import SCHEDULE_NAMES
    from repro.slapo.tuner import parallelism_symbols
    from repro.slapo.tuner.space import DEFAULT_PLACEMENTS

    parallelism_symbols(space, 64, max_ep=4,
                        pipeline_schedules=SCHEDULE_NAMES,
                        overlap_grad_sync=True,
                        placements=DEFAULT_PLACEMENTS)
    space.create_symbol("zero_stage", [0, 1])
    space.create_symbol("micro_batch", [1, 2])


def rect_space(space):
    space.create_symbol("a", [1, 2, 3, 4, 5, 6, 7, 8])
    space.create_symbol("b", [10, 20, 30, 40, 50])


def six_space(space):
    space.create_symbol("a", [1, 2, 3])
    space.create_symbol("b", [10, 20])


def rect_throughput(config):
    if config["a"] * config["b"] > 300:  # infeasible corner
        return 0.0
    return 100.0 - (config["a"] - 5) ** 2 - (config["b"] / 10 - 3) ** 2


def synthetic_throughput(config):
    """Smooth unimodal surface with an OOM cliff (like Fig. 10)."""
    bs = config["batch_size"]
    ratio = config["ckpt_ratio"]
    if bs * (1.6 - ratio) > 200:
        return 0.0
    return 300.0 * (bs / (bs + 40.0)) / (1.0 + 0.25 * ratio)


def biased_oracle(config):
    """A cost model that is systematically 8% pessimistic but rank-true."""
    return synthetic_throughput(config) * 0.92


class TestCostModelContract:
    def test_callable_wrapped(self):
        model = as_cost_model(lambda c: 42.0)
        assert isinstance(model, CallableCostModel)
        estimate = model.estimate({})
        assert estimate.throughput == 42.0 and estimate.fits

    def test_zero_and_none_mean_infeasible(self):
        assert not as_cost_model(lambda c: 0.0).estimate({}).fits
        assert not as_cost_model(lambda c: None).estimate({}).fits

    def test_instance_passthrough(self):
        class Fixed(CostModel):
            def predict_many(self, configs):
                return [CostEstimate(throughput=1.0) for _ in configs]

        model = Fixed()
        assert as_cost_model(model) is model
        assert model.estimate({}) == CostEstimate(throughput=1.0)

    def test_estimates_name_their_model(self):
        estimates = as_cost_model(lambda c: c["x"]).predict_many(
            [{"x": 2.0}, {"x": 0.0}])
        assert [e.ranked_by for e in estimates] == ["callable"] * 2
        assert [e.fits for e in estimates] == [True, False]

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            as_cost_model(123)

    def test_cost_model_usable_as_evaluate_fn(self):
        model = as_cost_model(lambda c: 5.0)
        assert model({}) == 5.0


class TestSimulatorGuided:
    def test_finds_optimum_with_fraction_of_trials(self):
        exhaustive = AutoTuner(paper_fig6_space, synthetic_throughput)
        best = exhaustive.exhaustive().best_throughput
        tuner = AutoTuner(paper_fig6_space, synthetic_throughput, seed=0,
                          cost_model=biased_oracle)
        result = tuner.simulator_guided()
        assert result.num_trials <= 0.30 * len(tuner.configs)
        assert result.best_throughput == pytest.approx(best)

    def test_finds_optimum_on_rectangular_space(self):
        exhaustive = AutoTuner(rect_space, rect_throughput).exhaustive()
        tuner = AutoTuner(rect_space, rect_throughput, seed=1,
                          cost_model=lambda c: rect_throughput(c) * 0.9)
        result = tuner.simulator_guided()
        assert result.num_trials <= 0.30 * len(tuner.configs)
        assert result.best_throughput == pytest.approx(
            exhaustive.best_throughput)

    def test_pruned_configs_never_measured(self):
        calls = []

        def counted(config):
            calls.append(dict(config))
            return synthetic_throughput(config)

        tuner = AutoTuner(paper_fig6_space, counted, seed=0,
                          cost_model=biased_oracle)
        result = tuner.simulator_guided()
        assert result.report.num_pruned > 0
        # The oracle's infeasible verdicts were never paid for.
        assert all(synthetic_throughput(c) > 0 for c in calls)
        assert all(t.valid for t in result.trials)

    def test_requires_cost_model(self):
        tuner = AutoTuner(paper_fig6_space, synthetic_throughput)
        with pytest.raises(ValueError, match="cost model"):
            tuner.simulator_guided()

    def test_report_predictions_recorded(self):
        tuner = AutoTuner(paper_fig6_space, synthetic_throughput, seed=0,
                          cost_model=biased_oracle)
        report = tuner.simulator_guided().report
        assert report.strategy == "simulator_guided"
        assert len(report.predictions) == report.num_trials
        # The oracle is 8% pessimistic by construction.
        assert report.mean_relative_error == pytest.approx(0.08, abs=0.01)
        assert report.exhaustive_seconds > report.search_seconds
        assert report.seconds_saved > 0

    def test_top_k_override(self):
        tuner = AutoTuner(paper_fig6_space, synthetic_throughput, seed=0,
                          cost_model=biased_oracle)
        result = tuner.simulator_guided(top_k=3, exploration=0.0)
        assert result.num_trials == 3

    def test_report_scoped_to_its_own_run(self):
        """Reusing one tuner: results accumulate, reports do not."""
        tuner = AutoTuner(paper_fig6_space, synthetic_throughput, seed=0,
                          cost_model=biased_oracle)
        first = tuner.exhaustive()
        second = tuner.simulator_guided()
        # The result still sees every measurement ever made...
        assert second.num_trials == first.num_trials
        # ...but the second report covers only its own (deduplicated) run.
        assert second.report.num_trials == 0
        assert second.report.search_seconds == 0.0
        # ...and earlier results are not rewritten retroactively: the
        # exhaustive run made no predictions, so its trials carry none.
        assert all(t.predicted is None for t in first.trials)


    def test_infinite_estimate_is_pruned(self):
        """A config priced at +inf is pruned, not measured first."""
        odd = {"a": 2, "b": 20}
        tuner = AutoTuner(six_space, rect_throughput, seed=0,
                          cost_model=lambda c: math.inf if c == odd
                          else rect_throughput(c) * 0.9)
        result = tuner.simulator_guided(top_k=2, exploration=0)
        assert odd not in [t.config for t in result.trials]
        assert result.report.num_pruned == 1
        assert result.report.mean_relative_error == pytest.approx(0.1)

    def test_nan_estimate_that_fits_is_pruned(self):
        class NanForOne(CostModel):
            def predict_many(self, configs):
                return [CostEstimate(math.nan if c["a"] == 2 else
                                     float(c["a"] * 100 + c["b"]))
                        for c in configs]

        tuner = AutoTuner(six_space, rect_throughput, seed=0,
                          cost_model=NanForOne())
        result = tuner.simulator_guided(top_k=6, exploration=0)
        assert result.report.num_pruned == 2
        # measured best-predicted first, the NaN-priced configs never
        assert [(t.config["a"], t.config["b"]) for t in result.trials] \
            == [(3, 20), (3, 10), (1, 20), (1, 10)]
        assert result.report.rankers == {"cost_model": 4}


class TestReportBaseline:
    def test_exhaustive_saves_nothing_over_itself(self):
        report = AutoTuner(paper_fig6_space,
                           synthetic_throughput).exhaustive().report
        # The baseline prices OOM configs at their observed fast-fail
        # cost, so an exhaustive run never claims savings over itself.
        assert report.exhaustive_seconds == report.search_seconds
        assert report.seconds_saved == 0.0

    def test_evolutionary_separates_prunes_from_budget_skips(self):
        infeasible = sum(1 for c in AutoTuner(
            paper_fig6_space, synthetic_throughput).configs
            if synthetic_throughput(c) == 0.0)
        tuner = AutoTuner(paper_fig6_space, synthetic_throughput, seed=0,
                          cost_model=biased_oracle)
        report = tuner.evolutionary().report
        # Prunes are cost-model infeasibility verdicts only; feasible
        # configs cut by the prefilter budget are counted as skips.
        assert report.num_pruned <= infeasible
        assert report.num_skipped > 0


class TestNonJsonSpaces:
    class Dtype:
        """A stand-in for non-JSON candidate values (e.g. dtype objects)."""

        def __init__(self, name):
            self.name = name

    FP16, FP32 = Dtype("fp16"), Dtype("fp32")

    def object_space(self, space):
        space.create_symbol("dtype", [self.FP16, self.FP32])
        space.create_symbol("batch", [1, 2, 4])

    def measure(self, config):
        return config["batch"] * (2.0 if config["dtype"] is self.FP16
                                  else 1.0)

    def test_cacheless_tuner_accepts_arbitrary_values(self):
        tuner = AutoTuner(self.object_space, self.measure, seed=0,
                          cost_model=lambda c: self.measure(c) * 0.9)
        assert tuner.exhaustive().best_config["dtype"] is self.FP16
        for strategy in ("coordinate_descent", "simulator_guided",
                         "evolutionary"):
            fresh = AutoTuner(self.object_space, self.measure, seed=0,
                              cost_model=lambda c: self.measure(c) * 0.9)
            result = getattr(fresh, strategy)()
            assert result.best_config is not None


class TestEvolutionary:
    def test_deterministic_under_fixed_seed(self):
        runs = []
        for _ in range(2):
            tuner = AutoTuner(paper_fig6_space, synthetic_throughput, seed=7,
                              cost_model=biased_oracle)
            result = tuner.evolutionary()
            runs.append([config_key(t.config) for t in result.trials])
        assert runs[0] == runs[1]

    def test_different_seeds_explore_differently(self):
        trails = []
        for seed in (0, 1):
            tuner = AutoTuner(paper_fig6_space, synthetic_throughput,
                              seed=seed, cost_model=biased_oracle)
            trails.append([config_key(t.config)
                           for t in tuner.evolutionary().trials])
        assert trails[0] != trails[1]

    def test_near_optimal_on_seed_space(self):
        best = AutoTuner(paper_fig6_space,
                         synthetic_throughput).exhaustive().best_throughput
        tuner = AutoTuner(paper_fig6_space, synthetic_throughput, seed=0,
                          cost_model=biased_oracle)
        result = tuner.evolutionary()
        assert result.best_throughput >= 0.95 * best
        assert result.num_trials < len(tuner.configs)

    def test_works_without_cost_model(self):
        tuner = AutoTuner(paper_fig6_space, synthetic_throughput, seed=0)
        result = tuner.evolutionary(population=6, generations=3)
        assert result.best_config is not None
        assert result.report.num_pruned == 0

    def test_offspring_stay_in_polygon(self):
        tuner = AutoTuner(paper_fig6_space, synthetic_throughput, seed=3,
                          cost_model=biased_oracle)
        result = tuner.evolutionary()
        valid_keys = {config_key(c) for c in tuner.configs}
        assert all(config_key(t.config) in valid_keys
                   for t in result.trials)


class TestTrialCache:
    def test_roundtrip_through_json(self, tmp_path):
        path = tmp_path / "trials.json"
        cache = TrialCache(path)
        cache.put({"batch_size": 104, "ckpt_ratio": 0.5}, 92.16, True)
        cache.put({"batch_size": 176, "ckpt_ratio": 0.25}, 0.0, False)
        cache.save()

        header, *rows = path.read_text().splitlines()
        assert json.loads(header) == {"version": TrialCache.VERSION}
        assert len(rows) == 2
        assert all(set(json.loads(row)) == {"config", "throughput", "valid"}
                   for row in rows)

        reloaded = TrialCache(path)
        assert len(reloaded) == 2
        entry = reloaded.get({"ckpt_ratio": 0.5, "batch_size": 104})
        assert entry["throughput"] == pytest.approx(92.16)
        assert entry["valid"] is True
        assert reloaded.hits == 1

    def test_missing_and_corrupt_files_start_empty(self, tmp_path):
        assert len(TrialCache(tmp_path / "absent.json")) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert len(TrialCache(bad)) == 0
        wrong_version = tmp_path / "old.json"
        wrong_version.write_text(json.dumps({"version": 99, "trials": []}))
        assert len(TrialCache(wrong_version)) == 0

    def test_cache_hits_cost_zero_seconds(self, tmp_path):
        path = tmp_path / "trials.json"
        first = AutoTuner(paper_fig6_space, synthetic_throughput,
                          cache=TrialCache(path)).exhaustive()
        assert first.search_seconds > 0

        calls = []

        def counted(config):
            calls.append(1)
            return synthetic_throughput(config)

        second = AutoTuner(paper_fig6_space, counted,
                           cache=TrialCache(path)).exhaustive()
        assert not calls  # every trial served from the cache
        assert second.search_seconds == 0.0
        assert second.best_config == first.best_config
        assert second.report.num_cache_hits == second.num_trials
        assert second.report.num_measured == 0

    def test_two_live_caches_merge_on_save(self, tmp_path):
        """Lost-update protection: instance B's save keeps A's entries."""
        path = tmp_path / "trials.json"
        a, b = TrialCache(path), TrialCache(path)  # both loaded when empty
        a.put({"x": 1}, 10.0, True)
        a.save()
        b.put({"x": 2}, 20.0, True)
        b.save()  # must fold A's measurement in, not clobber it
        merged = TrialCache(path)
        assert len(merged) == 2
        assert merged.get({"x": 1})["throughput"] == 10.0
        assert merged.get({"x": 2})["throughput"] == 20.0

    def test_rows_are_keyed_by_context(self, tmp_path):
        path = tmp_path / "trials.json"
        config = {"x": 1}
        gpt = {"family": "GPT", "world_size": 8}
        bert = {"family": "BERT", "world_size": 8}
        cache = TrialCache(path)
        cache.put(config, 10.0, True, context=gpt)
        cache.put(config, 20.0, True, context=bert)
        cache.put(config, 30.0, True)
        cache.save()
        for loaded in (cache, TrialCache(path)):
            assert len(loaded) == 3
            assert [(e.get("context"), e["throughput"])
                    for e in loaded.entries()] == \
                [(None, 30.0), (bert, 20.0), (gpt, 10.0)]
            assert loaded.get(config, gpt)["throughput"] == 10.0
            assert loaded.get(config, bert)["throughput"] == 20.0
            assert loaded.get(config)["throughput"] == 30.0
            assert loaded.get(config, {"family": "OPT",
                                       "world_size": 8}) is None
            assert config in loaded
        assert TrialCache(path).get({"x": 2}, gpt) is None

    def test_measure_fn_cannot_rewrite_recorded_configs(self, tmp_path):
        def vandal(config):
            value = 10.0 + config["x"]
            config["x"] = 99
            return value

        def space(space):
            space.create_symbol("x", [0, 1, 2])

        cache = TrialCache(tmp_path / "trials.json")
        result = AutoTuner(space, vandal, cache=cache).exhaustive()
        assert sorted(t.config["x"] for t in result.trials) == [0, 1, 2]
        assert [e["config"] for e in cache.entries()] == \
            [{"x": 0}, {"x": 1}, {"x": 2}]
        assert result.best_config == {"x": 2}

    def test_cache_shared_across_strategies(self, tmp_path):
        path = tmp_path / "trials.json"
        AutoTuner(paper_fig6_space, synthetic_throughput, seed=0,
                  cache=TrialCache(path)).coordinate_descent()
        cache = TrialCache(path)
        tuner = AutoTuner(paper_fig6_space, synthetic_throughput, seed=0,
                          cost_model=biased_oracle, cache=cache)
        result = tuner.simulator_guided()
        assert result.report.num_cache_hits > 0


class TestCoordinateIndex:
    def big_space(self, space):
        space.create_symbol("a", range(10))
        space.create_symbol("b", range(10))
        space.create_symbol("c", range(5))

    def test_500_config_space_needs_no_rescans(self):
        def surface(config):
            return 1.0 + config["a"] + config["b"] - 0.5 * config["c"]

        tuner = AutoTuner(self.big_space, surface, seed=0)
        assert len(tuner.configs) == 500
        tuner.coordinate_descent()
        # Feasibility was consulted many times...
        assert tuner.feasibility_checks > 0
        # ...but never by rescanning the space: the scan count stays a
        # small construction-time constant, far below |space|.
        assert tuner.space_scans < len(tuner.configs)
        assert tuner.space_scans <= 3

    @pytest.mark.parametrize("update", [paper_fig6_space, mesh_space],
                             ids=["fig6", "mesh"])
    def test_candidates_match_bruteforce_scan(self, update):
        tuner = AutoTuner(update, lambda config: 1.0)
        # rows on both sides of pp == 1, where the mesh space's key set
        # changes (num_micro_batches and pipeline_schedule need pp > 1)
        sides = [[c for c in tuner.configs if c.get("pp", 1) == 1],
                 [c for c in tuner.configs if c.get("pp", 1) > 1]]
        rows = [side[i] for side in sides if side
                for i in (0, len(side) // 2, -1)]
        for current in rows:
            for coord in current:
                expected = []
                others = {k: v for k, v in current.items() if k != coord}
                for config in tuner.configs:
                    if config.keys() == current.keys() \
                            and all(config[k] == v
                                    for k, v in others.items()) \
                            and config[coord] not in expected:
                        expected.append(config[coord])
                assert tuner._coordinate_candidates(current, coord) \
                    == expected

    def test_feasibility_matches_membership(self):
        tuner = AutoTuner(paper_fig6_space, synthetic_throughput)
        assert tuner._is_feasible({"batch_size": 104, "ckpt_ratio": 0.5})
        # 1.0 is only a candidate once batch_size >= 120 (polygon edge).
        assert not tuner._is_feasible({"batch_size": 104, "ckpt_ratio": 1.0})
        assert tuner._is_feasible({"batch_size": 120, "ckpt_ratio": 1.0})


class TestSimCostModel:
    @pytest.fixture(scope="class")
    def traced_tiny_bert(self):
        from repro.models import BERT_1B, BertLMHeadModel, data
        from repro.sim import trace_model

        config = BERT_1B.tiny(num_layers=2, hidden_size=64, num_heads=2)
        model = BertLMHeadModel(config, device="meta")
        ids, _ = data.lm_batch(config, 1, device="meta")
        return model, trace_model(model, ids)

    def test_estimates_feasible_config(self, traced_tiny_bert):
        from repro.distributed import P3DN_NODE, ParallelConfig

        cost_model = SimCostModel(
            trace_fn=lambda config: traced_tiny_bert,
            trace_key_fn=lambda config: None,
            cluster=P3DN_NODE,
            parallel=ParallelConfig(dp=8),
        )
        estimate = cost_model.estimate({"batch_size": 64})
        assert estimate.fits
        assert estimate.throughput > 0
        assert estimate.memory_bytes > 0

    def test_flags_oom_config(self, traced_tiny_bert):
        from repro.distributed import P3DN_NODE, ParallelConfig

        cost_model = SimCostModel(
            trace_fn=lambda config: traced_tiny_bert,
            trace_key_fn=lambda config: None,
            cluster=P3DN_NODE,
            parallel=ParallelConfig(dp=8),
        )
        estimate = cost_model.estimate({"micro_batch": 10 ** 7})
        assert not estimate.fits
        assert estimate.throughput == 0.0

    def test_estimates_memoized(self, traced_tiny_bert):
        from repro.distributed import P3DN_NODE, ParallelConfig

        calls = []

        def trace_fn(config):
            calls.append(1)
            return traced_tiny_bert

        cost_model = SimCostModel(
            trace_fn=trace_fn,
            trace_key_fn=lambda config: None,
            cluster=P3DN_NODE,
            parallel=ParallelConfig(dp=8),
        )
        for _ in range(3):
            cost_model.estimate({"batch_size": 64})
        cost_model.estimate({"batch_size": 128})
        assert len(calls) == 1  # one trace served every estimate
        assert cost_model.num_estimates == 2  # distinct configs priced once

    def test_planner_sweep_when_no_batch_coordinate(self, traced_tiny_bert):
        from repro.distributed import P3DN_NODE, ParallelConfig

        cost_model = SimCostModel(
            trace_fn=lambda config: traced_tiny_bert,
            trace_key_fn=lambda config: None,
            cluster=P3DN_NODE,
            parallel=ParallelConfig(),
        )
        estimate = cost_model.estimate({"zero_stage": 0})
        assert estimate.fits and estimate.throughput > 0


class TestPredictConfig:
    def test_matches_throughput_when_feasible(self):
        from repro.distributed import P3DN_NODE, ParallelConfig
        from repro.models import BERT_1B, BertLMHeadModel, data
        from repro.sim import predict_config, throughput, trace_model

        config = BERT_1B.tiny(num_layers=2, hidden_size=64, num_heads=2)
        model = BertLMHeadModel(config, device="meta")
        ids, _ = data.lm_batch(config, 1, device="meta")
        trace = trace_model(model, ids)
        parallel = ParallelConfig()
        prediction = predict_config(trace, model, P3DN_NODE, parallel,
                                    micro_batch=4)
        assert prediction.fits
        assert prediction.throughput == pytest.approx(
            throughput(trace, model, P3DN_NODE, parallel, 4))
        assert prediction.micro_batch == 4
        assert prediction.memory_bytes == prediction.memory.total

    def test_global_batch_derives_micro_batch_count(self):
        from repro.distributed import P3DN_NODE, ParallelConfig
        from repro.models import BERT_1B, BertLMHeadModel, data
        from repro.sim import predict_config, throughput, trace_model

        config = BERT_1B.tiny(num_layers=2, hidden_size=64, num_heads=2)
        model = BertLMHeadModel(config, device="meta")
        ids, _ = data.lm_batch(config, 1, device="meta")
        trace = trace_model(model, ids)
        parallel = ParallelConfig(dp=8)
        # global 512 / (dp 8 × micro 4) = 16 micro-batches per step.
        prediction = predict_config(trace, model, P3DN_NODE, parallel,
                                    micro_batch=4, global_batch=512)
        assert prediction.fits
        assert prediction.throughput == pytest.approx(
            throughput(trace, model, P3DN_NODE, parallel, 4,
                       num_micro_batches=16))
        # Indivisible split is infeasible, not silently mispriced.
        assert not predict_config(trace, model, P3DN_NODE, parallel,
                                  micro_batch=3, global_batch=512).fits
