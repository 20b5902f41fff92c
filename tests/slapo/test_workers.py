"""Worker-pool robustness: crashes and hangs cost one trial, not the run.

The acceptance shape: a tuning run with an injected worker crash and an
injected hang completes, returns the *same best config* as a clean run,
and loses only the affected trials — with `TuneReport` counts that say
so.  Results must be deterministic and independent of worker count.
"""

import math
import os
import threading
import time

import pytest

from repro.slapo.tuner import (
    AutoTuner,
    MeasurementPool,
    MeasureResult,
    TrialCache,
)

CRASH_X = 3    # evaluate() hard-kills its worker process
HANG_X = 5     # evaluate() sleeps past the trial timeout
SPACE = list(range(10))


def update_space(space):
    space.create_symbol("x", SPACE)


def faulty_evaluate(config):
    x = config["x"]
    if x == CRASH_X:
        os._exit(42)
    if x == HANG_X:
        time.sleep(60)
    return 10.0 + x


def clean_evaluate(config):
    return 10.0 + config["x"]


def make_pool(num_workers):
    return MeasurementPool(faulty_evaluate, num_workers=num_workers,
                          trial_timeout=2.0)


RAISE_X = 7    # raising_evaluate() raises in the worker


def raising_evaluate(config):
    if config["x"] == RAISE_X:
        raise RuntimeError("launch failed")
    return 10.0 + config["x"]


def non_finite_evaluate(config):
    return {8: math.inf, 9: math.nan}.get(config["x"], 10.0 + config["x"])


@pytest.mark.slow
class TestPoolRobustness:
    def test_crash_and_hang_cost_one_trial_each(self):
        with make_pool(num_workers=3) as pool:
            results = pool.run([{"x": x} for x in SPACE])
        assert len(results) == len(SPACE)
        by_x = {r.config["x"]: r for r in results}
        assert by_x[CRASH_X].lost and "crash" in by_x[CRASH_X].error
        assert by_x[HANG_X].lost and "timed out" in by_x[HANG_X].error
        for x in SPACE:
            if x in (CRASH_X, HANG_X):
                continue
            assert not by_x[x].lost
            assert by_x[x].throughput == 10.0 + x
        # one worker died per injected fault
        assert pool.workers_lost == 2

    def test_results_deterministic_across_worker_counts(self):
        outcomes = []
        for workers in (1, 2, 4):
            with make_pool(workers) as pool:
                results = pool.run([{"x": x} for x in SPACE])
            outcomes.append([(r.config["x"], r.throughput, r.lost)
                             for r in results])
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_pool_reusable_after_losses(self):
        with make_pool(num_workers=2) as pool:
            first = pool.run([{"x": CRASH_X}, {"x": HANG_X}])
            assert all(r.lost for r in first)
            second = pool.run([{"x": 0}, {"x": 1}])
            assert [r.throughput for r in second] == [10.0, 11.0]

    def test_in_process_error_is_isolated_without_killing_worker(self):
        def raising(config):
            if config["x"] == 0:
                raise RuntimeError("boom")
            return 1.0

        with MeasurementPool(raising, num_workers=1,
                             trial_timeout=5.0) as pool:
            results = pool.run([{"x": 0}, {"x": 1}])
        assert results[0].lost and "boom" in results[0].error
        assert results[1].throughput == 1.0
        assert pool.workers_lost == 0  # the worker survived the exception

    def test_one_pool_shared_by_two_threads(self):
        def slow(config):
            time.sleep(0.02)
            return 10.0 + config["x"]

        batches = {"a": [{"x": x} for x in range(6)],
                   "b": [{"x": x} for x in range(100, 106)]}
        results, errors = {}, []
        barrier = threading.Barrier(2)

        def client(name):
            try:
                barrier.wait(timeout=10)
                results[name] = pool.run(batches[name])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        with MeasurementPool(slow, num_workers=2, trial_timeout=10.0) as pool:
            threads = [threading.Thread(target=client, args=(name,),
                                        daemon=True) for name in batches]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for name, configs in batches.items():
            got = results[name]
            assert [r.index for r in got] == list(range(len(configs)))
            assert [r.config for r in got] == configs
            assert [r.throughput for r in got] == \
                [10.0 + c["x"] for c in configs]
            assert not any(r.lost for r in got)


@pytest.mark.slow
class TestTunerWithPool:
    def test_same_best_config_as_clean_run(self, tmp_path):
        clean = AutoTuner(update_space, clean_evaluate)
        clean_result = clean.exhaustive()

        cache = TrialCache(tmp_path / "trials.json")
        with make_pool(num_workers=2) as pool:
            tuner = AutoTuner(update_space, pool, cache=cache)
            result = tuner.exhaustive()

        assert result.best_config == clean_result.best_config
        assert result.best_throughput == clean_result.best_throughput
        report = result.report
        assert report.num_trials == len(SPACE)
        assert report.num_lost == 2
        assert report.num_measured == len(SPACE)
        # lost trials are forfeited, not poisoned: neither memoized ...
        lost = [t for t in result.trials if t.lost]
        assert {t.config["x"] for t in lost} == {CRASH_X, HANG_X}
        assert all(not t.valid and t.throughput == 0.0 for t in lost)
        # ... nor written to the persistent cache
        assert {"x": CRASH_X} not in cache
        assert {"x": HANG_X} not in cache
        assert {"x": 0} in cache

    def test_lost_trials_remeasured_on_next_run(self, tmp_path):
        cache = TrialCache(tmp_path / "trials.json")
        with make_pool(num_workers=2) as pool:
            tuner = AutoTuner(update_space, pool, cache=cache)
            tuner.exhaustive()
        # second, clean run over the same cache: only the two lost
        # configs still need measuring, and the run completes fully
        rerun = AutoTuner(update_space, clean_evaluate, cache=cache)
        result = rerun.exhaustive()
        assert result.report.num_cache_hits == len(SPACE) - 2
        assert result.report.num_measured == 2
        assert result.report.num_lost == 0
        assert all(t.valid for t in result.trials)

    def test_simulator_guided_with_pool(self):
        """Pool trials flow through prediction bookkeeping unchanged."""
        predictions = {x: 10.0 + x for x in SPACE}
        with make_pool(num_workers=2) as pool:
            tuner = AutoTuner(
                update_space, pool,
                cost_model=lambda config: predictions[config["x"]])
            result = tuner.simulator_guided(top_k=len(SPACE))
        assert result.best_config == {"x": max(
            x for x in SPACE if x not in (CRASH_X, HANG_X))}
        measured = [t for t in result.trials if not t.lost]
        assert all(t.predicted is not None for t in measured)

    def test_coordinate_descent_goes_through_the_pool(self, tmp_path):
        """A raising config costs one lost trial, not the run, for every
        start the seed picks."""
        cache = TrialCache(tmp_path / "trials.json")
        with MeasurementPool(raising_evaluate, num_workers=1,
                             trial_timeout=10.0) as pool:
            for seed in range(3):
                tuner = AutoTuner(update_space, pool, seed=seed, cache=cache)
                result = tuner.coordinate_descent()
                lost = [t for t in result.trials if t.lost]
                assert lost
                assert all(t.config == {"x": RAISE_X} for t in lost)
                assert all("launch failed" in t.error for t in lost)
                assert result.best_config == {"x": max(SPACE)}
        assert {"x": RAISE_X} not in cache


class TestNonFiniteMeasurements:
    """inf and NaN are recorded lost: never cached, never a winner."""

    def check(self, result, cache, path):
        by_x = {t.config["x"]: t for t in result.trials}
        assert by_x[8].lost and "inf" in by_x[8].error
        assert by_x[9].lost and "nan" in by_x[9].error
        assert not by_x[8].valid and not by_x[9].valid
        assert result.best_throughput == 10.0 + 7
        assert result.report.num_lost == 2
        assert {"x": 8} not in cache and {"x": 9} not in cache
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text

    def test_callable(self, tmp_path):
        path = tmp_path / "trials.json"
        cache = TrialCache(path)
        result = AutoTuner(update_space, non_finite_evaluate,
                           cache=cache).exhaustive()
        self.check(result, cache, path)

    @pytest.mark.slow
    def test_pool(self, tmp_path):
        path = tmp_path / "trials.json"
        cache = TrialCache(path)
        with MeasurementPool(non_finite_evaluate, num_workers=2,
                             trial_timeout=10.0) as pool:
            result = AutoTuner(update_space, pool, cache=cache).exhaustive()
        self.check(result, cache, path)
