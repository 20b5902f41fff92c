"""plan_service: concurrent queries, coalescing, trace and trial reuse."""

import functools
import math
import threading
import time

import numpy as np
import pytest

import repro.slapo as slapo
from repro.distributed import p3dn_cluster
from repro.models import MODEL_ZOO, data
from repro.schedules import SCHEDULES
from repro.sim import predict_batch, predict_config, trace_model
from repro.slapo import PlanRequest, PlanService, plan_service
from repro.slapo.tuner import MeasurementPool, SimCostModel, TrialCache
from repro.slapo.tuner.space import enumerate_space


def gpt_trace(family):
    cls, config = MODEL_ZOO[family]
    config = config.tiny()
    model = cls(config, device="meta")
    sch = slapo.create_schedule(model)
    SCHEDULES[family](sch, config, ckpt_ratio=0.0, use_tp=False)
    ids, _ = data.lm_batch(config, 1, device="meta")
    return model, trace_model(model, ids)


class TestPlanQueries:
    def test_predict_only_answer(self):
        with plan_service(gpt_trace) as service:
            response = service.query(PlanRequest("GPT", world_size=16))
        assert response.config is not None
        assert response.throughput > 0
        assert response.predicted
        assert response.num_feasible > 0
        assert response.space_size >= response.num_feasible
        # the plan resolves to a real mesh over the requested world size
        config = response.config
        assert config.get("tp", 1) * config.get("dp", 1) * \
            config.get("pp", 1) == 16

    def test_distinct_requests_get_distinct_answers(self):
        with plan_service(gpt_trace) as service:
            a = service.query(PlanRequest("GPT", world_size=8))
            b = service.query(PlanRequest("GPT", world_size=16))
        assert a.request != b.request
        assert a.config.get("dp", 1) * a.config.get("tp", 1) * \
            a.config.get("pp", 1) == 8
        assert service.traces_built == 1  # family trace shared

    def test_infeasible_space_returns_none(self):
        import dataclasses
        from repro.distributed import p3dn_cluster
        base = p3dn_cluster(1)
        tiny_gpu = dataclasses.replace(
            base.gpu, memory_capacity=base.gpu.memory_reserved)
        starved = dataclasses.replace(base, gpu=tiny_gpu)
        with plan_service(gpt_trace,
                          cluster_fn=lambda ws: starved) as service:
            response = service.query(PlanRequest("GPT", world_size=8))
        assert response.config is None
        assert response.num_feasible == 0
        assert response.throughput == 0.0


class TestRequestValidation:
    def test_list_menus_are_coerced_to_hashable_tuples(self):
        request = PlanRequest("GPT", world_size=8, micro_batches=[1, 2],
                              zero_stages=[0, np.int64(3)])
        assert request.micro_batches == (1, 2)
        assert request.zero_stages == (0, 3)
        assert all(type(v) is int for v in request.zero_stages)
        assert request == PlanRequest("GPT", world_size=8,
                                      micro_batches=(1, 2),
                                      zero_stages=(0, 3))
        hash(request)  # usable as a coalescing / memo key

    def test_non_integer_menu_rejected(self):
        with pytest.raises(TypeError, match="micro_batches"):
            PlanRequest("GPT", world_size=8, micro_batches=(1, 2.5))

    @pytest.mark.parametrize("world_size", [0, -8])
    def test_non_positive_world_size(self, world_size):
        with pytest.raises(ValueError, match="world_size"):
            PlanRequest("GPT", world_size=world_size)

    def test_negative_budget(self):
        with pytest.raises(ValueError, match="budget"):
            PlanRequest("GPT", world_size=8, budget=-1)

    def test_empty_micro_batch_menu(self):
        with pytest.raises(ValueError, match="micro_batches"):
            PlanRequest("GPT", world_size=8, micro_batches=())

    @pytest.mark.parametrize("menu", [(0,), (1, 2, -4)])
    def test_non_positive_micro_batch(self, menu):
        with pytest.raises(ValueError, match="micro_batches"):
            PlanRequest("GPT", world_size=8, micro_batches=menu)

    @pytest.mark.parametrize("stages", [(0, 4), (-1,), ()])
    def test_zero_stage_outside_menu(self, stages):
        with pytest.raises(ValueError, match="zero_stages"):
            PlanRequest("GPT", world_size=8, zero_stages=stages)

    @pytest.mark.parametrize("field", ["max_tp", "max_pp"])
    def test_mesh_bound_below_one(self, field):
        with pytest.raises(ValueError, match=field):
            PlanRequest("GPT", world_size=8, **{field: 0})


def family_trace(family):
    """Any MODEL_ZOO family, traced unscheduled on the meta device."""
    cls, config = MODEL_ZOO[family]
    config = config.tiny()
    model = cls(config, device="meta")
    if family == "WideResNet":
        images, _ = data.image_batch(config, 1, device="meta")
        args = (images,)
    elif family == "T5":
        src, tgt, _ = data.seq2seq_batch(config, 1, 8, 6, device="meta")
        args = (src, tgt)
    else:
        ids, _ = data.lm_batch(config, 1, 8, device="meta")
        args = (ids,)
    return model, trace_model(model, *args)


#: a ``trace_fn`` that traces each family once per test session
cached_trace = functools.lru_cache(maxsize=None)(family_trace)


def reference_answer(request, model, trace):
    """(config, throughput) by the dict-input ranking the service used
    before it memoized spaces, plus the best scalar ``predict_config``
    throughput over the same space."""
    configs = enumerate_space(request.space_fn())
    cluster = PlanService._default_cluster(request.world_size)
    parallel_fn = SimCostModel.parallel_fn(request.world_size)
    batch = predict_batch(trace, model, cluster, configs,
                          parallel_fn=parallel_fn)
    order = sorted(range(len(configs)),
                   key=lambda i: (-batch.throughput[i], i))
    best = next(i for i in order if batch.fits[i])

    def scalar(config):
        prediction = predict_config(
            trace, model, cluster, parallel_fn(config),
            config["micro_batch"], zero_stage=config["zero_stage"],
            num_micro_batches=config.get("num_micro_batches", 1))
        return prediction.throughput if prediction.fits else 0.0

    return configs[best], max(scalar(c) for c in configs)


class TestSpaceMemo:
    @pytest.mark.parametrize("family", sorted(MODEL_ZOO))
    def test_answers_match_scalar_sweep(self, family):
        model, trace = cached_trace(family)
        with plan_service(cached_trace) as service:
            for world in (8, 16, 32):
                request = PlanRequest(family, world_size=world)
                response = service.query(request)
                config, best = reference_answer(request, model, trace)
                assert response.config == config
                assert math.isclose(response.throughput, best,
                                    rel_tol=1e-9)

    def test_one_enumeration_per_shape(self):
        with plan_service(cached_trace) as service:
            for _ in range(2):
                for family in ("GPT", "BERT", "OPT"):
                    service.query(PlanRequest(family, world_size=16))
                    service.query(PlanRequest(family, world_size=16,
                                              micro_batches=[1, 2]))
        assert service.spaces_built == 2
        assert service.traces_built == 3

    def test_racing_threads_build_a_cold_shape_once(self, monkeypatch):
        import sys

        from repro.slapo import service as service_module

        calls = []
        original = service_module.enumerate_space

        def slow_enumerate(update_fn):
            calls.append(1)
            time.sleep(0.02)  # hold the build open while others arrive
            return original(update_fn)

        monkeypatch.setattr(service_module, "enumerate_space",
                            slow_enumerate)
        service = PlanService(cached_trace, max_workers=2)
        shapes = [PlanRequest(family, world_size=world)
                  for family in ("GPT", "BERT") for world in (8, 16)]
        racers = 8  # more threads than cores
        barrier = threading.Barrier(racers)
        seen = [[] for _ in range(racers)]

        def racer(k):
            barrier.wait(timeout=30)
            for step in range(20):
                request = shapes[(k + step) % len(shapes)]
                seen[k].append((request.space_key, service._space(request)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=racer, args=(k,))
                       for k in range(racers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert not any(thread.is_alive() for thread in threads)
        # GPT and BERT share each world's shape: two shapes, two builds
        assert len(calls) == service.spaces_built == 2
        entries = {}
        for key, entry in (pair for row in seen for pair in row):
            assert entries.setdefault(key, entry) is entry
        assert len(entries) == 2

    def test_memoized_arrays_are_read_only(self):
        with plan_service(cached_trace) as service:
            service.query(PlanRequest("GPT", world_size=8))
            configs, points = service._space(PlanRequest("GPT", world_size=8))
        assert isinstance(configs, tuple)
        columns = [v for v in vars(points).values()
                   if isinstance(v, np.ndarray)]
        assert columns
        for column in columns:
            assert not column.flags.writeable
        with pytest.raises(ValueError):
            points.micro_batch[0] = 99

    def test_memo_is_bounded(self, monkeypatch):
        from repro.slapo import service as service_module

        monkeypatch.setattr(service_module, "_SPACE_MEMO_SIZE", 2)
        with plan_service(cached_trace) as service:
            for world in (8, 16, 32, 8):
                service.query(PlanRequest("GPT", world_size=world))
        # 8 was evicted by 32 and had to be rebuilt
        assert service.spaces_built == 4
        assert len(service._spaces) == 2

    def test_mutating_measure_fn_cannot_change_later_answers(self, tmp_path):
        def vandal(config):
            value = 50.0 + config["micro_batch"]
            config["micro_batch"] = 999
            config["tp"] = -1
            return value

        request = PlanRequest("GPT", world_size=8, budget=3)
        with plan_service(cached_trace) as clean:
            predicted = clean.query(PlanRequest("GPT", world_size=8))
        cache = TrialCache(tmp_path / "trials.json")
        with plan_service(cached_trace, cache=cache, measure_fn=vandal,
                          learned=False) as service:
            first = service.query(request)
            again = service.query(PlanRequest("GPT", world_size=8))
            configs, _ = service._space(request)
        assert all(c["micro_batch"] != 999 for c in configs)
        assert all(m[0]["micro_batch"] != 999 for m in first.measurements)
        assert first.config["micro_batch"] != 999
        assert again.config == predicted.config
        assert all(e["config"]["micro_batch"] != 999
                   for e in cache.entries())


@pytest.mark.slow
class TestCoalescing:
    def test_identical_inflight_queries_share_one_future(self):
        gate = threading.Event()

        def gated(family):
            gate.wait(timeout=30)
            return gpt_trace(family)

        with plan_service(gated, max_workers=4) as service:
            request = PlanRequest("GPT", world_size=16)
            futures = [service.submit(request) for _ in range(8)]
            gate.set()
            responses = [f.result() for f in futures]
        # one shared future → one shared response object, one trace
        assert all(f is futures[0] for f in futures[1:])
        assert all(r is responses[0] for r in responses)
        assert service.coalesced == 7
        assert service.traces_built == 1

    def test_coalescing_is_per_request_key(self):
        with plan_service(gpt_trace, max_workers=2) as service:
            a = service.submit(PlanRequest("GPT", world_size=8))
            b = service.submit(PlanRequest("GPT", world_size=16))
            assert a is not b
            a.result(), b.result()
        assert service.coalesced == 0

    def test_completed_requests_do_not_coalesce(self):
        """Coalescing is for in-flight queries only; a finished request
        is re-answered (and re-priced) on the next submission."""
        with plan_service(gpt_trace) as service:
            first = service.query(PlanRequest("GPT", world_size=8))
            second = service.query(PlanRequest("GPT", world_size=8))
        assert service.coalesced == 0
        assert first is not second
        assert first.config == second.config
        assert first.throughput == second.throughput

    def test_concurrent_distinct_queries(self):
        requests = [PlanRequest("GPT", world_size=ws, budget=0)
                    for ws in (8, 16, 24, 32)]
        with plan_service(gpt_trace, max_workers=4) as service:
            responses = [f.result()
                         for f in [service.submit(r) for r in requests]]
        assert service.traces_built == 1
        for request, response in zip(requests, responses):
            assert response.request is request
            assert response.config is not None


@pytest.mark.slow
class TestBudgetedQueries:
    def test_budget_measures_top_predictions(self, tmp_path):
        cache = TrialCache(tmp_path / "trials.json")
        measured = []

        def measure(config):
            measured.append(dict(config))
            return 50.0 + config["micro_batch"]

        with plan_service(gpt_trace, cache=cache,
                          measure_fn=measure) as service:
            response = service.query(
                PlanRequest("GPT", world_size=8, budget=4))
        assert not response.predicted
        assert response.num_measured == 4 == len(measured)
        assert response.config in [m[0] for m in response.measurements]
        # measurements are durable: an identical query is free
        with plan_service(gpt_trace, cache=cache,
                          measure_fn=measure) as service:
            again = service.query(
                PlanRequest("GPT", world_size=8, budget=4))
        assert again.num_cache_hits == 4
        assert again.num_measured == 0
        assert len(measured) == 4
        assert again.config == response.config

    def test_budget_through_measurement_pool_survives_crash(self, tmp_path):
        import os

        with plan_service(gpt_trace) as service:
            best_predicted = service.query(
                PlanRequest("GPT", world_size=8)).config

        def crashy(config):
            if config == best_predicted:
                os._exit(42)  # best predicted config crashes its worker
            return 50.0 + config["micro_batch"]

        cache = TrialCache(tmp_path / "trials.json")
        pool = MeasurementPool(crashy, num_workers=2, trial_timeout=5.0)
        with plan_service(gpt_trace, cache=cache,
                          measure_fn=pool) as service:
            response = service.query(
                PlanRequest("GPT", world_size=8, budget=4))
        # the crash forfeits one candidate; the query still answers
        # from the surviving measurements
        assert not response.predicted
        assert response.num_measured == 3
        assert response.config is not None
        assert pool.workers_lost == 1
