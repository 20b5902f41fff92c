"""`BatchPoints` owns validated, read-only columns, and `predict_batch`
keeps per points and per trace only what does not depend on the rows'
prices.

* malformed columns raise a `ValueError` naming the column;
* no caller can change a built `BatchPoints`, nor its cached groups;
* a warm call (points and tables built) does row formulas only: no
  `np.unique`, no `mesh_terms`, no expressibility check, two memo
  lookups and no memo write;
* the per-trace tables never leak between traces, clusters or cost
  models, and equal clusters share one entry.
"""

import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest

from repro.distributed import ParallelConfig, p3dn_cluster
from repro.models import MODEL_ZOO, data
from repro.sim import (BatchPoints, KernelCostModel, predict_batch,
                       predict_config, trace_model)
from repro.sim import batch as batch_module
from repro.slapo.tuner.space import factorization_columns

CLUSTER = p3dn_cluster(2)
OUTPUTS = ("throughput", "fits", "memory_total", "micro_batch",
           "num_micro_batches")


def fresh_trace(family):
    cls, config = MODEL_ZOO[family]
    config = config.tiny()
    model = cls(config, device="meta")
    ids, _ = data.lm_batch(config, 1, 8, device="meta")
    return model, trace_model(model, ids)


def space_columns() -> dict:
    """Writeable columns of a 16-GPU space: many meshes, three micro
    sizes, three ZeRO stages, pipelined rows with several (pp, m)."""
    columns = factorization_columns(16, zero_stages=(0, 1, 3),
                                    micro_batches=(1, 2, 4))
    out = {name: np.array(value) for name, value in vars(columns).items()}
    out["ep"] = np.ones(len(columns), np.int64)
    return out


def assert_same(got, want):
    for name in OUTPUTS:
        assert getattr(got, name).tobytes() == \
            getattr(want, name).tobytes(), name


def one_row(**overrides) -> dict:
    row = dict(tp=[1], dp=[2], pp=[1], ep=[1], micro_batch=[2])
    row.update(overrides)
    return row


class TestMalformedColumns:
    @pytest.mark.parametrize("name", ["dp", "pp", "ep", "micro_batch",
                                      "num_micro_batches", "zero_stage",
                                      "place", "overlap", "bucket_mb",
                                      "invalid"])
    def test_length_mismatch_names_the_column(self, name):
        columns = dict(tp=[1, 2, 4], dp=[2, 2, 2], pp=[1, 1, 1],
                       ep=[1, 1, 1], micro_batch=[1, 1, 1])
        columns[name] = [1]
        with pytest.raises(ValueError, match=f"BatchPoints.{name} has 1 "):
            BatchPoints(**columns)

    def test_per_row_schedules_must_match_the_rows(self):
        with pytest.raises(ValueError, match="BatchPoints.schedules"):
            BatchPoints(**one_row(), schedules=["1f1b", "gpipe"])

    @pytest.mark.parametrize("name", ["tp", "dp", "pp", "ep", "micro_batch",
                                      "num_micro_batches", "zero_stage",
                                      "place"])
    @pytest.mark.parametrize("value", [2.5, float("nan"), float("inf")])
    def test_non_integral_values_name_the_column(self, name, value):
        with pytest.raises(ValueError, match=f"BatchPoints.{name} must "
                                             f"hold integers"):
            BatchPoints(**one_row(**{name: [value]}))

    def test_shapes_and_placements_are_checked(self):
        with pytest.raises(ValueError, match="BatchPoints.tp must be 1-D"):
            BatchPoints(**one_row(tp=[[1]]))
        with pytest.raises(ValueError, match="BatchPoints.micro_batch must "
                                             "be 1-D"):
            BatchPoints(**one_row(micro_batch=2))
        with pytest.raises(ValueError, match="BatchPoints.dp must hold "
                                             "numbers"):
            BatchPoints(**one_row(dp=["two"]))
        with pytest.raises(ValueError, match="BatchPoints.place"):
            BatchPoints(**one_row(place=[24]))

    def test_fractional_configs_price_as_predict_config(self):
        model, trace = fresh_trace("GPT")
        configs = [{"dp": 2, "micro_batch": 2.5},
                   {"dp": 2, "pp": 2, "micro_batch": 2,
                    "num_micro_batches": 2.5}]
        batch = predict_batch(trace, model, CLUSTER, configs)
        assert batch.num_fallback == 2
        for i, config in enumerate(configs):
            want = predict_config(
                trace, model, CLUSTER,
                ParallelConfig(dp=2, pp=config.get("pp", 1)),
                config["micro_batch"],
                num_micro_batches=config.get("num_micro_batches", 1))
            assert batch.prediction(i) == want
            assert batch.throughput[i] == want.throughput > 0

    def test_integral_floats_price_as_integers(self):
        model, trace = fresh_trace("GPT")
        floats = predict_batch(trace, model, CLUSTER, BatchPoints(
            **one_row(tp=[1.0], dp=[2.0], micro_batch=[2.0])))
        ints = predict_batch(trace, model, CLUSTER, BatchPoints(**one_row()))
        assert_same(floats, ints)
        assert floats.throughput[0] > 0


class TestOwnership:
    def test_source_arrays_do_not_reach_the_points(self):
        model, trace = fresh_trace("GPT")
        source = space_columns()
        points = BatchPoints(**source)
        want = predict_batch(trace, model, CLUSTER,
                             BatchPoints(**space_columns()))
        for column in source.values():
            column[:] = 64
        for name, column in space_columns().items():
            assert np.array_equal(getattr(points, name), column), name
        assert_same(predict_batch(trace, model, CLUSTER, points), want)

    def test_columns_and_groups_are_read_only(self):
        model, trace = fresh_trace("GPT")
        points = BatchPoints(**space_columns())
        predict_batch(trace, model, CLUSTER, points)
        arrays = [getattr(points, f.name)
                  for f in dataclasses.fields(BatchPoints)
                  if isinstance(getattr(points, f.name), np.ndarray)]
        arrays += [*points.mesh_groups[1:], *points.micro_groups[1:],
                   points.early]
        assert len(arrays) == 16
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            points.tp = np.zeros(len(points), np.int64)

    def test_read_only_input_is_shared_and_views_are_copied(self):
        tp = np.array([1, 2], np.int64)
        tp.flags.writeable = False
        base = np.array([1, 2], np.int64)
        view = base[:]
        view.flags.writeable = False
        points = BatchPoints(tp=tp, dp=view, pp=[1, 1], ep=[1, 1],
                             micro_batch=[1, 1])
        assert points.tp is tp
        base[:] = 8
        assert points.dp.tolist() == [1, 2]

    def test_outputs_are_fresh_arrays(self):
        model, trace = fresh_trace("GPT")
        points = BatchPoints(**space_columns())
        first = predict_batch(trace, model, CLUSTER, points)
        second = predict_batch(trace, model, CLUSTER, points)
        for name in OUTPUTS:
            got = getattr(second, name)
            assert got.flags.writeable, name
            assert not np.shares_memory(got, getattr(first, name)), name
            assert not np.shares_memory(got, points.micro_batch), name


class CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.gets = self.sets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)

    def __setitem__(self, key, value):
        self.sets += 1
        super().__setitem__(key, value)


@pytest.fixture
def counted(monkeypatch):
    """Call counts of the once-per-distinct-value work."""
    counts = dict.fromkeys(("unique", "mesh_terms", "expressible"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "unique", counting("unique", np.unique))
    monkeypatch.setattr(batch_module, "mesh_terms",
                        counting("mesh_terms", batch_module.mesh_terms))
    monkeypatch.setattr(batch_module, "_schedule_expressible",
                        counting("expressible",
                                 batch_module._schedule_expressible))
    return counts


class TestMemo:
    def test_warm_call_does_row_work_only(self, counted):
        model, trace = fresh_trace("GPT")
        compiled = trace.compiled()
        compiled._time_cache = memo = CountingDict(compiled._time_cache)
        points = BatchPoints(**space_columns())
        cold = predict_batch(trace, model, CLUSTER, points)
        assert counted["unique"] and counted["mesh_terms"] \
            and counted["expressible"] and memo.sets

        for name in counted:
            counted[name] = 0
        memo.gets = memo.sets = 0
        warm = predict_batch(trace, model, CLUSTER, points)
        assert counted == dict(unique=0, mesh_terms=0, expressible=0)
        assert (memo.gets, memo.sets) == (2, 0)
        assert_same(warm, cold)

        # fresh points of the same shape regroup their rows, but find
        # the trace's tables
        for name in counted:
            counted[name] = 0
        fresh = predict_batch(trace, model, CLUSTER,
                              BatchPoints(**space_columns()))
        assert counted["unique"] and not counted["mesh_terms"]
        assert memo.sets == 0
        assert_same(fresh, cold)

    def test_interleaved_contexts_match_fresh_pricing(self):
        columns = space_columns()
        points = BatchPoints(**columns)
        traces = {family: fresh_trace(family) for family in ("GPT", "BERT")}
        clusters = (CLUSTER, dataclasses.replace(
            CLUSTER, inter_node_bandwidth=CLUSTER.inter_node_bandwidth / 4))
        costs = (None, KernelCostModel(CLUSTER.gpu, gemm_eff_fp16=0.4,
                                       hbm_eff=0.6))
        contexts = list(itertools.product(traces, range(2), range(2)))
        order = [contexts[i] for i in
                 np.random.default_rng(0).permutation(len(contexts))]
        got = {}
        for context in order + order[::-1]:
            family, c, k = context
            model, trace = traces[family]
            got.setdefault(context, []).append(predict_batch(
                trace, model, clusters[c], points, cost_model=costs[k]))
        for (family, c, k), answers in got.items():
            model, trace = fresh_trace(family)
            want = predict_batch(trace, model, clusters[c],
                                 BatchPoints(**space_columns()),
                                 cost_model=costs[k])
            for answer in answers:
                assert_same(answer, want)
        # every axis of the context changes some answer
        for a, b in ((("GPT", 0, 0), ("BERT", 0, 0)),
                     (("GPT", 0, 0), ("GPT", 1, 0)),
                     (("GPT", 0, 0), ("GPT", 0, 1))):
            assert not np.array_equal(got[a][0].throughput,
                                      got[b][0].throughput)

    def test_racing_threads_get_the_serial_answers(self):
        """Threads pricing one cold points on one cold trace race to
        build its groups and tables; every answer is still the serial
        one."""
        clusters = (CLUSTER, dataclasses.replace(
            CLUSTER, inter_node_bandwidth=CLUSTER.inter_node_bandwidth / 4))
        want = []
        for cluster in clusters:
            model, trace = fresh_trace("GPT")
            want.append(predict_batch(trace, model, cluster,
                                      BatchPoints(**space_columns())))
        model, trace = fresh_trace("GPT")
        points = BatchPoints(**space_columns())
        results, errors = [], []
        gate = threading.Barrier(8)

        def worker(k):
            try:
                gate.wait(timeout=30)
                for r in range(4):
                    c = (k + r) % 2
                    results.append((c, predict_batch(trace, model,
                                                     clusters[c], points)))
            except BaseException as err:  # noqa: BLE001 - reported below
                errors.append(err)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(results) == 32
        for c, got in results:
            assert_same(got, want[c])

    def test_equal_clusters_share_one_entry(self, counted):
        model, trace = fresh_trace("GPT")
        points = BatchPoints(**space_columns())
        first = predict_batch(trace, model, CLUSTER, points)
        entries = len(trace.compiled()._time_cache)
        twin = dataclasses.replace(CLUSTER)
        assert twin == CLUSTER and twin is not CLUSTER
        counted["mesh_terms"] = 0
        assert_same(predict_batch(trace, model, twin, points), first)
        assert counted["mesh_terms"] == 0
        assert len(trace.compiled()._time_cache) == entries
