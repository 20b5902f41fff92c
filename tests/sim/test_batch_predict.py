"""`predict_batch` against `predict_config` on every config of a real
enumerated space, for every MODEL_ZOO family.

Both planners call the same step-time formulas (`mesh_terms`,
`stage_time`, `compose_step`, `model_memory`); the golden fixture
`test_step_time_golden.py` pins their numbers.  This grid checks what the
batch planner decides on its own:

* row routing: rows priced by the vectorized path and rows sent to the
  `predict_config` fallback (non-default pipeline schedules) both get the
  scalar planner's verdict, throughput and memory;
* the early verdicts: a schedule no point can express (the unknown
  name "zero-bubble") and — on a memory-starved cluster — the OOM
  branch;
* the `BatchPrediction` surface, down to an empty batch.
"""

import dataclasses

import pytest

import repro.slapo as slapo
from repro.distributed import DeviceMesh, ParallelConfig, p3dn_cluster
from repro.models import MODEL_ZOO, data
from repro.sim import BatchPoints, predict_batch, predict_config, trace_model
from repro.slapo.tuner import SimCostModel
from repro.slapo.tuner.space import enumerate_space, parallelism_symbols

WORLD_SIZE = 16
CLUSTER = p3dn_cluster(2)


def starved_cluster(trace, model, configs, parallel_fn):
    """A cluster whose usable memory sits at the space's median demand,
    so roughly half the configs OOM — both verdicts get exercised."""
    import numpy as np
    batch = predict_batch(trace, model, CLUSTER, configs,
                          parallel_fn=parallel_fn)
    priced = batch.memory_total[batch.memory_total > 0]
    median = float(np.median(priced))
    gpu = dataclasses.replace(
        CLUSTER.gpu, memory_capacity=CLUSTER.gpu.memory_reserved + median)
    return dataclasses.replace(CLUSTER, gpu=gpu)


def family_trace(family):
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


def moe_trace(ep):
    """An expert-sharded MoE trace so the ep axis carries real traffic."""
    cls, base = MODEL_ZOO["MoE-GPT"]
    config = base.tiny(num_heads=4, hidden_size=32, intermediate_size=64)
    model = cls(config, device="meta")
    mesh = DeviceMesh(ParallelConfig(ep=ep), rank=0, sim=True)
    sch = slapo.create_schedule(model, mesh=mesh)
    from repro.schedules import schedule_moe_gpt
    schedule_moe_gpt(sch, config)
    built = slapo.build(sch).model
    ids, _ = data.lm_batch(config, 1, device="meta")
    return built, trace_model(built, ids)


def space_configs(max_ep=None):
    def update(space):
        parallelism_symbols(
            space, WORLD_SIZE, max_tp=8, max_pp=8, max_ep=max_ep,
            pipeline_schedules=["1f1b", "gpipe", "interleaved",
                                "zero-bubble"])
        space.create_symbol("zero_stage", [0, 1, 3])
        space.create_symbol("micro_batch", [1, 4, 16])
    return enumerate_space(update)


def assert_batch_matches_scalar(trace, model, cluster, configs,
                                parallel_fn):
    batch = predict_batch(trace, model, cluster, configs,
                          parallel_fn=parallel_fn)
    assert len(batch) == len(configs)
    fits_seen = {True: 0, False: 0}
    for i, config in enumerate(configs):
        try:
            parallel = parallel_fn(config)
        except ValueError:
            parallel = None
        got = batch.prediction(i)
        if parallel is None:
            assert not got.fits and got.throughput == 0.0
            continue
        want = predict_config(
            trace, model, cluster, parallel, config.get("micro_batch"),
            zero_stage=config.get("zero_stage", 0),
            num_micro_batches=config.get("num_micro_batches", 1),
            pipeline_schedule=config.get("pipeline_schedule", "1f1b"))
        fits_seen[want.fits] += 1
        assert got.fits == want.fits, (config, got, want)
        assert got.throughput == pytest.approx(want.throughput,
                                               abs=1e-9), config
        assert (got.memory is None) == (want.memory is None), config
        if want.memory is not None:
            assert got.memory.total == want.memory.total, config
    return batch, fits_seen


DENSE_FAMILIES = ["BERT", "RoBERTa", "GPT", "OPT", "T5", "WideResNet",
                  "GPT-10B", "LLaMA-7B", "OPT-350M"]


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("family", DENSE_FAMILIES)
    def test_family_full_space(self, family):
        model, trace = family_trace(family)
        configs = space_configs()
        parallel_fn = SimCostModel.parallel_fn(WORLD_SIZE)
        batch, fits = assert_batch_matches_scalar(
            trace, model, CLUSTER, configs, parallel_fn)
        # the space covers both row classes of the batch planner
        assert batch.num_vectorized > 0
        assert batch.num_fallback > 0

    @pytest.mark.parametrize("family", ["GPT", "BERT"])
    def test_family_non_fits_on_starved_cluster(self, family):
        """Both feasibility verdicts must appear and must agree."""
        model, trace = family_trace(family)
        configs = space_configs()
        parallel_fn = SimCostModel.parallel_fn(WORLD_SIZE)
        starved = starved_cluster(trace, model, configs, parallel_fn)
        _, fits = assert_batch_matches_scalar(
            trace, model, starved, configs, parallel_fn)
        assert fits[True] > 0 and fits[False] > 0

    def test_moe_family_with_ep_axis(self):
        model, trace = moe_trace(ep=2)
        configs = space_configs(max_ep=4)
        assert any(c.get("ep", 1) > 1 for c in configs)
        parallel_fn = SimCostModel.parallel_fn(WORLD_SIZE)
        assert_batch_matches_scalar(trace, model, CLUSTER, configs,
                                    parallel_fn)


class TestBatchPredictionSurface:
    def test_best_index_and_predictions(self):
        model, trace = family_trace("GPT")
        configs = space_configs()
        parallel_fn = SimCostModel.parallel_fn(WORLD_SIZE)
        batch = predict_batch(trace, model, CLUSTER, configs,
                              parallel_fn=parallel_fn)
        best = batch.best_index()
        assert best is not None and batch.fits[best]
        assert batch.throughput[best] == max(
            p.throughput for p in batch.predictions() if p.fits)
        assert batch.num_feasible == sum(1 for p in batch.predictions()
                                         if p.fits)

    def test_nothing_fits_best_index_none(self):
        model, trace = family_trace("GPT")
        # usable memory of exactly zero: nothing can fit
        nothing = dataclasses.replace(
            CLUSTER, gpu=dataclasses.replace(
                CLUSTER.gpu, memory_capacity=CLUSTER.gpu.memory_reserved))
        configs = [{"tp": 1, "dp": 1, "micro_batch": 64}]
        batch = predict_batch(trace, model, nothing, configs)
        assert batch.best_index() is None
        assert batch.num_feasible == 0

    @pytest.mark.parametrize("build", ["from_configs", "columns"])
    def test_empty_batch(self, build):
        model, trace = family_trace("GPT")
        points = BatchPoints.from_configs([]) if build == "from_configs" \
            else BatchPoints(tp=[], dp=[], pp=[], ep=[], micro_batch=[])
        batch = predict_batch(trace, model, CLUSTER, points)
        assert len(batch) == 0 and batch.num_feasible == 0
        assert batch.best_index() is None and batch.predictions() == []

    def test_columnar_points_match_mapping_input(self):
        """The zero-per-row-Python fast path answers identically."""
        model, trace = family_trace("GPT")
        parallel_fn = SimCostModel.parallel_fn(WORLD_SIZE)

        def update(space):
            parallelism_symbols(space, WORLD_SIZE, max_tp=8, max_pp=8)
            space.create_symbol("zero_stage", [0, 1, 3])
            space.create_symbol("micro_batch", [1, 4, 16])

        configs = enumerate_space(update)
        points = BatchPoints.from_configs(configs, parallel_fn=parallel_fn)
        assert not points.scalar_rows  # fully vectorizable space
        from_maps = predict_batch(trace, model, CLUSTER, configs,
                                  parallel_fn=parallel_fn)
        from_cols = predict_batch(trace, model, CLUSTER, points)
        assert (from_maps.throughput == from_cols.throughput).all()
        assert (from_maps.fits == from_cols.fits).all()
        assert (from_maps.memory_total == from_cols.memory_total).all()
