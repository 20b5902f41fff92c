"""Pipeline parallelism as a tuner coordinate.

The search space can factor the mesh (``parallelism_symbols``), the
``SimCostModel`` resolves tp/dp/pp coordinates (``parallel_fn``) and
prices pipelined configs stage-accurately, and unfillable pipelines are
pruned for free.
"""

import pytest

import repro.slapo as slapo
from repro.distributed import P3DN_NODE, ParallelConfig
from repro.models import MODEL_ZOO, data
from repro.schedules import SCHEDULES
from repro.sim import trace_model
from repro.pipeline import DEFAULT_SCHEDULE, SCHEDULE_NAMES
from repro.slapo.tuner import (
    AutoTuner,
    SimCostModel,
    enumerate_space,
    parallelism_symbols,
)


class TestParallelismSymbols:
    def test_enumerates_exact_factorizations(self):
        def update(space):
            parallelism_symbols(space, 8)

        configs = enumerate_space(update)
        meshes = {(c["tp"], c.get("dp", 1), c["pp"]) for c in configs}
        expected = {(tp, dp, pp)
                    for tp in (1, 2, 4, 8)
                    for dp in (1, 2, 4, 8)
                    for pp in (1, 2, 4, 8)
                    if tp * dp * pp == 8}
        assert meshes == expected

    def test_pipelined_branches_carry_micro_batch_counts(self):
        def update(space):
            parallelism_symbols(space, 8)

        configs = enumerate_space(update)
        for config in configs:
            if config["pp"] > 1:
                assert config["num_micro_batches"] % config["pp"] == 0
                assert config["num_micro_batches"] >= config["pp"]
            else:
                assert "num_micro_batches" not in config

    def test_max_caps_respected(self):
        def update(space):
            parallelism_symbols(space, 16, max_tp=8, max_pp=2)

        for config in enumerate_space(update):
            assert config["tp"] <= 8
            assert config["pp"] <= 2
            assert config["tp"] * config.get("dp", 1) * config["pp"] == 16


class TestParallelFn:
    def test_resolves_full_and_partial_axes(self):
        fn = SimCostModel.parallel_fn(8)
        assert fn({"tp": 2, "pp": 2}) == ParallelConfig(tp=2, dp=2, pp=2)
        assert fn({"tp": 8}) == ParallelConfig(tp=8, dp=1, pp=1)
        assert fn({}) == ParallelConfig(tp=1, dp=8, pp=1)
        assert fn({"tp": 2, "dp": 2, "pp": 2}) == \
            ParallelConfig(tp=2, dp=2, pp=2)

    def test_invalid_factorization_raises(self):
        fn = SimCostModel.parallel_fn(8)
        with pytest.raises(ValueError):
            fn({"tp": 3})
        with pytest.raises(ValueError):
            fn({"tp": 4, "dp": 4, "pp": 4})


@pytest.fixture(scope="module")
def gpt_cost_model():
    cls, config = MODEL_ZOO["GPT"]

    def trace_fn(_config):
        model = cls(config, device="meta")
        sch = slapo.create_schedule(model)
        SCHEDULES["GPT"](sch, config, ckpt_ratio=0.0, use_tp=False)
        ids, _ = data.lm_batch(config, 1, device="meta")
        return model, trace_model(model, ids)

    return SimCostModel(
        trace_fn, P3DN_NODE,
        parallel=SimCostModel.parallel_fn(8),
        trace_key_fn=lambda config: "shared",  # one trace serves all
    )


class TestSimCostModelPipelineAxis:
    def test_pp_coordinate_is_priced(self, gpt_cost_model):
        estimate = gpt_cost_model.estimate(
            {"tp": 4, "pp": 2, "micro_batch": 1, "num_micro_batches": 8})
        assert estimate.fits
        assert estimate.throughput > 0

    def test_unfillable_pipeline_pruned_for_free(self, gpt_cost_model):
        estimate = gpt_cost_model.estimate(
            {"tp": 2, "pp": 4, "micro_batch": 1, "num_micro_batches": 2})
        assert not estimate.fits
        assert estimate.throughput == 0.0

    def test_invalid_mesh_is_infeasible_not_fatal(self, gpt_cost_model):
        estimate = gpt_cost_model.estimate({"tp": 3, "micro_batch": 1})
        assert not estimate.fits

    def test_num_micro_batches_coordinate_changes_prediction(
            self, gpt_cost_model):
        few = gpt_cost_model.estimate(
            {"tp": 4, "pp": 2, "micro_batch": 1, "num_micro_batches": 2})
        many = gpt_cost_model.estimate(
            {"tp": 4, "pp": 2, "micro_batch": 1, "num_micro_batches": 16})
        assert few.fits and many.fits
        # more micro-batches shrink the bubble → higher throughput
        assert many.throughput > few.throughput


class TestJointScheduleSearch:
    """pipeline_schedule as a fourth joint coordinate (pp × m × cuts ×
    schedule), and the acceptance criterion: the tuner picks a
    non-default schedule on its own."""

    def test_schedule_symbol_only_on_pipelined_branches(self):
        def update(space):
            parallelism_symbols(space, 8,
                                pipeline_schedules=SCHEDULE_NAMES)

        configs = enumerate_space(update)
        for config in configs:
            if config["pp"] > 1:
                assert config["pipeline_schedule"] in SCHEDULE_NAMES
            else:
                assert "pipeline_schedule" not in config
        pipelined = {c["pipeline_schedule"] for c in configs
                     if c["pp"] > 1}
        assert pipelined == set(SCHEDULE_NAMES)

    def test_default_space_is_unchanged(self):
        """Without the opt-in the symbol must not appear — existing
        spaces and their cached trials keep their exact shape."""
        def update(space):
            parallelism_symbols(space, 8)

        assert all("pipeline_schedule" not in c
                   for c in enumerate_space(update))

    def test_schedule_coordinate_changes_prediction(self, gpt_cost_model):
        base = {"tp": 4, "pp": 2, "micro_batch": 1,
                "num_micro_batches": 8}
        default = gpt_cost_model.estimate(base)
        zb = gpt_cost_model.estimate(
            dict(base, pipeline_schedule="zb"))
        assert default.fits and zb.fits
        assert zb.throughput > default.throughput

    def test_inexpressible_schedule_is_pruned_not_fatal(self,
                                                        gpt_cost_model):
        # m = 6 is not divisible by pp = 4 → interleaved cannot run
        estimate = gpt_cost_model.estimate(
            {"tp": 2, "pp": 4, "micro_batch": 1, "num_micro_batches": 6,
             "pipeline_schedule": "interleaved"})
        assert not estimate.fits
        assert estimate.throughput == 0.0

    def test_tuner_selects_non_default_schedule(self, gpt_cost_model):
        """Acceptance: the joint exhaustive search lands on a pipelined
        mesh with a non-1F1B schedule (zb/interleaved fill the bubble at
        no extra cost, so a plain 1F1B winner would be a pricing bug)."""
        def update(space):
            parallelism_symbols(space, 8,
                                pipeline_schedules=SCHEDULE_NAMES)
            space.create_symbol("micro_batch", [1, 2])

        tuner = AutoTuner(
            update,
            lambda config: gpt_cost_model.estimate(config).throughput)
        result = tuner.exhaustive()
        best = result.best_config
        assert best is not None and best["pp"] > 1
        assert best.get("pipeline_schedule",
                        DEFAULT_SCHEDULE) != DEFAULT_SCHEDULE
