"""The plan service's columnar spaces against the define-by-run oracle.

``PlanService`` builds each space shape straight as columns
(``factorization_columns``); ``enumerate_space(request.space_fn())`` is
the oracle.  Rows, their order (planners break ties by it) and their
dicts must match it exactly, and so must the ``BatchPoints`` and the
feature block the service memoizes next to them.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.slapo as slapo
from repro.models import MODEL_ZOO, data
from repro.schedules import SCHEDULES
from repro.sim import BatchPoints, trace_model
from repro.sim.memory import model_stats_for
from repro.slapo import PlanRequest, PlanService
from repro.slapo.tuner import SimCostModel, featurize_many
from repro.slapo.tuner.learned import (
    CONFIG_FEATURE_NAMES,
    FEATURE_NAMES,
    config_features,
    feature_matrix,
)
from repro.slapo.tuner.space import enumerate_space

worlds = st.one_of(st.integers(1, 1024), st.sampled_from([12, 24, 96, 100]))
bounds = st.one_of(st.none(), st.integers(1, 8))
micro_menus = st.one_of(st.sampled_from([(1, 2, 4, 8), (1, 2, 4)]),
                        st.lists(st.integers(1, 16), min_size=1, max_size=4))
zero_menus = st.one_of(st.sampled_from([(0, 1, 3)]),
                       st.lists(st.sampled_from([0, 1, 2, 3]), min_size=1,
                                max_size=4))


@functools.lru_cache(maxsize=None)
def gpt_stats():
    cls, config = MODEL_ZOO["GPT"]
    config = config.tiny()
    model = cls(config, device="meta")
    SCHEDULES["GPT"](slapo.create_schedule(model), config, ckpt_ratio=0.0,
                     use_tp=False)
    ids, _ = data.lm_batch(config, 1, device="meta")
    return model_stats_for(trace_model(model, ids), model)


@pytest.fixture(scope="module")
def service():
    with PlanService(trace_fn=None, max_workers=1) as service:
        yield service


@settings(max_examples=40, deadline=None)
@given(world=worlds, max_tp=bounds, max_pp=bounds, micro=micro_menus,
       zero=zero_menus)
def test_columns_match_the_define_by_run_oracle(service, world, max_tp,
                                                max_pp, micro, zero):
    request = PlanRequest("GPT", world_size=world, max_tp=max_tp,
                          max_pp=max_pp, micro_batches=micro,
                          zero_stages=zero)
    oracle = enumerate_space(request.space_fn())
    shape = service._space(request)

    configs = [shape.columns.config(i) for i in range(len(shape.columns))]
    assert [list(c.items()) for c in configs] == \
        [list(c.items()) for c in oracle]

    lowered = BatchPoints.from_configs(
        oracle, parallel_fn=SimCostModel.parallel_fn(world))
    for field in dataclasses.fields(BatchPoints):
        got = getattr(shape.points, field.name)
        want = getattr(lowered, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert np.array_equal(got, want), field.name
        else:
            assert got == want, field.name

    cluster = PlanService._default_cluster(world)
    assert feature_matrix(shape.features, gpt_stats(), cluster).tobytes() \
        == featurize_many(oracle, gpt_stats(), cluster).tobytes()


def test_feature_core_accepts_no_rows():
    empty = np.zeros(0, np.int64)
    assert config_features(0).shape == (0, len(CONFIG_FEATURE_NAMES))
    block = config_features(0, tp=empty, micro_batch=empty,
                            pipeline_schedule=np.array([], dtype=str))
    assert block.shape == (0, len(CONFIG_FEATURE_NAMES))
    assert featurize_many([], gpt_stats(), None).shape == \
        (0, len(FEATURE_NAMES))
