"""``overlap_bucket_mb`` is validated once, by the shared step composition.

A bucket of 0, -1 or NaN MiB is not a size: ``step_time`` raises a
``ValueError`` naming the argument, while the planners — scalar
``predict_config`` and columnar ``predict_batch``, the tuner's oracles,
which never raise mid-sweep — report that row infeasible, and agree.
``+inf`` stays valid: one bucket, fully exposed.
"""

import math

import pytest

from repro.distributed import ParallelConfig, p3dn_cluster
from repro.models import MODEL_ZOO, data
from repro.sim import (
    BatchPoints,
    predict_batch,
    predict_config,
    step_time,
    trace_model,
)
from repro.slapo.tuner import SimCostModel

CLUSTER = p3dn_cluster(2)
PARALLEL = ParallelConfig(tp=2, dp=8)
INVALID = (0, 0.0, -1.0, math.nan, -math.inf)


@pytest.fixture(scope="module")
def gpt():
    cls, config = MODEL_ZOO["GPT"]
    config = config.tiny()
    model = cls(config, device="meta")
    ids, _ = data.lm_batch(config, 1, 8, device="meta")
    return model, trace_model(model, ids)


def rows(bucket_mb, zero_stage=0, micro_batch=2):
    return [dict(parallel=PARALLEL, micro_batch=micro_batch,
                 zero_stage=zero_stage, overlap_grad_sync=overlap,
                 overlap_bucket_mb=bucket_mb)
            for overlap in (True, False)]


@pytest.mark.parametrize("bucket_mb", INVALID)
class TestInvalidBucket:
    def test_step_time_raises(self, gpt, bucket_mb):
        model, trace = gpt
        for overlap in (True, False):
            with pytest.raises(ValueError, match="overlap_bucket_mb"):
                step_time(trace, model, CLUSTER, PARALLEL, 2,
                          overlap_grad_sync=overlap,
                          overlap_bucket_mb=bucket_mb)

    @pytest.mark.parametrize("zero_stage", (0, 3))
    @pytest.mark.parametrize("micro_batch", (2, None))
    def test_both_planners_report_infeasible(self, gpt, bucket_mb,
                                             zero_stage, micro_batch):
        model, trace = gpt
        configs = rows(bucket_mb, zero_stage, micro_batch)
        batch = predict_batch(trace, model, CLUSTER, configs)
        for i, config in enumerate(configs):
            scalar = predict_config(trace, model, CLUSTER, **config)
            for pred in (scalar, batch.prediction(i)):
                assert not pred.fits and pred.throughput == 0.0, config
                assert pred.memory is None, config
        assert not batch.fits.any()
        assert (batch.throughput == 0.0).all()

    def test_columnar_points_report_infeasible(self, gpt, bucket_mb):
        model, trace = gpt
        points = BatchPoints(tp=[2, 2], dp=[8, 8], pp=[1, 1], ep=[1, 1],
                             micro_batch=[2, 2], overlap=[True, False],
                             bucket_mb=[bucket_mb, 25.0])
        batch = predict_batch(trace, model, CLUSTER, points)
        assert batch.fits.tolist() == [False, True]
        assert batch.throughput[0] == 0.0 and batch.throughput[1] > 0

    def test_cost_model_oracle_does_not_raise(self, gpt, bucket_mb):
        model, trace = gpt
        cost = SimCostModel(lambda config: (model, trace), CLUSTER,
                            parallel=PARALLEL, pipeline_cuts=None)
        config = dict(micro_batch=2, overlap_grad_sync=True,
                      overlap_bucket_mb=bucket_mb)
        assert not cost.estimate(config).fits
        fresh = SimCostModel(lambda config: (model, trace), CLUSTER,
                             parallel=PARALLEL, pipeline_cuts=None)
        assert not fresh.predict_many([config])[0].fits


class TestInfiniteBucket:
    @pytest.mark.parametrize("zero_stage", (0, 3))
    def test_one_bucket_fully_exposed(self, gpt, zero_stage):
        model, trace = gpt
        one = step_time(trace, model, CLUSTER, PARALLEL, 2, zero_stage,
                        overlap_grad_sync=True, overlap_bucket_mb=math.inf)
        huge = step_time(trace, model, CLUSTER, PARALLEL, 2, zero_stage,
                         overlap_grad_sync=True, overlap_bucket_mb=1e9)
        # an infinite bucket prices like any bucket that holds every
        # gradient: nothing of the gradient collective hides
        for name, value in {**huge.components(),
                            **huge.hidden_components()}.items():
            assert getattr(one, name) == pytest.approx(value, rel=1e-12)
        assert one.dp_comm_hidden == 0.0
        assert min(one.hidden_components().values()) >= 0.0

    @pytest.mark.parametrize("micro_batch", (2, None))
    def test_both_planners_agree(self, gpt, micro_batch):
        model, trace = gpt
        configs = rows(math.inf, micro_batch=micro_batch)
        batch = predict_batch(trace, model, CLUSTER, configs)
        for i, config in enumerate(configs):
            scalar = predict_config(trace, model, CLUSTER, **config)
            assert scalar.fits and scalar.throughput > 0
            assert batch.fits[i]
            assert batch.throughput[i] == scalar.throughput
            assert batch.memory_total[i] == scalar.memory_bytes
