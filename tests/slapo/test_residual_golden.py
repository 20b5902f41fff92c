"""Golden residual-correction fixture: features, weights and answers stay put.

``data/residual_golden.json`` pins what the learned correction computes
on two corpora — GPT at world 64 and LLaMA-7B at world 128, measured by
a deterministic in-process stand-in (the simulator on a perturbed
cluster times a config-dependent bias):

* ``featurize_many`` matrices over the corpus configs and over edge-case
  configs (non-power-of-two ``micro_batch``/``batch_size``,
  ``ckpt_ratio``, ``placement``, unknown schedules, missing keys), with
  and without the stats/cluster/trace blocks;
* each corpus's fitted ``ResidualCostModel`` weights (``to_json()``);
* the ``in_distribution`` mask, each row's ``ranked_by`` and corrected rate
  over a sample of each pair's feasible plan space;
* one budgeted :class:`~repro.slapo.PlanService` episode: every answer's
  (config, throughput, cost model, measurements), the final cache digest
  and the final corrections' weights.

A refactor of the featurizer, the regressor or the service's correction
path must reproduce every entry bit for bit.  Regenerate (only for an
intended modelling change) with::

    PYTHONPATH=src python tests/slapo/test_residual_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import repro.slapo as slapo
from repro.distributed import ParallelConfig
from repro.models import MODEL_ZOO, data
from repro.schedules import SCHEDULES
from repro.sim import predict_batch, predict_config, trace_model
from repro.sim.memory import model_stats_for
from repro.slapo import PlanRequest, PlanService
from repro.slapo.tuner import ResidualCostModel, TrialCache, featurize_many
from repro.slapo.tuner.cost_model import SimCostModel
from repro.slapo.tuner.space import enumerate_space

GOLDEN = Path(__file__).parent / "data" / "residual_golden.json"
#: (family, world size); each world size belongs to exactly one family,
#: so the stand-in measure recovers the family from tp * dp * pp
PAIRS = (("GPT", 64), ("LLaMA-7B", 128))
FAMILY_OF = {world: family for family, world in PAIRS}
#: a pair's corpus: every STRIDE-th feasible config with a micro-batch
#: of at most CORPUS_MICRO, so larger micro-batches fall outside the
#: trained distribution
STRIDE = 7
CORPUS_MICRO = 2
#: every PROBE_STRIDE-th feasible config is priced by the correction
PROBE_STRIDE = 3
#: budgets of one episode block (each block asks every pair once per
#: budget); the episode is EPISODE_BLOCKS blocks
BUDGETS = (4, 8, 16)
EPISODE_BLOCKS = 2

#: configs that exercise every branch of the config feature block
EDGE_CONFIGS = (
    {},
    {"tp": 3, "dp": 5, "micro_batch": 3, "batch_size": 96,
     "zero_stage": 1},
    {"tp": 2, "micro_batch": 6, "batch_size": 100, "ckpt_ratio": 0.34,
     "placement": "dp,tp,pp"},
    {"pp": 4, "num_micro_batches": 12, "pipeline_schedule": "mystery",
     "placement": "ep,tp"},
    {"ep": 2, "pipeline_schedule": "zb", "overlap_grad_sync": True,
     "overlap_bucket_mb": 12.5, "ckpt_ratio": 1.0},
    {"micro_batch": None, "batch_size": 0, "ckpt_ratio": 0.0,
     "placement": "pp", "pipeline_schedule": "interleaved"},
    {"tp": 1, "dp": 7, "zero_stage": 3, "unknown_key": "ignored",
     "pipeline_schedule": "1f1b", "overlap_grad_sync": False},
)


@functools.lru_cache(maxsize=None)
def family_trace(family: str) -> tuple:
    """Meta-device trace of the family's tiny config."""
    cls, config = MODEL_ZOO[family]
    config = config.tiny()
    model = cls(config, device="meta")
    sch = slapo.create_schedule(model)
    SCHEDULES[family](sch, config, ckpt_ratio=0.0, use_tp=False)
    ids, _ = data.lm_batch(config, 1, device="meta")
    return model, trace_model(model, ids)


def stand_in(config: dict) -> float:
    """Deterministic stand-in for a measured trial (0.0 if it OOMs)."""
    tp, dp, pp = config["tp"], config["dp"], config["pp"]
    model, trace = family_trace(FAMILY_OF[tp * dp * pp])
    base = PlanService._default_cluster(tp * dp * pp)
    cluster = replace(base, intra_node_bandwidth=base.intra_node_bandwidth
                      * 0.8, inter_node_bandwidth=base.inter_node_bandwidth
                      * 0.6, link_latency=base.link_latency * 2)
    prediction = predict_config(
        trace, model, cluster, ParallelConfig(tp=tp, dp=dp, pp=pp),
        config["micro_batch"], zero_stage=config["zero_stage"],
        num_micro_batches=config.get("num_micro_batches", 1))
    if not prediction.fits:
        return 0.0
    bias = (1.0 - 0.05 * math.log2(tp) - 0.04 * math.log2(pp)
            + 0.02 * config["zero_stage"]
            + 0.01 * math.log2(config["micro_batch"]))
    return prediction.throughput * bias


def feasible_space(family: str, world: int) -> list[dict]:
    """The pair's plan space, feasible rows only, in enumeration order."""
    model, trace = family_trace(family)
    configs = enumerate_space(PlanRequest(family, world).space_fn())
    batch = predict_batch(trace, model, PlanService._default_cluster(world),
                          configs,
                          parallel_fn=SimCostModel.parallel_fn(world))
    return [config for config, fits in zip(configs, batch.fits) if fits]


def corpus_configs(family: str, world: int) -> list[dict]:
    return [config for config in feasible_space(family, world)
            if config["micro_batch"] <= CORPUS_MICRO][::STRIDE]


def seeded_cache(path: Path) -> TrialCache:
    """Both pairs' corpora in one cache, tagged with their context."""
    cache = TrialCache(path)
    for family, world in PAIRS:
        for config in corpus_configs(family, world):
            value = stand_in(config)
            cache.put(config, value, value > 0,
                      context={"family": family, "world_size": world})
    return cache


def residual_for(family: str, world: int) -> ResidualCostModel:
    """A fresh correction on the service's pricing basis."""
    model, trace = family_trace(family)
    analytic = SimCostModel(
        lambda _config: (model, trace),
        PlanService._default_cluster(world),
        parallel=SimCostModel.parallel_fn(world),
        trace_key_fn=lambda _config: family, pipeline_cuts=None)
    return ResidualCostModel(analytic)


def cache_digest(cache: TrialCache) -> str:
    text = json.dumps(cache.entries(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def pair_outputs(cache: TrialCache, family: str, world: int) -> dict:
    """Features, fitted weights and corrections for one pair."""
    model, trace = family_trace(family)
    stats = model_stats_for(trace, model)
    cluster = PlanService._default_cluster(world)
    space = feasible_space(family, world)[::PROBE_STRIDE]
    residual = residual_for(family, world)
    fitted = residual.fit_from_cache(
        cache, context={"family": family, "world_size": world})
    # the default featurizer: config, stats and cluster blocks, trace
    # block zeroed
    X = featurize_many(space, stats, cluster)
    estimates = residual.predict_many(space)
    return dict(
        edge_features=featurize_many(list(EDGE_CONFIGS), stats, cluster,
                                     trace).tolist(),
        corpus_features=featurize_many(corpus_configs(family, world),
                                       stats, cluster, trace).tolist(),
        corpus_size=fitted,
        weights=residual.learned.to_json(),
        in_distribution=residual.learned.in_distribution(
            X, margin=residual.ood_margin).tolist(),
        sources=[estimate.ranked_by for estimate in estimates],
        rates=[estimate.throughput for estimate in estimates],
    )


def episode_outputs(path: Path) -> dict:
    """One budgeted PlanService episode over both pairs."""
    requests = [PlanRequest(family, world_size=world, budget=budget)
                for _ in range(EPISODE_BLOCKS) for budget in BUDGETS
                for family, world in PAIRS]
    with PlanService(family_trace, cache=TrialCache(path),
                     measure_fn=stand_in, max_workers=1) as service:
        answers = []
        for request in requests:
            response = service.query(request)
            answers.append(dict(
                config=response.config, throughput=response.throughput,
                cost_model=response.cost_model,
                measurements=[list(m) for m in response.measurements],
                num_measured=response.num_measured,
                num_cache_hits=response.num_cache_hits))
        corrections = {f"{family}@{world}": residual.learned.to_json()
                       for (family, world), (_, residual)
                       in sorted(service._corrections.items())}
    return dict(answers=answers, cache_digest=cache_digest(service.cache),
                corrections=corrections)


def outputs(workdir: Path) -> dict:
    cache = seeded_cache(workdir / "corpus.json")
    golden = dict(
        plain_edge_features=featurize_many(list(EDGE_CONFIGS), None,
                                           None).tolist(),
        pairs={f"{family}@{world}": pair_outputs(cache, family, world)
               for family, world in PAIRS},
        episode=episode_outputs(workdir / "episode.json"),
    )
    # JSON round trip: tuples become lists, floats keep every bit
    return json.loads(json.dumps(golden))


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("residual_golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_fixture_exercises_the_correction(golden):
    for name, pair in golden["pairs"].items():
        assert pair["corpus_size"] >= 8, name
        assert "residual" in pair["sources"], name
        assert "analytic" in pair["sources"], name
    kinds = {answer["cost_model"] for answer in golden["episode"]["answers"]}
    assert kinds == {"analytic", "residual"}


def test_plain_features(computed, golden):
    assert computed["plain_edge_features"] == golden["plain_edge_features"]


@pytest.mark.parametrize("pair", [f"{f}@{w}" for f, w in PAIRS])
@pytest.mark.parametrize("entry", ["edge_features", "corpus_features",
                                   "corpus_size", "weights",
                                   "in_distribution", "sources", "rates"])
def test_pair_entry(computed, golden, pair, entry):
    assert computed["pairs"][pair][entry] == golden["pairs"][pair][entry]


def test_service_episode_answers(computed, golden):
    got, want = computed["episode"]["answers"], golden["episode"]["answers"]
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"answer {k}"


def test_service_episode_cache_and_weights(computed, golden):
    assert computed["episode"]["cache_digest"] == \
        golden["episode"]["cache_digest"]
    assert computed["episode"]["corrections"] == \
        golden["episode"]["corrections"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        result = outputs(Path(workdir))
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
