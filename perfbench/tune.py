"""``tune_budgeted``: budgeted ``PlanService`` queries, one client.

Budgets cycle 4/8/16 through each block; seeded blocks each ask every
(family, world size, budget) request once.  The timed window
replays one episode of ``EPISODE_BLOCKS`` blocks again and again, each
time on a fresh service, pool and on-disk ``TrialCache``: the first
block mostly measures and writes, later ones mostly read, and every
episode must leave identical cache contents.  Learned refits stay on,
and trials run in a 2-worker ``MeasurementPool``.

Trials call :func:`stand_in_throughput`: the simulator on a perturbed
cluster times a config-dependent bias.  It is deterministic and nearly
free, so the run's time stays in the service's write path (trials,
cache writes and saves, refits); it claims nothing about how accurate
any model is.  The measure function sees only the config, so each world
size is paired with exactly one family and the family is recovered from
``tp * dp * pp``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.distributed import ParallelConfig
from repro.sim import predict_config
from repro.slapo import PlanRequest, PlanService
from repro.slapo.tuner import MeasurementPool, ResidualCostModel, TrialCache

from .common import (
    Outcome,
    SpeedProbe,
    end_to_end,
    median,
    ms,
    overhead_pct,
)
from .plan import (
    MAKE_PROGRAM,
    Query,
    TraceRegistry,
    answer_fits,
    cluster_for,
    issue,
    reset_process_caches,
    service_layer_metrics,
    service_probes,
)
from .tracer import Probe, Tracer, installed, maybe_span

SIZES = {
    "full": dict(pairs=((64, "GPT"), (32, "BERT"), (128, "LLaMA-7B"),
                        (16, "OPT")),
                 budgets=(4, 8, 16), setup_reps=3),
    "tiny": dict(pairs=((16, "GPT"), (8, "BERT")), budgets=(2, 4),
                 setup_reps=2),
}
WORKERS = 2
#: blocks per episode: the first block mostly measures and writes, the
#: second mostly reads, so an episode holds both in a fixed proportion
EPISODE_BLOCKS = 2


def stand_in_throughput(registry: TraceRegistry, families: dict,
                        config: dict) -> float:
    """Deterministic stand-in for a measured trial (0.0 if it OOMs)."""
    tp, dp, pp = config["tp"], config["dp"], config["pp"]
    model, trace = registry(families[tp * dp * pp])
    base = cluster_for(tp * dp * pp)
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


def distinct_requests(size: str) -> list[PlanRequest]:
    spec = SIZES[size]
    return [PlanRequest(family, world_size=world, budget=budget)
            for world, family in spec["pairs"] for budget in spec["budgets"]]


def query_blocks(seed: int, size: str):
    """Endless seeded blocks of queries.  A block asks every (pair,
    budget) request once: the budget steps through 4, 8, 16 (one third
    of the block each), and each third visits the pairs in the block's
    seeded order, so every pair is tuned progressively with a growing
    budget and its trials are split alike whatever the seed."""
    spec = SIZES[size]
    pairs, budgets = spec["pairs"], spec["budgets"]
    rng = np.random.default_rng([seed, 5])
    while True:
        order = [pairs[int(i)] for i in rng.permutation(len(pairs))]
        yield [PlanRequest(family, world_size=world, budget=budget)
               for budget in budgets for world, family in order]


def cold_order(seed: int, size: str) -> list[PlanRequest]:
    requests = distinct_requests(size)
    rng = np.random.default_rng([seed, 6])
    return [requests[i] for i in rng.permutation(len(requests))]


def check_answer(query: Query) -> str | None:
    """The answer fits, is the best valid measured row, and cache hits
    plus measured trials cover every candidate."""
    problem = answer_fits(query)
    if problem:
        return problem
    response, request = query.response, query.request
    candidates = min(request.budget, response.num_feasible)
    if response.num_cache_hits + response.num_measured != candidates:
        return (f"{request}: {response.num_cache_hits} hits + "
                f"{response.num_measured} measured != {candidates}")
    valid = [m for m in response.measurements if m[2]]
    if not valid:
        return f"{request}: no valid measurement"
    config, rate, _ = max(valid, key=lambda m: m[1])
    if response.config != config or response.throughput != rate:
        return f"{request}: answer is not the best measured row"
    return None


def cache_digest(cache: TrialCache) -> str:
    text = json.dumps(cache.entries(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def open_service(registry: TraceRegistry, size: str, path: Path
                 ) -> PlanService:
    families = {world: family for world, family in SIZES[size]["pairs"]}
    pool = MeasurementPool(
        functools.partial(stand_in_throughput, registry, families),
        num_workers=WORKERS, trial_timeout=60.0)
    return PlanService(registry, cache=TrialCache(path), measure_fn=pool,
                       max_workers=1, learned=True)


def tune_probes() -> list[Probe]:
    def note_hit(span, args, result):
        span.meta["hit"] = result is not None

    def note_trials(span, args, result):
        span.meta["trials"] = len(result)
        span.meta["lost"] = sum(r.lost for r in result)

    return [
        Probe(ResidualCostModel, "fit_from_cache", "learned.fit"),
        Probe(ResidualCostModel, "predict_many", "learned.predict_many"),
        Probe(TrialCache, "get", "cache.get", on_return=note_hit),
        Probe(TrialCache, "put", "cache.put"),
        Probe(TrialCache, "save", "cache.save"),
        Probe(MeasurementPool, "run", "workers.run", on_return=note_trials),
    ]


def run(seed: int, seconds: float, trace: bool, size: str,
        workdir: Path) -> tuple[Outcome, Tracer | None]:
    """One run; cache files go under ``workdir``."""
    spec = SIZES[size]
    tracer = Tracer() if trace else None
    answers: dict = {}
    probes = service_probes(answers) + tune_probes()
    out = Outcome()

    setup_times, programs, digests = [], [], []
    probe = SpeedProbe()
    for rep in range(spec["setup_reps"]):
        reset_process_caches()
        with (installed(tracer, probes) if tracer else nullcontext()), \
                maybe_span(tracer, "service.setup", rep):
            start = time.perf_counter()
            registry = TraceRegistry(tracer)
            with open_service(registry, size,
                              workdir / f"setup-{rep}.json") as service:
                cold = [issue(service, request, tracer, ("setup", rep))
                        for request in cold_order(seed, size)]
            elapsed = time.perf_counter() - start
        setup_times.append((elapsed, probe.sample()))
        programs.append(MAKE_PROGRAM.cache_info().currsize)
        digests.append(cache_digest(service.cache))
        out.attempted += len(cold)
        for query in cold:
            problem = check_answer(query)
            if problem:
                out.fail(f"setup {rep}: {problem}")
        if digests[-1] != digests[0]:
            out.fail(f"setup {rep}: cache contents {digests[-1]} differ "
                     f"from set-up 0's {digests[0]}")

    # -- the timed window: whole episodes, each from a fresh cache ------ #
    stream = query_blocks(seed, size)
    episode = [request for _ in range(EPISODE_BLOCKS)
               for request in next(stream)]
    queries: list[Query] = []
    samples, trials, window_digests = [], [], []
    since = time.perf_counter()
    number = 0
    while time.perf_counter() < since + seconds or number < 2:
        traced = tracer is not None and number % 2 == 1
        path = workdir / f"window-{number}.json"
        with (installed(tracer, probes) if traced else nullcontext()), \
                open_service(registry, size, path) as service:
            for position, request in enumerate(episode):
                query = issue(service, request, tracer if traced else None,
                              (number, position))
                queries.append(query)
                samples.append((position, query.latency, traced,
                                probe.sample()))
                if query.response is not None and number == 0:
                    trials += [config for config, _, _ in
                               query.response.measurements[
                                   query.response.num_cache_hits:]]
        window_digests.append(cache_digest(service.cache))
        cache_kb = path.stat().st_size / 1024
        number += 1
    out.attempted += len(queries)
    for query in queries:
        problem = check_answer(query)
        if problem:
            out.fail(problem)
    for number, digest in enumerate(window_digests):
        if digest != window_digests[0]:
            out.fail(f"episode {number}: cache contents {digest} differ "
                     f"from episode 0's {window_digests[0]}")

    trial_text = json.dumps(trials, sort_keys=True).encode()
    out.info.update(queries=len(queries), episodes=number,
                    trials_per_episode=len(trials),
                    setup_cache_digest=digests[0],
                    window_cache_digest=window_digests[0],
                    trial_digest=hashlib.sha256(trial_text).hexdigest()[:16],
                    programs_built=programs[0])
    if tracer is None:
        out.metrics = end_to_end(
            setup_times, [(t, 1, i) for _, t, _, i in samples],
            [(k, t, i) for k, t, _, i in samples], probe, out.info)
    else:
        out.metrics = service_layer_metrics(tracer, queries, answers,
                                            since, programs)
        out.metrics.update(_write_path_metrics(tracer, queries, since))
        out.metrics["cache.file_kb"] = cache_kb
        out.metrics["trace.overhead_pct"] = overhead_pct(
            [(k, t, traced) for k, t, traced, _ in samples])
    return out, tracer


def _write_path_metrics(tracer: Tracer, queries: list[Query], since: float
                        ) -> dict:
    def per_call(name):
        return ms(median(s.duration for s in tracer.named(name, since)))

    traced = max(1, sum(q.traced for q in queries))
    gets = tracer.named("cache.get", since)
    runs = tracer.named("workers.run", since)
    trials = sum(s.meta["trials"] for s in runs)
    return {
        "learned.fit_ms": per_call("learned.fit"),
        "learned.refits": len(tracer.named("learned.fit", since)) / traced,
        "learned.predict_many_ms": per_call("learned.predict_many"),
        "cache.get_ms": per_call("cache.get"),
        "cache.put_ms": per_call("cache.put"),
        "cache.save_ms": per_call("cache.save"),
        "cache.hit_ratio": sum(s.meta["hit"] for s in gets) / max(len(gets), 1),
        "workers.run_ms": per_call("workers.run"),
        "workers.trials": trials / traced,
        "workers.lost_frac": sum(s.meta["lost"] for s in runs) / max(trials, 1),
    }
