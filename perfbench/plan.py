"""``plan_predict``: prediction-only ``PlanService`` queries, 2 clients.

Each run replays one seeded round (:func:`request_round`) again and
again: every distinct request once, plus one request per world size
issued by both clients at once, so in-flight coalescing sees hits and
misses.  Two closed-loop client threads issue the round pair by pair
(:class:`PairedClients`); the window ends at the first round boundary
after ``seconds``.

The service plumbing here (trace builds, probes, per-layer summary) is
shared with :mod:`perfbench.tune`.
"""

from __future__ import annotations

import gc
import math
import sys
import threading
import time
import traceback
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass

import numpy as np

import repro.slapo as slapo
from repro.distributed import p3dn_cluster
from repro.models import MODEL_ZOO, data
from repro.pipeline import generators
from repro.schedules import SCHEDULES
from repro.sim import BatchPoints, planner, predict_config, trace_model
from repro.slapo import PlanRequest, PlanService
from repro.slapo import service as service_module
from repro.slapo.tuner import SimCostModel, enumerate_space

from .common import (
    Outcome,
    SpeedProbe,
    end_to_end,
    median,
    ms,
    overhead_pct,
)
from .tracer import Probe, Tracer, installed, maybe_span

FAMILIES = ("GPT", "BERT", "LLaMA-7B", "OPT")
MICRO_BATCHES = ((1, 2, 4, 8), (1, 2, 4))
SIZES = {
    "full": dict(families=FAMILIES, worlds=(32, 128, 256), setup_reps=2,
                 check_samples=3),
    "tiny": dict(families=FAMILIES[:2], worlds=(8, 16), setup_reps=2,
                 check_samples=1),
}
CLIENTS = 2
#: the original ``make_program``, kept before any probe wraps it
MAKE_PROGRAM = generators.make_program


# -- service plumbing shared with tune_budgeted ----------------------- #
def build_trace(family: str) -> tuple:
    """Meta-device trace of the family's tiny config, as the tests use."""
    cls, config = MODEL_ZOO[family]
    config = config.tiny()
    model = cls(config, device="meta")
    sch = slapo.create_schedule(model)
    SCHEDULES[family](sch, config, ckpt_ratio=0.0, use_tp=False)
    ids, _ = data.lm_batch(config, 1, device="meta")
    return model, trace_model(model, ids)


class TraceRegistry:
    """The service's ``trace_fn``: builds each family once, timed."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.traces: dict[str, tuple] = {}

    def __call__(self, family: str) -> tuple:
        entry = self.traces.get(family)
        if entry is None:
            with maybe_span(self.tracer, "service.trace_build"):
                entry = self.traces[family] = build_trace(family)
        return entry


def reset_process_caches() -> None:
    """Empty the process-wide tick-program caches so every set-up pays
    the cold pass a fresh process pays."""
    MAKE_PROGRAM.cache_clear()
    generators.schedule_peak_chunks.cache_clear()
    gc.collect()


def cluster_for(world_size: int):
    return p3dn_cluster(max(1, (world_size + 7) // 8))


def service_probes(answers: dict) -> list[Probe]:
    """Shims around the planning path's layer boundaries.  ``answers``
    maps ``id(response)`` to the span of the answer that produced it."""
    def note_batch(span, args, result):
        span.meta["rows"] = len(result)
        span.meta["fallback"] = result.num_fallback

    def note_answer(span, args, result):
        answers[id(result)] = span

    return [
        Probe(PlanService, "_answer", "service.answer",
              rid=lambda self, request: request, on_return=note_answer),
        Probe(service_module, "enumerate_space", "space.enumerate"),
        Probe(service_module, "predict_batch", "sim.predict_batch",
              on_return=note_batch),
        Probe(BatchPoints, "from_configs", "sim.lower"),
        Probe(planner, "make_program", "pipeline.make_program"),
        Probe(generators, "make_program", "pipeline.make_program"),
    ]


@dataclass
class Query:
    request: PlanRequest
    response: object
    latency: float
    traced: bool
    #: position in the workload's repeating unit (its latency kind)
    position: object = None
    #: index of the speed-probe sample taken next to this query
    sample: int = 0


def issue(service: PlanService, request: PlanRequest, tracer: Tracer | None,
          rid) -> Query:
    """One closed-loop client query; an exception counts as no answer."""
    start = time.perf_counter()
    try:
        with maybe_span(tracer, "client.query", rid):
            response = service.query(request)
    except Exception:  # noqa: BLE001 - a failed query is a counted result
        traceback.print_exc(file=sys.stderr)
        response = None
    return Query(request, response, time.perf_counter() - start,
                 tracer is not None)


def answer_fits(query: Query) -> str | None:
    """Why this answer is unusable, or None: it must fit and have a
    finite throughput above zero."""
    response = query.response
    if response is None:
        return f"{query.request}: query raised"
    if response.config is None or response.num_feasible <= 0:
        return f"{query.request}: no fitting config"
    if not (math.isfinite(response.throughput) and response.throughput > 0):
        return f"{query.request}: throughput {response.throughput}"
    return None


def service_layer_metrics(tracer: Tracer, queries: list[Query],
                          answers: dict, since: float,
                          setup_programs: list[int]) -> dict:
    """Per-layer values of the planning path: per-call medians over the
    window's spans (those after ``since``), and per-set-up totals for the
    cold-pass layers."""
    def per_call(name):
        return ms(median(s.duration for s in tracer.named(name, since)))

    def per_setup(name):
        inner = tracer.named(name)
        return ms(median(
            sum(s.duration for s in inner if setup.start <= s.start < setup.end)
            for setup in tracer.named("service.setup")))

    batches = tracer.named("sim.predict_batch", since)
    rows = sum(s.meta["rows"] for s in batches)
    waits = []
    for query in queries:
        answer = answers.get(id(query.response))
        if query.traced and answer is not None:
            waits.append(max(0.0, query.latency - answer.duration))
    return {
        "service.trace_build_ms": ms(median(
            s.duration for s in tracer.named("service.trace_build"))),
        "pipeline.programs_built": median(setup_programs),
        "pipeline.make_program_ms": per_setup("pipeline.make_program"),
        "space.enumerate_ms": per_call("space.enumerate"),
        "sim.lower_ms": per_call("sim.lower"),
        "sim.predict_batch_ms": per_call("sim.predict_batch"),
        "sim.fallback_frac":
            sum(s.meta["fallback"] for s in batches) / max(rows, 1),
        "service.self_ms": ms(median(
            tracer.self_times("service.answer", since))),
        "service.queue_wait_ms": ms(median(waits)),
    }


# -- the plan_predict workload ---------------------------------------- #
def distinct_requests(size: str) -> list[PlanRequest]:
    spec = SIZES[size]
    return [PlanRequest(family, world_size=world, micro_batches=micro)
            for family in spec["families"] for world in spec["worlds"]
            for micro in MICRO_BATCHES]


def request_round(seed: int, size: str) -> list[tuple]:
    """The run's seeded round, as the pairs the two clients issue
    together.

    Requests are paired within their (world size, micro-batch menu)
    group, whose members cost about the same, so how much two paired
    queries slow each other barely depends on the seed.  Each world size
    adds one twin pair: a request both clients issue at once, so the
    second joins the first in flight (a coalescing hit) while repeating
    an answer given before (a hit for any per-shape memo).  The seed
    picks the partners, the twins and the order of the pairs.
    """
    spec = SIZES[size]
    rng = np.random.default_rng([seed, 2])
    pairs = []
    for world in spec["worlds"]:
        for micro in MICRO_BATCHES:
            group = [PlanRequest(family, world_size=world,
                                 micro_batches=micro)
                     for family in spec["families"]]
            order = [group[i] for i in rng.permutation(len(group))]
            pairs += list(zip(order[::2], order[1::2]))
        twin = PlanRequest(spec["families"][rng.integers(len(spec["families"]))],
                           world_size=world,
                           micro_batches=MICRO_BATCHES[rng.integers(2)])
        pairs.append((twin, twin))
    return [pairs[i] for i in rng.permutation(len(pairs))]


def cold_order(seed: int, requests: list) -> list:
    rng = np.random.default_rng([seed, 4])
    return [requests[i] for i in rng.permutation(len(requests))]


class PairedClients:
    """Two closed-loop clients replaying the round pair by pair.

    Client ``c`` issues element ``c`` of each pair; both wait at a
    barrier until the pair is answered.  The same two requests therefore
    always run side by side, so a position's latency repeats from round
    to round instead of depending on which query the other client
    happened to overlap.  The barrier action, run while both clients
    wait, samples the speed probe, ends the window at the first round
    boundary after ``seconds`` (at least two rounds), and turns the
    probes on for every other round of a traced run.
    """

    def __init__(self, service: PlanService, pairs: list, seconds: float,
                 tracer: Tracer | None, probes: list, probe: SpeedProbe):
        self.service = service
        self.pairs = pairs
        self.tracer = tracer
        self.probes = probes
        self.probe = probe
        self.queries: list[Query] = []
        #: (seconds, queries, probe sample) per answered pair
        self.units: list[tuple[float, int, int]] = []
        self.joined = self.coalesced = 0
        self.index = -1
        self.rounds = 0
        self.go = True
        self.traced = False
        self.sample = 0
        self._started = None
        self._counts = (0, 0)
        self._shims = ExitStack()
        self.deadline = time.perf_counter() + seconds
        self.gate = threading.Barrier(CLIENTS, action=self._advance)

    def _advance(self) -> None:
        if self._started is not None:
            self.units.append((time.perf_counter() - self._started,
                               CLIENTS, self.sample))
        self.sample = self.probe.sample()
        self.index += 1
        if self.index % len(self.pairs) == 0:
            self._shims.close()
            if self.traced:
                self.joined += self.service.queries - self._counts[0]
                self.coalesced += self.service.coalesced - self._counts[1]
            self.rounds = self.index // len(self.pairs)
            self.go = time.perf_counter() < self.deadline or self.rounds < 2
            self.traced = self.go and self.tracer is not None \
                and self.rounds % 2 == 1
            if self.traced:
                self._counts = (self.service.queries, self.service.coalesced)
                self._shims.enter_context(
                    installed(self.tracer, self.probes))
        self._started = time.perf_counter()

    def client(self, c: int) -> None:
        try:
            while True:
                self.gate.wait(timeout=300)
                if not self.go:
                    return
                pair = self.index % len(self.pairs)
                query = issue(self.service, self.pairs[pair][c],
                              self.tracer if self.traced else None,
                              (self.rounds, pair, c))
                query.position = (pair, c)
                query.sample = self.sample
                self.queries.append(query)
        except BaseException:
            self.gate.abort()  # release the other client, then fail
            raise

    def run(self) -> None:
        threads = [threading.Thread(target=self.client, args=(c,))
                   for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


def scalar_best(registry: TraceRegistry, request: PlanRequest,
                config: dict) -> tuple[float, float]:
    """(best throughput of a scalar ``predict_config`` sweep over the
    request's space, scalar throughput of ``config``)."""
    model, trace = registry(request.family)
    cluster = cluster_for(request.world_size)
    parallel_fn = SimCostModel.parallel_fn(request.world_size)

    def price(point):
        try:
            parallel = parallel_fn(point)
        except ValueError:
            return 0.0
        prediction = predict_config(
            trace, model, cluster, parallel, point["micro_batch"],
            zero_stage=point["zero_stage"],
            num_micro_batches=point.get("num_micro_batches", 1))
        return prediction.throughput if prediction.fits else 0.0

    best = max(price(point)
               for point in enumerate_space(request.space_fn()))
    return best, price(config)


def _setup(seed: int, size: str, tracer: Tracer | None, rep: int):
    """Service construction, trace builds, and the cold first pass over
    every distinct request."""
    reset_process_caches()
    start = time.perf_counter()
    registry = TraceRegistry(tracer)
    service = PlanService(registry, max_workers=CLIENTS)
    queries = [issue(service, request, tracer, ("setup", rep))
               for request in cold_order(seed, distinct_requests(size))]
    elapsed = time.perf_counter() - start
    return service, registry, queries, elapsed


def run(seed: int, seconds: float, trace: bool, size: str = "full"
        ) -> tuple[Outcome, Tracer | None]:
    spec = SIZES[size]
    tracer = Tracer() if trace else None
    answers: dict = {}
    probes = service_probes(answers)
    out = Outcome()

    setup_times, programs, service = [], [], None
    probe = SpeedProbe()
    for rep in range(spec["setup_reps"]):
        if service is not None:
            service.close()
        with (installed(tracer, probes) if tracer else nullcontext()), \
                maybe_span(tracer, "service.setup", rep):
            service, registry, cold, elapsed = _setup(seed, size, tracer, rep)
        setup_times.append((elapsed, probe.sample()))
        programs.append(MAKE_PROGRAM.cache_info().currsize)
        out.attempted += len(cold)
        for query in cold:
            problem = answer_fits(query)
            if problem:
                out.fail(f"setup {rep}: {problem}")

    clients = PairedClients(service, request_round(seed, size), seconds,
                            tracer, probes, probe)
    since = time.perf_counter()
    with service:
        clients.run()
    queries = clients.queries
    out.attempted += len(queries)
    for query in queries:
        problem = answer_fits(query)
        if problem:
            out.fail(problem)

    # The answer must be the best point of an independent scalar sweep.
    latest = {q.request: q.response for q in queries if q.response}
    requests = distinct_requests(size)
    rng = np.random.default_rng([seed, 3])
    for i in rng.choice(len(requests), spec["check_samples"], replace=False):
        request = requests[int(i)]
        response = latest.get(request)
        out.attempted += 1
        if response is None or response.config is None:
            out.fail(f"{request}: no answer to check")
            continue
        best, mine = scalar_best(registry, request, response.config)
        if not (math.isclose(response.throughput, best, rel_tol=1e-9)
                and math.isclose(mine, best, rel_tol=1e-9)):
            out.fail(f"{request}: answer {response.throughput!r} (scalar "
                     f"{mine!r}) is not the scalar best {best!r}")

    out.info.update(queries=len(queries), rounds=clients.rounds,
                    coalesced=service.coalesced,
                    programs_built=programs[0])
    if tracer is None:
        out.metrics = end_to_end(
            setup_times, clients.units,
            [(q.position, q.latency, q.sample) for q in queries],
            probe, out.info)
    else:
        out.metrics = service_layer_metrics(tracer, queries, answers,
                                            since, programs)
        out.metrics["service.coalesced_frac"] = \
            clients.coalesced / max(clients.joined, 1)
        out.metrics["trace.overhead_pct"] = overhead_pct(
            [(q.position, q.latency, q.traced) for q in queries])
    return out, tracer
