"""Crash-isolated measurement workers for the auto-tuner.

Measured trials launch real training steps, and real launches die: OOM
kills, NCCL hangs, segfaults in fused kernels.  Running them in the
tuner's own process means one bad config kills the whole tuning run —
the ``_inductor`` autotuner solved this by farming benchmark candidates
to a pool of subprocess workers joined by result pipes, and
:class:`MeasurementPool` is that idiom here:

* each worker is a forked subprocess executing ``evaluate_fn(config)``
  and shipping the float back over its pipe;
* a **crash** (process death) costs exactly the trial that was in
  flight: the parent sees the pipe close, records the loss and spawns a
  replacement worker while work remains;
* a **hang** is bounded by ``trial_timeout``: the worker is terminated
  at its deadline and the trial recorded as lost, again costing one
  trial and one worker, not the run;
* results are keyed by submission index, so the outcome is
  deterministic and independent of worker count or completion order.

:func:`measure` is the one measure path of the tuner and the plan
service: a :class:`~repro.slapo.tuner.cache.TrialCache` lookup per
config, then the misses through a pool or a plain callable, then the
write-back.  Lost trials are reported with :attr:`MeasureResult.lost`
set and kept out of the cache, so a later (or clean) run measures them
again instead of inheriting the loss.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait
from typing import Callable, Sequence

from .cache import TrialCache


@dataclass
class MeasureResult:
    """Outcome of one farmed-out trial."""

    #: position in the ``configs`` sequence passed to :meth:`run` or
    #: :func:`measure`
    index: int
    config: dict
    #: measured samples/sec (0.0 when invalid or lost)
    throughput: float = 0.0
    #: measured and positive
    valid: bool = False
    #: the trial never produced a measurement (crash/timeout/error)
    lost: bool = False
    #: human-readable loss reason
    error: str | None = None
    #: served from the TrialCache, not measured
    cached: bool = False


def _worker_main(conn, evaluate_fn) -> None:
    """Worker loop: receive ``(index, config)``, send ``(index, value,
    error)``.  A ``None`` message is the shutdown sentinel."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, config = message
        try:
            value = evaluate_fn(config)
            reply = (index, float(value or 0.0), None)
        except Exception as exc:  # crash isolation: report, don't die
            reply = (index, 0.0, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        #: (index, config, predicted-deadline) of the in-flight trial
        self.task: tuple | None = None
        self.deadline: float | None = None


class MeasurementPool:
    """Run ``evaluate_fn(config)`` trials in subprocess workers.

    One pool may be shared between threads: :meth:`run` calls take turns.

    Parameters
    ----------
    evaluate_fn:
        The measurement callable.  Workers are forked, so closures over
        live objects (models, tuner state) work without pickling.
    num_workers:
        Concurrent worker processes (≥ 1).
    trial_timeout:
        Per-trial wall-clock budget in seconds; a trial still running at
        its deadline is recorded lost and its worker terminated.
    """

    def __init__(self, evaluate_fn: Callable[[dict], float | None],
                 num_workers: int = 2, trial_timeout: float = 60.0,
                 context: str = "fork"):
        self._evaluate_fn = evaluate_fn
        self.num_workers = max(1, int(num_workers))
        self.trial_timeout = float(trial_timeout)
        self._ctx = multiprocessing.get_context(context)
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()
        #: workers killed by crashes or timeouts across this pool's life
        self.workers_lost = 0

    # ------------------------------------------------------------------ #
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, self._evaluate_fn),
            daemon=True)
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn)
        self._workers.append(worker)
        return worker

    def _discard(self, worker: _Worker) -> None:
        """Tear down a crashed/hung worker (its trial is already lost)."""
        self.workers_lost += 1
        self._workers.remove(worker)
        worker.conn.close()
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)

    def _assign(self, worker: _Worker, index: int, config: dict) -> bool:
        worker.task = (index, config)
        worker.deadline = time.monotonic() + self.trial_timeout
        try:
            worker.conn.send((index, config))
            return True
        except (BrokenPipeError, OSError):
            return False  # died between trials; caller handles the loss

    # ------------------------------------------------------------------ #
    def run(self, configs: Sequence[dict]) -> list[MeasureResult]:
        """Measure every config; the result list matches input order."""
        with self._lock:  # the workers serve one batch at a time
            results: list[MeasureResult | None] = [None] * len(configs)
            pending = deque(enumerate(configs))

            def lose(worker: _Worker, reason: str) -> None:
                index, config = worker.task
                results[index] = MeasureResult(index=index, config=config,
                                               lost=True, error=reason)
                self._discard(worker)

            def feed() -> None:
                # keep min(num_workers, remaining work) workers busy,
                # spawning replacements for any that were discarded
                while pending:
                    idle = next((w for w in self._workers if w.task is None),
                                None)
                    if idle is None:
                        if len(self._workers) >= self.num_workers:
                            return
                        idle = self._spawn()
                    index, config = pending.popleft()
                    if not self._assign(idle, index, config):
                        lose(idle, "worker crashed")

            feed()
            while any(w.task is not None for w in self._workers):
                active = [w for w in self._workers if w.task is not None]
                horizon = min(w.deadline for w in active)
                timeout = max(0.0, horizon - time.monotonic())
                ready = set(_wait([w.conn for w in active], timeout=timeout))
                now = time.monotonic()
                for worker in active:
                    if worker.conn in ready:
                        try:
                            index, value, error = worker.conn.recv()
                        except (EOFError, OSError):
                            lose(worker, "worker crashed")
                            continue
                        results[index] = MeasureResult(
                            index=index, config=worker.task[1],
                            throughput=value, valid=value > 0,
                            lost=error is not None, error=error)
                        worker.task = None
                        worker.deadline = None
                    elif now >= worker.deadline:
                        lose(worker, f"trial timed out "
                                     f"after {self.trial_timeout:g}s")
                feed()
            return results  # every slot filled: measured, errored, or lost

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut workers down; the pool can be garbage-collected after."""
        for worker in list(self._workers):
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            worker.conn.close()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        self._workers.clear()

    def __enter__(self) -> "MeasurementPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def measure(configs: Sequence[dict], measure_fn,
            cache: TrialCache | None = None,
            context: dict | None = None) -> list[MeasureResult]:
    """Measure ``configs``; the result list matches input order.

    A config ``cache`` holds under ``context`` is served from it.  The
    rest run through ``measure_fn``: a :class:`MeasurementPool`, or a
    ``config -> float | None`` callable run here on a copy of the config
    (its exceptions propagate).  A non-finite value is lost, as a
    crashed trial is.  Results not lost are written back to ``cache``
    with ``context``; saving it is left to the caller.
    """
    results: list[MeasureResult | None] = [None] * len(configs)
    for index, config in enumerate(configs):
        entry = None if cache is None else cache.get(config, context)
        if entry is not None:
            results[index] = MeasureResult(
                index, config, entry["throughput"], entry["valid"],
                cached=True)
    misses = [index for index, result in enumerate(results)
              if result is None]
    todo = [configs[index] for index in misses]
    if isinstance(measure_fn, MeasurementPool):
        outcomes = measure_fn.run(todo) if todo else []
    else:  # lazily: each trial is cached before the next one runs
        outcomes = (MeasureResult(index, config,
                                  float(measure_fn(dict(config)) or 0.0))
                    for index, config in enumerate(todo))
    for index, result in zip(misses, outcomes):
        if not math.isfinite(result.throughput):
            result = MeasureResult(
                index, result.config, lost=True,
                error=f"non-finite measurement {result.throughput!r}")
        result.index, result.valid = index, result.throughput > 0
        if not result.lost and cache is not None:
            cache.put(result.config, result.throughput, result.valid,
                      context=context)
        results[index] = result
    return results
