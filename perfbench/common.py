"""Helpers shared by the workloads: statistics, metric emission, outcome."""

from __future__ import annotations

import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"


def quantile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 ≤ q ≤ 1); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def kind_quantile(samples: dict, q: float) -> float:
    """Geometric mean over request kinds of each kind's ``q``-quantile.

    A balanced mix of kinds whose costs differ tenfold has a gap-ridden
    latency distribution: its pooled median lands between two kinds and
    jumps with each run's noise.  Taking the quantile within each kind
    first keeps every kind's weight fixed.
    """
    logs = [math.log(quantile(values, q)) for values in samples.values()]
    return math.exp(sum(logs) / len(logs))


def by_kind(pairs) -> dict:
    """``{kind: [value, ...]}`` from ``(kind, value)`` pairs."""
    grouped: dict = {}
    for kind, value in pairs:
        grouped.setdefault(kind, []).append(value)
    return grouped


def overhead_pct(samples) -> float:
    """Tracing overhead from ``(kind, latency, traced)`` samples: traced
    over untraced typical latency, as a percentage."""
    def typical(flag):
        return kind_quantile(by_kind(
            (kind, latency) for kind, latency, traced in samples
            if traced == flag), 0.5)
    return (typical(True) / typical(False) - 1) * 100


#: seconds :func:`reference_work` takes on the quiet 2-core development
#: VM.  The VM shares its host, whose speed drifts by up to 40% between
#: minutes; each time is rescaled by this over the reference time
#: measured around it, so runs made at different moments compare.
REFERENCE_S = 0.005


def reference_work() -> tuple:
    """A fixed mix of interpreter and small-numpy work."""
    total = 0
    for i in range(20000):
        total += i * i
    table = {i: str(i) for i in range(5000)}
    a = np.full((96, 96), 0.5, np.float32)
    for _ in range(20):
        a = np.tanh(a @ a * 0.01)
    return total, len(table), float(a[0, 0])


class SpeedProbe:
    """Times :func:`reference_work` between units of the workload, when
    none of the workload's threads is running."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the reference once; returns the sample's index."""
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def scales(self, radius: int = 10) -> list[float]:
        """Per sample, the factor restating nearby times at the reference
        speed: ``REFERENCE_S`` over the median of the sample and its
        ``radius`` neighbours on each side.  Slow spells last seconds, so
        a window of about a second follows them while smoothing the
        jitter of single samples."""
        return [REFERENCE_S / median(self.samples[max(0, i - radius):
                                                  i + radius + 1])
                for i in range(len(self.samples))]


def end_to_end(setup, units, latencies, probe: SpeedProbe,
               info: dict) -> dict:
    """The end-to-end metrics, every time restated at the reference
    speed by the probe sample taken next to it.

    ``setup`` holds ``(seconds, sample)`` per set-up, ``units`` holds
    ``(seconds, requests done, sample)`` per repeating unit of the window
    and ``latencies`` holds ``(kind, seconds, sample)`` per request.  The
    wall-clock values go into ``info``.
    """
    scales = probe.scales()
    rss = peak_rss_mb()

    def metrics(scale):
        return {
            "setup_s": median(t * scale(i) for t, i in setup),
            "peak_rss_mb": rss,
            "throughput_per_s": sum(n for _, n, _ in units)
            / sum(t * scale(i) for t, _, i in units),
            "latency_p50_ms": ms(kind_quantile(by_kind(
                (k, t * scale(i)) for k, t, i in latencies), 0.5)),
            "latency_p90_ms": ms(kind_quantile(by_kind(
                (k, t * scale(i)) for k, t, i in latencies), 0.9)),
        }

    info.update(wall_clock=metrics(lambda i: 1.0),
                probe_ms=ms(median(probe.samples)))
    return metrics(scales.__getitem__)


def ms(seconds: float) -> float:
    return seconds * 1e3


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def declared_metrics(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` list."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(values: dict[str, float], kind: str) -> dict:
    """Attach declared units; every declared metric must be present and
    nothing undeclared may be.  A traced run reports 0 for the per-layer
    metrics of layers its workload bypasses."""
    units = declared_metrics(kind)
    if kind == "per_layer":
        values = {name: values.get(name, 0.0) for name in units} \
            | {name: v for name, v in values.items() if name not in units}
    if set(values) != set(units):
        raise KeyError(f"{kind} metrics mismatch: missing "
                       f"{sorted(set(units) - set(values))}, undeclared "
                       f"{sorted(set(values) - set(units))}")
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    #: end-to-end (untraced) or per-layer (traced) values by name
    metrics: dict = field(default_factory=dict)
    #: extra facts printed on the info line (digests, counts, ...)
    info: dict = field(default_factory=dict)
    #: output-check failures, one line each
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)
