"""In-memory spans plus shims that time calls into a layer's public API.

A :class:`Tracer` keeps every span in a list and writes them out once,
at the end of a run.  Each span records its name, start, end, parent
span and the request or step id it belongs to; parents come from a
per-thread stack, and a span without an explicit id inherits its
parent's.  A layer's self time is its span minus its children.

:func:`installed` swaps each :class:`Probe` target for a wrapper that
opens a span around the call, and puts the exact original object back
on exit (``vars(owner)[attr] is original`` holds again), so the program
under test is unchanged outside the ``with`` block.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "tid",
                 "meta")

    def __init__(self, sid, name, start, parent, rid, tid):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.tid = tid
        self.meta: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Any = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent.sid if parent else None, rid,
                    threading.get_ident())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def named(self, name: str, since: float = 0.0) -> list[Span]:
        """``name`` spans that started at or after ``since``."""
        return [s for s in self.spans if s.name == name and s.start >= since]

    def self_times(self, name: str, since: float = 0.0) -> list[float]:
        """Self time (span minus its children) of every ``name`` span."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + s.duration
        return [s.duration - children.get(s.sid, 0.0)
                for s in self.named(name, since)]

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{
            "name": s.name, "ph": "X", "pid": 0, "tid": s.tid,
            "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
            "args": {"sid": s.sid, "parent": s.parent, "rid": str(s.rid),
                     **{k: str(v) for k, v in s.meta.items()}},
        } for s in sorted(self.spans, key=lambda s: s.start)]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


def maybe_span(tracer: Tracer | None, name: str, rid: Any = None):
    """``tracer.span(...)``, or a no-op when the run is untraced."""
    return nullcontext() if tracer is None else tracer.span(name, rid)


@dataclass(frozen=True)
class Probe:
    """Time calls to ``owner.attr`` (a module function or class member)
    as spans named ``name``.  ``rid(*args)`` names the request a call
    serves; ``on_return(span, args, result)`` annotates the span."""

    owner: Any
    attr: str
    name: str
    rid: Callable | None = None
    on_return: Callable | None = None


def _timed(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rid = probe.rid(*args) if probe.rid is not None else None
        with tracer.span(probe.name, rid) as span:
            result = fn(*args, **kwargs)
            if probe.on_return is not None:
                probe.on_return(span, args, result)
            return result
    return wrapper


@contextmanager
def installed(tracer: Tracer, probes):
    """Shim every probe for the duration of the block."""
    saved = []
    try:
        for probe in probes:
            # vars(): the raw descriptor (classmethod objects included),
            # and a KeyError for members only inherited from a base
            original = vars(probe.owner)[probe.attr]
            if isinstance(original, (classmethod, staticmethod)):
                shim = type(original)(
                    _timed(tracer, probe, original.__func__))
            else:
                shim = _timed(tracer, probe, original)
            setattr(probe.owner, probe.attr, shim)
            saved.append((probe.owner, probe.attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
