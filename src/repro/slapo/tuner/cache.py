"""Persistent trial cache: measured configurations survive tuner runs.

A measured trial (92 simulated seconds in the paper's Fig. 10 setup) is
far more expensive than a JSON lookup, and the same (model, space) pair
is tuned repeatedly across benchmarks and sessions.  The cache stores
every measurement keyed by the canonical JSON of its request context
(``PlanService``: family and world size; ``AutoTuner``: none) and of
its configuration, so a re-run pays nothing for configs already
measured, and no context is served another's rows.

File format (``version`` guards future migrations)::

    {
      "version": 1,
      "trials": [
        {"config": {"batch_size": 136, "ckpt_ratio": 0.5},
         "throughput": 94.2, "valid": true},
        {"config": {"dp": 2, "micro_batch": 4, "tp": 4, "zero_stage": 1},
         "throughput": 41.7, "valid": true,
         "context": {"family": "GPT", "world_size": 8}},
        ...
      ]
    }

Config values must be JSON-representable (numbers, strings, booleans)
to be cacheable; a cache-less ``AutoTuner`` accepts any hashable
candidate values.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path


def config_key(config: dict) -> str:
    """Canonical, order-independent JSON key for a configuration."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _key(config: dict, context: dict | None = None) -> tuple[str, str]:
    """A row's (config, context) key; no context keys as ``""``."""
    return config_key(config), (config_key(context) if context else "")


def _row(config: dict, throughput: float, valid: bool,
         context: dict | None = None) -> tuple[tuple[str, str], dict]:
    """One trial row and its key.  A context that is empty or not a
    dict is not stored."""
    row = {"config": dict(config), "throughput": float(throughput),
           "valid": bool(valid)}
    if isinstance(context, dict) and context:
        row["context"] = dict(context)
    return _key(row["config"], row.get("context")), row


class TrialCache:
    """A dict of measured trials backed by a JSON file.

    Missing or unreadable files start an empty cache (a cold cache is
    never an error); :meth:`save` writes atomically (temp file + rename)
    so a crash mid-save cannot corrupt earlier measurements.

    Safe for concurrent use from one process: load/merge/store and the
    get/put fast paths hold an internal lock, so ``plan_service``
    threads answering queries against a shared cache never interleave a
    merge-on-save with a put (the rename itself is atomic at the OS
    level, which covers concurrent *processes* on the same path).
    """

    VERSION = 1

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._entries: dict[tuple[str, str], dict] = {}
        self._lock = threading.RLock()
        #: lookups answered from the cache (reset per process, not saved)
        self.hits = 0
        self.load()

    # ------------------------------------------------------------------ #
    def _read_disk(self) -> dict[tuple[str, str], dict]:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(payload, dict) or \
                payload.get("version") != self.VERSION:
            return {}
        entries: dict[tuple[str, str], dict] = {}
        for entry in payload.get("trials", []):
            try:
                key, row = _row(entry["config"], entry["throughput"],
                                entry["valid"], entry.get("context"))
                entries[key] = row
            except (KeyError, TypeError, ValueError):
                continue  # skip malformed rows, keep the rest
        return entries

    def load(self) -> None:
        fresh = self._read_disk()
        with self._lock:
            self._entries.update(fresh)

    def save(self) -> None:
        # Merge-on-save: another cache instance (a concurrent benchmark,
        # a second tuner on the same path) may have written since we
        # loaded — fold its measurements in rather than clobbering them.
        # Our own entries win on conflict.
        with self._lock:
            merged = self._read_disk()
            merged.update(self._entries)
            self._entries = merged
            payload = {
                "version": self.VERSION,
                "trials": [self._entries[key]
                           for key in sorted(self._entries)],
            }
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.path.parent,
                                       prefix=self.path.name,
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(payload, handle, indent=1)
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    # ------------------------------------------------------------------ #
    def get(self, config: dict, context: dict | None = None) -> dict | None:
        """The row measured for ``config`` under exactly ``context``."""
        with self._lock:
            entry = self._entries.get(_key(config, context))
            if entry is not None:
                self.hits += 1
        return entry

    def put(self, config: dict, throughput: float, valid: bool,
            context: dict | None = None) -> None:
        """Record one measurement.  ``context`` is optional free-form
        JSON metadata (e.g. ``{"family": ..., "world_size": ...}``); it
        is part of the key, and lets corpus consumers — the learned cost
        model above all — select comparable rows from a shared cache."""
        key, row = _row(config, throughput, valid, context)
        with self._lock:
            self._entries[key] = row

    def entries(self) -> list[dict]:
        """Snapshot of all entries (copies — safe to mutate, including
        the nested ``config``/``context`` dicts), sorted by canonical
        config key, then context key, so iteration order is
        deterministic."""
        with self._lock:
            rows = []
            for key in sorted(self._entries):
                row = dict(self._entries[key])
                row["config"] = dict(row["config"])
                if "context" in row:
                    row["context"] = dict(row["context"])
                rows.append(row)
            return rows

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, config: dict) -> bool:
        """Whether ``config`` has a contextless row."""
        return _key(config) in self._entries
