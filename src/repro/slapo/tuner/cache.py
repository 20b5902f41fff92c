"""Persistent trial cache: measured configurations survive tuner runs.

A measured trial (92 simulated seconds in the paper's Fig. 10 setup) is
far more expensive than a JSON lookup, and the same (model, space) pair
is tuned repeatedly across benchmarks and sessions.  The cache stores
every measurement keyed by the canonical JSON of its request context
(``PlanService``: family and world size; ``AutoTuner``: none) and of
its configuration, so a re-run pays nothing for configs already
measured, and no context is served another's rows.

File format v2, an append-only JSON-lines log: a header line, then one
compact row per line (keys sorted).  When a (config, context) key
appears on more than one line, the later line wins::

    {"version":2}
    {"config":{"batch_size":136,"ckpt_ratio":0.5},"throughput":94.2,"valid":true}
    {"config":{"dp":2,"micro_batch":4,"tp":4,"zero_stage":1},"context":{"family":"GPT","world_size":8},"throughput":41.7,"valid":true}
    ...

A v1 file (one JSON object ``{"version": 1, "trials": [row, ...]}``)
loads every row and is rewritten as v2 by the first save.

Config values must be JSON-representable (numbers, strings, booleans)
to be cacheable; a cache-less ``AutoTuner`` accepts any hashable
candidate values.
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: a save rewrites the log once it holds more than this many row lines
#: per live row
COMPACT_RATIO = 2

#: bytes of the generation token kept in the lock file
_GENERATION = 8


def config_key(config: dict) -> str:
    """Canonical, order-independent JSON key for a configuration."""
    return _encode(config)


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


def _v1_trials(data: bytes) -> list:
    """The rows of a v1 file; none from anything else."""
    try:
        payload = json.loads(data)
    except ValueError:
        return []
    if not isinstance(payload, dict) or payload.get("version") != 1:
        return []
    trials = payload.get("trials", [])
    return trials if isinstance(trials, list) else []


@contextmanager
def _flocked(path: Path):
    """Hold an exclusive ``flock`` on ``path``, created if absent, and
    yield its descriptor.  ``flock`` locks the open file, so two
    descriptors in one process exclude each other too."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield fd
    finally:
        os.close(fd)  # releases the lock


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class TrialCache:
    """A dict of measured trials backed by an append-only log.

    Missing, corrupt or other-version files start an empty cache (a
    cold cache is never an error); malformed and torn lines are skipped
    one by one.

    :meth:`save` holds an exclusive ``flock`` on the sidecar
    ``<name>.lock``, which is never renamed, so every writer — other
    processes, other instances in this process — locks the same file
    even while compaction replaces the log beside it.  Under the lock it
    folds in the lines other writers appended since this instance last
    read, then appends the rows put since its last save: O(rows added),
    not O(store).  Those rows win over what others appended meanwhile,
    because they land later in the log; rows this instance only loaded
    do not.  A save that leaves more than ``COMPACT_RATIO`` row lines
    per live row rewrites the log (temp file + rename) and writes a
    fresh generation token into the lock file: the new log may get the
    inode number of one replaced before it, and the token is what tells
    an instance that read the old log to read the new one whole.  A
    crash mid-append leaves at most one torn last line: readers skip
    it, and the next save terminates it before appending.

    Safe for concurrent use from one process: the get/put fast paths,
    :meth:`load` and :meth:`save` hold an internal lock, so
    ``plan_service`` threads answering queries against a shared cache
    never interleave a save with a put.
    """

    VERSION = 2
    _HEADER = (_encode({"version": VERSION}) + "\n").encode()

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._lock_path = self.path.with_name(self.path.name + ".lock")
        self._entries: dict[tuple[str, str], dict] = {}
        #: rows put since the last save, in put order
        self._pending: dict[tuple[str, str], dict] = {}
        #: the log read so far: its (st_dev, st_ino, generation), the
        #: bytes of it read (0: no header read yet) and the row lines
        #: among them
        self._ident: tuple | None = None
        self._offset = 0
        self._lines = 0
        self._lock = threading.RLock()
        #: lookups answered from the cache (reset per process, not saved)
        self.hits = 0
        self.load()

    # ------------------------------------------------------------------ #
    def _fold(self, rows) -> set[tuple[str, str]]:
        """Take each valid row unless put since the last save; return
        the keys seen."""
        seen = set()
        for entry in rows:
            try:
                if isinstance(entry, bytes):
                    entry = json.loads(entry)
                key, row = _row(entry["config"], entry["throughput"],
                                entry["valid"], entry.get("context"))
            except (KeyError, TypeError, ValueError):
                continue  # skip malformed rows, keep the rest
            seen.add(key)
            if key not in self._pending:
                self._entries[key] = row
        return seen

    def _sync(self, fd: int, generation: bytes,
              locked: bool) -> bytes | None:
        """Fold in what the file at ``fd`` gained since the last read;
        ``generation`` is the lock file's token, read before ``fd`` was
        opened, so it is never newer than the file.

        Returns ``None`` when it is not a v2 log (v1, corrupt, another
        version: a save rewrites it whole); otherwise what a save writes
        before its rows — the header into an empty file, ``b"\\n"`` after
        a torn last line, else nothing.  Without the lock a trailing
        partial line may be an append in progress and is left unread.
        """
        stat = os.fstat(fd)
        ident = (stat.st_dev, stat.st_ino, generation)
        fresh = not (ident == self._ident and
                     0 < self._offset <= stat.st_size)
        if fresh:  # first read, or the log was replaced or emptied
            data = os.pread(fd, stat.st_size, 0)
            if data and not data.startswith(self._HEADER):
                self._ident, self._offset, self._lines = None, 0, 0
                self._fold(_v1_trials(data))
                return None
            self._ident, self._lines = ident, 0
            self._offset = len(self._HEADER) if data else 0
            data = data[self._offset:]
        else:
            data = os.pread(fd, stat.st_size - self._offset, self._offset)
        end = len(data) if locked else data.rfind(b"\n") + 1
        lines = data[:end].splitlines()
        seen = self._fold(lines)
        self._offset += end
        self._lines += len(lines)
        if fresh:
            # rows the file lacks (it was deleted or emptied) go back in
            for key in self._entries.keys() - seen - self._pending.keys():
                self._pending[key] = self._entries[key]
            if not self._offset:
                return self._HEADER
        return b"\n" if locked and data and not data.endswith(b"\n") \
            else b""

    def _rewrite(self, lock_fd: int) -> None:
        """Replace the file with one line per live row (temp + rename),
        and the generation token in the lock file."""
        data = self._HEADER + "".join(
            _encode(self._entries[key]) + "\n"
            for key in sorted(self._entries)).encode()
        fd, tmp = tempfile.mkstemp(dir=self.path.parent,
                                   prefix=self.path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                stat = os.fstat(handle.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        generation = os.urandom(_GENERATION)
        os.pwrite(lock_fd, generation, 0)
        self._ident = (stat.st_dev, stat.st_ino, generation)
        self._offset, self._lines = len(data), len(self._entries)
        self._pending.clear()

    def load(self) -> None:
        """Fold in the rows written since this instance last read the
        file (all of them on first use); rows put since the last save
        keep their values."""
        with self._lock:
            try:
                generation = self._lock_path.read_bytes()[:_GENERATION]
            except OSError:
                generation = b""
            try:
                fd = os.open(self.path, os.O_RDONLY)
            except OSError:
                return
            try:
                self._sync(fd, generation, locked=False)
            finally:
                os.close(fd)

    def save(self) -> None:
        """Append the rows put since the last save (see the class
        docstring for the lock, which rows win and compaction)."""
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with _flocked(self._lock_path) as lock_fd:
                generation = os.pread(lock_fd, _GENERATION, 0)
                fd = os.open(self.path,
                             os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
                try:
                    lead = self._sync(fd, generation, locked=True)
                    if lead is not None:
                        self._append(fd, lead)
                finally:
                    os.close(fd)
                if lead is None or \
                        self._lines > COMPACT_RATIO * len(self._entries):
                    self._rewrite(lock_fd)

    def _append(self, fd: int, lead: bytes) -> None:
        if not (lead or self._pending):
            return
        data = lead + "".join(_encode(row) + "\n"
                              for row in self._pending.values()).encode()
        _write_all(fd, data)
        self._offset += len(data)
        self._lines += len(self._pending)
        self._pending.clear()

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
            self._pending[key] = row

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
