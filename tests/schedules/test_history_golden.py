"""Golden recipe histories: every shipped schedule records the same steps.

``data/history_golden.json`` pins ``sch.context.history`` — each record's
primitive name, path and JSON-able arguments — of every ``SCHEDULES``
recipe on its meta-device ``MODEL_ZOO`` config, at tp 1 and 2 (MoE-GPT
also at ep 2 and tp 2 · ep 2), under the default flags at checkpoint
ratios 0 and 0.5.  The full dumps run to several MB, so each dump is
pinned by its record count, its records per primitive name and the
sha256 of its canonical JSON.

A schedule refactor must leave every dump unchanged; an intended change
regenerates the fixture, and the regenerate run prints, per dump that
moved, which primitives gained or lost records::

    PYTHONPATH=src python tests/schedules/test_history_golden.py
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

import repro.slapo as slapo
from repro.distributed import DeviceMesh, ParallelConfig
from repro.framework.module import Module
from repro.fx import Match
from repro.models import MODEL_ZOO
from repro.schedules import SCHEDULES

GOLDEN = Path(__file__).parent / "data" / "history_golden.json"
CKPT_RATIOS = (0.0, 0.5)


def meshes(family: str) -> list[tuple[int, int]]:
    """The (tp, ep) meshes a family's recipe is pinned at."""
    if family == "MoE-GPT":
        return [(1, 1), (2, 1), (1, 2), (2, 2)]
    return [(1, 1), (2, 1)]


DUMPS = [(family, tp, ep, ratio) for family in SCHEDULES
         for tp, ep in meshes(family) for ratio in CKPT_RATIOS]


def dump_key(family: str, tp: int, ep: int, ratio: float) -> str:
    return f"{family} tp{tp} ep{ep} ckpt{ratio}"


def plain(value):
    """A JSON-able description of one record argument: pattern functions
    by name, modules by class and scalar attributes, matches by the
    names of the nodes they cover."""
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): plain(item) for key, item in value.items()}
    if isinstance(value, Match):
        return [node.name for node in value.internal_nodes]
    if isinstance(value, Module):
        return [type(value).__name__, {
            key: item for key, item in vars(value).items()
            if isinstance(item, (bool, int, float, str))}]
    if callable(value):
        return getattr(value, "__qualname__", type(value).__name__)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def history(family: str, tp: int, ep: int, ratio: float) -> list:
    """The recipe's records on the full-size meta model."""
    cls, config = MODEL_ZOO[family]
    mesh = DeviceMesh(ParallelConfig(tp=tp, ep=ep), rank=0, sim=True)
    sch = slapo.create_schedule(cls(config, device="meta"), mesh=mesh)
    SCHEDULES[family](sch, config, ckpt_ratio=ratio)
    return [[record.name, record.path, plain(record.args),
             plain(record.kwargs)] for record in sch.context.history]


def summarize(records: list) -> dict:
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return {
        "records": len(records),
        "by_name": dict(sorted(Counter(r[0] for r in records).items())),
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_dump(golden):
    assert sorted(golden) == sorted(dump_key(*d) for d in DUMPS)


@pytest.mark.parametrize("family,tp,ep,ratio", DUMPS,
                         ids=[dump_key(*d) for d in DUMPS])
def test_recipe_history_matches_golden(golden, family, tp, ep, ratio):
    want = golden[dump_key(family, tp, ep, ratio)]
    got = summarize(history(family, tp, ep, ratio))
    assert got["by_name"] == want["by_name"]
    assert got["records"] == want["records"]
    assert got["sha256"] == want["sha256"]


def name_diff(old: dict, new: dict) -> str:
    """``fuse +24, find +48``-style per-primitive record count changes."""
    names = sorted(set(old["by_name"]) | set(new["by_name"]))
    parts = [f"{name} {new['by_name'].get(name, 0) - old['by_name'].get(name, 0):+d}"
             for name in names
             if new["by_name"].get(name, 0) != old["by_name"].get(name, 0)]
    return ", ".join(parts) or "same counts, different records"


def regenerate() -> None:
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    fixture = {dump_key(*d): summarize(history(*d)) for d in DUMPS}
    for key, entry in fixture.items():
        if key not in old:
            print(f"{key}: new ({entry['records']} records)")
        elif old[key]["sha256"] != entry["sha256"]:
            print(f"{key}: {old[key]['records']} -> {entry['records']} "
                  f"records ({name_diff(old[key], entry)})")
    for key in sorted(set(old) - set(fixture)):
        print(f"{key}: removed")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fixture)} dumps, "
          f"{sum(e['records'] for e in fixture.values())} records "
          f"to {GOLDEN}")


if __name__ == "__main__":
    regenerate()
