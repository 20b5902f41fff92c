"""Golden step-time fixture: every priced number stays put.

``data/step_time_golden.json`` records, for a fixed grid of
configurations, the :class:`~repro.sim.StepBreakdown` components (exposed
and hidden) and the :func:`~repro.sim.predict_config` answer (throughput,
feasibility, peak memory, resolved cuts).  The grid covers GPT, BERT, T5
and MoE-GPT (ep=2) at pp ∈ {1, 2, 4}, all four tick schedules, uniform /
"auto" / explicit cuts, overlapped and fractional gradient sync, and
ZeRO stages 0/1/3.  Any refactor of the step-time composition must
reproduce every row to a relative 1e-12, through scalar
``predict_config``/``step_time`` and through ``predict_batch`` alike.

Regenerate (only for an intended modelling change) with::

    PYTHONPATH=src python tests/sim/test_step_time_golden.py
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import pytest

import repro.slapo as slapo
from repro.distributed import DeviceMesh, ParallelConfig, p3dn_cluster
from repro.models import MODEL_ZOO, data
from repro.pipeline import SCHEDULE_NAMES
from repro.schedules import SCHEDULES
from repro.sim import predict_batch, predict_config, step_time, trace_model

GOLDEN = Path(__file__).parent / "data" / "step_time_golden.json"
CLUSTER = p3dn_cluster(4)
FAMILIES = ("GPT", "BERT", "T5", "MoE-GPT")
#: (zero_stage, overlap_grad_sync) pairs, rotated through the grid
ZERO_OVERLAP = ((0, False), (1, True), (3, True), (3, False), (0, True),
                (1, False))
REL = 1e-12


@functools.lru_cache(maxsize=None)
def family_trace(family: str):
    """A layer-marked, TP-sharded (tp=2; ep=2 for MoE) meta trace with
    half the layers checkpointed."""
    cls, config = MODEL_ZOO[family]
    ep = 2 if family == "MoE-GPT" else 1
    mesh = DeviceMesh(ParallelConfig(tp=2, ep=ep), rank=0, sim=True)
    model = cls(config, device="meta")
    sch = slapo.create_schedule(model, mesh=mesh)
    SCHEDULES[family](sch, config, ckpt_ratio=0.5, use_tp=True)
    model = slapo.build(sch).model
    if family == "T5":
        src, tgt, _ = data.seq2seq_batch(config, 1, device="meta")
        args = (src, tgt)
    else:
        ids, _ = data.lm_batch(config, 1, device="meta")
        args = (ids,)
    return model, trace_model(model, *args)


def explicit_cuts(num_layers: int, pp: int) -> list[int]:
    """Deliberately uneven cut points (not what the planner picks)."""
    return [num_layers * k // (pp + 1) for k in range(1, pp)]


def grid() -> list[dict]:
    """The fixture's configuration rows (inputs only)."""
    rows = []
    for family in FAMILIES:
        ep = 2 if family == "MoE-GPT" else 1
        num_layers = len(family_trace(family)[1].layers)
        k = 0
        for pp in (1, 2, 4):
            if pp == 1:
                cases = [(SCHEDULE_NAMES[0], None)] * 12
            else:
                cases = [(schedule, cuts) for schedule in SCHEDULE_NAMES
                         for cuts in (None, "auto", "explicit")
                         for _ in range(3)]
            for schedule, cuts in cases:
                zero, overlap = ZERO_OVERLAP[k % len(ZERO_OVERLAP)]
                micro = (1, 4, 16)[k % 3]
                m = pp * (1 + k % 2) if pp > 1 else 1 + 3 * (k % 2)
                if cuts == "explicit":
                    assert num_layers >= pp
                    cuts = explicit_cuts(num_layers, pp)
                rows.append(dict(
                    family=family, tp=2, dp=2, pp=pp, ep=ep,
                    micro_batch=micro, num_micro_batches=m,
                    zero_stage=zero, pipeline_schedule=schedule,
                    pipeline_cuts=cuts, overlap_grad_sync=overlap))
                k += 1
    return rows


def config_of(row: dict) -> dict:
    """A grid row as ``predict_config`` keywords (also the mapping
    ``predict_batch`` reads)."""
    return dict(parallel=ParallelConfig(tp=row["tp"], dp=row["dp"],
                                        pp=row["pp"], ep=row["ep"]),
                micro_batch=row["micro_batch"],
                zero_stage=row["zero_stage"],
                num_micro_batches=row["num_micro_batches"],
                pipeline_schedule=row["pipeline_schedule"],
                pipeline_cuts=row["pipeline_cuts"],
                overlap_grad_sync=row["overlap_grad_sync"])


def price(row: dict) -> dict:
    """The golden outputs of one grid row."""
    model, trace = family_trace(row["family"])
    config = config_of(row)
    pred = predict_config(trace, model, CLUSTER, **config)
    config.update(pipeline_cuts=pred.pipeline_cuts or None)
    breakdown = step_time(trace, model, CLUSTER, **config)
    return dict(components=breakdown.components(),
                hidden=breakdown.hidden_components(),
                throughput=pred.throughput, fits=pred.fits,
                memory_total=pred.memory_bytes,
                cuts=list(pred.pipeline_cuts))


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_the_grid():
    rows = _golden()
    assert len(rows) <= 400
    assert [row["input"] for row in rows] == grid()
    inputs = [row["input"] for row in rows]
    assert {r["family"] for r in inputs} == set(FAMILIES)
    assert {r["pp"] for r in inputs} == {1, 2, 4}
    assert {r["pipeline_schedule"] for r in inputs} == set(SCHEDULE_NAMES)
    assert {(r["zero_stage"], r["overlap_grad_sync"]) for r in inputs} \
        == set(ZERO_OVERLAP)
    # the staged path is really exercised, with every cut flavour
    assert any(row["output"]["cuts"] and row["input"]["pipeline_cuts"]
               == "auto" for row in rows)
    assert any(isinstance(row["input"]["pipeline_cuts"], list)
               for row in rows)
    assert any(not row["output"]["fits"] for row in rows)


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL, abs_tol=0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_rows_reproduce(family):
    for row in _golden():
        if row["input"]["family"] != family:
            continue
        got, want = price(row["input"]), row["output"]
        context = (row["input"], got, want)
        assert got["fits"] == want["fits"], context
        assert got["cuts"] == want["cuts"], context
        for key in ("throughput", "memory_total"):
            assert _close(got[key], want[key]), (key, context)
        for group in ("components", "hidden"):
            assert got[group].keys() == want[group].keys(), context
            for name, value in want[group].items():
                assert _close(got[group][name], value), (name, context)


@pytest.mark.parametrize("family", FAMILIES)
def test_rows_reproduce_through_predict_batch(family):
    """The columnar path answers every golden row too — vectorized rows
    and the scalar fallback (cuts, timelines) alike."""
    rows = [row for row in _golden() if row["input"]["family"] == family]
    model, trace = family_trace(family)
    batch = predict_batch(trace, model, CLUSTER,
                          [config_of(row["input"]) for row in rows])
    assert batch.num_vectorized > 0 and batch.num_fallback > 0
    assert batch.num_vectorized + batch.num_fallback == len(rows)
    for i, row in enumerate(rows):
        want, context = row["output"], row["input"]
        assert bool(batch.fits[i]) == want["fits"], context
        assert _close(float(batch.throughput[i]), want["throughput"]), \
            context
        assert _close(float(batch.memory_total[i]),
                      want["memory_total"]), context


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    golden = [dict(input=row, output=price(row)) for row in grid()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(row) for row in golden)
                      + "\n]\n")
    print(f"wrote {len(golden)} rows to {GOLDEN}")
