"""The benchmark's own tests: streams, metric names, shims, smoke runs.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, plan, train, tune  # noqa: E402
from perfbench.tracer import Tracer, installed  # noqa: E402

def bench(workload: str, trace: int = 0, seed: int = 3, cwd: Path = ROOT):
    """Run a tiny, 1-second benchmark in a fresh process."""
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


_RUNS: dict = {}


def result(workload: str, trace: int = 0, seed: int = 3) -> tuple[dict, dict]:
    """(info, result) lines of a cached tiny run."""
    key = (workload, trace, seed)
    if key not in _RUNS:
        done = bench(workload, trace, seed)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        _RUNS[key] = (json.loads(lines[-2])["info"], json.loads(lines[-1]))
    return _RUNS[key]


# -- seeded streams ---------------------------------------------------- #
def take(generator, n):
    return [next(generator) for _ in range(n)]


def test_plan_request_stream_is_reproducible():
    pairs = plan.request_round(5, "full")
    assert pairs == plan.request_round(5, "full")
    assert pairs != plan.request_round(6, "full")
    distinct = plan.distinct_requests("full")
    assert len(distinct) == len(set(distinct)) == 24
    twins = [a for a, b in pairs if a == b]
    singles = [r for a, b in pairs if a != b for r in (a, b)]
    # every request once, partnered within its (world, menu) group, plus
    # one twin pair per world size
    assert sorted(map(repr, singles)) == sorted(map(repr, distinct))
    assert all((a.world_size, a.micro_batches) ==
               (b.world_size, b.micro_batches) for a, b in pairs)
    assert sorted(t.world_size for t in twins) == [32, 128, 256]
    assert plan.cold_order(5, distinct) == plan.cold_order(5, distinct)


def test_tune_query_stream_is_reproducible():
    first = take(tune.query_blocks(5, "full"), 4)
    assert first == take(tune.query_blocks(5, "full"), 4)
    assert first != take(tune.query_blocks(6, "full"), 4)
    budgets = tune.SIZES["full"]["budgets"]
    for block in first:
        assert sorted(map(repr, block)) == \
            sorted(map(repr, tune.distinct_requests("full")))
        pairs = len(tune.SIZES["full"]["pairs"])
        assert [r.budget for r in block] == \
            [b for b in budgets for _ in range(pairs)]
    # one family per world size: the stand-in recovers it from tp*dp*pp
    worlds = [w for w, _ in tune.SIZES["full"]["pairs"]]
    assert len(worlds) == len(set(worlds))


def test_train_batches_are_seeded():
    config = train.model_config("tiny")
    a, b = train.make_batches(config, 4), train.make_batches(config, 4)
    c = train.make_batches(config, 5)
    assert all((x[0].numpy() == y[0].numpy()).all() for x, y in zip(a, b))
    assert any((x[0].numpy() != y[0].numpy()).any() for x, y in zip(a, c))


def test_trial_stream_and_outputs_repeat_across_runs():
    tune_a, _ = result("tune_budgeted", seed=3)
    tune_b, _ = result("tune_budgeted", trace=1, seed=3)
    assert tune_a["trial_digest"] == tune_b["trial_digest"]
    assert tune_a["window_cache_digest"] == tune_b["window_cache_digest"]
    train_a, _ = result("train_gpt_tp2", seed=3)
    train_b, _ = result("train_gpt_tp2", trace=1, seed=3)
    assert train_a["loss_digest"] == train_b["loss_digest"]


# -- metric names ------------------------------------------------------ #
def test_benchmark_json_declares_unique_names():
    spec = json.loads(common.SPEC.read_text())
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in spec[kind]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == \
        ["train_gpt_tp2", "plan_predict", "tune_budgeted"]
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in spec["end_to_end"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         ["train_gpt_tp2", "plan_predict", "tune_budgeted"])
def test_every_printed_metric_is_declared(workload, trace):
    info, line = result(workload, trace)
    kind = "per_layer" if trace else "end_to_end"
    units = common.declared_metrics(kind)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == units
    assert info["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_times_are_restated_at_the_reference_speed():
    probe = common.SpeedProbe()
    probe.samples = [2 * common.REFERENCE_S]  # a machine at half speed
    info: dict = {}
    metrics = common.end_to_end([(4.0, 0)], [(10.0, 20, 0)],
                                [("a", 0.1, 0), ("a", 0.3, 0)], probe, info)
    assert metrics["setup_s"] == pytest.approx(2.0)
    assert metrics["throughput_per_s"] == pytest.approx(4.0)
    assert metrics["latency_p50_ms"] == pytest.approx(100.0)
    assert info["wall_clock"]["latency_p50_ms"] == pytest.approx(200.0)
    assert set(metrics) == set(common.declared_metrics("end_to_end"))


def test_emit_rejects_undeclared_and_missing_names():
    values = {name: 1.0 for name in common.declared_metrics("end_to_end")}
    common.emit(values, "end_to_end")
    with pytest.raises(KeyError):
        common.emit({**values, "made_up_ms": 1.0}, "end_to_end")
    with pytest.raises(KeyError):
        common.emit({k: v for k, v in values.items() if k != "setup_s"},
                    "end_to_end")


# -- shims ------------------------------------------------------------- #
def all_probes():
    return (plan.service_probes({}) + tune.tune_probes()
            + train._collective_probes())


def test_shims_restore_the_original_objects():
    probes = all_probes()
    before = [vars(p.owner)[p.attr] for p in probes]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with installed(tracer, probes):
            for probe, original in zip(probes, before):
                assert vars(probe.owner)[probe.attr] is not original
            raise RuntimeError("restored even when the block raises")
    for probe, original in zip(probes, before):
        assert vars(probe.owner)[probe.attr] is original
    assert plan.generators.make_program is plan.MAKE_PROGRAM


def test_shimmed_classmethod_still_works_and_is_timed():
    from repro.sim import BatchPoints

    tracer = Tracer()
    configs = [{"tp": 2, "dp": 2, "pp": 1, "micro_batch": 1}]
    with installed(tracer, plan.service_probes({})):
        points = BatchPoints.from_configs(configs)
    assert isinstance(vars(BatchPoints)["from_configs"], classmethod)
    assert len(points) == 1 and int(points.tp[0]) == 2
    [span] = tracer.named("sim.lower")
    assert span.end >= span.start and span.parent is None


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer", rid="r1"):
        with tracer.span("inner"):
            pass
    [outer] = tracer.named("outer")
    [inner] = tracer.named("inner")
    assert inner.parent == outer.sid and inner.rid == "r1"
    assert tracer.self_times("outer") == \
        [pytest.approx(outer.duration - inner.duration)]


# -- smoke runs -------------------------------------------------------- #
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         ["train_gpt_tp2", "plan_predict", "tune_budgeted"])
def test_tiny_run_passes_its_output_checks(workload, trace):
    info, line = result(workload, trace)
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] > 0
    assert info["failed_frac"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("train_gpt_tp2", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
