"""scripts/bench_pairs.py: parsing a benchmark run and judging the pairs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _stdout(values, failed=0, digest="abc"):
    """What ``perfbench/run.py`` prints: the info line, then the result."""
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in END_TO_END}
    return "\n".join([
        "some log line",
        json.dumps({"info": {"seed": 1, "loss_digest": digest, "nproc": 2}}),
        json.dumps({"correct": failed == 0, "attempted": 10,
                    "failed": failed, "metrics": metrics}),
    ])


def _values(scale=1.0):
    return {"setup_s": 0.2 * scale, "peak_rss_mb": 100.0,
            "throughput_per_s": 5.0 / scale, "latency_p50_ms": 150 * scale,
            "latency_p90_ms": 160 * scale}


def test_parse_result_reads_values_failures_and_digests():
    run = bench_pairs.parse_result(_stdout(_values(), failed=1))
    assert run == {"metrics": _values(), "failed": 1, "attempted": 10,
                   "digests": {"loss_digest": "abc"}}
    assert bench_pairs.parse_result("Traceback ...") is None


def test_report_holds_each_median_to_its_bound(capsys):
    parent = bench_pairs.parse_result(_stdout(_values()))
    within = bench_pairs.parse_result(_stdout(_values(1.1)))
    assert bench_pairs.report("w", END_TO_END, [(parent, within)] * 3)
    out = capsys.readouterr().out
    assert "loss_digest: equal on 3/3 pairs" in out
    assert "OVER BOUND" not in out
    over = bench_pairs.parse_result(_stdout(_values(1.5), digest="def"))
    assert not bench_pairs.report("w", END_TO_END, [(parent, over)] * 3)
    out = capsys.readouterr().out
    assert out.count("OVER BOUND") == 4  # every metric but peak RSS
    assert "loss_digest: equal on 0/3 pairs" in out


def test_report_fails_when_the_change_fails_more_operations():
    parent = bench_pairs.parse_result(_stdout(_values()))
    failing = bench_pairs.parse_result(_stdout(_values(), failed=1))
    assert not bench_pairs.report("w", END_TO_END, [(parent, failing)])
