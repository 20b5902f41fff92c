"""Paired benchmark runs: a parent revision against the working tree.

    python scripts/bench_pairs.py <parent-rev> [--pairs 10] [--first-seed 1]
                                  [--workload NAME ...]

Exports ``<parent-rev>``'s committed files to a temporary directory
(``git archive``, so an interrupted run leaves nothing registered in the
repository) and runs ``BENCHMARK.json``'s command on it and on the
working tree, once per side for each pair, at the benchmark's
``run_seconds``.  Pair ``i`` runs seed ``first_seed + i`` on both sides;
even pairs run the parent first, odd pairs the change, so a drift in host
speed favours neither side.

Per workload and end-to-end metric it prints both sides' medians and
interquartile ranges, the change's median against the parent's, the pairs
the change wins (ties count for neither) and the metric's bound, which
it reads from ``BENCHMARK.json`` and never edits.  Per workload it prints
the failed operations and whether each output digest on the info line
matched on every pair.  It exits 1 when a change median is worse than the
parent's by more than its bound or the change fails more operations.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="a BENCHMARK.json workload (default: all)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def export(rev: str, dest: Path) -> None:
    """``rev``'s committed files under ``dest``."""
    archive = dest.parent / "parent.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive),
                    rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def parse_result(stdout: str) -> dict | None:
    """A run's metric values, failures and info-line digests, or None
    when its output holds no result."""
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if len(lines) < 2:
        return None
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    return {"metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"],
            "digests": {key: value for key, value in info.items()
                        if key.endswith("digest")}}


def run_once(root: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run, parsed by :func:`parse_result`."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=False)
    parsed = parse_result(proc.stdout)
    if parsed is None:
        raise RuntimeError(f"{workload} seed {seed} in {root} printed no "
                           f"result:\n{proc.stderr[-2000:]}")
    return parsed


def worse_by(metric: dict, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, as a fraction."""
    delta = change - parent if metric["better"] == "lower" \
        else parent - change
    return delta / abs(parent) if parent else 0.0


def report(workload: str, metrics: list, runs: list) -> bool:
    """Print one workload's table; True when it stays within its bounds."""
    ok = True
    print(f"\n{workload}: {len(runs)} pairs")
    print(f"  {'metric':<18}{'parent p50':>12}{'IQR':>10}{'change p50':>12}"
          f"{'IQR':>10}{'change':>9}{'wins':>7}{'bound':>8}")
    for metric in metrics:
        name = metric["name"]
        parent = np.array([p["metrics"][name] for p, _ in runs])
        change = np.array([c["metrics"][name] for _, c in runs])
        p50, c50 = np.median(parent), np.median(change)
        p_iqr = np.subtract(*np.percentile(parent, [75, 25]))
        c_iqr = np.subtract(*np.percentile(change, [75, 25]))
        wins = int(np.sum(parent > change if metric["better"] == "lower"
                          else change > parent))
        worse = worse_by(metric, p50, c50)
        verdict = "" if worse <= metric["bound"] else "  OVER BOUND"
        ok &= not verdict
        signed = (c50 - p50) / abs(p50) if p50 else 0.0
        print(f"  {name:<18}{p50:>12.4g}{p_iqr:>10.3g}{c50:>12.4g}"
              f"{c_iqr:>10.3g}{signed:>+9.1%}{wins:>4}/{len(runs):<2}"
              f"{metric['bound']:>8.0%}{verdict}")
    failed = [sum(side["failed"] for side in pair) for pair in zip(*runs)]
    attempted = [sum(side["attempted"] for side in pair)
                 for pair in zip(*runs)]
    print(f"  failed: parent {failed[0]}/{attempted[0]}, "
          f"change {failed[1]}/{attempted[1]}")
    ok &= failed[1] <= failed[0]
    for key in sorted(runs[0][0]["digests"]):
        equal = sum(p["digests"].get(key) == c["digests"].get(key)
                    for p, c in runs)
        print(f"  {key}: equal on {equal}/{len(runs)} pairs")
    return ok


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    unknown = set(workloads) - {w["name"] for w in bench["workloads"]}
    if unknown:
        print(f"bench_pairs: unknown workloads {sorted(unknown)}",
              file=sys.stderr)
        return 2
    command, seconds = bench["command"], bench["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        parent_root = scratch / "parent"
        export(args.parent, parent_root)
        ok = True
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                sides = [("parent", parent_root), ("change", ROOT)]
                order = sides if i % 2 == 0 else sides[::-1]
                result = {name: run_once(root, command, workload, seed,
                                         seconds)
                          for name, root in order}
                runs.append((result["parent"], result["change"]))
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}, "
                      f"{order[0][0]} first) done", file=sys.stderr,
                      flush=True)
            ok &= report(workload, bench["end_to_end"], runs)
        return 0 if ok else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
