"""Lint every registered pipeline schedule generator over a (p, m) grid.

For each schedule in :data:`repro.pipeline.SCHEDULE_NAMES` and every
expressible grid point, the generated tick program must validate (stage
assignment, work coverage, local op order), linearize without deadlock,
and report in-flight peaks that agree with a direct replay of the linear
order.  A generator that silently emits an invalid or deadlocking
program is exactly the bug class this lint exists to catch before the
runtime or simulator trips over it.

Each generator's ``check(p, m)`` precondition is also held to its
builder: over the grid (plus ``p = 0`` and ``m = 0``) it must raise
exactly where ``make_program`` raises, since planners ask ``check``
instead of building programs.

Wired into ``make test``; run directly with
``python scripts/validate_schedules.py [--max-stages N] [--max-micro M]``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.pipeline import (  # noqa: E402
    SCHEDULE_GENERATORS,
    SCHEDULE_NAMES,
    ScheduleValidationError,
    make_program,
    schedule_info,
    simulate_program,
)


def raises(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return True
    return False


def check_agrees(name: str, p: int, m: int) -> list[str]:
    """``schedule_info(name).check`` raises iff ``make_program`` does."""
    checked = raises(schedule_info(name).check, p, m)
    built = raises(make_program, name, p, m)
    if checked == built:
        return []
    return [f"{name} p={p} m={m}: check {'raises' if checked else 'passes'}"
            f" but make_program {'raises' if built else 'builds'}"]


def lint_point(name: str, p: int, m: int) -> list[str]:
    """All complaints about one (schedule, stages, micro-batches) point."""
    problems: list[str] = []
    try:
        program = make_program(name, p, m)
    except ValueError:
        return []  # inexpressible point (e.g. interleaved with m % p != 0)
    try:
        program.validate()
    except ScheduleValidationError as error:
        return [f"{name} p={p} m={m}: invalid program: {error}"]
    try:
        linear = program.linearize()
    except ScheduleValidationError as error:
        return [f"{name} p={p} m={m}: deadlocked: {error}"]

    inflight, peak = [0] * p, [0] * p
    for op in linear:
        if op.kind == "F":
            inflight[op.stage] += 1
        elif op.kind == "B":
            inflight[op.stage] -= 1
        if inflight[op.stage] < 0:
            problems.append(f"{name} p={p} m={m}: stage {op.stage} "
                            f"retires more chunks than it admitted")
        peak[op.stage] = max(peak[op.stage], inflight[op.stage])
    if program.stage_peaks() != tuple(peak):
        problems.append(
            f"{name} p={p} m={m}: stage_peaks() {program.stage_peaks()} "
            f"!= replayed peaks {tuple(peak)}")
    # unit-cost timeline must schedule every op (no starved stage)
    timeline = simulate_program(program, {"F": 1.0, "B": 1.0, "W": 1.0})
    if len(timeline.ops) != sum(len(ops) for ops in program.stage_ops):
        problems.append(f"{name} p={p} m={m}: timeline dropped ops")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-stages", type=int, default=6)
    parser.add_argument("--max-micro", type=int, default=12)
    args = parser.parse_args()

    failures: list[str] = []
    points = 0
    for name in SCHEDULE_NAMES:
        expressed = 0
        for p in range(args.max_stages + 1):
            for m in range(args.max_micro + 1):
                failures.extend(check_agrees(name, p, m))
                if p == 0 or m == 0:
                    continue
                failures.extend(lint_point(name, p, m))
                if not raises(make_program, name, p, m):
                    expressed += 1
                    points += 1
        if not expressed:
            failures.append(f"{name}: expresses no grid point at all")
        info = SCHEDULE_GENERATORS[name]
        print(f"  {name:>12}: {expressed} grid points ok "
              f"(chunks={info.num_chunks}, "
              f"split_backward={info.split_backward})")

    if failures:
        print(f"schedule lint FAILED ({len(failures)} problems):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"schedule lint ok ({len(SCHEDULE_NAMES)} schedules, "
          f"{points} grid points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
