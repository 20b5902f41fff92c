"""repro.pipeline — pipeline schedules as data (tick-program IR).

Dependency-free core shared by the functional runtime
(:mod:`repro.baselines.pipeline_runtime`), the performance simulator
(:mod:`repro.sim.pipeline`), the tuner's ``pipeline_schedule`` knob and
the schedule fuzzer: a :class:`TickProgram` IR with a dependency
validator and deadlock-free linearizer, a registry of schedule
generators (``gpipe`` / ``1f1b`` / ``interleaved`` / ``zb``), and a
per-stage timeline simulator that prices any program exactly.
"""

from .generators import (
    DEFAULT_SCHEDULE,
    SCHEDULE_GENERATORS,
    SCHEDULE_NAMES,
    ZB_WEIGHT_FRACTION,
    GeneratorInfo,
    check_counts,
    gpipe_program,
    interleaved_program,
    make_program,
    one_f_one_b_program,
    schedule_info,
    schedule_num_chunks,
    schedule_peak_chunks,
    zb_program,
)
from .tick_program import (
    OP_KINDS,
    ScheduleValidationError,
    TickOp,
    TickProgram,
)
from .timeline import ProgramTimeline, simulate_program

__all__ = [
    "TickOp", "TickProgram", "OP_KINDS", "ScheduleValidationError",
    "GeneratorInfo", "SCHEDULE_GENERATORS", "SCHEDULE_NAMES",
    "DEFAULT_SCHEDULE", "ZB_WEIGHT_FRACTION",
    "check_counts", "make_program", "schedule_info", "schedule_num_chunks",
    "schedule_peak_chunks",
    "gpipe_program", "one_f_one_b_program", "interleaved_program",
    "zb_program",
    "ProgramTimeline", "simulate_program",
]
