"""The schedule-generator registry: named tick-program families.

Each generator builds a :class:`~repro.pipeline.tick_program.TickProgram`
for a (stage count, micro-batch count) pair:

``gpipe``
    All forwards, then all backwards — maximal in-flight memory
    (every stage holds all ``m`` micro-batches), simplest schedule.
``1f1b``
    Megatron-LM's one-forward-one-backward: stage ``s`` warms up with
    ``min(p - s - 1, m)`` forwards, alternates F/B, drains.  Stage ``s``
    holds at most ``min(p - s, m)`` activations in flight.
``interleaved``
    Virtual stages (Megatron-LM SC'21): each physical stage hosts
    ``num_chunks`` model chunks; 1F1B over the ``p · v`` virtual stages
    is projected onto the physical stages.  Smaller per-chunk bubble
    terms, at the price of ``v×`` the P2P boundary traffic.
``zb``
    Zero-bubble-style (ZB-H1): backward is split into ``B`` (input
    gradient — on the critical path between stages) and ``W`` (weight
    gradient — needed only by the optimizer).  Each stage runs ``W``
    right after its ``B``, so ``W`` work fills the cool-down gaps a
    plain 1F1B schedule leaves idle while waiting for downstream ``B``
    hops; the activation-release points (and therefore peak memory)
    match 1F1B exactly.

Registering a new generator makes it executable by
:class:`repro.baselines.pipeline_runtime.PipelineRuntime`, priceable by
:mod:`repro.sim.pipeline`, searchable by ``plan_pipeline_schedule`` and
the tuner's ``pipeline_schedule`` knob, and fuzzable via
``ScheduleSpec.pipeline_schedule`` — with no further wiring.  A generator
that cannot express every ``(p, m)`` point registers a ``check`` that
raises exactly where its builder would (see :class:`GeneratorInfo`), so
planners can ask "is this point expressible?" without building a program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .tick_program import TickOp, TickProgram

DEFAULT_SCHEDULE = "1f1b"

#: fraction of the backward pass attributed to the weight-gradient (W)
#: tick when a schedule splits backward; the remaining input-gradient
#: (B) share carries the recompute and communication
ZB_WEIGHT_FRACTION = 0.5


def check_counts(num_stages: int, num_micro: int) -> None:
    """Every schedule's precondition: at least one stage and one
    micro-batch."""
    if num_stages < 1 or num_micro < 1:
        raise ValueError(
            f"need at least one stage and one micro-batch, got "
            f"p={num_stages}, m={num_micro}"
        )


def check_divisible(num_stages: int, num_micro: int) -> None:
    """:func:`check_counts`, plus Megatron's interleaving constraint
    ``num_micro % num_stages == 0``."""
    check_counts(num_stages, num_micro)
    if num_micro % num_stages != 0:
        raise ValueError(
            f"interleaved schedules need num_micro divisible by "
            f"num_stages (got m={num_micro}, p={num_stages})"
        )


@dataclass(frozen=True)
class GeneratorInfo:
    """Registry row: how to build (and execute/price) one schedule family."""

    name: str
    build: Callable[[int, int], TickProgram]
    #: model chunks per physical stage the runtime must provide
    num_chunks: int = 1
    #: whether the program emits separate B/W backward ticks
    split_backward: bool = False
    #: one-line summary (docs / benchmark panels)
    summary: str = ""
    #: ``check(p, m)`` raises the ``ValueError`` ``build(p, m)`` would,
    #: without building anything — whether a (p, m) point is expressible
    #: is a property of the generator, not of a materialized program
    check: Callable[[int, int], None] = check_counts


def _one_f_one_b_local(p: int, m: int, s: int) -> list[tuple[str, int]]:
    """Stage ``s``'s 1F1B sequence: warm-up F's, steady F/B, drain B's."""
    warmup = min(p - s - 1, m)
    seq = [("F", i) for i in range(warmup)]
    for k in range(m - warmup):
        seq.append(("F", warmup + k))
        seq.append(("B", k))
    for k in range(max(m - warmup, 0), m):
        seq.append(("B", k))
    return seq


def gpipe_program(num_stages: int, num_micro: int) -> TickProgram:
    """All forwards then all backwards (backwards in reverse micro order)."""
    stage_ops = tuple(
        tuple([TickOp(s, "F", i) for i in range(num_micro)]
              + [TickOp(s, "B", i) for i in reversed(range(num_micro))])
        for s in range(num_stages)
    )
    return TickProgram(name="gpipe", num_stages=num_stages,
                       num_micro=num_micro, stage_ops=stage_ops)


def one_f_one_b_program(num_stages: int, num_micro: int) -> TickProgram:
    """Megatron-LM 1F1B (see :func:`_one_f_one_b_local`)."""
    stage_ops = tuple(
        tuple(TickOp(s, kind, i)
              for kind, i in _one_f_one_b_local(num_stages, num_micro, s))
        for s in range(num_stages)
    )
    return TickProgram(name="1f1b", num_stages=num_stages,
                       num_micro=num_micro, stage_ops=stage_ops)


def zb_program(num_stages: int, num_micro: int) -> TickProgram:
    """ZB-H1-style: 1F1B with backward split into B + W ticks.

    Derived from the 1F1B per-stage sequences by expanding every
    backward into ``B(i), W(i)``: in the steady phase ``W`` runs where
    the full backward ran (same busy time), and in the cool-down phase
    each ``W`` executes while the stage would otherwise sit idle
    waiting for the downstream ``B`` hop — the cross-stage critical
    path steps in units of ``t_B`` instead of ``t_B + t_W``, which is
    exactly where the bubble saving comes from.  In-flight activation
    counts (released at ``B``) match 1F1B, so peak memory is equal.
    """
    stage_ops = []
    for s in range(num_stages):
        ops: list[TickOp] = []
        for kind, i in _one_f_one_b_local(num_stages, num_micro, s):
            ops.append(TickOp(s, kind, i))
            if kind == "B":
                ops.append(TickOp(s, "W", i))
        stage_ops.append(tuple(ops))
    return TickProgram(name="zb", num_stages=num_stages,
                       num_micro=num_micro, split_backward=True,
                       stage_ops=tuple(stage_ops))


def interleaved_program(num_stages: int, num_micro: int,
                        num_chunks: int = 2) -> TickProgram:
    """Megatron-LM SC'21 interleaved 1F1B over virtual stages.

    Each physical stage hosts ``v = num_chunks`` model chunks (virtual
    stage ``vs`` = chunk ``vs // p`` of physical stage ``vs % p``).
    Micro-batches advance in groups of ``p``: stage ``s`` warms up with
    ``2(p - s - 1) + (v - 1)·p`` chunk-forwards, then alternates one
    chunk-forward / one chunk-backward, then drains — forward counter
    ``k`` works on chunk ``(k mod p·v) // p`` of micro-batch
    ``(k // p·v)·p + k mod p`` (backwards walk the chunks in reverse).
    The warm-up cap keeps per-chunk in-flight counts bounded while the
    smaller per-tick work (``1/v`` of the stage) shrinks the pipeline
    fill/drain bubble; the price is ``v×`` the P2P boundary traffic.

    Requires ``num_micro % num_stages == 0`` (Megatron's constraint —
    the chunk/micro mapping advances in full groups of ``p``).
    """
    check_divisible(num_stages, num_micro)
    p, m, v = num_stages, num_micro, num_chunks

    def fwd_item(k: int) -> tuple[int, int]:
        """(chunk, micro) of the ``k``-th chunk-forward on any stage."""
        group, within = divmod(k, p * v)
        return within // p, group * p + within % p

    def bwd_item(k: int) -> tuple[int, int]:
        group, within = divmod(k, p * v)
        return v - 1 - within // p, group * p + within % p

    total = m * v  # chunk-work items per stage, each direction
    stage_ops: list[tuple[TickOp, ...]] = []
    for s in range(p):
        warmup = min(2 * (p - s - 1) + (v - 1) * p, total)
        ops: list[TickOp] = []
        kf = kb = 0
        for kf in range(warmup):
            chunk, micro = fwd_item(kf)
            ops.append(TickOp(s, "F", micro, chunk=chunk))
        kf, kb = warmup, 0
        while kf < total:
            chunk, micro = fwd_item(kf)
            ops.append(TickOp(s, "F", micro, chunk=chunk))
            kf += 1
            chunk, micro = bwd_item(kb)
            ops.append(TickOp(s, "B", micro, chunk=chunk))
            kb += 1
        while kb < total:
            chunk, micro = bwd_item(kb)
            ops.append(TickOp(s, "B", micro, chunk=chunk))
            kb += 1
        stage_ops.append(tuple(ops))
    return TickProgram(name="interleaved", num_stages=p,
                       num_micro=m, num_chunks=v,
                       stage_ops=tuple(stage_ops))


SCHEDULE_GENERATORS: dict[str, GeneratorInfo] = {
    "gpipe": GeneratorInfo(
        "gpipe", gpipe_program,
        summary="all forwards then all backwards; holds all m in flight"),
    "1f1b": GeneratorInfo(
        "1f1b", one_f_one_b_program,
        summary="Megatron 1F1B; stage s holds min(p - s, m) in flight"),
    "interleaved": GeneratorInfo(
        "interleaved", interleaved_program, check=check_divisible,
        num_chunks=2,
        summary="virtual stages (2 chunks/stage); smaller bubble, v× P2P"),
    "zb": GeneratorInfo(
        "zb", zb_program, split_backward=True,
        summary="zero-bubble split backward (B+W); 1F1B memory, less "
                "bubble"),
}

SCHEDULE_NAMES = tuple(SCHEDULE_GENERATORS)


def schedule_info(name: str) -> GeneratorInfo:
    """Look up a registered generator; raises ``ValueError`` on unknowns."""
    try:
        return SCHEDULE_GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown pipeline schedule {name!r} (registered: "
            f"{', '.join(SCHEDULE_GENERATORS)})"
        ) from None


def schedule_num_chunks(name: str) -> int:
    """Model chunks per physical stage the named schedule requires."""
    return schedule_info(name).num_chunks


@lru_cache(maxsize=None)
def make_program(name: str, num_stages: int, num_micro: int) -> TickProgram:
    """Build (and cache) the named schedule's tick program."""
    info = schedule_info(name)
    info.check(num_stages, num_micro)
    return info.build(num_stages, num_micro)


@lru_cache(maxsize=None)
def schedule_peak_chunks(name: str, num_stages: int,
                         num_micro: int) -> tuple[int, ...]:
    """Per-physical-stage peak in-flight chunk counts of a schedule.

    The program-derived generalization of the closed-form
    ``min(p - s, m)`` 1F1B rule — :func:`repro.sim.pipeline` divides by
    the schedule's ``num_chunks`` to convert chunk units into
    micro-batches of full-stage activations.
    """
    return make_program(name, num_stages, num_micro).stage_peaks()
