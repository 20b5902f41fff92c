"""Replayable schedule specs: the fuzzer's serialization format.

A :class:`ScheduleSpec` pins everything needed to re-run one differential
verification: the model family (instantiated at a fuzz-sized config), the
mesh factorization, the ZeRO stage, the seed, and the *steps* — a JSON
list of primitive applications.  A step is either a raw registered
primitive (``{"op": "checkpoint", "path": "bert.encoder.layer.0"}``) or a
named macro (``tp_vocab``, ``tp_attention``, ``tp_mlp``, ``tp_conv_pair``,
``moe_ep``, ``flash_attention``, ``fusion``) that applies one step of the
family's :data:`repro.schedules.LAYOUTS` entry — the code the family's
shipped schedule runs.

When a fuzzed schedule fails verification the spec is written to
``scripts/repros/``; ``python scripts/fuzz_schedules.py --replay <file>``
re-runs it, and :func:`shrink` greedily deletes steps while the failure
still reproduces, leaving a minimal offending primitive sequence.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.distributed import ParallelConfig
from repro.framework import manual_seed
from repro.models import MODEL_ZOO, data
# A module import: repro.schedules itself imports repro.slapo.
import repro.schedules as recipes

from ..schedule import Schedule
from .core import VerificationError, VerifyReport, verify

FORMAT = "slapo-fuzz-repro/v1"


# --------------------------------------------------------------------- #
# Family metadata: the fuzz-only facts of each zoo family
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FamilyInfo:
    """Fuzz-facing description of one MODEL_ZOO family.  Its layer paths
    and steps are the family's :data:`repro.schedules.LAYOUTS` entry."""

    family: str
    #: extra ``config.tiny()`` overrides for a fuzz-friendly shape
    tiny_overrides: dict = field(default_factory=dict)
    #: sequence length of synthetic batches (transformers only)
    seq_len: int = 6
    #: whether pipeline_split cuts are known-good for this family
    pp_ok: bool = True
    #: largest tensor-parallel degree the tiny config divides by
    max_tp: int = 4
    #: largest expert-parallel degree (1 = the family has no expert axis)
    max_ep: int = 1

    def tiny_config(self):
        _, config = MODEL_ZOO[self.family]
        return config.tiny(**self.tiny_overrides)

    def model_factory(self, config):
        cls, _ = MODEL_ZOO[self.family]
        return lambda: cls(config)


def _transformer_tiny(**extra):
    base = {"num_heads": 4, "hidden_size": 32, "intermediate_size": 64}
    base.update(extra)
    return base


FAMILY_INFO: dict[str, FamilyInfo] = {
    "BERT": FamilyInfo("BERT", _transformer_tiny()),
    "RoBERTa": FamilyInfo("RoBERTa", _transformer_tiny()),
    "GPT": FamilyInfo("GPT", _transformer_tiny()),
    "MoE-GPT": FamilyInfo("MoE-GPT", _transformer_tiny(), max_ep=4),
    "OPT": FamilyInfo("OPT", _transformer_tiny()),
    "LLaMA-7B": FamilyInfo("LLaMA-7B", _transformer_tiny()),
    "T5": FamilyInfo("T5", _transformer_tiny(kv_dim=None), pp_ok=False),
    "WideResNet": FamilyInfo("WideResNet", {}, pp_ok=False, max_tp=4),
}


# --------------------------------------------------------------------- #
# Macros: the family layouts' steps, by name
# --------------------------------------------------------------------- #
#: macro name → the :class:`repro.schedules.common.Layout` step it applies
#: (``tp_vocab`` on the root schedule, the others on one layer)
MACROS: dict[str, str] = {
    "tp_vocab": "vocab",
    "tp_attention": "attention",
    "tp_mlp": "mlp",
    "tp_conv_pair": "conv_pair",
    "moe_ep": "experts",
    "flash_attention": "flash",
    "fusion": "fusion",
}


# --------------------------------------------------------------------- #
# The spec
# --------------------------------------------------------------------- #
@dataclass
class ScheduleSpec:
    """A replayable, JSON-serializable schedule under test."""

    family: str
    tp: int = 1
    dp: int = 1
    pp: int = 1
    ep: int = 1
    zero_stage: int = 0
    seed: int = 0
    batch: int = 4
    #: micro-batch count the simulator cross-check prices (pp > 1)
    num_micro_batches: int = 1
    #: tick program the pipeline executes/prices under (pp > 1)
    pipeline_schedule: str = "1f1b"
    #: bucket size (MB) for ``.overlap_grad_sync``, or None for no overlap.
    #: A dedicated field rather than a step: :func:`shrink` deletes steps
    #: only, so a minimized repro always keeps the overlap property that
    #: (possibly) provoked the failure.
    overlap_grad_sync: float | None = None
    steps: list = field(default_factory=list)
    note: str = ""

    @property
    def world_size(self) -> int:
        return self.tp * self.ep * self.dp * self.pp

    @property
    def parallel(self) -> ParallelConfig:
        return ParallelConfig(tp=self.tp, dp=self.dp, pp=self.pp,
                              ep=self.ep)

    def to_json(self) -> str:
        payload = {"format": FORMAT, **asdict(self)}
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleSpec":
        payload = json.loads(text)
        fmt = payload.pop("format", FORMAT)
        if fmt != FORMAT:
            raise ValueError(f"unsupported repro format {fmt!r} "
                             f"(this build reads {FORMAT!r})")
        return cls(**payload)

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path) -> "ScheduleSpec":
        return cls.from_json(Path(path).read_text())


def apply_step(sch: Schedule, config, tp: int, step: dict) -> None:
    """Apply one spec step (raw primitive or macro) to a schedule."""
    op = step["op"]
    path = step.get("path", "")
    target = sch[path] if path else sch
    if op not in MACROS:
        getattr(target, op)(*step.get("args", ()),
                            **step.get("kwargs", {}))
        return
    family = sch.context.metadata["fuzz_family"]
    layout = recipes.LAYOUTS[family]
    layout_step = getattr(layout, MACROS[op])
    if layout_step is None:
        raise ValueError(f"{op} has no layout step for {family!r}")
    if op == "tp_vocab":
        layout_step(target, layout.prefix)
    else:
        layout_step(target, config, tp)


def apply_steps(sch: Schedule, spec: ScheduleSpec) -> Schedule:
    """Apply a spec's steps to a schedule (the replayable schedule_fn)."""
    info = FAMILY_INFO[spec.family]
    config = info.tiny_config()
    sch.context.metadata["fuzz_family"] = spec.family
    tp = sch.mesh.tp_group.size
    for step in spec.steps:
        apply_step(sch, config, tp, step)
    # Overlap is applied after the steps so its backward hooks see the
    # final module tree (replacements, fusions, expert slices included).
    if spec.overlap_grad_sync:
        sch.overlap_grad_sync(bucket_mb=float(spec.overlap_grad_sync))
    return sch


def replay(spec: ScheduleSpec | str | Path, **overrides) -> VerifyReport:
    """Re-run the differential verification a spec describes.

    Accepts a spec object or a path to a saved repro JSON.  Raises
    :class:`VerificationError` when the divergence still reproduces;
    returns the :class:`VerifyReport` when it does not.
    """
    if not isinstance(spec, ScheduleSpec):
        spec = ScheduleSpec.load(spec)
    info = FAMILY_INFO[spec.family]
    config = info.tiny_config()

    def inputs():
        manual_seed(1234)
        return data.example_inputs(spec.family, config, spec.batch,
                                   info.seq_len)

    return verify(
        model_factory=info.model_factory(config),
        schedule_fn=lambda sch: apply_steps(sch, spec),
        inputs_factory=inputs,
        world_size=spec.world_size,
        parallel=spec.parallel,
        seed=spec.seed,
        zero_stage=spec.zero_stage,
        **overrides,
    )


def still_fails(spec: ScheduleSpec) -> bool:
    """Whether replaying the spec still raises a verification failure.

    Any *other* error (a SchedulingError from a now-invalid sequence, a
    cluster crash) counts as "does not reproduce" — shrinking must keep
    the sequence both valid and failing.
    """
    from repro.distributed.cluster import ClusterError

    try:
        replay(spec)
    except VerificationError:
        return True
    except ClusterError as error:
        return isinstance(error.original, VerificationError)
    except Exception:
        return False
    return False


def shrink(spec: ScheduleSpec,
           reproduces: Callable[[ScheduleSpec], bool] | None = None
           ) -> ScheduleSpec:
    """Greedy primitive deletion: drop every step the failure survives.

    Restarts the scan after each successful deletion, so the result is
    1-minimal — removing any single remaining step makes the failure
    disappear (or the schedule invalid).
    """
    reproduces = reproduces or still_fails
    steps = list(spec.steps)
    changed = True
    while changed:
        changed = False
        for index in range(len(steps)):
            candidate = replace(spec, steps=steps[:index] + steps[index + 1:])
            if reproduces(candidate):
                steps = list(candidate.steps)
                changed = True
                break
    return replace(spec, steps=steps)
