"""Schedule fuzzing: generative differential verification (paper §3.5 at
scale).

Hand-written tests enumerate a fixed list of schedules; every new
scheduling axis (sharding, fusion, checkpointing, pipeline cuts, ZeRO,
tuner configs) multiplies the space they cannot cover.  This module turns
correctness into a *generator*:

1. :func:`sample_spec` deterministically samples a random **valid**
   primitive sequence for a MODEL_ZOO family — mesh factorization and ZeRO
   stage drawn from a define-by-run space
   (:func:`repro.slapo.tuner.space.parallelism_symbols`), primitives drawn
   from the registry's ``fuzz_candidates`` hooks plus the tensor-parallel /
   kernel macros of :mod:`.spec` — validated step-by-step against each
   primitive's ``check()`` on a dry-run schedule, so sampled sequences are
   valid by construction.
2. :func:`run_fuzz` differentially verifies every sampled schedule on a
   :class:`~repro.distributed.cluster.LocalCluster` (eval outputs, training
   gradients, optimizer step — see :func:`.core.verify`), serializes any
   failure to a replayable JSON repro, and shrinks it to a minimal
   sequence by greedy deletion.
3. Each sampled configuration also cross-checks the performance simulator
   (:func:`check_sim_invariants`): memory monotone in ZeRO stage and dp,
   additive step-time breakdowns, and planner/runtime agreement on the
   ``m >= pp`` pipeline-fill rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.distributed import DeviceMesh
from repro.distributed.cluster import ClusterError
from repro.framework import manual_seed
from repro.pipeline import DEFAULT_SCHEDULE, SCHEDULE_NAMES, make_program, \
    schedule_info
# A module import: repro.schedules itself imports repro.slapo.
import repro.schedules as recipes

from ..registry import SchedulingError, fuzzable_primitives
from ..schedule import create_schedule
from ..tuner.space import parallelism_symbols, sample_space
from .core import VerificationError, VerifyReport
from .spec import FAMILY_INFO, MACROS, ScheduleSpec, apply_step, replay, \
    shrink

#: families the seeded corpus samples by default (≥ 6, per the paper's
#: Table 3 breadth claim); WideResNet joins with a conv-only menu and
#: MoE-GPT brings the expert-parallel (ep) mesh axis
DEFAULT_FAMILIES = ("BERT", "RoBERTa", "GPT", "OPT", "LLaMA-7B", "T5",
                    "WideResNet", "MoE-GPT")

#: module paths per layer the registry sampler may visit (caps dry-run cost)
_MAX_NODES_PER_LAYER = 12


def _mesh_space(info, world_size: int):
    """The define-by-run space of mesh factorizations + ZeRO stages."""

    def update(space):
        symbols = parallelism_symbols(
            space, world_size, max_tp=info.max_tp,
            max_pp=2 if info.pp_ok else 1,
            max_ep=info.max_ep if info.max_ep > 1 else None,
            # pipelined points also draw *how* the stages execute; the
            # declared micro-batch counts are multiples of pp, so every
            # registered tick program is expressible at every point
            pipeline_schedules=SCHEDULE_NAMES)
        tp, dp, pp = symbols[:3]
        if dp > 1:
            space.create_symbol("zero_stage", [0, 1, 2, 3])
        return tp, dp, pp

    return update


def sample_mesh(info, world_size: int, rng) -> dict:
    """One valid (tp, dp, pp, ep, zero_stage, num_micro_batches,
    pipeline_schedule) assignment."""
    config = sample_space(_mesh_space(info, world_size), rng, k=1)[0]
    config.setdefault("ep", 1)
    config.setdefault("zero_stage", 0)
    config.setdefault("num_micro_batches", config.get("pp", 1))
    config.setdefault("pipeline_schedule", DEFAULT_SCHEDULE)
    return config


class _DryRun:
    """The sampler's scratch schedule, kept exactly in sync with the
    recorded steps.

    ``try_step`` applies one candidate and records it when it succeeds.
    On *any* failure — a primitive ``check()`` rejection, a stale path,
    or a macro that raised partway through its primitive sequence — the
    scratch model is rebuilt from scratch and the accepted steps are
    replayed, so the dry state never drifts from what ``apply_steps``
    will reproduce on the cluster ranks (validity by construction).
    """

    def __init__(self, info, config, family: str, parallel, seed: int):
        self.info = info
        self.config = config
        self.family = family
        self.parallel = parallel
        self.seed = seed
        self.steps: list[dict] = []
        self.sch = None
        self._rebuild()

    def _rebuild(self) -> None:
        manual_seed(self.seed)
        model = self.info.model_factory(self.config)()
        mesh = DeviceMesh(self.parallel, rank=0, sim=True)
        self.sch = create_schedule(model, mesh=mesh)
        self.sch.context.metadata["fuzz_family"] = self.family
        for step in self.steps:
            apply_step(self.sch, self.config, self.parallel.tp, step)

    def try_step(self, op: str, path: str, args: tuple = (),
                 kwargs: dict | None = None) -> bool:
        step = {"op": op, "path": path}
        if args:
            step["args"] = list(args)
        if kwargs:
            step["kwargs"] = dict(kwargs)
        try:
            apply_step(self.sch, self.config, self.parallel.tp, step)
        except (SchedulingError, AttributeError):
            # Rejected (primitive check(), stale path, or mid-macro
            # failure): restore the exact accepted-steps state.
            self._rebuild()
            return False
        self.steps.append(step)
        return True


def sample_spec(family: str, world_size: int, seed: int,
                rng: np.random.Generator | None = None) -> ScheduleSpec:
    """Deterministically sample one valid schedule spec.

    The sampler mirrors progressive optimization's phase order — sharding,
    kernel replacement, fusion, structural primitives, pipeline cuts — and
    validates every candidate step against a dry-run schedule (each
    primitive's ``check()`` plus the macro preconditions), so the returned
    spec applies cleanly on every rank.
    """
    info = FAMILY_INFO[family]
    rng = rng or np.random.default_rng(seed)
    mesh_cfg = sample_mesh(info, world_size, rng)
    spec = ScheduleSpec(
        family=family, tp=mesh_cfg["tp"], dp=mesh_cfg["dp"],
        pp=mesh_cfg["pp"], ep=int(mesh_cfg["ep"]),
        zero_stage=int(mesh_cfg["zero_stage"]),
        num_micro_batches=int(mesh_cfg["num_micro_batches"]),
        pipeline_schedule=str(mesh_cfg["pipeline_schedule"]), seed=seed,
        # dp ranks verify on disjoint batch slices, so the global batch
        # must divide evenly (dp can reach 8 at world size 8)
        batch=int(np.lcm(4, mesh_cfg["dp"])))

    config = info.tiny_config()
    dry = _DryRun(info, config, family, spec.parallel, seed)
    layout = recipes.LAYOUTS[family]
    layers = layout.layers(config)

    def has(macro: str) -> bool:
        """Whether the family's layout has the step ``macro`` applies."""
        return getattr(layout, MACROS[macro]) is not None

    # Phase 1: tensor parallelism (closed column→row regions per module).
    if spec.tp > 1:
        if has("tp_vocab") and rng.random() < 0.5:
            dry.try_step("tp_vocab", "")
        for path in layers:
            for macro in ("tp_attention", "tp_mlp", "tp_conv_pair"):
                if has(macro) and rng.random() < 0.7:
                    dry.try_step(macro, path)

    # Phase 1b: expert parallelism (MoE families).  ``shard_experts`` is
    # a no-op on an ep=1 mesh, so the primitive surface is exercised on
    # every mesh while real partitioning (dispatch/combine all-to-alls)
    # happens whenever the sampled factorization has ep > 1.
    if has("moe_ep"):
        for path in layers:
            if rng.random() < 0.7:
                dry.try_step("moe_ep", path)

    # Phase 2: kernel replacement (flash attention cores).
    if has("flash_attention"):
        for path in layers:
            if rng.random() < 0.4:
                dry.try_step("flash_attention", path)

    # Phase 3: operator fusion (decompose + trace + pattern fuse).
    if has("fusion"):
        for path in layers:
            if rng.random() < 0.35:
                dry.try_step("fusion", path)

    # Phase 4: registry-driven structural primitives.  Every primitive
    # that registered ``fuzzable = True`` advertises its own valid
    # invocations per schedule node — user-registered primitives join the
    # fuzz corpus with no changes here.
    in_place = [cls for cls in fuzzable_primitives()
                if not cls.fuzz_wraps_module]
    wrapping = [cls for cls in fuzzable_primitives()
                if cls.fuzz_wraps_module]
    for path in layers:
        nodes = list(dry.sch[path].named_schedules())[:_MAX_NODES_PER_LAYER]
        for node_path, node_sch in nodes:
            for prim in in_place:
                if rng.random() >= 0.15:
                    continue
                try:
                    candidates = prim.fuzz_candidates(node_sch)
                except (SchedulingError, AttributeError):
                    # An earlier accepted step (a module-replacing
                    # primitive like .functionalize()) can strand a
                    # snapshot path; skip it, the rng stream is unchanged.
                    continue
                for args, kwargs in candidates:
                    dry.try_step(prim.name, node_path,
                                 tuple(args), dict(kwargs))
                    break
        # Wrapping primitives (cudagraphify) shift every path beneath the
        # module, so they go last and only at block granularity.
        for prim in wrapping:
            if rng.random() >= 0.15:
                continue
            for args, kwargs in prim.fuzz_candidates(dry.sch[path]):
                dry.try_step(prim.name, path, tuple(args), dict(kwargs))
                break

    # Phase 5: pipeline stage cuts (pp - 1 distinct layer boundaries),
    # plus the root-level tick-program annotation the mesh sample chose.
    if spec.pp > 1:
        cut_indices = sorted(
            rng.choice(len(layers), size=spec.pp - 1, replace=False))
        for index in cut_indices:
            dry.try_step("pipeline_split", layers[int(index)])
        dry.try_step("pipeline_schedule", "", (spec.pipeline_schedule,))

    # Phase 6: data-parallel grad-sync overlap.  A dedicated spec field
    # rather than a step (shrink() must preserve it); validated against
    # the dry schedule like any other candidate.  Tiny buckets dominate
    # so fuzz models (~100 KB of parameters) exercise multi-bucket
    # flushing, not just the tail flush.
    if spec.dp > 1 and spec.pp == 1 and rng.random() < 0.5:
        bucket_mb = float(rng.choice((0.05, 0.25, 25.0)))
        try:
            dry.sch.overlap_grad_sync(bucket_mb=bucket_mb)
        except SchedulingError:
            pass
        else:
            spec = replace(spec, overlap_grad_sync=bucket_mb)

    return replace(spec, steps=dry.steps)


# --------------------------------------------------------------------- #
# Simulator cross-checks
# --------------------------------------------------------------------- #
class SimInvariantError(AssertionError):
    """A fuzzed configuration violated a simulator invariant."""


def check_sim_invariants(spec: ScheduleSpec) -> None:
    """Assert the simulator's structural invariants for one configuration.

    * peak memory is monotone non-increasing in ``zero_stage`` and (for
      partitioned stages) in ``dp``;
    * every step-time breakdown is additive (components sum to the total)
      with no negative component — including under the spec's sampled
      ``pipeline_schedule`` (the timeline pricing path);
    * the spec's tick program validates (dependency-complete,
      deadlock-free — :meth:`repro.pipeline.TickProgram.validate`);
    * the planner and the functional pipeline runtime agree on the
      ``m >= pp`` fill rule, with the runtime instantiated under the
      spec's schedule (chunked stage lists for interleaved programs).
    """
    from repro.baselines.pipeline_runtime import PipelineRuntime
    from repro.distributed.topology import P3DN_NODE, p3dn_cluster
    from repro.framework.module import Module
    from repro.models import MODEL_ZOO, data
    from repro.sim import model_memory, predict_config, step_time, trace_model

    info = FAMILY_INFO[spec.family]
    config = info.tiny_config()
    cls, _ = MODEL_ZOO[spec.family]
    model = cls(config, device="meta")
    trace = trace_model(model, *data.example_inputs(
        spec.family, config, 1, info.seq_len, device="meta"))

    cluster = P3DN_NODE if spec.world_size <= 8 \
        else p3dn_cluster((spec.world_size + 7) // 8)

    # -- partitioned state monotone in zero_stage ----------------------- #
    # Each ZeRO stage partitions strictly more state (optimizer, then
    # gradients, then parameters), so params+grads+optimizer can only
    # shrink.  The *total* is exempt: stage 3 adds a gather workspace of
    # ~2 layers of parameters, which legitimately dominates on tiny
    # few-layer configs while vanishing at real depth.
    def partitioned(breakdown) -> float:
        return breakdown.params + breakdown.grads + breakdown.optimizer

    base = model_memory(model, trace, 1, zero_stage=spec.zero_stage,
                        dp_size=spec.dp)
    mem_gap = abs(base.total - sum(base.components().values()))
    if mem_gap > 1e-9 * max(base.total, 1.0):
        raise SimInvariantError(
            f"{spec.family}: memory breakdown is not additive "
            f"(total {base.total:.6e} vs components "
            f"{sum(base.components().values()):.6e})"
        )

    dp_probe = max(spec.dp, 2)
    states = [partitioned(model_memory(model, trace, 1, zero_stage=stage,
                                       dp_size=dp_probe))
              for stage in (0, 1, 2, 3)]
    for stage in range(1, 4):
        if states[stage] > states[stage - 1] + 1e-6:
            raise SimInvariantError(
                f"{spec.family}: partitioned state grew from ZeRO stage "
                f"{stage - 1} ({states[stage - 1]:.3e}) to stage {stage} "
                f"({states[stage]:.3e})"
            )

    # -- partitioned state monotone in dp under ZeRO-3 ------------------ #
    by_dp = [partitioned(model_memory(model, trace, 1, zero_stage=3,
                                      dp_size=dp))
             for dp in (1, 2, 4)]
    for left, right in zip(by_dp, by_dp[1:]):
        if right > left + 1e-6:
            raise SimInvariantError(
                f"{spec.family}: ZeRO-3 partitioned state grew with more "
                f"dp ranks ({left:.3e} -> {right:.3e})"
            )

    # -- step-time breakdown additivity --------------------------------- #
    schedules = {DEFAULT_SCHEDULE, spec.pipeline_schedule}
    for schedule in sorted(schedules):
        breakdown = step_time(trace, model, cluster, spec.parallel, 1,
                              zero_stage=spec.zero_stage,
                              num_micro_batches=spec.num_micro_batches,
                              pipeline_schedule=schedule)
        parts = breakdown.components()
        gap = abs(breakdown.total - sum(parts.values()))
        if gap > 1e-12 * max(breakdown.total, 1.0):
            raise SimInvariantError(
                f"{spec.family}: step-time breakdown is not additive under "
                f"{schedule!r} (total {breakdown.total:.6e} vs parts "
                f"{sum(parts.values()):.6e})"
            )
        negative = {name: value for name, value in parts.items()
                    if value < 0}
        if negative or breakdown.total <= 0:
            raise SimInvariantError(
                f"{spec.family}: invalid step-time components under "
                f"{schedule!r}: {negative or parts}"
            )

    # -- overlap pricing: still additive, hidden comm non-negative ------ #
    if spec.overlap_grad_sync:
        overlapped = step_time(trace, model, cluster, spec.parallel, 1,
                               zero_stage=spec.zero_stage,
                               overlap_grad_sync=True,
                               overlap_bucket_mb=float(
                                   spec.overlap_grad_sync))
        parts = overlapped.components()
        gap = abs(overlapped.total - sum(parts.values()))
        if gap > 1e-12 * max(overlapped.total, 1.0):
            raise SimInvariantError(
                f"{spec.family}: step-time breakdown is not additive with "
                f"overlap_grad_sync (total {overlapped.total:.6e} vs parts "
                f"{sum(parts.values()):.6e})"
            )
        hidden = overlapped.hidden_components()
        bad_hidden = {name: value for name, value in hidden.items()
                      if not value >= 0}
        if bad_hidden:
            raise SimInvariantError(
                f"{spec.family}: negative hidden communication under "
                f"overlap_grad_sync: {bad_hidden}"
            )

    # -- m >= pp: planner and runtime agree ----------------------------- #
    if spec.pp > 1:
        # the sampled tick program must be structurally sound
        try:
            make_program(spec.pipeline_schedule, spec.pp,
                         spec.num_micro_batches).validate()
        except ValueError as error:
            raise SimInvariantError(
                f"{spec.family}: sampled schedule "
                f"{spec.pipeline_schedule!r} has no valid program at "
                f"pp={spec.pp}, m={spec.num_micro_batches}: {error}"
            ) from None
        starved = predict_config(trace, model, cluster, spec.parallel,
                                 micro_batch=1,
                                 num_micro_batches=spec.pp - 1,
                                 pipeline_schedule=spec.pipeline_schedule)
        chunks = schedule_info(spec.pipeline_schedule).num_chunks
        stage_stub = [Module() for _ in range(spec.pp * chunks)]
        starved_runtime = PipelineRuntime(
            stage_stub, spec.pp - 1, schedule=spec.pipeline_schedule,
            num_stages=spec.pp)
        if starved.fits or starved_runtime.fillable:
            raise SimInvariantError(
                f"{spec.family}: planner (fits={starved.fits}) and runtime "
                f"(fillable={starved_runtime.fillable}) must both reject "
                f"m={spec.pp - 1} < pp={spec.pp}"
            )
        filled_runtime = PipelineRuntime(
            stage_stub, spec.num_micro_batches,
            schedule=spec.pipeline_schedule, num_stages=spec.pp)
        if not filled_runtime.fillable:
            raise SimInvariantError(
                f"{spec.family}: runtime rejects the planner-legal "
                f"m={spec.num_micro_batches} >= pp={spec.pp}"
            )


# --------------------------------------------------------------------- #
# The corpus driver
# --------------------------------------------------------------------- #
@dataclass
class FuzzFailure:
    spec: ScheduleSpec
    error: str
    kind: str  # "verification" | "sim-invariant" | "harness"
    repro_path: str | None = None
    shrunk: ScheduleSpec | None = None


@dataclass
class FuzzResult:
    passed: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    #: total primitive-application steps across all verified schedules
    steps_verified: int = 0
    reports: list[VerifyReport] = field(default_factory=list)
    families: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.passed + len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _classify(error: Exception) -> tuple[str, bool]:
    """(kind, is_divergence) for a fuzz-run failure."""
    if isinstance(error, VerificationError):
        return "verification", True
    if isinstance(error, ClusterError) and \
            isinstance(error.original, VerificationError):
        return "verification", True
    if isinstance(error, SimInvariantError):
        return "sim-invariant", False
    return "harness", False


def run_fuzz(num_schedules: int,
             families=DEFAULT_FAMILIES,
             world_sizes=(1, 2, 4),
             seed: int = 0,
             out_dir: str | Path | None = "scripts/repros",
             check_sim: bool = True,
             shrink_failures: bool = True,
             functionalize: bool = False,
             progress=None) -> FuzzResult:
    """Sample and differentially verify ``num_schedules`` schedules.

    Deterministic under ``seed``.  Verification failures are serialized to
    ``out_dir`` (one replayable JSON each, plus a ``.shrunk.json`` minimal
    form when ``shrink_failures``) and collected in the returned
    :class:`FuzzResult`; harness errors (a sampler or cluster bug) abort
    immediately — they are bugs in the fuzzer, not findings.

    ``functionalize=True`` additionally rewrites every built GraphModule
    through :func:`repro.fx.functionalize` (+ CSE) before verification, so
    the whole corpus doubles as a differential test of the explicit-effect
    IR (see :func:`repro.slapo.verify.core.verify`).
    """
    rng = np.random.default_rng(seed)
    result = FuzzResult()
    for index in range(num_schedules):
        family = families[int(rng.integers(len(families)))]
        world_size = world_sizes[int(rng.integers(len(world_sizes)))]
        spec_seed = int(rng.integers(2 ** 31 - 1))
        spec = sample_spec(family, world_size, spec_seed, rng=rng)
        if progress is not None:
            progress(index, spec)
        try:
            report = replay(spec, functionalize=functionalize)
            if check_sim:
                check_sim_invariants(spec)
        except Exception as error:  # noqa: BLE001 - classified below
            kind, is_divergence = _classify(error)
            if kind == "harness":
                raise
            failure = FuzzFailure(spec=spec, error=str(error), kind=kind)
            if is_divergence and out_dir is not None:
                path = Path(out_dir) / \
                    f"fuzz-{spec.family}-{spec_seed}.json"
                failure.repro_path = str(spec.save(path))
                if shrink_failures:
                    failure.shrunk = shrink(spec)
                    failure.shrunk.save(
                        path.with_name(path.stem + ".shrunk.json"))
            result.failures.append(failure)
            continue
        result.passed += 1
        result.steps_verified += len(spec.steps)
        result.reports.append(report)
        result.families[family] = result.families.get(family, 0) + 1
    return result
