"""Pipeline partitioning (paper §3.3.2).

``.pipeline_split()`` annotates a stage boundary *after* the addressed
module.  The actual partitioning runs at ``slapo.build()`` time:

1.  The root model is traced with a cut-aware leaf policy — a module stays
    opaque unless a cut lies strictly inside it.  This performs the paper's
    annotation-propagation: every ancestor between a cut and the root is
    inlined, while siblings (embeddings, pooler) and cut modules themselves
    are untouched, reproducing Fig. 5(b).  Every hook along the way, an
    inlined ancestor's included, becomes a ``sync_*`` node at its call
    site, as in any trace.
2.  The flattened-ancestor graph is split after each cut node with full
    liveness analysis (values needed later are threaded through stages).
"""

from __future__ import annotations

from repro.framework.module import Module
from repro.fx import GraphModule
from repro.fx.functionalize import lift_hooks, sync_forward
from repro.fx.rewriter import split_graph_module
from repro.fx.tracer import Tracer

from ..registry import Primitive, SchedulingError, register_primitive


@register_primitive()
class PipelineSplitPrimitive(Primitive):
    """``.pipeline_split()`` — annotate a stage boundary after this module."""

    name = "pipeline_split"

    @staticmethod
    def check(sch) -> None:
        if sch.mesh.config.pp <= 1:
            raise SchedulingError(
                ".pipeline_split() requires a mesh with pp > 1 "
                "(verifier rule: distributed primitives need a distributed "
                "environment)"
            )
        if not sch.path:
            raise SchedulingError("cannot split after the root module")

    @staticmethod
    def apply(sch):
        sch.context.pipeline_cuts.append(sch.path)
        sch.mod._slapo_meta["pipeline_cut"] = True
        return sch


@register_primitive()
class PipelineSchedulePrimitive(Primitive):
    """``.pipeline_schedule(name)`` — select the pipeline's tick program.

    A root-only annotation: the partitioning (``.pipeline_split``) says
    *where* the stage boundaries fall, this primitive says *how* the
    stages execute — ``"gpipe"``, ``"1f1b"``, ``"interleaved"`` or
    ``"zb"`` (any :data:`repro.pipeline.SCHEDULE_NAMES` entry).  The
    choice lands in the schedule context's metadata and rides into
    ``slapo.build()``'s :class:`BuiltModel` metadata, where runtimes
    (:class:`repro.baselines.pipeline_runtime.PipelineRuntime`) and the
    simulator pick it up.
    """

    name = "pipeline_schedule"

    @staticmethod
    def check(sch, schedule: str) -> None:
        from repro.pipeline import SCHEDULE_NAMES

        if sch.mesh.config.pp <= 1:
            raise SchedulingError(
                ".pipeline_schedule() requires a mesh with pp > 1 "
                "(verifier rule: distributed primitives need a distributed "
                "environment)"
            )
        if sch.path:
            raise SchedulingError(
                ".pipeline_schedule() is a whole-pipeline property; call "
                "it on the root schedule"
            )
        if schedule not in SCHEDULE_NAMES:
            raise SchedulingError(
                f"unknown pipeline schedule {schedule!r} (registered: "
                f"{', '.join(SCHEDULE_NAMES)})"
            )

    @staticmethod
    def apply(sch, schedule: str):
        sch.context.metadata["pipeline_schedule"] = schedule
        return sch


class _CutAwareTracer(Tracer):
    """Leaf policy: opaque unless a pipeline cut lies strictly inside."""

    def __init__(self, cuts: list[str]):
        super().__init__()
        self._cuts = list(cuts)

    def is_leaf_module(self, module: Module, path: str) -> bool:
        prefix = f"{path}." if path else ""
        contains_cut = any(cut != path and cut.startswith(prefix)
                           for cut in self._cuts)
        # Inline exactly the ancestors of cut modules (annotation
        # propagation); everything else — cut modules themselves, siblings
        # like embeddings/pooler, and all builtin layers — stays opaque.
        return not contains_cut


def partition_pipeline(root: Module, cuts: list[str]) -> list[GraphModule]:
    """Partition ``root`` into ``len(cuts) + 1`` sequential stage modules."""
    if not cuts:
        raise SchedulingError("no .pipeline_split() annotations present")
    if len(set(cuts)) != len(cuts):
        raise SchedulingError(
            f"duplicate pipeline cut annotations: {cuts!r} (each module "
            f"boundary may be cut once)"
        )
    tracer = _CutAwareTracer(cuts)
    graph = tracer.trace(root)
    gm = GraphModule(root, graph, class_name=f"{type(root).__name__}Pipeline")
    # Stage 0 then fires the root's pre/backward hooks, the last stage
    # its forward hooks.
    lift_hooks(gm, root)
    boundary_nodes = []
    for cut in cuts:
        candidates = [n for n in gm.graph
                      if n.op == "call_module" and n.target == cut]
        if not candidates:
            raise SchedulingError(
                f"pipeline cut {cut!r} did not appear in the traced graph; "
                f"is it reachable from the root forward?"
            )
        if len(candidates) > 1:
            # A module invoked from several call sites has no single
            # "after this module" point — cutting after an arbitrary call
            # (the old behaviour took the last) garbles the stage bodies.
            raise SchedulingError(
                f"pipeline cut {cut!r} has {len(candidates)} call sites in "
                f"the traced graph; a stage boundary needs a module that "
                f"runs exactly once per forward"
            )
        # A hooked cut's forward hooks run as the sync_forward node over
        # its output; the stage ends after them.
        boundary_nodes.append(next(
            (user for user in candidates[0].users
             if user.target is sync_forward
             and user.args[0] is candidates[0]), candidates[0]))
    # Cuts may be annotated in any order; stages must follow *execution*
    # order, so sort the boundaries by graph position before splitting.
    position = {id(n): idx for idx, n in enumerate(gm.graph)}
    boundary_nodes.sort(key=lambda n: position[id(n)])
    return split_graph_module(gm, boundary_nodes)


class PipelineModule(Module):
    """Native-runtime wrapper: runs the stage chain sequentially.

    Functional stand-in for a pipeline runtime — stage ``k``'s output tuple
    feeds stage ``k+1``.  Performance scheduling of micro-batches (GPipe /
    1F1B) lives in :mod:`repro.baselines.pipeline_runtime`.
    """

    def __init__(self, stages: list[GraphModule]):
        super().__init__()
        from repro.framework.layers import ModuleList

        self.stages = ModuleList(stages)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def forward(self, *args):
        value = args
        for index, stage in enumerate(self.stages):
            value = stage(*value)
            if index < len(self.stages) - 1 and not isinstance(value, tuple):
                value = (value,)
        return value
