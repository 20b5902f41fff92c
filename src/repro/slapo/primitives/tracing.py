"""Static-graph primitives (paper Table 2, right column).

``.trace()`` converts a module to a static graph; ``.find()`` pattern-matches
subgraphs; ``.fuse()`` hands matches to a stand-in DL compiler.
"""

from __future__ import annotations

from repro.fx import (
    GraphModule,
    eliminate_common_subexpressions,
    find_matches,
    find_nodes_by_regex,
    functionalize,
    fuse_elementwise,
    symbolic_trace,
)
from repro.fx.rewriter import (
    extract_match_as_module,
    order_matches_for_rewrite,
    replace_match_with_module,
)
from repro.kernels.compilers import compile_subgraph

from ..registry import Primitive, SchedulingError, register_primitive


@register_primitive()
class TracePrimitive(Primitive):
    """``.trace(leaves=(), flatten=False)`` (paper §3.3).

    ``leaves`` names submodules that stay opaque.  ``flatten=False``
    (default) preserves hierarchy: direct children become call_module
    nodes; ``flatten=True`` inlines every non-builtin submodule into a
    single-level dataflow graph.
    """

    name = "trace"

    @staticmethod
    def apply(sch, leaves: tuple = (), flatten: bool = False,
              tracer: str = "default", include_defaults: tuple = ()):
        if sch.is_traced:
            return sch
        module = sch.mod
        leaf_names = tuple(leaves)
        if not flatten:
            children = tuple(name for name, _ in module.named_children())
            leaf_names = tuple(set(leaf_names) | set(children))
        gm = symbolic_trace(module, leaves=leaf_names,
                            include_defaults=include_defaults)
        if sch.path:
            sch.replace_self(gm)
        else:
            sch.context.root = gm
        return sch

    @staticmethod
    def check(sch, leaves: tuple = (), flatten: bool = False,
              tracer: str = "default", include_defaults: tuple = ()) -> None:
        if not callable(getattr(sch.mod, "forward", None)):
            raise SchedulingError(f"{sch.path!r} has no forward() to trace")


@register_primitive()
class FunctionalizePrimitive(Primitive):
    """``.functionalize(cse=True, fuse=False, compiler="TorchInductor")``.

    Rewrites a traced module into explicit-effect form (hooks registered
    after tracing become ``sync_*`` graph nodes, as tracing makes every
    other hook — see :mod:`repro.fx.functionalize`), then optionally runs
    common-subexpression elimination and elementwise fusion that never
    spans an effect node.  Semantics-preserving, so the schedule fuzzer
    samples it like any other primitive.
    """

    name = "functionalize"
    requires_static_graph = True
    dialect = "static"
    fuzzable = True

    @staticmethod
    def check(sch, cse: bool = True, fuse: bool = False,
              compiler: str = "TorchInductor") -> None:
        sch.require_traced("functionalize")

    @staticmethod
    def apply(sch, cse: bool = True, fuse: bool = False,
              compiler: str = "TorchInductor"):
        gm: GraphModule = sch.mod
        if gm._slapo_meta.get("functionalized"):
            return sch
        fgm = functionalize(gm)
        if cse:
            eliminate_common_subexpressions(fgm)
        if fuse:
            fuse_elementwise(fgm, compiler=compiler)
        if sch.path:
            sch.replace_self(fgm)
        else:
            sch.context.root = fgm
        return sch

    @staticmethod
    def fuzz_candidates(sch) -> list[tuple[tuple, dict]]:
        mod = sch.mod
        if isinstance(mod, GraphModule) \
                and not mod._slapo_meta.get("functionalized"):
            return [((), {"cse": True})]
        return []


@register_primitive()
class FindPrimitive(Primitive):
    """``.find(regex_or_pattern_fn)`` (paper §3.3.1).

    A callable pattern is traced and matched by subgraph isomorphism;
    a string is a regex over node names/targets.  Returns all matches at
    once so repetitive layers are scheduled in one shot.
    """

    name = "find"
    requires_static_graph = True
    dialect = "static"

    @staticmethod
    def check(sch, pattern) -> None:
        sch.require_traced("find")

    @staticmethod
    def apply(sch, pattern):
        graph = sch.mod.graph
        if isinstance(pattern, str):
            return find_nodes_by_regex(graph, pattern)
        return find_matches(graph, pattern)


@register_primitive()
class FusePrimitive(Primitive):
    """``.fuse(subgraph, compiler="TorchScript", name=...)`` (paper §3.3.1)."""

    name = "fuse"
    requires_static_graph = True
    dialect = "static"

    @staticmethod
    def check(sch, subgraph, compiler: str = "TorchScript",
              name: str = "FusedKernel") -> None:
        sch.require_traced("fuse")
        matches = subgraph if isinstance(subgraph, list) else [subgraph]
        if not matches:
            raise SchedulingError(".fuse() got an empty match list")

    @staticmethod
    def apply(sch, subgraph, compiler: str = "TorchScript",
              name: str = "FusedKernel"):
        gm: GraphModule = sch.mod
        matches = subgraph if isinstance(subgraph, list) else [subgraph]
        nodes = []
        for match in order_matches_for_rewrite(gm.graph, matches):
            extracted = extract_match_as_module(gm, match,
                                                class_name=f"Fused_{name}")
            kernel = compile_subgraph(extracted, name=name, backend=compiler)
            nodes.append(replace_match_with_module(gm, match, kernel, name))
        return nodes
