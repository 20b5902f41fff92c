"""Graph rewriting: subgraph extraction, replacement, and pipeline splitting.

These are the mechanics under Slapo's static-graph primitives:

* ``.replace(new_mod, subgraph)`` / ``.fuse(subgraph, compiler)`` →
  :func:`replace_match_with_module`
* ``.checkpoint(subgraph)`` → :func:`extract_match_as_module` + replacement
* ``.pipeline_split()`` → :func:`split_graph_module`, which performs the
  liveness analysis that threads values produced in one stage to every later
  stage that needs them (the paper's DeepSpeed-dialect pass-through logic).
"""

from __future__ import annotations

from repro.framework.module import Module

from .graph import Graph
from .graph_module import GraphModule
from .matcher import Match
from .node import Node, iter_nodes, map_arg


def order_matches_for_rewrite(graph: Graph, matches: list[Match]
                              ) -> list[Match]:
    """Downstream-first order for applying multiple rewrites.

    Replacing a match invalidates any *later* match whose wildcard bindings
    point at its output; rewriting from the bottom of the graph upward
    keeps every remaining match's (upstream) bindings intact.
    """
    position = {id(node): idx for idx, node in enumerate(graph)}
    return sorted(matches,
                  key=lambda m: position.get(id(m.output_node), 0),
                  reverse=True)


def extract_match_as_module(gm: GraphModule, match: Match,
                            class_name: str = "ExtractedSubgraph"
                            ) -> GraphModule:
    """Build a standalone GraphModule computing the matched subgraph.

    Placeholder order follows the pattern's placeholder order, so the
    extracted module can be invoked with ``match.placeholder_bindings``.
    """
    subgraph = Graph()
    env: dict[int, Node] = {}
    for idx, binding in enumerate(match.placeholder_bindings):
        placeholder = subgraph.placeholder(f"arg{idx}")
        env[id(binding)] = placeholder
    for node in _in_graph_order(gm.graph, match.internal_nodes):
        def lookup(n: Node):
            if id(n) in env:
                return env[id(n)]
            raise RuntimeError(
                f"extracted subgraph uses {n.name} which is neither an "
                f"interior node nor a bound input"
            )

        new_node = subgraph.create_node(
            node.op, node.target,
            map_arg(node.args, lookup), map_arg(node.kwargs, lookup),
            name=node.name,
        )
        new_node.meta.update(node.meta)
        env[id(node)] = new_node
    subgraph.output(env[id(match.output_node)])
    return GraphModule(gm, subgraph, class_name=class_name)


def _in_graph_order(graph: Graph, nodes) -> list[Node]:
    """``nodes`` (compared by identity) in ``graph``'s order."""
    wanted = {id(n) for n in nodes}
    return [n for n in graph if id(n) in wanted]


def replace_match_with_module(gm: GraphModule, match: Match,
                              module: Module, name: str) -> Node:
    """Splice ``module`` over the matched subgraph.

    The new ``call_module`` node receives the pattern's wildcard bindings as
    positional inputs; the matched interior nodes are erased.
    """
    mounted_name = gm.add_submodule(name, module)
    graph = gm.graph
    with graph.inserting_before(match.output_node):
        new_node = graph.call_module(
            mounted_name, tuple(match.placeholder_bindings))
    _erase_match(gm, match, new_node)
    return new_node


def replace_node_with_function(gm: GraphModule, match: Match, fn) -> Node:
    """Like :func:`replace_match_with_module` but emits a call_function."""
    graph = gm.graph
    with graph.inserting_before(match.output_node):
        new_node = graph.call_function(
            fn, tuple(match.placeholder_bindings))
    _erase_match(gm, match, new_node)
    return new_node


def _erase_match(gm: GraphModule, match: Match, replacement: Node) -> None:
    """Route the match's output to ``replacement`` and erase its nodes."""
    match.output_node.replace_all_uses_with(replacement)
    for node in reversed(_in_graph_order(gm.graph, match.internal_nodes)):
        gm.graph.erase_node(node)
    gm.recompile()


# ---------------------------------------------------------------------- #
# Pipeline splitting
# ---------------------------------------------------------------------- #
def split_graph_module(gm: GraphModule, boundary_nodes: list[Node]
                       ) -> list[GraphModule]:
    """Cut ``gm`` into sequential stages *after* each boundary node.

    Every stage becomes a GraphModule taking the previous stage's output
    tuple and returning a tuple of all values that later stages (or the
    final output) still need — i.e. full liveness pass-through.  Stage 0
    takes the original model inputs.
    """
    nodes = [n for n in gm.graph if n.op not in ("placeholder", "output")]
    placeholders = gm.graph.placeholders()
    boundaries = sorted(
        (nodes.index(b) for b in boundary_nodes), reverse=False)
    ranges = []
    start = 0
    for b in boundaries:
        ranges.append(nodes[start:b + 1])
        start = b + 1
    ranges.append(nodes[start:])
    if not ranges[-1]:
        ranges.pop()

    stage_of: dict[int, int] = {}
    for stage_idx, body in enumerate(ranges):
        for node in body:
            stage_of[id(node)] = stage_idx
    for ph in placeholders:
        stage_of[id(ph)] = -1  # model inputs enter at stage 0

    output_value = gm.graph.output_node.args[0]
    final_consumers = list(iter_nodes(output_value))

    # live[k] = values crossing the boundary between stage k-1 and stage k,
    # ordered deterministically by first definition.
    num_stages = len(ranges)
    live: list[list[Node]] = [[] for _ in range(num_stages + 1)]

    def mark_live(value: Node, from_stage: int, to_stage: int) -> None:
        for k in range(from_stage + 1, to_stage + 1):
            if value not in live[k]:
                live[k].append(value)

    for stage_idx, body in enumerate(ranges):
        for node in body:
            for used in node.all_input_nodes:
                src = stage_of[id(used)]
                if src < stage_idx:
                    mark_live(used, max(src, 0), stage_idx)
    for used in final_consumers:
        src = stage_of[id(used)]
        if src < num_stages - 1:
            mark_live(used, max(src, 0), num_stages - 1)

    # Stage 0's inputs are the original placeholders.
    live[0] = list(placeholders)

    stages: list[GraphModule] = []
    for stage_idx, body in enumerate(ranges):
        stage_graph = Graph()
        env: dict[int, Node] = {}
        if stage_idx == 0:
            # Stage 0 keeps the model's input signature, including any
            # pytree-structured placeholder groups.
            stage_graph.in_specs = dict(getattr(gm.graph, "in_specs", {}))
        for value in live[stage_idx]:
            ph = stage_graph.placeholder(value.name)
            if value.op == "placeholder":
                ph.meta.update(value.meta)
            env[id(value)] = ph

        def lookup(n: Node):
            return env[id(n)]

        for node in body:
            new_node = stage_graph.create_node(
                node.op, node.target,
                map_arg(node.args, lookup), map_arg(node.kwargs, lookup),
                name=node.name)
            new_node.meta.update(node.meta)
            env[id(node)] = new_node
        if stage_idx == num_stages - 1:
            stage_graph.output(map_arg(output_value, lookup))
        else:
            outs = tuple(env[id(v)] for v in live[stage_idx + 1])
            stage_graph.output(outs)
        stages.append(GraphModule(gm, stage_graph,
                                  class_name=f"PipelineStage{stage_idx}"))
    return stages
