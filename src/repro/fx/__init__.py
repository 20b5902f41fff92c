"""repro.fx — symbolic tracing and static-graph IR (torch.fx substrate)."""

from .functionalize import (
    Effect,
    FunctionalizationError,
    assert_functional,
    eliminate_common_subexpressions,
    functionalize,
    functionalize_model,
    fuse_elementwise,
    is_impure,
    mutate,
    sync_backward,
    sync_forward,
    sync_forward_pre,
)
from .graph import Graph
from .graph_module import GraphModule
from .interpreter import ShapeProp
from .matcher import (
    Match,
    ModulePattern,
    SubgraphMatcher,
    find_matches,
    find_nodes_by_regex,
    trace_pattern,
)
from .node import Node, iter_nodes, map_arg
from .proxy import Proxy, TraceError
from .rewriter import (
    extract_match_as_module,
    replace_match_with_module,
    replace_node_with_function,
    split_graph_module,
)
from .pytree import (
    TreeSpec,
    tree_flatten,
    tree_leaves,
    tree_map,
    tree_structure,
    tree_unflatten,
)
from .tracer import DEFAULT_LEAF_TYPES, Tracer, symbolic_trace

__all__ = [
    "Graph", "GraphModule", "Node", "Proxy", "TraceError", "Tracer",
    "symbolic_trace", "DEFAULT_LEAF_TYPES",
    "ShapeProp",
    "Match", "ModulePattern", "SubgraphMatcher", "find_matches",
    "find_nodes_by_regex", "trace_pattern",
    "extract_match_as_module", "replace_match_with_module",
    "replace_node_with_function", "split_graph_module",
    "iter_nodes", "map_arg",
    "Effect", "FunctionalizationError", "assert_functional",
    "eliminate_common_subexpressions", "functionalize",
    "functionalize_model", "fuse_elementwise", "is_impure",
    "mutate", "sync_backward", "sync_forward", "sync_forward_pre",
    "TreeSpec", "tree_flatten", "tree_unflatten", "tree_leaves",
    "tree_map", "tree_structure",
]
