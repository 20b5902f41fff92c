"""Subgraph pattern matching (the engine behind Slapo's ``.find()``).

Patterns are ordinary Python functions using framework ops; they are traced
into a small graph whose placeholders act as wildcards.  Matching is
anchored, backward subgraph isomorphism over dataflow edges, as in
``torch.fx``'s SubgraphMatcher: node compatibility requires the same opcode
and the same target (function identity / method name / module-target regex),
and every interior node of a match may only be used inside the match.
``add`` and ``mul`` match their operands in either order; a match still
covers the target's own nodes, so a fused body computes what they did.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.framework import functional as F
from repro.framework.module import Module

from .graph import Graph
from .node import Node


class ModulePattern:
    """Wildcard for a ``call_module`` node whose target matches a regex.

    Produced by :func:`repro.slapo.pattern.call_module`.
    """

    def __init__(self, name_regex: str):
        self.regex = re.compile(name_regex)

    def matches(self, target: str) -> bool:
        return self.regex.fullmatch(target) is not None


@dataclass
class Match:
    """One occurrence of the pattern inside the target graph."""

    #: pattern node -> target node (or constant) bindings
    nodes_map: dict = field(default_factory=dict)
    #: target nodes covered by the pattern body (excludes wildcard bindings)
    internal_nodes: list = field(default_factory=list)
    #: the target node corresponding to the pattern's returned value
    output_node: Node | None = None
    #: target values bound to pattern placeholders, in placeholder order
    placeholder_bindings: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.internal_nodes)


class SubgraphMatcher:
    def __init__(self, pattern_graph: Graph):
        self.pattern = pattern_graph
        output_args = pattern_graph.output_node.args[0]
        if not isinstance(output_args, Node):
            raise ValueError("pattern must return a single traced value")
        self.pattern_anchor: Node = output_args
        self.pattern_placeholders = pattern_graph.placeholders()

    # ------------------------------------------------------------------ #
    def match(self, target_graph: Graph) -> list[Match]:
        """All non-overlapping matches, in topological order of anchors."""
        matches: list[Match] = []
        claimed: set[int] = set()
        for candidate in target_graph:
            nodes_map: dict = {}
            if not self._match_node(self.pattern_anchor, candidate, nodes_map):
                continue
            match = self._build_match(nodes_map, candidate)
            if match is None:
                continue
            if any(id(n) in claimed for n in match.internal_nodes):
                continue
            if not self._internal_uses_ok(match):
                continue
            claimed.update(id(n) for n in match.internal_nodes)
            matches.append(match)
        return matches

    # ------------------------------------------------------------------ #
    def _match_node(self, pnode, tvalue, nodes_map: dict) -> bool:
        if pnode in nodes_map:
            bound = nodes_map[pnode]
            if isinstance(bound, Node) or isinstance(tvalue, Node):
                return bound is tvalue
            return bound == tvalue
        if pnode.op == "placeholder":
            # Wildcard: binds any target value (node or constant).
            nodes_map[pnode] = tvalue
            return True
        if not isinstance(tvalue, Node):
            return False
        if not self._targets_compatible(pnode, tvalue):
            return False
        snapshot = dict(nodes_map)
        orders = [tvalue.args]
        if tvalue.target in (F.add, F.mul) and len(tvalue.args) == 2:
            orders.append(tvalue.args[::-1])  # commutative operands
        for targs in orders:
            nodes_map[pnode] = tvalue
            if self._match_args(pnode.args, targs, nodes_map) and \
                    self._match_kwargs(pnode.kwargs, tvalue.kwargs,
                                       nodes_map):
                return True
            nodes_map.clear()
            nodes_map.update(snapshot)
        return False

    def _match_args(self, pargs, targs, nodes_map: dict) -> bool:
        # The target may carry extra trailing args (explicit defaults);
        # every pattern arg must line up with a target arg.
        if len(pargs) > len(targs):
            return False
        return all(self._match_value(pa, ta, nodes_map)
                   for pa, ta in zip(pargs, targs))

    def _match_kwargs(self, pkwargs, tkwargs, nodes_map: dict) -> bool:
        # Keys the pattern names must exist and match; extra target kwargs
        # (e.g. an explicit dropout probability) are ignored.
        for key, pvalue in pkwargs.items():
            if key not in tkwargs:
                return False
            if not self._match_value(pvalue, tkwargs[key], nodes_map):
                return False
        return True

    def _match_value(self, pvalue, tvalue, nodes_map: dict) -> bool:
        if isinstance(pvalue, Node):
            return self._match_node(pvalue, tvalue, nodes_map)
        if isinstance(pvalue, (tuple, list)):
            if not isinstance(tvalue, (tuple, list)) or \
                    len(pvalue) != len(tvalue):
                return False
            return all(self._match_value(p, t, nodes_map)
                       for p, t in zip(pvalue, tvalue))
        if isinstance(pvalue, slice):
            if not isinstance(tvalue, slice):
                return False
            return all(self._match_value(p, t, nodes_map) for p, t in
                       zip((pvalue.start, pvalue.stop, pvalue.step),
                           (tvalue.start, tvalue.stop, tvalue.step)))
        if isinstance(tvalue, Node):
            return False
        return pvalue == tvalue

    @staticmethod
    def _targets_compatible(pnode: Node, tnode: Node) -> bool:
        if pnode.op == "call_module":
            if tnode.op != "call_module":
                return False
            if isinstance(pnode.target, ModulePattern):
                return pnode.target.matches(tnode.target)
            return pnode.target == tnode.target
        if pnode.op != tnode.op:
            return False
        if pnode.op == "call_function":
            return pnode.target is tnode.target
        return pnode.target == tnode.target

    def _build_match(self, nodes_map: dict, anchor: Node) -> Match | None:
        internal = [
            t for p, t in nodes_map.items()
            if p.op != "placeholder" and isinstance(t, Node)
        ]
        bindings = []
        for placeholder in self.pattern_placeholders:
            if placeholder not in nodes_map:
                return None  # unused pattern arg: ill-formed pattern
            bindings.append(nodes_map[placeholder])
        return Match(nodes_map=nodes_map, internal_nodes=internal,
                     output_node=anchor, placeholder_bindings=bindings)

    @staticmethod
    def _internal_uses_ok(match: Match) -> bool:
        """Interior nodes may only feed other nodes inside the match."""
        internal_ids = {id(n) for n in match.internal_nodes}
        for node in match.internal_nodes:
            if node is match.output_node:
                continue
            for user in node.users:
                if id(user) not in internal_ids:
                    return False
        return True


def trace_pattern(pattern_fn) -> Graph:
    """Trace a pattern function into a graph (its args become wildcards)."""
    from .tracer import Tracer

    class _PatternHolder(Module):
        def __init__(self):
            super().__init__()
            self.forward = pattern_fn

    return Tracer().trace(_PatternHolder())


def find_matches(graph: Graph, pattern) -> list[Match]:
    """Match ``pattern`` (callable or Graph) against ``graph``."""
    pattern_graph = pattern if isinstance(pattern, Graph) \
        else trace_pattern(pattern)
    return SubgraphMatcher(pattern_graph).match(graph)


def find_nodes_by_regex(graph: Graph, regex: str) -> list[Node]:
    """Nodes whose name or string target matches ``regex`` (for ``.find``)."""
    compiled = re.compile(regex)
    found = []
    for node in graph:
        target = node.target if isinstance(node.target, str) \
            else getattr(node.target, "__name__", "")
        if compiled.fullmatch(node.name) or compiled.fullmatch(target):
            found.append(node)
    return found
