"""Functionalization: every effect is an explicit graph node.

* **module hooks** — ``.sync()`` installs tensor-parallel collectives as
  hooks.  Tracing lifts every hook it meets into ``sync_*`` nodes at the
  call site (:func:`lift_inputs`, :func:`lift_output`; the root's via
  :func:`lift_hooks`); a hooked leaf's ``call_module`` runs without the
  hooks its ``meta["lifted_hooks"]`` names.  Only hooks registered
  *after* tracing fire outside the graph;
* **in-place mutation** — tracing emits train-mode ``batch_norm``, which
  writes its running-stat buffers, as a :func:`mutate` marker.

:func:`functionalize` lifts the late hooks as tracing would and checks
that no mutating call lacks its marker.  Each marker carries an
:class:`Effect` (a declared read/write set) in ``node.meta["effect"]``,
so extracting a fragment of a graph cannot duplicate or drop a
collective: the collective is a node like any other.

On top of the functionalized form this module ships the passes the paper's
progressive optimization needs to be safe by construction:

* :func:`eliminate_common_subexpressions` — value-numbering CSE that skips
  impure nodes and versions buffer reads across ``mutate`` writes;
* :func:`fuse_elementwise` — cross-layer fusion of elementwise chains
  that never span an effect node, into
  :class:`~repro.kernels.compilers.FusedKernel` regions the kernel cost
  model prices as one launch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.framework import functional as F
from repro.framework.module import Module

from .graph import Graph
from .graph_module import GraphModule
from .matcher import Match
from .node import Node, map_arg


class FunctionalizationError(RuntimeError):
    """A graph pass was asked to run on a graph with hidden effects."""


# ---------------------------------------------------------------------- #
# Effect metadata
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Effect:
    """Declared effect of one node: what it reads and writes out-of-band.

    ``reads``/``writes`` name ``get_attr`` targets (dotted parameter or
    buffer paths) when they are statically known.
    """

    kind: str                     # sync_pre | sync | sync_bwd | mutate
    reads: tuple = ()
    writes: tuple = ()
    detail: str = ""


#: functions whose ``__name__`` marks a node impure even without effect
#: metadata (randomness makes dedup / erasure unsound)
_IMPURE_OP_NAMES = frozenset({"dropout"})


# ---------------------------------------------------------------------- #
# Marker targets (traceable: tracing through a graph re-records them)
# ---------------------------------------------------------------------- #
@F.traceable
def sync_forward_pre(values: tuple, *, hooks: tuple, module):
    """Run forward-pre hooks over the packed input tuple; returns it
    (possibly rewritten), mirroring ``Module.__call__`` semantics."""
    values = tuple(values)
    for hook in hooks:
        result = hook(module, values)
        if result is not None:
            values = result if isinstance(result, tuple) else (result,)
    return values


@F.traceable
def project(values, index: int):
    """Split one element back out of a :func:`sync_forward_pre` tuple."""
    return values[index]


@F.traceable
def sync_forward(output, values: tuple, *, hooks: tuple, module):
    """Run forward hooks on the call's output value."""
    values = tuple(values)
    for hook in hooks:
        result = hook(module, values, output)
        if result is not None:
            output = result
    return output


@F.traceable
def sync_backward(value, *, hooks: tuple, module):
    """Identity in forward; runs backward hooks on the gradient.

    The graph-node form of a module's backward hooks — e.g. the grad
    all-reduce a row-parallel ``.sync(mode="backward")`` installs — with
    the same implementation ``Module.__call__`` uses.
    """
    from repro.framework.module import attach_backward_hooks

    return attach_backward_hooks(value, module, hooks)


def mutate(op, *args, _writes: tuple = (), **kwargs):
    """Run ``op`` while declaring that it writes ``args[i]`` for every
    ``i`` in ``_writes`` — mutation made visible to graph passes."""
    return op(*args, **kwargs)


_MARKER_TARGETS = (sync_forward_pre, sync_forward, sync_backward, mutate)


# ---------------------------------------------------------------------- #
# Purity queries (used by DCE / CSE / fusion)
# ---------------------------------------------------------------------- #
def node_effect(node: Node) -> Effect | None:
    effect = node.meta.get("effect")
    if effect is not None:
        return effect
    if node.op == "call_function":
        if node.target in _MARKER_TARGETS:
            return _effect_of_marker(node)
        if _target_mutates(node):
            # Un-functionalized mutating call: hidden effect.
            return Effect("mutate", writes=("<unknown>",))
    return None


def is_impure(node: Node) -> bool:
    """Nodes DCE must keep and CSE must not deduplicate.  Every
    ``call_module`` counts: an opaque leaf may hold state the graph cannot
    see (a train-mode BatchNorm updates its running statistics)."""
    if node.op in ("placeholder", "output", "call_module") \
            or node_effect(node) is not None:
        return True
    return node.op == "call_function" \
        and getattr(node.target, "__name__", "") in _IMPURE_OP_NAMES


def _target_mutates(node: Node) -> bool:
    """Does this plain call_function node's target mutate its arguments?"""
    predicate = getattr(node.target, "__is_mutating__", None)
    if predicate is None:
        return False
    try:
        return bool(predicate(*node.args, **node.kwargs))
    except TypeError:
        return True  # signature mismatch: assume the worst


def _effect_of_marker(node: Node) -> Effect:
    if node.target is mutate:
        writes = []
        for index in node.kwargs.get("_writes", ()):
            arg = node.args[1 + index] if 1 + index < len(node.args) else None
            writes.append(arg.target if isinstance(arg, Node)
                          and arg.op == "get_attr" else "<unknown>")
        reads = tuple(a.target for a in node.args[1:]
                      if isinstance(a, Node) and a.op == "get_attr")
        return Effect("mutate", reads=reads, writes=tuple(writes))
    kind = {"sync_forward_pre": "sync_pre", "sync_forward": "sync",
            "sync_backward": "sync_bwd"}[node.target.__name__]
    return Effect(kind, detail=_describe_hooks(node.kwargs.get("hooks", ())))


def _describe_hooks(hooks) -> str:
    parts = []
    for hook in hooks:
        meta = getattr(hook, "_slapo_effect", None)
        parts.append(f"{meta['kind']}:{meta['op']}" if meta
                     else getattr(hook, "__name__", "hook"))
    return ",".join(parts)


def hidden_mutation_nodes(graph: Graph) -> list[Node]:
    """call_function nodes that mutate state without a ``mutate`` marker."""
    return [node for node in graph if node.op == "call_function"
            and node.target not in _MARKER_TARGETS and _target_mutates(node)]


def unlifted_hooks(gm: GraphModule, node: Node) -> tuple:
    """The hooks of a ``call_module`` node's submodule that its call site
    does not run as graph nodes: ``(pre, backward, forward)`` tuples."""
    try:
        sub = gm.get_submodule(node.target)
    except AttributeError:
        return (), (), ()
    return tuple(tuple(group) for group in
                 sub.hooks_except(node.meta.get("lifted_hooks", ())))


def assert_functional(gm: GraphModule, pass_name: str) -> None:
    """Refuse to run an effect-unsafe pass on a graph with hidden effects.

    ``scripts/check_functional.py`` exercises this guard: every pass that
    erases, deduplicates or reorders nodes calls it first.
    """
    if gm._slapo_meta.get("functionalized"):
        return
    problems = []
    hooked = [n.name for n in gm.graph.find_nodes(op="call_module")
              if any(unlifted_hooks(gm, n))]
    if any(gm.hooks_except()) or hooked:
        problems.append("hooks registered after tracing sit outside the "
                        "graph" + "".join(f", on {n}" for n in hooked))
    hidden = hidden_mutation_nodes(gm.graph)
    if hidden:
        problems.append(
            "graph contains mutating targets without a mutate marker: "
            + ", ".join(n.name for n in hidden))
    if problems:
        raise FunctionalizationError(
            f"{pass_name} requires a functionalized graph; run "
            f"fx.functionalize() first ({'; '.join(problems)})"
        )


# ---------------------------------------------------------------------- #
# Hook lifting and the functionalize pass
# ---------------------------------------------------------------------- #
def lift_inputs(graph: Graph, values, pre: tuple, bwd: tuple,
                module) -> list:
    """Emit a call site's forward-pre and backward hooks over its
    positional ``values``, at the graph's insertion point.

    Forward-pre hooks become one :func:`sync_forward_pre` node over the
    packed values, split back out by :func:`project` nodes; backward
    hooks one :func:`sync_backward` node per value.  Constants pass
    through.  Returns the values the call runs on.
    """
    values = list(values)
    if pre:
        packed = _marker(graph, sync_forward_pre, (tuple(values),), pre,
                         module)
        values = [graph.call_function(project, (packed, index))
                  if isinstance(value, Node) else value
                  for index, value in enumerate(values)]
    if bwd:
        values = [_marker(graph, sync_backward, (value,), bwd, module)
                  if isinstance(value, Node) else value for value in values]
    return values


def lift_output(graph: Graph, output, values, fwd: tuple, module):
    """Emit a call site's forward hooks as one :func:`sync_forward` node
    over its ``output`` and hooked ``values``."""
    return _marker(graph, sync_forward, (output, tuple(values)), fwd, module)


def _marker(graph: Graph, target, args: tuple, hooks: tuple, module):
    node = graph.call_function(target, args,
                               {"hooks": hooks, "module": module})
    node.meta["effect"] = _effect_of_marker(node)
    return node


def lift_hooks(gm: GraphModule, source: Module) -> None:
    """Lift ``source``'s hooks into ``gm.graph`` around its placeholders
    and output, called with ``gm`` as their module (its ``_slapo_meta``
    copies ``source``'s, which ``.sync()``'s ``aggregate`` reads)."""
    graph = gm.graph
    pre, bwd, fwd = (tuple(group) for group in source.hooks_except())
    hooked = graph.placeholders()
    if hooked and (pre or bwd):
        users = [list(ph.users) for ph in hooked]
        with graph.inserting_after(hooked[-1]):
            lifted = lift_inputs(graph, hooked, pre, bwd, gm)
        for ph, new, old_users in zip(hooked, lifted, users):
            for user in old_users:
                user.replace_input_with(ph, new)
        hooked = lifted
    if fwd:
        output = graph.output_node
        with graph.inserting_before(output):
            output.args = (lift_output(graph, output.args[0], hooked, fwd,
                                       gm),)


def _lift_call_site(gm: GraphModule, node: Node) -> None:
    """Lift the hooks registered on a leaf after tracing, as tracing
    would have at this ``call_module`` site."""
    pre, bwd, fwd = unlifted_hooks(gm, node)
    if not (pre or bwd or fwd):
        return
    sub = gm.get_submodule(node.target)
    graph = gm.graph
    with graph.inserting_before(node):
        node.args = tuple(lift_inputs(graph, node.args, pre, bwd, sub))
    if fwd:
        users = list(node.users)
        with graph.inserting_after(node):
            output = lift_output(graph, node, node.args, fwd, sub)
        for user in users:
            user.replace_input_with(node, output)
    node.meta["lifted_hooks"] = \
        node.meta.get("lifted_hooks", ()) + pre + bwd + fwd


def functionalize(gm: GraphModule, class_name: str | None = None
                  ) -> GraphModule:
    """Rewrite ``gm`` into an explicit-effect GraphModule.

    Hooks registered on ``gm`` or on its leaves after tracing are lifted
    as tracing lifts hooks, so the result carries and hides none.  A
    mutating call without its :func:`mutate` marker (spliced in by hand;
    tracing marks every one) raises :class:`FunctionalizationError`.
    Parameter and submodule identity is shared with ``gm``.
    """
    hidden = hidden_mutation_nodes(gm.graph)
    if hidden:
        raise FunctionalizationError(
            "mutating calls without a mutate marker: "
            + ", ".join(n.name for n in hidden))
    new_graph = _copy_graph(gm.graph)
    fgm = GraphModule(gm, new_graph,
                      class_name=class_name or f"Functional{gm._class_name}")
    lift_hooks(fgm, gm)
    for node in new_graph.find_nodes(op="call_module"):
        _lift_call_site(fgm, node)
    # A GraphModule mounts only graph-referenced paths, but ``gm`` may
    # carry more (a replaced region's old submodules stay mounted so
    # schedule paths and state_dict keys remain stable).  Preserve them.
    _merge_missing_attrs(fgm, gm)
    fgm._slapo_meta["functionalized"] = True
    return fgm


def _merge_missing_attrs(dst, src) -> None:
    for name, child in src._modules.items():
        if name not in dst._modules:
            dst.add_module(name, child)
        elif dst._modules[name] is not child:
            _merge_missing_attrs(dst._modules[name], child)
    for name, param in src._parameters.items():
        if name not in dst._parameters:
            dst.register_parameter(name, param)
    for name, buf in src._buffers.items():
        if name not in dst._buffers:
            dst.register_buffer(name, buf)


def _copy_graph(old: Graph) -> Graph:
    new = Graph()
    new.in_specs = dict(getattr(old, "in_specs", {}))
    env: dict[int, Node] = {}

    def lookup(n: Node) -> Node:
        return env[id(n)]

    for node in old:
        copied = new.create_node(
            node.op, node.target,
            map_arg(node.args, lookup), map_arg(node.kwargs, lookup),
            name=node.name)
        copied.meta.update(node.meta)
        env[id(node)] = copied
    return new


def functionalize_model(module, cse: bool = False):
    """Recursively functionalize every GraphModule under ``module``.

    Returns the (possibly replaced) module; submodule replacement happens
    in place on the parents.  With ``cse=True`` each functionalized graph
    also gets common-subexpression elimination.
    """
    for name, child in list(module._modules.items()):
        if child is not None:
            module._modules[name] = functionalize_model(child, cse=cse)
    if isinstance(module, GraphModule) \
            and not module._slapo_meta.get("functionalized"):
        new = functionalize(module)
        if cse:
            eliminate_common_subexpressions(new)
        return new
    return module


# ---------------------------------------------------------------------- #
# Common-subexpression elimination
# ---------------------------------------------------------------------- #
def eliminate_common_subexpressions(gm: GraphModule) -> int:
    """Value-numbering CSE over a functionalized graph.

    Two nodes merge when they have the same opcode, target and argument
    key.  Buffer reads are *versioned*: a ``mutate`` node that declares a
    write to a ``get_attr`` target bumps that target's version, so uses
    on either side of the write never merge.  Impure nodes (effects,
    randomness) are never candidates.  Returns the number of erased nodes.
    """
    assert_functional(gm, "eliminate_common_subexpressions")
    graph = gm.graph
    versions: dict[str, int] = {}
    seen: dict[tuple, Node] = {}
    erased = 0
    for node in list(graph):
        effect = node_effect(node)
        if effect is not None:
            for target in effect.writes:
                versions[target] = versions.get(target, 0) + 1
            if "<unknown>" in effect.writes:
                seen.clear()  # opaque write: nothing may merge across it
            continue
        if is_impure(node) or node.op == "call_module":
            continue
        key = _node_key(node, versions)
        if key is None:
            continue
        twin = seen.get(key)
        if twin is None:
            seen[key] = node
            continue
        node.replace_all_uses_with(twin)
        graph.erase_node(node)
        erased += 1
    if erased:
        gm.recompile()
    return erased


def _node_key(node: Node, versions: dict[str, int]) -> tuple | None:
    try:
        args = _value_key(node.args, versions)
        kwargs = tuple(sorted(
            (k, _value_key(v, versions)) for k, v in node.kwargs.items()))
    except TypeError:
        return None  # unhashable constant: leave the node alone
    target = node.target if isinstance(node.target, str) else id(node.target)
    return (node.op, target, args, kwargs)


def _value_key(value, versions: dict[str, int]):
    if isinstance(value, Node):
        if value.op == "get_attr":
            return ("node", id(value), versions.get(value.target, 0))
        return ("node", id(value))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__,) + tuple(
            _value_key(v, versions) for v in value)
    if isinstance(value, dict):
        return ("dict",) + tuple(
            (k, _value_key(v, versions)) for k, v in value.items())
    if isinstance(value, slice):
        return ("slice", _value_key(value.start, versions),
                _value_key(value.stop, versions),
                _value_key(value.step, versions))
    hash(value)  # raises TypeError for unhashable constants
    return value


# ---------------------------------------------------------------------- #
# Effect-aware elementwise fusion
# ---------------------------------------------------------------------- #
#: ops cheap enough that fusing them into one kernel launch always pays
_ELEMENTWISE_OPS = frozenset({
    "add", "sub", "mul", "div", "neg", "pow", "gelu", "relu", "silu",
    "tanh", "sigmoid", "exp", "sqrt", "cast", "apply_causal_mask",
    "masked_fill", "where",
})


def _is_fusable(node: Node) -> bool:
    if node.op != "call_function" or node_effect(node) is not None:
        return False
    name = getattr(node.target, "__name__", "")
    return name in _ELEMENTWISE_OPS and name not in _IMPURE_OP_NAMES


def fuse_elementwise(gm: GraphModule, compiler: str = "TorchInductor",
                     name: str = "ew", min_nodes: int = 2) -> int:
    """Fuse chains of elementwise ops into :class:`FusedKernel` regions.

    Chains grow through single-use edges across layer boundaries and
    never span a node with an :class:`Effect` (sync collectives,
    mutation markers), so reordering the chain's execution point to the
    splice site cannot move a read across a write.  Returns the region
    count.
    """
    from repro.kernels.compilers import compile_subgraph
    from .rewriter import order_matches_for_rewrite, \
        extract_match_as_module, replace_match_with_module

    assert_functional(gm, "fuse_elementwise")
    graph = gm.graph
    position = {id(n): i for i, n in enumerate(graph)}
    effect_positions = sorted(
        position[id(n)] for n in graph if node_effect(n) is not None)

    def effect_between(a: Node, b: Node) -> bool:
        lo, hi = position[id(a)], position[id(b)]
        return any(lo < p < hi for p in effect_positions)

    claimed: set[int] = set()
    regions: list[list[Node]] = []
    for node in graph:
        if id(node) in claimed or not _is_fusable(node):
            continue
        chain = [node]
        current = node
        while True:
            users = list(current.users)
            if len(users) != 1:
                break
            nxt = users[0]
            if id(nxt) in claimed or not _is_fusable(nxt) \
                    or effect_between(current, nxt):
                break
            chain.append(nxt)
            current = nxt
        if len(chain) >= min_nodes:
            claimed.update(id(n) for n in chain)
            regions.append(chain)

    matches = [_chain_match(chain) for chain in regions]
    fused = 0
    for match in order_matches_for_rewrite(graph, matches):
        extracted = extract_match_as_module(
            gm, match, class_name=f"Fused_{name}")
        kernel = compile_subgraph(extracted, name=f"{name}{fused}",
                                  backend=compiler)
        replace_match_with_module(gm, match, kernel, name)
        fused += 1
    if fused:
        gm.recompile()
    return fused


def _chain_match(chain: list[Node]) -> Match:
    """Package a chain as a matcher Match so the rewriter can splice it."""
    internal = {id(n) for n in chain}
    bindings: list[Node] = []
    bound: set[int] = set()
    for node in chain:
        for used in node.all_input_nodes:
            if id(used) not in internal and id(used) not in bound:
                bound.add(id(used))
                bindings.append(used)
    return Match(internal_nodes=list(chain), output_node=chain[-1],
                 placeholder_bindings=bindings)
