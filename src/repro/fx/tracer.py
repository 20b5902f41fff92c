"""Symbolic tracer.

``Tracer.trace(module, leaves=...)`` runs the module's ``forward`` with
Proxy arguments and records every framework op into a :class:`Graph`.

Leaf control is the heart of the paper's "trace by need": submodules listed
in ``leaves`` (or that are framework built-ins, the default) become opaque
``call_module`` nodes, while other submodules are inlined (flattened) into
the parent graph.  Untraceable code inside a leaf never runs, so partial
tracing succeeds where whole-model tracing would fail.

Hooks never decide leafness: a hooked submodule's hooks become ``sync_*``
nodes at its call site, each firing once, whether the module inlines or
stays a leaf.
"""

from __future__ import annotations

import inspect
import threading

from repro.framework import layers as fw_layers
from repro.framework.module import Module

from .functionalize import _MARKER_TARGETS, _effect_of_marker, lift_hooks, \
    lift_inputs, lift_output
from .graph import Graph
from .graph_module import GraphModule
from .node import Node
from .proxy import Proxy, TraceError
from .pytree import tree_flatten, tree_unflatten

#: Module types that are never traced into (framework primitives).
DEFAULT_LEAF_TYPES = (
    fw_layers.Linear,
    fw_layers.LayerNorm,
    fw_layers.RMSNorm,
    fw_layers.Embedding,
    fw_layers.Dropout,
    fw_layers.GELU,
    fw_layers.ReLU,
    fw_layers.SiLU,
    fw_layers.Tanh,
    fw_layers.Softmax,
    fw_layers.Conv2d,
    fw_layers.BatchNorm2d,
    fw_layers.MaxPool2d,
    fw_layers.AdaptiveAvgPool2d,
    fw_layers.Identity,
    # Routing decisions are data-dependent control flow — untraceable by
    # design; the layer is scheduled through its module surface instead.
    fw_layers.MoEFeedForward,
)


# One active tracer *per thread*: LocalCluster runs simulated ranks as
# threads and every rank traces during schedule application, so a shared
# global would let one rank's trace intercept (or reset) another's —
# parameter reads would silently bake as constants mid-trace.
_ACTIVE = threading.local()


def active_tracer() -> "Tracer | None":
    """The tracer currently executing a forward on this thread, if any."""
    return getattr(_ACTIVE, "tracer", None)


class Tracer:
    def __init__(self, leaves: tuple = (), leaf_types: tuple | None = None):
        """``leaves``: qualified names (relative to the traced root) that stay
        opaque.  ``leaf_types``: module classes that stay opaque (defaults to
        all framework built-ins)."""
        self.leaf_names = set(leaves)
        self.leaf_types = DEFAULT_LEAF_TYPES if leaf_types is None \
            else tuple(leaf_types)
        self.graph: Graph | None = None
        self._module_paths: dict[int, str] = {}

    # ------------------------------------------------------------------ #
    def is_leaf_module(self, module: Module, path: str) -> bool:
        if path in self.leaf_names:
            return True
        # GraphModules are opaque by default (they were already scheduled).
        if isinstance(module, GraphModule):
            return True
        if isinstance(module, self.leaf_types):
            return True
        # A checkpointed module stays a call, so its checkpoint runs.
        meta = module._slapo_meta
        return bool(meta.get("is_leaf") or meta.get("checkpoint"))

    def trace(self, root: Module, concrete_args: dict | None = None,
              include_defaults: tuple = (),
              structured_args: dict | None = None) -> Graph:
        self.graph = Graph()
        self.root = root
        self._get_attr_cache: dict[str, Proxy] = {}
        self._module_paths = {
            id(mod): path for path, mod in root.named_modules()
        }
        signature = inspect.signature(root.forward)
        proxies = []
        kwproxies = {}
        concrete_args = concrete_args or {}
        structured_args = structured_args or {}
        for name, param in signature.parameters.items():
            if name in concrete_args:
                kwproxies[name] = concrete_args[name]
                continue
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                continue
            if name in structured_args:
                # Pytree-structured input: one placeholder per leaf of the
                # example structure; forward sees the nested container of
                # proxies, GraphModule.forward re-flattens by the spec.
                _, spec = tree_flatten(structured_args[name])
                group = []
                for index in range(spec.num_leaves):
                    node = self.graph.placeholder(f"{name}_{index}")
                    node.meta["pytree_parent"] = name
                    group.append(Proxy(node, self))
                self.graph.in_specs[name] = spec
                proxies.append(tree_unflatten(group, spec))
                continue
            if param.default is not inspect.Parameter.empty \
                    and name not in include_defaults:
                # Optional args keep their default unless explicitly traced
                # (torch.fx's concrete_args behaviour).
                continue
            node = self.graph.placeholder(name)
            if param.default is not inspect.Parameter.empty:
                node.meta["default"] = param.default
            proxies.append(Proxy(node, self))
        previous = active_tracer()
        _ACTIVE.tracer = self
        try:
            output = root.forward(*proxies, **kwproxies)
        finally:
            _ACTIVE.tracer = previous
        self.graph.output(self._unwrap(output))
        return self.graph

    def get_attr_proxy(self, module: Module, name: str) -> Proxy | None:
        """Turn a parameter/buffer read inside traced code into get_attr."""
        path = self._module_paths.get(id(module))
        if path is None:
            return None  # module outside the trace root: raw access
        qualname = f"{path}.{name}" if path else name
        if qualname not in self._get_attr_cache:
            self._get_attr_cache[qualname] = self.create_proxy(
                "get_attr", qualname, (), {})
        return self._get_attr_cache[qualname]

    # ------------------------------------------------------------------ #
    def _unwrap(self, value):
        if isinstance(value, Proxy):
            return value.node
        if isinstance(value, tuple):
            return tuple(self._unwrap(v) for v in value)
        if isinstance(value, list):
            return [self._unwrap(v) for v in value]
        if isinstance(value, dict):
            return {k: self._unwrap(v) for k, v in value.items()}
        if isinstance(value, slice):
            return slice(self._unwrap(value.start), self._unwrap(value.stop),
                         self._unwrap(value.step))
        return value

    def create_proxy(self, op: str, target, args, kwargs) -> Proxy:
        node = self.graph.create_node(
            op, target, self._unwrap(tuple(args)), self._unwrap(dict(kwargs))
        )
        if op == "call_function" and target in _MARKER_TARGETS:
            node.meta["effect"] = _effect_of_marker(node)
        return Proxy(node, self)

    def call_module_proxy(self, module: Module, args, kwargs,
                          lifted: tuple = ()) -> Proxy:
        """Invoked by ``Module.__call__`` when an argument is a Proxy.

        The module's hooks (less ``lifted``, which a graph traced through
        already runs as nodes) become ``sync_*`` nodes at this call site;
        the module then inlines, or is a ``call_module`` run without them.
        """
        path = self._module_paths.get(id(module))
        if path is None:
            raise TraceError(
                f"module {type(module).__name__} called during tracing is "
                f"not a submodule of the traced root"
            )
        pre, bwd, fwd = (tuple(g) for g in module.hooks_except(lifted))
        if pre or bwd:
            values = lift_inputs(self.graph, self._unwrap(tuple(args)),
                                 pre, bwd, module)
            args = tuple(Proxy(v, self) if isinstance(v, Node) else v
                         for v in values)
        if self.is_leaf_module(module, path):
            output = self.create_proxy("call_module", path, args, kwargs)
            if lifted or pre or bwd or fwd:
                output.node.meta["lifted_hooks"] = lifted + pre + bwd + fwd
        else:
            # Inline (flatten) the submodule's forward into this graph.
            output = module.forward(*args, **kwargs)
        if fwd:
            output = Proxy(lift_output(self.graph, self._unwrap(output),
                                       self._unwrap(args), fwd, module),
                           self)
        return output


def symbolic_trace(module: Module, leaves: tuple = (),
                   concrete_args: dict | None = None,
                   leaf_types: tuple | None = None,
                   include_defaults: tuple = (),
                   structured_args: dict | None = None):
    """Trace ``module`` and return an executable :class:`GraphModule`.

    ``module``'s own hooks become ``sync_*`` graph nodes (``lift_hooks``);
    the returned module carries none.
    """
    tracer = Tracer(leaves=leaves, leaf_types=leaf_types)
    graph = tracer.trace(module, concrete_args=concrete_args,
                         include_defaults=include_defaults,
                         structured_args=structured_args)
    gm = GraphModule(module, graph, class_name=type(module).__name__)
    lift_hooks(gm, module)
    return gm
