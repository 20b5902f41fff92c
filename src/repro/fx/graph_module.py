"""GraphModule: a Module whose forward interprets a static Graph.

The GraphModule *shares* the submodules and parameters of the module it was
traced from — scheduling primitives mutate the graph (fuse, replace,
pipeline-split) while parameter identity is preserved, which is what lets
Slapo keep optimizer state and sharding metadata intact across transforms.

A GraphModule never copies ``root``'s hooks: tracing lifts them, and
every hooked submodule's, into the graph as ``sync_*`` nodes at their call
sites (:mod:`repro.fx.functionalize`), and a leaf's ``call_module`` runs
without the hooks its ``meta["lifted_hooks"]`` names.  A fragment cut out
of the graph therefore holds exactly the collectives it contains.
"""

from __future__ import annotations

from repro.framework.module import Module

from .graph import Graph
from .node import Node, map_arg


class GraphModule(Module):
    def __init__(self, root: Module, graph: Graph,
                 class_name: str = "GraphModule"):
        super().__init__()
        self._class_name = class_name
        self.graph = graph
        self._copy_referenced_attrs(root)
        # Keep original annotations (checkpointing flags etc).
        self._slapo_meta.update(root._slapo_meta)

    # ------------------------------------------------------------------ #
    def _copy_referenced_attrs(self, root: Module) -> None:
        for node in self.graph:
            if node.op == "call_module":
                if not self._has_path(node.target):
                    self._link_submodule(root, node.target)
            elif node.op == "get_attr":
                if not self._has_path(node.target):
                    self._link_attr(root, node.target)

    def _has_path(self, target: str) -> bool:
        try:
            self.get_submodule(target)
            return True
        except AttributeError:
            pass
        try:
            self.get_parameter(target)
            return True
        except AttributeError:
            return False

    def _link_submodule(self, root: Module, target: str) -> None:
        """Mount root's submodule at the same dotted path on self."""
        source = root.get_submodule(target)
        parts = target.split(".")
        parent: Module = self
        for atom in parts[:-1]:
            if atom not in parent._modules:
                shell = Module()
                parent.add_module(atom, shell)
            parent = parent._modules[atom]
        parent.add_module(parts[-1], source)

    def _link_attr(self, root: Module, target: str) -> None:
        module_path, _, name = target.rpartition(".")
        source_module = root.get_submodule(module_path)
        parts = module_path.split(".") if module_path else []
        parent: Module = self
        for atom in parts:
            if atom not in parent._modules:
                parent.add_module(atom, Module())
            parent = parent._modules[atom]
        if name in source_module._parameters:
            parent.register_parameter(name, source_module._parameters[name])
        elif name in source_module._buffers:
            parent.register_buffer(name, source_module._buffers[name])
        else:
            parent.__setattr__(name, getattr(source_module, name))

    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        return self._walk(self._bind_inputs(args, kwargs))

    def _walk(self, env: dict, visit=None):
        """Execute the graph from bound placeholders; return its output.

        ``visit(node, value)``, when given, sees every placeholder and
        every computed node's value as it is produced (``ShapeProp``).
        """
        def lookup(n: Node):
            return env[n]

        result = None
        for node in self.graph:
            if node.op == "placeholder":
                if visit is not None:
                    visit(node, env[node])
                continue
            call_args = map_arg(node.args, lookup)
            call_kwargs = map_arg(node.kwargs, lookup)
            if node.op == "get_attr":
                value = self._resolve_attr(node.target)
            elif node.op == "call_function":
                value = node.target(*call_args, **call_kwargs)
            elif node.op == "call_method":
                obj, *rest = call_args
                value = getattr(obj, node.target)(*rest, **call_kwargs)
            elif node.op == "call_module":
                # The call site's hooks run as the sync_* nodes around it.
                value = self.get_submodule(node.target).call_lifted(
                    node.meta.get("lifted_hooks", ()), call_args,
                    call_kwargs)
            elif node.op == "output":
                result = call_args[0]
                break
            else:
                raise RuntimeError(f"unknown opcode {node.op}")
            env[node] = value
            if visit is not None:
                visit(node, value)
        return result

    def _bind_inputs(self, args, kwargs) -> dict:
        """Bind call values to placeholders with Python call semantics.

        Placeholders produced from a pytree-structured argument (see
        ``Tracer.trace(structured_args=...)``) form one *logical* input:
        the caller passes the nested container, which is flattened here
        against the recorded TreeSpec.  Unknown keywords and values bound
        both positionally and by name raise ``TypeError``, matching a
        plain Python call.
        """
        from .pytree import tree_flatten

        env: dict[Node, object] = {}
        specs = getattr(self.graph, "in_specs", {})
        logical: list[tuple] = []  # (name, [nodes], spec | None)
        for node in self.graph.placeholders():
            parent = node.meta.get("pytree_parent")
            if parent is not None and parent in specs:
                if logical and logical[-1][0] == parent:
                    logical[-1][1].append(node)
                else:
                    logical.append((parent, [node], specs[parent]))
            else:
                logical.append((node.name, [node], None))
        names = [entry[0] for entry in logical]
        if len(args) > len(logical):
            raise TypeError(
                f"{self._class_name} takes {len(logical)} inputs, "
                f"got {len(args)}"
            )
        bound = dict(zip(names, args))
        for key, value in kwargs.items():
            if key in bound:
                raise TypeError(
                    f"{self._class_name}() got multiple values for "
                    f"argument {key!r}"
                )
            if key not in names:
                raise TypeError(
                    f"{self._class_name}() got an unexpected keyword "
                    f"argument {key!r}"
                )
            bound[key] = value
        for name, nodes, spec in logical:
            if name not in bound:
                for node in nodes:
                    if "default" not in node.meta:
                        raise TypeError(f"missing input {name!r}")
                    env[node] = node.meta["default"]
                continue
            value = bound[name]
            if spec is None:
                env[nodes[0]] = value
                continue
            leaves, _ = tree_flatten(value)
            if len(leaves) != len(nodes):
                raise TypeError(
                    f"structured input {name!r} has {len(leaves)} leaves, "
                    f"expected {len(nodes)} for spec {spec!r}"
                )
            for node, leaf in zip(nodes, leaves):
                env[node] = leaf
        return env

    def _resolve_attr(self, target: str):
        module_path, _, name = target.rpartition(".")
        module = self.get_submodule(module_path)
        if name in module._parameters:
            return module._parameters[name]
        if name in module._buffers:
            return module._buffers[name]
        return getattr(module, name)

    def add_submodule(self, name: str, module: Module) -> str:
        """Register a module under a fresh (deduplicated) top-level name."""
        candidate = name
        suffix = 0
        while candidate in self._modules:
            suffix += 1
            candidate = f"{name}_{suffix}"
        self.add_module(candidate, module)
        return candidate

    def recompile(self) -> None:
        """Validate the graph after mutation (interpretation needs no codegen)."""
        self.graph.lint()

    def extra_repr(self) -> str:
        return f"traced_from={self._class_name}, nodes={len(self.graph)}"

    def print_readable(self) -> str:
        return str(self.graph)
