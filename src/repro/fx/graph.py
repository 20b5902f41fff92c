"""The static graph: an ordered list of nodes in execution order."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

from .node import Node, iter_nodes, map_arg


class Graph:
    """A single-entry, single-output dataflow graph."""

    def __init__(self):
        self._nodes: list[Node] = []
        self._used_names: dict[str, int] = {}
        self._insert_index: int | None = None  # None = append
        #: pytree specs of structured placeholders (arg name -> TreeSpec)
        self.in_specs: dict = {}

    def __del__(self):
        # A node's users and its args point at each other.  Unlink them,
        # so a dropped graph — with the modules and hooks its sync nodes
        # hold — is freed at once rather than at a full cyclic collection.
        for node in getattr(self, "_nodes", ()):
            node.users.clear()

    # ------------------------------------------------------------------ #
    # Node management
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def _unique_name(self, candidate: str) -> str:
        candidate = candidate.replace(".", "_") or "node"
        if candidate not in self._used_names:
            self._used_names[candidate] = 0
            return candidate
        # The counter alone can collide with an explicitly requested name
        # (literal "x", "x" then "x_1"), so loop until genuinely fresh and
        # claim the generated name too.
        while True:
            self._used_names[candidate] += 1
            name = f"{candidate}_{self._used_names[candidate]}"
            if name not in self._used_names:
                self._used_names[name] = 0
                return name

    def create_node(self, op: str, target, args: tuple = (),
                    kwargs: dict | None = None, name: str | None = None
                    ) -> Node:
        kwargs = kwargs or {}
        if name is None:
            if op == "placeholder":
                name = str(target)
            elif op in ("call_module", "get_attr"):
                name = str(target)
            else:
                name = getattr(target, "__name__", str(target))
        node = Node(self._unique_name(name), op, args=tuple(args),
                    kwargs=dict(kwargs), target=target)
        if self._insert_index is None:
            self._nodes.append(node)
        else:
            self._nodes.insert(self._insert_index, node)
            self._insert_index += 1
        return node

    def erase_node(self, node: Node) -> None:
        if node.users:
            raise RuntimeError(
                f"cannot erase {node.name}: it still has users "
                f"{[u.name for u in node.users]}"
            )
        node.args = ()
        node.kwargs = {}
        self._nodes.remove(node)

    @contextmanager
    def inserting_before(self, node: Node):
        """All nodes created inside the block are placed before ``node``."""
        prev = self._insert_index
        self._insert_index = self._nodes.index(node)
        try:
            yield
        finally:
            self._insert_index = prev

    @contextmanager
    def inserting_after(self, node: Node):
        prev = self._insert_index
        self._insert_index = self._nodes.index(node) + 1
        try:
            yield
        finally:
            self._insert_index = prev

    # Convenience constructors ------------------------------------------ #
    def placeholder(self, name: str) -> Node:
        return self.create_node("placeholder", name)

    def get_attr(self, qualified_name: str) -> Node:
        return self.create_node("get_attr", qualified_name)

    def call_function(self, fn, args: tuple = (), kwargs: dict | None = None
                      ) -> Node:
        return self.create_node("call_function", fn, args, kwargs)

    def call_method(self, method_name: str, args: tuple = (),
                    kwargs: dict | None = None) -> Node:
        return self.create_node("call_method", method_name, args, kwargs)

    def call_module(self, qualified_name: str, args: tuple = (),
                    kwargs: dict | None = None) -> Node:
        return self.create_node("call_module", qualified_name, args, kwargs)

    def output(self, value) -> Node:
        return self.create_node("output", "output", (value,))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def output_node(self) -> Node:
        for node in reversed(self._nodes):
            if node.op == "output":
                return node
        raise RuntimeError("graph has no output node")

    def placeholders(self) -> list[Node]:
        return [n for n in self._nodes if n.op == "placeholder"]

    def find_nodes(self, op: str | None = None, target=None) -> list[Node]:
        found = []
        for node in self._nodes:
            if op is not None and node.op != op:
                continue
            if target is not None and node.target != target:
                continue
            found.append(node)
        return found

    # ------------------------------------------------------------------ #
    # Validation & cleanup
    # ------------------------------------------------------------------ #
    def lint(self) -> None:
        """Check topological order and use-def consistency."""
        seen: set[int] = set()
        for node in self._nodes:
            for used in node.all_input_nodes:
                if id(used) not in seen:
                    raise RuntimeError(
                        f"node {node.name} uses {used.name} before its "
                        f"definition (or from another graph)"
                    )
            seen.add(id(node))
        for node in self._nodes:
            for user in node.users:
                if user not in self._nodes:
                    raise RuntimeError(
                        f"{node.name} has a user {user.name} outside the graph"
                    )

    def eliminate_dead_code(self) -> int:
        """Erase unused side-effect-free nodes; returns how many died.

        Effectful nodes (sync collectives, mutation markers, random ops,
        opaque leaves — see :func:`repro.fx.functionalize.is_impure`)
        survive even when their value is unused.
        """
        from .functionalize import is_impure  # late import, avoids cycle

        erased = 0
        changed = True
        while changed:
            changed = False
            for node in reversed(self._nodes):
                if node.op in ("output", "placeholder"):
                    continue
                if node.users or is_impure(node):
                    continue
                self.erase_node(node)
                erased += 1
                changed = True
        return erased

    def print_tabular(self) -> str:
        rows = [("opcode", "name", "target", "args")]
        for node in self._nodes:
            target = (node.target.__name__ if callable(node.target)
                      else str(node.target))
            args = ", ".join(
                a.name if isinstance(a, Node) else repr(a)
                for a in node.args
            )
            rows.append((node.op, node.name, target, args))
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        lines = []
        for row in rows:
            lines.append("  ".join(
                [row[0].ljust(widths[0]), row[1].ljust(widths[1]),
                 row[2].ljust(widths[2]), row[3]]))
        return "\n".join(lines)

    def __str__(self) -> str:
        lines = [node.format_node() for node in self._nodes]
        return "\n".join(lines)
