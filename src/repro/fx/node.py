"""Graph IR nodes.

The IR has exactly the six opcodes of ``torch.fx`` (Reed et al., MLSys'22),
which the paper builds its static-graph primitives on:

========== =========================================================
opcode      meaning
========== =========================================================
placeholder  function input
get_attr     fetch a parameter/buffer from the owning module
call_function call a free function (ops from ``framework.functional``)
call_method  call a method on the first argument
call_module  invoke a submodule of the owning module
output       return value of the graph
========== =========================================================
"""

from __future__ import annotations

from typing import Any, Callable, Iterable


BASE_OPCODES = (
    "placeholder",
    "get_attr",
    "call_function",
    "call_method",
    "call_module",
    "output",
)


def map_arg(arg, fn: Callable[["Node"], Any]):
    """Apply ``fn`` to every Node inside a (possibly nested) argument."""
    if isinstance(arg, Node):
        return fn(arg)
    if isinstance(arg, tuple):
        return tuple(map_arg(a, fn) for a in arg)
    if isinstance(arg, list):
        return [map_arg(a, fn) for a in arg]
    if isinstance(arg, dict):
        return {k: map_arg(v, fn) for k, v in arg.items()}
    if isinstance(arg, slice):
        return slice(map_arg(arg.start, fn), map_arg(arg.stop, fn),
                     map_arg(arg.step, fn))
    return arg


def iter_nodes(arg) -> Iterable["Node"]:
    """Yield every Node inside a (possibly nested) argument."""
    if isinstance(arg, Node):
        yield arg
    elif isinstance(arg, (tuple, list)):
        for a in arg:
            yield from iter_nodes(a)
    elif isinstance(arg, dict):
        for a in arg.values():
            yield from iter_nodes(a)
    elif isinstance(arg, slice):
        yield from iter_nodes((arg.start, arg.stop, arg.step))


class Node:
    """One operation in a :class:`repro.fx.graph.Graph`."""

    def __init__(self, name: str, op: str, target, args: tuple,
                 kwargs: dict):
        if op not in BASE_OPCODES:
            raise ValueError(f"invalid opcode: {op}")
        self.name = name
        self.op = op
        self.target = target
        self._args = args
        self._kwargs = kwargs
        self.users: dict[Node, None] = {}
        # Free-form metadata: "shape"/"dtype" (ShapeProp), "default" and
        # "pytree_parent" (tracer placeholders), "effect" (functionalize).
        self.meta: dict[str, Any] = {}
        for used in self.all_input_nodes:
            used.users[self] = None

    # -- argument accessors keep the use-def chains consistent ---------- #
    @property
    def args(self) -> tuple:
        return self._args

    @args.setter
    def args(self, new_args: tuple) -> None:
        self._update_uses(new_args, self._kwargs)
        self._args = new_args

    @property
    def kwargs(self) -> dict:
        return self._kwargs

    @kwargs.setter
    def kwargs(self, new_kwargs: dict) -> None:
        self._update_uses(self._args, new_kwargs)
        self._kwargs = new_kwargs

    def _update_uses(self, new_args, new_kwargs) -> None:
        for used in self.all_input_nodes:
            used.users.pop(self, None)
        for used in iter_nodes((new_args, new_kwargs)):
            used.users[self] = None

    @property
    def all_input_nodes(self) -> list["Node"]:
        return list(iter_nodes((self._args, self._kwargs)))

    def replace_all_uses_with(self, replacement: "Node") -> list["Node"]:
        """Point every user of this node at ``replacement``."""
        users = list(self.users)
        for user in users:
            user.args = map_arg(
                user.args, lambda n: replacement if n is self else n)
            user.kwargs = map_arg(
                user.kwargs, lambda n: replacement if n is self else n)
        return users

    def replace_input_with(self, old: "Node", new: "Node") -> None:
        self.args = map_arg(self.args, lambda n: new if n is old else n)
        self.kwargs = map_arg(self.kwargs, lambda n: new if n is old else n)

    def format_node(self) -> str:
        def fmt(a):
            if isinstance(a, Node):
                return f"%{a.name}"
            if callable(a):
                return getattr(a, "__name__", repr(a))
            return repr(a)

        args = ", ".join(map_arg_to_str(self._args, fmt))
        kwargs = ", ".join(f"{k}={fmt(v)}" for k, v in self._kwargs.items())
        arglist = ", ".join(x for x in (args, kwargs) if x)
        target = self.target.__name__ if callable(self.target) else self.target
        return f"%{self.name} = {self.op}[{target}]({arglist})"

    def __repr__(self) -> str:
        return self.name


def map_arg_to_str(args, fmt) -> list[str]:
    out = []
    for a in args:
        if isinstance(a, (tuple, list)):
            inner = ", ".join(map_arg_to_str(a, fmt))
            out.append(f"[{inner}]")
        else:
            out.append(fmt(a))
    return out
