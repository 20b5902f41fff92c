"""Shape propagation over a GraphModule's own executor."""

from __future__ import annotations

from repro.framework.tensor import Tensor

from .graph_module import GraphModule
from .node import Node


class ShapeProp:
    """Annotates every node with ``meta['shape']`` / ``meta['dtype']``.

    ``run`` binds its inputs and walks the graph exactly as calling the
    module does, so it accepts the same calls.  Run it with meta tensors
    to get whole-graph shape inference without any allocation — the
    performance simulator's front door.
    """

    def __init__(self, gm: GraphModule):
        self.gm = gm

    def run(self, *args, **kwargs):
        return self.gm._walk(self.gm._bind_inputs(args, kwargs), _annotate)


def _annotate(node: Node, value) -> None:
    if isinstance(value, Tensor):
        node.meta["shape"] = tuple(value.shape)
        node.meta["dtype"] = value.dtype
    elif isinstance(value, tuple) and value and \
            all(isinstance(v, Tensor) for v in value):
        node.meta["shape"] = tuple(tuple(v.shape) for v in value)
        node.meta["dtype"] = value[0].dtype
