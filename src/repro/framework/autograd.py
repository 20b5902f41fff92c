"""Reverse-mode automatic differentiation over a dynamic tape.

Every differentiable op attaches a :class:`GradNode` to its output tensor.
``backward(tensor)`` walks the tape in reverse topological order, calling each
node's backward function and accumulating gradients into leaf tensors.

Design notes
------------
* Gradients are plain numpy arrays during propagation and are stored into
  ``tensor.grad`` as framework tensors only at leaves.
* ``no_grad()`` suppresses tape construction, mirroring PyTorch.
* ``detect_anomaly()`` makes every forward op and every tape node check
  its result for NaN/Inf and raise ``FloatingPointError`` naming the
  culprit; outside it the check costs one thread-local read per op.
* Nodes hold edges to their parents' nodes (or to leaf tensors), never to
  interior tensors, and op closures save only the arrays their backward
  formulas read.  ``backward`` frees each node once it has run, as
  PyTorch does by default, so activation memory is released as the walk
  goes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

# Per-thread, like torch's grad mode: LocalCluster runs simulated ranks as
# threads, and one rank entering no_grad() (activation checkpointing's
# first forward) must not strip grad_fns off a concurrent rank's tape.
_GRAD_MODE = threading.local()


def is_grad_enabled() -> bool:
    return getattr(_GRAD_MODE, "enabled", True)


@contextmanager
def no_grad():
    """Context manager that disables tape construction (this thread)."""
    prev = is_grad_enabled()
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


@contextmanager
def enable_grad():
    """Context manager that re-enables tape construction (inside no_grad)."""
    prev = is_grad_enabled()
    _GRAD_MODE.enabled = True
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


# Per-thread for the same reason: one rank debugging an overflow must not
# slow down (or raise inside) a concurrent rank.
_ANOMALY = threading.local()


def is_anomaly_enabled() -> bool:
    return getattr(_ANOMALY, "enabled", False)


@contextmanager
def detect_anomaly():
    """Raise ``FloatingPointError`` at the first op (forward) or tape node
    (backward) that produces a NaN or Inf, on this thread."""
    prev = is_anomaly_enabled()
    _ANOMALY.enabled = True
    try:
        yield
    finally:
        _ANOMALY.enabled = prev


def check_finite(array, where: str) -> None:
    """Raise ``FloatingPointError`` if floating ``array`` holds NaN/Inf."""
    array = np.asarray(array)
    if array.dtype.kind in "fc" and not np.isfinite(array).all():
        raise FloatingPointError(
            f"detect_anomaly: {where} produced a non-finite value")


class GradNode:
    """A tape node: maps the output gradient to its inputs' gradients.

    Parameters
    ----------
    name:
        Op name, for debugging and error messages.
    inputs:
        The op's inputs in positional order (tensors or None).  They are
        not kept: each becomes an *edge*, fixed here at construction —
        the input's ``grad_fn`` if it has one, the input itself if it is
        a leaf that requires grad, else None.  A node never holds an
        interior tensor, so an intermediate whose data no backward
        formula reads dies as soon as user code drops it.
    backward_fn:
        Called with the incoming gradient (numpy array); returns a sequence of
        gradients aligned with ``inputs`` (entries may be None).  It should
        close over only the arrays its formula reads.

    :func:`backward` drops ``backward_fn`` and the edges once the node has
    run, freeing what the closure saved; running the node again raises
    ``RuntimeError``.
    """

    __slots__ = ("name", "edges", "backward_fn")

    def __init__(self, name: str, inputs: Sequence, backward_fn: Callable):
        self.name = name
        self.edges = tuple(_edge(t) for t in inputs)
        self.backward_fn = backward_fn

    def __repr__(self) -> str:
        return f"GradNode({self.name})"


def _edge(tensor):
    """The node (or grad-requiring leaf) a gradient for ``tensor`` goes to."""
    if tensor is None:
        return None
    if tensor.grad_fn is not None:
        return tensor.grad_fn
    return tensor if tensor.requires_grad else None


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Sums over leading broadcast dimensions and over axes that were size-1 in
    the original operand.
    """
    if grad.shape == tuple(shape):
        return grad
    # Sum away leading dims added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were expanded from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _topo_order(root: GradNode) -> list:
    """Nodes reachable from ``root`` through node edges, topologically.

    The depth-first post-order of the tensor graph with the leaves left
    out (they never hold a pending gradient), so gradients are summed in
    the same order as a walk over tensors would sum them.
    """
    order: list = []
    visited: set = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node.edges:
            if type(parent) is GradNode and parent not in visited:
                stack.append((parent, False))
    return order


def backward(root, grad: np.ndarray | None = None) -> None:
    """Run reverse-mode differentiation from ``root``.

    ``grad`` defaults to ones (only valid when ``root`` is scalar-sized, as in
    PyTorch).  Leaf tensors with ``requires_grad`` accumulate into ``.grad``.
    Each node is freed once it has run (PyTorch's ``retain_graph=False``),
    so a second backward through the same graph raises ``RuntimeError``.
    """
    from .tensor import Tensor  # local import to avoid a cycle

    if root.is_meta:
        raise RuntimeError("cannot backprop through a meta tensor")
    if grad is None:
        if root.data.size != 1:
            raise RuntimeError(
                "grad can be implicitly created only for scalar outputs"
            )
        grad = np.ones_like(root.data)
    elif isinstance(grad, Tensor):
        grad = grad.data
    grad = np.asarray(grad, root.data.dtype)
    if root.grad_fn is None:
        if root.requires_grad:
            root._accumulate_grad(grad)
        return

    grads: dict[GradNode, np.ndarray] = {root.grad_fn: grad}
    anomaly = is_anomaly_enabled()
    order = _topo_order(root.grad_fn)
    while order:
        node = order.pop()
        out_grad = grads.pop(node, None)
        if out_grad is None:
            continue
        backward_fn, edges = node.backward_fn, node.edges
        if backward_fn is None:
            raise RuntimeError(
                f"{node!r}: backward through a graph that has already been "
                f"freed (a second backward() on the same graph)")
        node.backward_fn, node.edges = None, ()
        in_grads = backward_fn(out_grad)
        del backward_fn  # the saved arrays die here, not at the next node
        if len(in_grads) != len(edges):
            raise RuntimeError(
                f"{node.name}: backward returned {len(in_grads)} "
                f"grads for {len(edges)} inputs"
            )
        if anomaly:
            for parent_grad in in_grads:
                if parent_grad is not None:
                    check_finite(parent_grad, f"backward of {node!r}")
        for parent, parent_grad in zip(edges, in_grads):
            if parent is None or parent_grad is None:
                continue
            if type(parent) is not GradNode:
                # Leaf: accumulate eagerly (PyTorch's AccumulateGrad
                # node) instead of parking the gradient until the tape
                # walk reaches the leaf.  Backward *hooks* then observe
                # ready parameter gradients — the contract bucketed
                # comm/compute overlap needs to launch gradient
                # all-reduces while backward is still running.
                parent._accumulate_grad(parent_grad)
            elif parent in grads:
                grads[parent] = grads[parent] + parent_grad
            else:
                grads[parent] = parent_grad
