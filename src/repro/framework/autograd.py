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
* Nodes hold references to their input tensors; tapes are short-lived so the
  resulting reference cycles are acceptable.
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
    """A tape node: maps the output gradient to input gradients.

    Parameters
    ----------
    name:
        Op name, for debugging and error messages.
    inputs:
        The input *tensors* that may require grad, in positional order.
    backward_fn:
        Called with the incoming gradient (numpy array); returns a sequence of
        gradients aligned with ``inputs`` (entries may be None).
    """

    __slots__ = ("name", "inputs", "backward_fn")

    def __init__(self, name: str, inputs: Sequence, backward_fn: Callable):
        self.name = name
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn

    def __repr__(self) -> str:
        return f"GradNode({self.name})"


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


def _topo_order(root) -> list:
    """Tensors reachable from ``root`` through grad_fn edges, topologically."""
    order: list = []
    visited: set[int] = set()
    stack = [(root, False)]
    while stack:
        tensor, processed = stack.pop()
        if processed:
            order.append(tensor)
            continue
        if id(tensor) in visited:
            continue
        visited.add(id(tensor))
        stack.append((tensor, True))
        if tensor.grad_fn is not None:
            for parent in tensor.grad_fn.inputs:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))
    return order


def backward(root, grad: np.ndarray | None = None) -> None:
    """Run reverse-mode differentiation from ``root``.

    ``grad`` defaults to ones (only valid when ``root`` is scalar-sized, as in
    PyTorch).  Leaf tensors with ``requires_grad`` accumulate into ``.grad``.
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

    grads: dict[int, np.ndarray] = {id(root): np.asarray(grad, root.data.dtype)}
    anomaly = is_anomaly_enabled()
    for tensor in reversed(_topo_order(root)):
        out_grad = grads.pop(id(tensor), None)
        if out_grad is None:
            continue
        if tensor.grad_fn is None:
            if tensor.requires_grad:
                tensor._accumulate_grad(out_grad)
            continue
        in_grads = tensor.grad_fn.backward_fn(out_grad)
        inputs = tensor.grad_fn.inputs
        if len(in_grads) != len(inputs):
            raise RuntimeError(
                f"{tensor.grad_fn.name}: backward returned {len(in_grads)} "
                f"grads for {len(inputs)} inputs"
            )
        if anomaly:
            for parent_grad in in_grads:
                if parent_grad is not None:
                    check_finite(parent_grad,
                                 f"backward of {tensor.grad_fn!r}")
        for parent, parent_grad in zip(inputs, in_grads):
            if parent is None or parent_grad is None:
                continue
            if not (parent.requires_grad or parent.grad_fn is not None):
                continue
            if parent.grad_fn is None:
                # Leaf: accumulate eagerly (PyTorch's AccumulateGrad
                # node) instead of parking the gradient until the tape
                # walk reaches the leaf.  Backward *hooks* then observe
                # ready parameter gradients — the contract bucketed
                # comm/compute overlap needs to launch gradient
                # all-reduces while backward is still running.
                parent._accumulate_grad(parent_grad)
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + parent_grad
            else:
                grads[key] = parent_grad
