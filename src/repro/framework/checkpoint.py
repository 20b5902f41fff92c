"""Activation checkpointing (Chen et al. 2016): trade compute for memory.

``checkpoint_run(fn, *args)`` executes ``fn`` under ``no_grad`` — so none of
its intermediate activations are retained — and registers a tape node that
*re-runs* ``fn`` with gradients enabled during the backward pass.  The RNG
state is snapshotted and replayed so stochastic layers (dropout) produce
identical masks in the recomputation, preserving exact gradients.
"""

from __future__ import annotations

from . import autograd, events, random as frandom
from .autograd import GradNode
from .tensor import Tensor


def checkpoint_run(fn, *args, **kwargs):
    """Run ``fn(*args)`` without storing intermediate activations."""
    tensor_args = [a for a in args if isinstance(a, Tensor)]
    if any(t.is_meta for t in tensor_args):
        # Meta execution: no tape exists; just mark the region for the
        # simulator (it accounts recompute time + boundary-only activations).
        with events.checkpoint_region():
            return fn(*args, **kwargs)
    if not autograd.is_grad_enabled():
        return fn(*args, **kwargs)

    rng_state = frandom.get_rng_state()
    detached = [a.detach() if isinstance(a, Tensor) else a for a in args]
    with autograd.no_grad():
        with events.checkpoint_region():
            output = fn(*detached, **kwargs)
    if not isinstance(output, Tensor):
        raise TypeError(
            "checkpointed functions must return a single tensor "
            f"(got {type(output).__name__})"
        )

    needs_grad = [
        isinstance(a, Tensor) and (a.requires_grad or a.grad_fn is not None)
        for a in args
    ]

    def backward(grad):
        replay_args = []
        for arg, needs in zip(detached, needs_grad):
            if isinstance(arg, Tensor):
                replay = arg.detach()
                replay.requires_grad = needs and arg.dtype.is_floating
                replay_args.append(replay)
            else:
                replay_args.append(arg)
        resume_state = frandom.get_rng_state()
        frandom.set_rng_state(rng_state)
        try:
            with autograd.enable_grad():
                recomputed = fn(*replay_args, **kwargs)
            autograd.backward(recomputed, grad)
        finally:
            # A recompute that raises must not leave this thread's RNG
            # rewound to the checkpoint's start.
            frandom.set_rng_state(resume_state)
        return tuple(
            replay.grad.data if isinstance(replay, Tensor)
            and replay.grad is not None else None
            for replay in replay_args)

    node_inputs = tuple(a if isinstance(a, Tensor) else None for a in args)
    result = Tensor(output.data, dtype=output.dtype)
    result.grad_fn = GradNode("checkpoint", node_inputs, backward)
    result.requires_grad = True
    return result
