"""Hook point between the framework and the performance simulator.

The simulator installs a recorder; every functional op then reports a kernel
event (name, shapes, flops, bytes moved).  When no recorder is installed the
hooks are near-zero-cost no-ops, so ordinary eager execution is unaffected.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

# Per-thread, so a simulator trace on one thread never observes kernel
# events from LocalCluster rank threads running concurrently.
_ACTIVE = threading.local()


def set_recorder(recorder) -> None:
    _ACTIVE.recorder = recorder


def get_recorder():
    return getattr(_ACTIVE, "recorder", None)


@contextmanager
def recording(recorder):
    """Install ``recorder`` on this thread for the duration of the block."""
    prev = get_recorder()
    _ACTIVE.recorder = recorder
    try:
        yield recorder
    finally:
        _ACTIVE.recorder = prev


def record_op(name, out_shape, dtype, flops=0, bytes_moved=0, meta=None):
    """Report one kernel launch to the active recorder, if any."""
    recorder = get_recorder()
    if recorder is not None:
        recorder.record_op(name, out_shape, dtype, flops, bytes_moved, meta)


def record_comm(kind, bytes_, group_size, meta=None):
    """Report one collective to the active recorder, if any."""
    recorder = get_recorder()
    if recorder is not None:
        recorder.record_comm(kind, bytes_, group_size, meta)


@contextmanager
def fused_region(name, backend="custom"):
    """Mark all ops inside the block as a single fused kernel.

    Recorders that understand fusion merge the enclosed op events into one
    launch and drop intermediate memory round-trips; recorders that do not
    (or no recorder at all) see ordinary execution.
    """
    recorder = get_recorder()
    if recorder is None or not hasattr(recorder, "begin_fused"):
        yield
        return
    recorder.begin_fused(name, backend)
    try:
        yield
    finally:
        recorder.end_fused()


@contextmanager
def layer_region(module=None, inputs=()):
    """Mark the ops inside as one checkpointable layer (a checkpoint unit).

    Modules flagged ``_slapo_meta["ckpt_unit"]`` emit this around their
    forward; the simulator's recorder turns it into an op-index span so
    checkpoint ratios can be re-priced without re-tracing the model.
    ``module`` (the unit itself, when available) lets the recorder also
    attribute parameter bytes to the span — the pipeline-stage planner
    uses those to price per-stage memory.  ``inputs`` (the unit's
    positional arguments) are what a checkpoint of the unit keeps.
    """
    recorder = get_recorder()
    if recorder is None or not hasattr(recorder, "begin_layer"):
        yield
        return
    recorder.begin_layer(module, inputs)
    try:
        yield
    finally:
        recorder.end_layer()


@contextmanager
def checkpoint_region():
    """Mark the ops inside as running under activation checkpointing."""
    recorder = get_recorder()
    if recorder is None or not hasattr(recorder, "begin_checkpoint"):
        yield
        return
    recorder.begin_checkpoint()
    try:
        yield
    finally:
        recorder.end_checkpoint()
