"""Per-GPU memory model: parameters, gradients, optimizer state, activations.

Mixed-precision AdamW (the paper's optimizer) costs per parameter:

====================== ===== =======
component               fp16   fp32
====================== ===== =======
parameter                2      4
gradient                 2      4
master copy              4      —
Adam m, v                8      8
total                   16     16
====================== ===== =======

ZeRO partitions (stage 1: optimizer; stage 2: +grads; stage 3: +params)
across the data-parallel group; tensor parallelism already shrank the
parameters on the meta model itself, so ``model.num_parameters()`` is the
local TP shard count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.framework.module import Module

from .events import ModelTrace


@dataclass
class MemoryBreakdown:
    params: float
    grads: float
    optimizer: float
    activations: float
    workspace: float

    def components(self) -> dict[str, float]:
        """Named additive parts, independent of ``total``'s own sum (the
        fuzzer asserts the two agree, catching a field added to one but
        forgotten in the other)."""
        return {"params": self.params, "grads": self.grads,
                "optimizer": self.optimizer,
                "activations": self.activations,
                "workspace": self.workspace}

    @property
    def total(self) -> float:
        return (self.params + self.grads + self.optimizer
                + self.activations + self.workspace)

    def scaled_activations(self, factor: float) -> "MemoryBreakdown":
        return MemoryBreakdown(self.params, self.grads, self.optimizer,
                               self.activations * factor, self.workspace)


def _param_bytes(model: Module) -> tuple[float, float]:
    """(bytes of parameters, parameter count), tied weights counted once."""
    seen: set[int] = set()
    total_bytes = 0.0
    count = 0.0
    for param in model.parameters():
        if id(param) in seen:
            continue
        seen.add(id(param))
        total_bytes += param.nbytes
        count += param.numel()
    return total_bytes, count


@dataclass(frozen=True)
class ModelStats:
    """Statics of a built model — pure functions of the module tree.

    Computed once (by :func:`repro.sim.trace_model`, or lazily on first
    use) and cached on the trace, so pricing a configuration never
    re-walks ``named_parameters``/``named_modules``.  Invalidation is by
    replacement: a trace's stats are valid as long as the traced model's
    parameters and module structure are unchanged — re-trace after any
    schedule transform that moves parameters (shard, replace, decompose).
    """

    #: bytes of parameters, tied weights counted once
    param_bytes: float
    #: scalar parameter count, tied weights counted once
    param_count: float
    #: repeated-block count (ZeRO-3's layer-at-a-time gathering unit)
    layer_count: int


def compute_model_stats(model: Module) -> ModelStats:
    param_bytes, param_count = _param_bytes(model)
    return ModelStats(param_bytes=param_bytes, param_count=param_count,
                      layer_count=_layer_count_estimate(model))


def model_stats_for(trace: ModelTrace, model: Module) -> ModelStats:
    """The trace's cached :class:`ModelStats`, computing (once) if absent."""
    if trace.stats is None:
        trace.stats = compute_model_stats(model)
    return trace.stats


def _where(flags, yes, no):
    """``yes if flags else no``, elementwise over numpy columns — the
    branch of every formula that prices numbers and columns alike."""
    if isinstance(flags, np.ndarray):
        return np.where(flags, yes, no)
    return yes if flags else no


def _any(flags) -> bool:
    return flags.any() if isinstance(flags, np.ndarray) else flags


def fixed_state_bytes(param_bytes: float, param_count: float,
                      layer_count: int, zero_stage: int, dp_size: int
                      ) -> tuple[float, float, float, float]:
    """(params, grads, optimizer, ZeRO-working) bytes for one shard.

    The single source of the mixed-precision AdamW + ZeRO accounting
    (16 B/param total, stage 1 partitions optimizer state, stage 2 adds
    gradients, stage 3 adds parameters with a 2-layer gathered working
    set) — shared by the whole-model and per-pipeline-stage memory
    models so their feasibility verdicts can never drift apart.  Numbers
    or numpy columns.
    """
    # fp32 master + m + v for fp16 params; m + v for fp32 params = 16B/param
    # total minus what params + grads already account for.
    optimizer_bytes = param_count * 16.0 - param_bytes - param_bytes
    optimizer_bytes = _where(zero_stage >= 1, optimizer_bytes / dp_size,
                             optimizer_bytes)
    grad_bytes = _where(zero_stage >= 2, param_bytes / dp_size, param_bytes)
    # Parameters live sharded; one layer's worth is gathered at a time
    # (current + prefetched next layer).
    zero3 = zero_stage >= 3
    working = _where(zero3, 2 * (param_bytes / max(layer_count, 1)), 0.0)
    param_bytes = _where(zero3, param_bytes / dp_size, param_bytes)
    return param_bytes, grad_bytes, optimizer_bytes, working


def stage_inflight(stage_index: int, num_stages: int,
                   num_micro_batches: int) -> int:
    """Peak in-flight forward activations held by one 1F1B pipeline stage.

    Under 1F1B, stage ``s`` (0-indexed) warms up with ``p - s - 1``
    forwards and then runs one more forward before its first backward
    completes, so it holds up to ``p - s`` micro-batches of activations —
    capped by the number of micro-batches actually in the step.  The
    first stage is the memory bottleneck (``p`` in-flight), the last
    holds exactly one.  Validated against the 1F1B tick schedule in
    :mod:`repro.baselines.pipeline_runtime`.
    """
    return max(1, min(num_stages - stage_index, num_micro_batches))


def model_memory(model: Module, trace: ModelTrace, micro_batch: int,
                 zero_stage: int = 0, dp_size: int = 1,
                 num_pipeline_stages: int = 1,
                 inflight_micro_batches: int = 1) -> MemoryBreakdown:
    """Peak memory of one GPU holding ``1/num_pipeline_stages`` of ``model``.

    ``trace`` must have been recorded at ``trace.ref_batch``; activations
    scale linearly to ``micro_batch`` and with the number of in-flight
    micro-batches (1F1B keeps up to ``pp`` alive on the first stage).
    Numbers, or numpy columns when ``predict_batch`` prices a space.
    """
    stats = model_stats_for(trace, model)
    pp = num_pipeline_stages
    scale = micro_batch / trace.ref_batch
    inflight = _where(inflight_micro_batches < pp, inflight_micro_batches,
                      pp)
    return shard_memory(
        trace, fixed_state_bytes(stats.param_bytes / pp,
                                 stats.param_count / pp, stats.layer_count,
                                 zero_stage, dp_size),
        trace.activation_bytes() / pp * (scale * inflight), scale)


def shard_memory(trace: ModelTrace, fixed, activations, scale
                 ) -> MemoryBreakdown:
    """A shard's peak: its :func:`fixed_state_bytes`, its ``activations``
    and a transient workspace — the gradient of the widest activation at
    batch ``scale``."""
    params, grads, optimizer, working = fixed
    return MemoryBreakdown(
        params=params, grads=grads, optimizer=optimizer,
        activations=activations,
        workspace=working + trace.compiled().max_out_bytes * scale * 2)


def _layer_count_estimate(model: Module) -> int:
    """Repeated-block count (for ZeRO-3's layer-at-a-time gathering).

    Sums the lengths of repeated-block containers (transformer layer lists,
    ResNet stage Sequentials) so the gathered working set is one block.
    """
    from repro.framework.layers import ModuleList, Sequential

    total = 0
    for _, module in model.named_modules():
        if isinstance(module, (ModuleList, Sequential)) and len(module) >= 2:
            # Skip nested containers inside already-counted blocks.
            if all(not isinstance(child, (ModuleList, Sequential))
                   for child in module.children()):
                total += len(module)
    return max(total, 1)
