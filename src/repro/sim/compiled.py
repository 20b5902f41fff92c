"""Compiled trace aggregates: the simulator's vectorized evaluation pipeline.

Pricing a configuration used to walk the Python ``OpEvent`` list once per
micro-batch candidate (kernel times, activation bytes, boundary sizes) and
re-build + re-trace the model once per checkpoint ratio.  This module
removes both:

* :class:`CompiledTrace` folds a :class:`~repro.sim.events.ModelTrace`'s
  ops/comms into numpy arrays **once**; kernel-time, activation and
  comm aggregates become array expressions over it.
* :func:`reprice_checkpoint_ratio` derives the ratio-``r`` checkpointed
  variant of a ratio-0 trace analytically from the recorded layer-region
  spans — no model rebuild, no re-trace.

Caching contract: a ``CompiledTrace`` is built lazily by
``ModelTrace.compiled()`` and memoized on the trace, so a trace's ``ops``
and ``comms`` must not be mutated after recording finishes.  Per-(cost
model, batch scale) kernel-time sums are further memoized in
``_time_cache``; both caches live and die with the trace object, and
:func:`reprice_checkpoint_ratio` returns a *new* trace (sharing untouched
events and the ``ModelStats``) so derived variants never invalidate the
base trace's caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .events import ModelTrace
from .kernel_cost import fused_efficiency

#: dtypes considered when sizing the pipeline-stage boundary tensor
_BOUNDARY_DTYPES = ("float16", "float32")


@dataclass
class CompiledTrace:
    """Per-op numpy columns + pre-folded aggregates of one ``ModelTrace``."""

    flops: np.ndarray
    bytes_moved: np.ndarray
    out_bytes: np.ndarray
    #: bytes each op leaves live for backward (see
    #: :meth:`ModelTrace.activation_bytes`)
    retained_bytes: np.ndarray
    is_fp16: np.ndarray
    is_gemm: np.ndarray
    is_flash: np.ndarray
    #: backend efficiency of compiler-fused kernels (1.0 for plain ops)
    fused_eff: np.ndarray
    in_checkpoint: np.ndarray
    #: (group_tag, kind) -> (count of non-empty comms, summed bytes)
    comm_totals: dict[tuple[str, str], tuple[int, float]]
    #: (tag, kind, count, bytes) of the tp/ep ``comm_totals`` with traffic
    axis_kinds: list[tuple[str, str, int, float]]
    #: per-comm-event (group_tag, kind) keys, in recording order
    comm_keys: tuple
    #: per-comm-event payload bytes, in recording order
    comm_bytes: np.ndarray
    #: median fp16/fp32 output size — the pipeline boundary tensor (ref batch)
    boundary_bytes: float
    #: widest op output (transient-workspace sizing), any dtype
    max_out_bytes: float
    total_flops: float
    checkpointed_flops: float
    activation_bytes: float
    #: (KernelCostModel, batch_scale) -> (total, checkpointed) kernel seconds
    _time_cache: dict = field(default_factory=dict, repr=False, compare=False)
    #: lazily-built cumulative arrays for stage slicing (see ``cumulative``)
    _cumulative: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_launches(self) -> int:
        return len(self.flops)

    # -- cumulative views (stage slicing) ------------------------------- #
    # A pipeline stage is a contiguous [start, end) op/comm range, so any
    # per-stage aggregate is a difference of two prefix sums.  The arrays
    # below are built once per trace, on first use; a planner sweeping
    # O(L²·pp) candidate stage spans then prices each span in O(1).
    def activation_cumsum(self) -> np.ndarray:
        """Prefix sums (length n+1) of retained activation bytes per op."""
        cached = self._cumulative.get("act")
        if cached is None:
            cached = np.concatenate(([0.0], np.cumsum(self.retained_bytes)))
            self._cumulative["act"] = cached
        return cached

    def comm_cumsums(self, tag: str) -> dict[str, tuple[np.ndarray,
                                                        np.ndarray]]:
        """Per-kind prefix sums of ``tag``-group collectives.

        Returns ``{kind: (count_cum, bytes_cum)}`` where both arrays have
        length ``num_comms + 1``; the count counts non-empty events (the
        ones that pay the α latency term).
        """
        cached = self._cumulative.get(("comm", tag))
        if cached is None:
            cached = {}
            for key in set(self.comm_keys):
                if key[0] != tag:
                    continue
                mask = np.array([k == key for k in self.comm_keys],
                                dtype=bool)
                counts = np.where(mask & (self.comm_bytes > 0), 1.0, 0.0)
                nbytes = np.where(mask, self.comm_bytes, 0.0)
                cached[key[1]] = (
                    np.concatenate(([0.0], np.cumsum(counts))),
                    np.concatenate(([0.0], np.cumsum(nbytes))),
                )
            self._cumulative[("comm", tag)] = cached
        return cached

    @classmethod
    def from_trace(cls, trace: ModelTrace) -> "CompiledTrace":
        ops = trace.ops
        n = len(ops)
        flops = np.empty(n)
        bytes_moved = np.empty(n)
        out_bytes = np.empty(n)
        retained_bytes = np.empty(n)
        is_fp16 = np.empty(n, dtype=bool)
        is_gemm = np.empty(n, dtype=bool)
        is_flash = np.empty(n, dtype=bool)
        fused_eff = np.ones(n)
        in_checkpoint = np.empty(n, dtype=bool)
        boundary_sizes = []
        unit_inputs = {span.op_end - 1: span.input_bytes
                       for span in trace.layers}
        for i, op in enumerate(ops):
            flops[i] = op.flops
            bytes_moved[i] = op.bytes_moved
            out_bytes[i] = op.out_bytes
            retained_bytes[i] = \
                unit_inputs.get(i, op.out_bytes) if op.checkpoint_boundary \
                else 0.0 if op.in_checkpoint else op.saved_bytes
            is_fp16[i] = op.dtype_name == "float16"
            is_gemm[i] = op.kernel == "gemm"
            is_flash[i] = op.kernel == "flash_attention"
            if op.kernel.startswith("fused:"):
                fused_eff[i] = fused_efficiency(op.kernel)
            in_checkpoint[i] = op.in_checkpoint
            if op.dtype_name in _BOUNDARY_DTYPES:
                boundary_sizes.append(op.out_bytes)

        comm_totals: dict[tuple[str, str], tuple[int, float]] = {}
        comm_keys = []
        comm_bytes = np.empty(len(trace.comms))
        for j, comm in enumerate(trace.comms):
            key = (comm.group_tag, comm.kind)
            comm_keys.append(key)
            comm_bytes[j] = comm.bytes_moved
            count, total = comm_totals.get(key, (0, 0.0))
            if comm.bytes_moved > 0:
                count += 1
            comm_totals[key] = (count, total + comm.bytes_moved)

        boundary_sizes.sort()
        boundary = boundary_sizes[len(boundary_sizes) // 2] \
            if boundary_sizes else 0.0
        return cls(
            flops=flops, bytes_moved=bytes_moved, out_bytes=out_bytes,
            retained_bytes=retained_bytes, is_fp16=is_fp16, is_gemm=is_gemm,
            is_flash=is_flash, fused_eff=fused_eff,
            in_checkpoint=in_checkpoint,
            comm_totals=comm_totals,
            axis_kinds=[(*key, count, total)
                        for key, (count, total) in comm_totals.items()
                        if key[0] in ("tp", "ep") and count],
            comm_keys=tuple(comm_keys),
            comm_bytes=comm_bytes,
            boundary_bytes=boundary,
            max_out_bytes=float(out_bytes.max()) if n else 0.0,
            total_flops=float(flops.sum()),
            checkpointed_flops=float(flops[in_checkpoint].sum()),
            activation_bytes=float(retained_bytes.sum()),
        )


def reprice_checkpoint_ratio(trace: ModelTrace, ratio: float) -> ModelTrace:
    """Derive the ratio-``r`` checkpointed variant of an un-checkpointed trace.

    ``trace`` must have been recorded at checkpoint ratio 0 from a model
    whose checkpoint units are marked (``_slapo_meta["ckpt_unit"]``), so
    its ``layers`` spans name every candidate region in execution order.
    The first ``round(r·L)`` spans — exactly the set ``checkpoint_layers``
    would flag — get their ops re-tagged ``in_checkpoint`` with the final
    op as the retained boundary, matching a fresh build+trace at ratio
    ``r`` event-for-event.

    Returns ``trace`` itself at ratio 0; otherwise a new trace sharing the
    untouched events and the cached ``ModelStats`` (parameters don't move
    when checkpointing does).
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"checkpoint ratio must be in [0, 1], got {ratio}")
    count = int(round(ratio * len(trace.layers)))
    if count == 0:
        return trace
    if any(op.in_checkpoint for op in trace.ops):
        raise ValueError(
            "reprice_checkpoint_ratio needs a ratio-0 base trace "
            "(some ops are already checkpointed)"
        )
    ops = list(trace.ops)
    comms = list(trace.comms)
    for span in trace.layers[:count]:
        for i in range(span.op_start, span.op_end):
            ops[i] = replace(ops[i], in_checkpoint=True)
        if span.op_end > span.op_start:
            ops[span.op_end - 1] = replace(ops[span.op_end - 1],
                                           checkpoint_boundary=True)
        for i in range(span.comm_start, span.comm_end):
            comms[i] = replace(comms[i], in_checkpoint=True)
    return ModelTrace(ops=ops, comms=comms, ref_batch=trace.ref_batch,
                      layers=list(trace.layers), stats=trace.stats)
