"""Event capture: turning a meta-device forward pass into a kernel trace.

The framework reports every op/collective through
:mod:`repro.framework.events`; the :class:`TraceRecorder` here folds those
reports into a :class:`ModelTrace`, honouring fused regions (ops inside
collapse into one launch with boundary-only memory traffic), checkpoint
regions (interior activations are not retained; recompute cost is owed in
the backward pass), and layer regions (checkpoint-unit spans the planner
uses to re-price checkpoint ratios without re-tracing).  What an op keeps
for backward it declares itself (``meta["saved"]``); the recorder counts
each buffer once per trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.framework import events as fw_events
from repro.framework.functional import buffer_owner
from repro.framework.parameter import Parameter
from repro.framework.tensor import Tensor


@dataclass
class OpEvent:
    name: str
    out_shape: tuple
    dtype_name: str
    flops: float
    bytes_moved: float
    #: bytes of the op's output tensor (boundary and workspace sizing)
    out_bytes: float
    #: bytes the op's backward keeps alive that no earlier op already kept
    #: (parameters excluded); a fused launch sums its members
    saved_bytes: float = 0.0
    kernel: str = "elementwise"
    in_checkpoint: bool = False
    #: number of primitive ops folded into this launch (fusion)
    fused_count: int = 1
    #: True for the final op of a checkpoint region (it prices what the
    #: checkpoint keeps)
    checkpoint_boundary: bool = False


@dataclass
class CommEvent:
    kind: str
    bytes_moved: float
    group_tag: str
    ranks: tuple
    in_checkpoint: bool = False


@dataclass
class LayerSpan:
    """Half-open op/comm index ranges of one checkpointable layer region.

    Modules flagged ``_slapo_meta["ckpt_unit"]`` (the units a schedule's
    ``checkpoint_layers`` may checkpoint) emit one span each while tracing.
    Spans are recorded in execution order, which is also the order
    ``checkpoint_layers`` consumes its path list — so flipping the first
    ``⌈r·L⌉`` spans reproduces a ratio-``r`` schedule exactly (see
    :func:`repro.sim.compiled.reprice_checkpoint_ratio`).
    """

    op_start: int
    op_end: int
    comm_start: int
    comm_end: int
    #: parameter bytes of the unit's module (tied weights counted once per
    #: unit) — lets the pipeline planner price per-stage memory exactly
    param_bytes: float = 0.0
    #: bytes of the unit's tensor inputs not already an earlier unit's
    #: input: what a checkpoint of the unit keeps for its recompute
    input_bytes: float = 0.0


@dataclass
class ModelTrace:
    """A forward pass recorded at a reference batch size.

    All flops/bytes scale linearly in batch, so one trace prices every
    micro-batch size.  Aggregates are served from the memoized
    :meth:`compiled` view — treat ``ops``/``comms`` as frozen once
    recording finishes (derive variants with
    :func:`repro.sim.compiled.reprice_checkpoint_ratio` instead of
    mutating in place).
    """

    ops: list[OpEvent] = field(default_factory=list)
    comms: list[CommEvent] = field(default_factory=list)
    ref_batch: int = 1
    #: checkpoint-unit spans, in execution order (empty when unmarked)
    layers: list[LayerSpan] = field(default_factory=list)
    #: statics of the traced model (params, layer count), computed once
    stats: "ModelStats | None" = None
    _compiled: "CompiledTrace | None" = field(
        default=None, init=False, repr=False, compare=False)

    def compiled(self) -> "CompiledTrace":
        """The vectorized array view of this trace, built once."""
        if self._compiled is None:
            from .compiled import CompiledTrace  # late import, avoids cycle

            self._compiled = CompiledTrace.from_trace(self)
        return self._compiled

    @property
    def total_flops(self) -> float:
        return self.compiled().total_flops

    @property
    def num_launches(self) -> int:
        return len(self.ops)

    def activation_bytes(self) -> float:
        """Forward activations retained for the backward pass: each op's
        :attr:`OpEvent.saved_bytes`, what it declares its eager backward
        closure holds.  Ops inside a checkpoint region keep nothing; the
        checkpoint keeps the region's inputs, priced at its boundary op as
        the unit's :attr:`LayerSpan.input_bytes` (else the op's output).
        """
        return self.compiled().activation_bytes

    def checkpointed_flops(self) -> float:
        """Forward flops that must be recomputed during backward."""
        return self.compiled().checkpointed_flops


def _module_param_bytes(module) -> float:
    """Parameter bytes of one layer unit (tied weights counted once)."""
    if module is None or not hasattr(module, "parameters"):
        return 0.0
    from .memory import _param_bytes  # late import, avoids cycle

    return _param_bytes(module)[0]


def _nbytes(shape, dtype) -> float:
    n = 1
    for s in shape:
        n *= s
    return float(n) * dtype.itemsize


class TraceRecorder:
    """Recorder installed via ``repro.framework.events.recording``."""

    def __init__(self):
        self.trace = ModelTrace()
        #: stack of open fused regions: (name, backend, buffered ops)
        self._fused_stack: list[tuple[str, str, list[OpEvent]]] = []
        self._checkpoint_depth = 0
        #: op index where the current outermost checkpoint region began
        self._checkpoint_start = 0
        #: open layer regions: (op index, comm index, module, inputs)
        self._layer_stack: list[tuple[int, int, object, tuple]] = []
        #: id -> owner of each buffer counted so far, held until finish()
        self._saved: dict[int, object] = {}
        self._unit_inputs: dict[int, object] = {}

    def _new_bytes(self, items, seen: dict) -> float:
        """Bytes of ``items`` not yet ``seen``; an int is a fresh buffer."""
        total = 0
        for item in items:
            if isinstance(item, int):
                total += item
                continue
            owner = buffer_owner(item)
            if id(owner) not in seen:
                seen[id(owner)] = owner
                if not isinstance(owner, Parameter):
                    total += owner.nbytes
        return float(total)

    def finish(self) -> ModelTrace:
        """Drop the buffer keys; the trace keeps only byte counts."""
        self._saved, self._unit_inputs = {}, {}
        return self.trace

    # -- framework hooks ------------------------------------------------ #
    def record_op(self, name, out_shape, dtype, flops, bytes_moved, meta):
        meta = meta or {}
        saved = meta.get("saved")
        event = OpEvent(
            name=name,
            out_shape=tuple(out_shape),
            dtype_name=dtype.name,
            flops=float(flops),
            bytes_moved=float(bytes_moved),
            out_bytes=_nbytes(out_shape, dtype),
            saved_bytes=self._new_bytes(saved, self._saved) if saved else 0.0,
            kernel=meta.get("kernel", _classify(name)),
            in_checkpoint=self._checkpoint_depth > 0,
        )
        if self._fused_stack:
            self._fused_stack[-1][2].append(event)
        else:
            self.trace.ops.append(event)

    def record_comm(self, kind, bytes_, group_size, meta):
        meta = meta or {}
        self.trace.comms.append(CommEvent(
            kind=kind,
            bytes_moved=float(bytes_),
            group_tag=meta.get("tag", "world"),
            ranks=tuple(meta.get("ranks", ())),
            in_checkpoint=self._checkpoint_depth > 0,
        ))

    def begin_fused(self, name, backend):
        self._fused_stack.append((name, backend, []))

    def end_fused(self):
        name, backend, ops = self._fused_stack.pop()
        if not ops:
            return
        last = ops[-1]
        gemm_flops = sum(op.flops for op in ops if op.kernel == "gemm")
        fused = OpEvent(
            name=f"fused:{name}",
            out_shape=last.out_shape,
            dtype_name=last.dtype_name,
            flops=sum(op.flops for op in ops),
            # One read of the widest operand + one write of the output —
            # intermediates stay in registers/shared memory.
            bytes_moved=2.0 * max(op.out_bytes for op in ops),
            out_bytes=last.out_bytes,
            saved_bytes=sum(op.saved_bytes for op in ops),
            kernel="gemm" if gemm_flops > 0 else f"fused:{backend}",
            in_checkpoint=self._checkpoint_depth > 0,
            fused_count=sum(op.fused_count for op in ops),
        )
        if self._fused_stack:
            self._fused_stack[-1][2].append(fused)
        else:
            self.trace.ops.append(fused)

    def begin_checkpoint(self):
        if self._checkpoint_depth == 0:
            self._checkpoint_start = len(self.trace.ops)
        self._checkpoint_depth += 1

    def end_checkpoint(self):
        self._checkpoint_depth -= 1
        if self._checkpoint_depth == 0 \
                and len(self.trace.ops) > self._checkpoint_start:
            # The region's final output is the retained boundary tensor.
            self.trace.ops[-1].checkpoint_boundary = True

    def begin_layer(self, module=None, inputs=()):
        self._layer_stack.append((len(self.trace.ops),
                                  len(self.trace.comms), module, inputs))

    def end_layer(self):
        op_start, comm_start, module, inputs = self._layer_stack.pop()
        if self._layer_stack:
            return  # nested units collapse into the outermost span
        self.trace.layers.append(LayerSpan(
            op_start=op_start, op_end=len(self.trace.ops),
            comm_start=comm_start, comm_end=len(self.trace.comms),
            param_bytes=_module_param_bytes(module),
            input_bytes=self._new_bytes(
                [t for t in inputs if isinstance(t, Tensor)],
                self._unit_inputs)))


def _classify(name: str) -> str:
    if name in ("matmul", "linear", "conv2d"):
        return "gemm"
    if name == "flash_attention":
        return "flash_attention"
    if name == "embedding":
        return "gather"
    return "elementwise"


def trace_model(model, *example_inputs, ref_batch: int = 1) -> ModelTrace:
    """Record one forward pass of (typically meta-device) ``model``.

    The returned trace carries a :class:`~repro.sim.memory.ModelStats`
    computed here, once — downstream pricing (memory, step time, the
    planner sweep) reads the cached statics instead of re-walking the
    module tree per configuration.
    """
    recorder = TraceRecorder()
    with fw_events.recording(recorder):
        model(*example_inputs)
    trace = recorder.finish()
    trace.ref_batch = ref_batch
    from .memory import compute_model_stats  # late import, avoids cycle

    trace.stats = compute_model_stats(model)
    return trace
