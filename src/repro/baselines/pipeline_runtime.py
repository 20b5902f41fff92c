"""Pipeline-parallel runtime: tick-program-driven micro-batched execution.

Functionally, a pipeline step over ``m`` micro-batches must produce
exactly the gradients of the full batch (gradient accumulation across
micro-batches).  The runtime executes any registered tick program
(:mod:`repro.pipeline`) *stage by stage*: each tick runs exactly one
stage's forward or backward for one micro-batch, activations are handed
off between stages at forward ticks, and output-gradients are handed
back at backward ticks — so GPipe, 1F1B, interleaved virtual stages and
zero-bubble programs all exercise their actual execution orders.  After
a step, ``last_trace`` holds the :class:`~repro.pipeline.TickOp` ops
it ran.  The *performance* consequence (bubble, per-stage busy/idle) is
priced off the same program by :func:`repro.pipeline.simulate_program`
(``simulate_program(runtime.program(), {"F": 1.0, "B": 1.0})`` at unit
cost) and :mod:`repro.sim.pipeline`.

Per-stage backward uses the vector-Jacobian trick: stage boundaries are
detached (with ``requires_grad``), and a stage's backward seeds its tape
with the downstream gradients via ``sum((out · g).sum())`` — bit-equal
to seeding each output with ``g`` directly.  One caveat: the tape
autograd computes input *and* weight gradients in a single walk, so a
zero-bubble ``W`` tick is a bookkeeping no-op at runtime (the weight
gradient already accumulated at the ``B`` tick); the simulator still
prices ``B``/``W`` separately, which is where the zb bubble win lives.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.framework.module import Module
from repro.framework.tensor import Tensor
from repro.pipeline import TickOp, make_program, schedule_info


class PipelineRuntime:
    """Drives a stage chain through micro-batched training steps.

    ``stages`` holds the sequential model chunks; for interleaved
    schedules (``num_chunks > 1``) it must hold ``num_stages ×
    num_chunks`` modules, chunk ``c`` of physical stage ``s`` being
    ``stages[c · num_stages + s]`` (virtual-stage order).
    """

    def __init__(self, stages: Sequence[Module], num_micro_batches: int,
                 schedule: str = "1f1b", num_stages: int | None = None):
        if num_micro_batches < 1:
            raise ValueError("need at least one micro-batch")
        self.stages = list(stages)
        self.num_micro = num_micro_batches
        info = schedule_info(schedule)  # rejects unknown schedules
        self.schedule = schedule
        self.num_chunks = info.num_chunks
        if num_stages is None:
            if len(self.stages) % self.num_chunks:
                raise ValueError(
                    f"schedule {schedule!r} interleaves {self.num_chunks} "
                    f"chunks per stage; {len(self.stages)} stage modules "
                    f"do not divide evenly"
                )
            num_stages = len(self.stages) // self.num_chunks
        if num_stages * self.num_chunks != len(self.stages):
            raise ValueError(
                f"{len(self.stages)} stage modules cannot form "
                f"{num_stages} stages × {self.num_chunks} chunks"
            )
        self.num_stages = num_stages
        #: the ``TickOp``s the last ``train_step`` ran, in execution order
        self.last_trace: list[TickOp] = []
        #: peak in-flight activation chunks per physical stage, observed
        self.last_stage_peaks: tuple[int, ...] = ()

    def program(self):
        """The tick program this runtime executes."""
        return make_program(self.schedule, self.num_stages, self.num_micro)

    @property
    def fillable(self) -> bool:
        """Whether every stage can hold work at once (``m >= stages``).

        The planner rejects unfillable pipelines as infeasible
        (:func:`repro.sim.planner.predict_config`); the runtime still
        *executes* them (the schedule degenerates), so this property is
        the runtime-side half of that feasibility agreement — asserted
        for every fuzzed configuration.
        """
        return self.num_micro >= self.num_stages

    # ------------------------------------------------------------------ #
    @staticmethod
    def _boundary_detach(values: tuple) -> tuple:
        """Cut the tape at a stage boundary, keeping grad taps.

        Float tensors become leaves with ``requires_grad`` so the
        stage's backward deposits the gradients the upstream stage
        needs; integer tensors (ids threaded through liveness) pass
        through untouched.
        """
        detached = []
        for value in values:
            if isinstance(value, Tensor):
                leaf = value.detach()
                leaf.requires_grad_(True)  # only sticks for float dtypes
                detached.append(leaf)
            else:
                detached.append(value)
        return tuple(detached)

    @staticmethod
    def _output_tuple(value) -> tuple:
        if isinstance(value, Tensor):
            return (value,)
        if not isinstance(value, tuple):
            raise TypeError("stages must return tensors/tuples")
        return value

    # ------------------------------------------------------------------ #
    def train_step(self, micro_batches: Sequence[tuple],
                   loss_fn: Callable) -> float:
        """Run one full pipeline step; returns the mean micro-batch loss.

        ``micro_batches``: sequence of input tuples, one per micro-batch.
        ``loss_fn(output, micro_index) -> scalar tensor``.

        Execution is tick-driven: the program's linearization is replayed
        op by op, so each stage computes exactly at its scheduled ticks
        (recorded in :attr:`last_trace`).  Gradients accumulate across
        micro-batches into the stage parameters, scaled by ``1/m`` so
        they equal full-batch training.
        """
        if len(micro_batches) != self.num_micro:
            raise ValueError(
                f"expected {self.num_micro} micro-batches, got "
                f"{len(micro_batches)}"
            )
        program = self.program()
        num_virtual = program.num_virtual
        # per-(virtual stage, micro) state
        fwd_out: dict[tuple[int, int], tuple] = {}   # stage outputs
        fwd_in: dict[tuple[int, int], tuple] = {}    # detached inputs
        handoff: dict[tuple[int, int], tuple] = {}   # activations to next
        grad_in: dict[tuple[int, int], tuple] = {}   # grads from next
        inflight = [0] * self.num_stages
        peaks = [0] * self.num_stages
        losses: list[float] = []
        ops = program.linearize()

        for op in ops:
            vs = op.vstage(self.num_stages)
            key = (vs, op.micro_batch)
            if op.kind == "F":
                if vs == 0:
                    inputs = tuple(micro_batches[op.micro_batch])
                else:
                    inputs = self._boundary_detach(handoff.pop(key))
                    fwd_in[key] = inputs
                outputs = self._output_tuple(self.stages[vs](*inputs))
                fwd_out[key] = outputs
                if vs < num_virtual - 1:
                    handoff[(vs + 1, op.micro_batch)] = outputs
                inflight[op.stage] += 1
                peaks[op.stage] = max(peaks[op.stage], inflight[op.stage])
            elif op.kind == "B":
                outputs = fwd_out.pop(key)
                if vs == num_virtual - 1:
                    output = outputs[0] if len(outputs) == 1 else outputs
                    loss = loss_fn(output, op.micro_batch)
                    (loss * (1.0 / self.num_micro)).backward()
                    losses.append(float(loss.item()))
                else:
                    grads = grad_in.pop(key)
                    surrogate = None
                    for out, grad in zip(outputs, grads):
                        if grad is None or not isinstance(out, Tensor) \
                                or not out.requires_grad:
                            continue
                        term = (out * grad).sum()
                        surrogate = term if surrogate is None \
                            else surrogate + term
                    if surrogate is not None:
                        surrogate.backward()
                if vs > 0:
                    inputs = fwd_in.pop(key)
                    grad_in[(vs - 1, op.micro_batch)] = tuple(
                        value.grad if isinstance(value, Tensor) else None
                        for value in inputs)
                inflight[op.stage] -= 1
            # "W": weight-gradient bookkeeping tick — the tape autograd
            # already accumulated weight grads during "B" (see module
            # docstring); nothing to execute.
        self.last_trace = ops
        self.last_stage_peaks = tuple(peaks)
        return sum(losses) / len(losses)
