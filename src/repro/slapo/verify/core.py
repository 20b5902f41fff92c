"""The schedule verifier (paper §3.5).

Two layers of defence:

1. **Rule checking** happens inside every primitive's ``check()`` before it
   applies (sync-after-shard, trace-before-fuse, distributed-env-only
   primitives, ...) and raises :class:`SchedulingError` on violation.
2. **Differential testing** (this module): run the scheduled model against
   the vanilla model on random inputs — across a simulated multi-rank
   cluster when the schedule uses distributed primitives — and compare
   eval outputs, training gradients, and post-optimizer-step parameters.

Gradient comparison works on *sharded* models: every parameter the schedule
sharded carries a provenance chain back to the parameter it was sliced
from, so each rank's shard gradient is checked against the matching slice
of the vanilla model's gradient.  Data parallelism is exercised for real —
the batch is split across ``dp`` ranks and gradients are averaged over the
dp group before comparison — and ZeRO optimizer partitioning is checked
exactly against an unpartitioned optimizer fed identical gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.distributed import DeviceMesh, LocalCluster, ParallelConfig
from repro.framework import manual_seed
from repro.framework.layers import Dropout
from repro.framework.module import Module
from repro.framework.optim import SGD, AdamW
from repro.framework.tensor import Tensor

from ..build import build
from ..schedule import Schedule, create_schedule


class VerificationError(AssertionError):
    """The scheduled model diverged from the vanilla model."""


#: SGD step size for the post-step parameter check.  With lr=1 the
#: parameter delta *is* the gradient, so a diverging update is exactly as
#: visible as the diverging gradient that caused it (an Adam-style
#: normalized update would compress any gradient error to ±lr).
_STEP_LR = 1.0


@dataclass(frozen=True)
class Tolerance:
    rtol: float
    atol: float


@dataclass(frozen=True)
class TolerancePolicy:
    """Per-dtype comparison tolerances for each verification stage.

    Keys are dtype names (``"float32"``, ``"float16"``); missing dtypes
    fall back to the ``"default"`` entry.  Integer outputs are always
    compared exactly.
    """

    output: dict = field(default_factory=dict)
    grad: dict = field(default_factory=dict)
    param: dict = field(default_factory=dict)

    @classmethod
    def default(cls) -> "TolerancePolicy":
        return cls(
            output={"float32": Tolerance(2e-2, 2e-3),
                    "float16": Tolerance(5e-2, 1e-2),
                    "default": Tolerance(2e-2, 2e-3)},
            grad={"float32": Tolerance(2e-2, 2e-3),
                  "float16": Tolerance(8e-2, 2e-2),
                  "default": Tolerance(2e-2, 2e-3)},
            param={"float32": Tolerance(2e-2, 3e-3),
                   "float16": Tolerance(8e-2, 2e-2),
                   "default": Tolerance(2e-2, 3e-3)},
        )

    def for_(self, stage: str, dtype_name: str) -> Tolerance:
        table = getattr(self, stage)
        return table.get(dtype_name) or table["default"]

    def override(self, rtol: float | None, atol: float | None
                 ) -> "TolerancePolicy":
        """Uniformly override every stage/dtype (legacy rtol/atol args)."""
        if rtol is None and atol is None:
            return self

        def patch(table: dict) -> dict:
            return {
                name: Tolerance(rtol if rtol is not None else tol.rtol,
                                atol if atol is not None else tol.atol)
                for name, tol in table.items()
            }

        return replace(self, output=patch(self.output),
                       grad=patch(self.grad), param=patch(self.param))


@dataclass
class VerifyReport:
    """What one :func:`verify` call actually checked."""

    world_size: int = 1
    parallel: ParallelConfig | None = None
    outputs_checked: int = 0
    grads_checked: int = 0
    #: parameters skipped because no gradient flowed to them (both models)
    grads_without_flow: int = 0
    #: scheduled parameters with no provenance link to a vanilla parameter
    params_unmatched: int = 0
    params_checked: int = 0
    #: ZeRO partitioned step checked exactly against the plain optimizer
    zero_step_checked: bool = False
    train_mode: bool = False
    max_output_err: float = 0.0
    max_grad_err: float = 0.0
    max_param_err: float = 0.0
    worst_grad_param: str = ""

    def merge(self, other: "VerifyReport") -> None:
        self.outputs_checked += other.outputs_checked
        self.grads_checked += other.grads_checked
        self.grads_without_flow += other.grads_without_flow
        self.params_unmatched += other.params_unmatched
        self.params_checked += other.params_checked
        self.zero_step_checked |= other.zero_step_checked
        self.max_output_err = max(self.max_output_err, other.max_output_err)
        if other.max_grad_err > self.max_grad_err:
            self.max_grad_err = other.max_grad_err
            self.worst_grad_param = other.worst_grad_param
        self.max_param_err = max(self.max_param_err, other.max_param_err)


def _to_output_list(output) -> list[Tensor]:
    if isinstance(output, Tensor):
        return [output]
    if isinstance(output, (tuple, list)):
        out = []
        for item in output:
            out.extend(_to_output_list(item))
        return out
    return []


def _has_active_dropout(model: Module) -> bool:
    return any(isinstance(m, Dropout) and m.p > 0 for m in model.modules())


def _grad_check_train_mode(model: Module, dp: int) -> bool:
    """Whether the gradient stage can run in train mode.

    Active dropout draws per-rank masks a sharded model cannot replicate,
    and train-mode BatchNorm computes *batch* statistics — which on a
    1/dp slice legitimately differ from the full-batch reference (the
    non-synchronized-BN behaviour of real data parallelism).  Both fall
    back to eval-mode backward, which is slice-linear and exact.
    """
    from repro.framework.layers import BatchNorm2d

    if _has_active_dropout(model):
        return False
    if dp > 1 and any(isinstance(m, BatchNorm2d) for m in model.modules()):
        return False
    return True


def _loss(outputs: list[Tensor]):
    total = None
    for out in outputs:
        if not out.dtype.is_floating:
            continue
        term = out.mean()
        total = term if total is None else total + term
    if total is None:
        raise ValueError("model produced no floating-point outputs to "
                         "differentiate")
    return total


def _dp_slice(inputs: Sequence, dp: int, index: int) -> tuple:
    """This rank's slice of the global batch (axis 0 of every input)."""
    if dp == 1:
        return tuple(inputs)
    sliced = []
    for value in inputs:
        if not isinstance(value, Tensor):
            sliced.append(value)
            continue
        if not value.shape or value.shape[0] % dp != 0:
            raise ValueError(
                f"dp={dp} verification needs every input's batch dimension "
                f"divisible by dp, got shape {tuple(value.shape)}"
            )
        size = value.shape[0] // dp
        sliced.append(value[index * size:(index + 1) * size])
    return tuple(sliced)


def _shard_slice(array: np.ndarray, spec, perm=None) -> np.ndarray:
    """The slice of a full array this rank's shard corresponds to.

    ``perm`` is an optional row permutation applied *before* sharding
    (fused-QKV interleaving reorders rows so contiguous shards keep
    [q; k; v] grouped); the reference array is reordered the same way
    before slicing.
    """
    if perm is not None:
        array = array[np.asarray(perm)]
    if spec is None or spec.num_shards == 1:
        return array
    axis, num, index = spec.axis, spec.num_shards, spec.shard_index
    size = spec.full_shape[axis] // num
    slicer = tuple(
        slice(index * size, (index + 1) * size) if d == axis else slice(None)
        for d in range(array.ndim)
    )
    return array[slicer]


def _resolve_origin(param) -> int:
    """``id()`` of the pre-schedule parameter a (possibly sharded)
    parameter came from, following its provenance records."""
    origin = getattr(param, "_slapo_origin", None)
    if origin is None:
        return id(param)
    while origin.parent is not None:
        origin = origin.parent
    return origin.key


def _row_perm(param) -> tuple | None:
    """Row permutation applied before sharding, if any (fused-QKV
    interleaving records one so shard rows can be mapped back to the
    vanilla row order)."""
    perm = getattr(param, "_slapo_row_perm", None)
    origin = getattr(param, "_slapo_origin", None)
    while perm is None and origin is not None:
        perm, origin = origin.row_perm, origin.parent
    return None if perm is None else tuple(int(i) for i in perm)


def _build_param_map(pre_names: dict, run_model: Module
                     ) -> tuple[list, list]:
    """Map scheduled parameters back to vanilla parameter names.

    Returns ``(mapped, unmatched)`` where ``mapped`` holds
    ``(ref_name, parameter, shard_spec_or_None, row_perm_or_None)``
    tuples (deduplicated — tied or multiply-mounted parameters are
    checked once).
    """
    mapped, unmatched, seen = [], [], set()
    for name, param in run_model.named_parameters():
        if id(param) in seen:
            continue
        seen.add(id(param))
        ref_name = pre_names.get(_resolve_origin(param))
        if ref_name is None:
            unmatched.append(name)
            continue
        spec = getattr(param, "shard_spec", None)
        mapped.append((ref_name, param, spec, _row_perm(param)))
    return mapped, unmatched


def _zero_step_cross_check(run_model: Module, mesh: DeviceMesh,
                           zero_stage: int) -> tuple[float, str | None]:
    """ZeRO partitioned step vs plain AdamW on identical gradients.

    Both optimizers see the same (already dp-averaged) gradients, so their
    post-step parameters must agree to float round-off — this isolates the
    ZeRO partition/broadcast machinery from cross-model numerics.
    Restores the model to its pre-step state; returns the max abs error
    and a failure description (``None`` when the check passed — raising
    happens on the caller so the error keeps its type across the cluster).
    """
    from repro.baselines.zero import ZeroOptimizer

    params, names = [], []
    seen: set[int] = set()
    for name, param in run_model.named_parameters():
        if id(param) not in seen:
            seen.add(id(param))
            params.append(param)
            names.append(name)
    snapshot = [(p, p.data.copy(),
                 None if p.grad is None else p.grad.data.copy())
                for p in params]

    plain = AdamW(params, lr=1e-3, weight_decay=0.01)
    plain.step()
    expected = [p.data.copy() for p in params]

    for param, data, grad in snapshot:
        param.data[...] = data
        if grad is not None:
            param.grad.data[...] = grad
    zero = ZeroOptimizer(run_model, mesh.dp_group, stage=zero_stage,
                         lr=1e-3, weight_decay=0.01)
    zero.step()

    worst = 0.0
    failure: str | None = None
    for name, param, want in zip(names, params, expected):
        got = param.data.astype(np.float64)
        err = float(np.max(np.abs(got - want.astype(np.float64)))) \
            if got.size else 0.0
        worst = max(worst, err)
        if failure is None and not np.allclose(
                got, want.astype(np.float64), rtol=1e-5, atol=1e-6):
            failure = (
                f"ZeRO stage-{zero_stage} step diverged from the plain "
                f"optimizer on identical gradients at {name!r} "
                f"(max abs err {err:.3e}) — partition ownership or the "
                f"post-step broadcast is wrong"
            )
    # Leave the model exactly as we found it so the caller's own step
    # check starts from the pre-step parameters.  ZeRO stage >= 2 *drops*
    # non-owned gradients during its step, so restoring may need to
    # re-attach a gradient tensor, not just refill it.
    for param, data, grad in snapshot:
        param.data[...] = data
        if grad is None:
            param.grad = None
        elif param.grad is None:
            param.grad = Tensor(grad.copy())
        else:
            param.grad.data[...] = grad
    return worst, failure


def _run_scheduled(model_factory, schedule_fn, inputs_factory, parallel,
                   seed: int, mesh: DeviceMesh, check_grads: bool,
                   check_step: bool, zero_stage: int,
                   train_mode: bool, functionalize: bool = False) -> dict:
    """One rank's work: build, schedule, forward, backward, step.

    Returns plain-numpy payloads; comparison happens on the caller so a
    :class:`VerificationError` keeps its type (cluster workers wrap
    exceptions in :class:`ClusterError`).
    """
    manual_seed(seed)
    model = model_factory()
    pre_names: dict[int, str] = {}
    keepalive = []  # pin pre-schedule objects so id() keys stay unique
    for name, param in model.named_parameters():
        pre_names.setdefault(id(param), name)
        keepalive.append(param)

    sch = create_schedule(model, mesh=mesh)
    schedule_fn(sch)
    built = build(sch)
    run_model = built.model
    if functionalize:
        # Differential coverage for the explicit-effect rewrite: every
        # traced submodule the schedule produced (including hook-carrying
        # ones from .sync()/.shard_experts()) is functionalized + CSE'd,
        # and must still match the vanilla model bit-for-tolerance.
        from repro.fx import functionalize_model

        run_model = functionalize_model(run_model, cse=True)

    inputs = tuple(inputs_factory())
    dp = mesh.config.dp
    dp_index = mesh.dp_group.ranks.index(mesh.dp_group.rank) \
        if mesh.dp_group.size > 1 else 0
    local_inputs = _dp_slice(inputs, dp, dp_index)

    run_model.eval()
    eval_out = [(t.numpy(), t.dtype.name)
                for t in _to_output_list(run_model(*inputs))]

    payload = {"eval_out": eval_out, "grads": None, "post_step": None,
               "unmatched": [], "tied_refs": [], "zero_err": None,
               "zero_fail": None, "train_mode": False}
    if not check_grads:
        return payload

    mapped, unmatched = _build_param_map(pre_names, run_model)
    payload["unmatched"] = unmatched

    payload["train_mode"] = train_mode
    run_model.train(train_mode)
    run_model.zero_grad()
    loss = _loss(_to_output_list(run_model(*local_inputs)))
    loss.backward()

    # ``.overlap_grad_sync()`` schedules sync their own dp gradients
    # (bucketed, during backward); flush the tail bucket and whatever the
    # hooks missed, exactly as a real training loop would.
    overlap_state = built.metadata.get("overlap_grad_sync")
    if overlap_state is not None:
        overlap_state.flush()

    if dp > 1:
        group = mesh.dp_group
        for _, param, _, _ in mapped:
            # Hook-synced parameters are deliberately NOT re-averaged:
            # averaging an already-averaged gradient is idempotent and
            # would mask a broken overlap hook.
            if param.grad is not None and \
                    not getattr(param, "_slapo_dp_synced", False):
                reduced = group.all_reduce(param.grad.data) / float(dp)
                param.grad.data[...] = reduced.astype(param.grad.data.dtype)

    # A vanilla parameter can back several scheduled parameters (a tied
    # embedding/LM-head pair the schedule untied into two shards): their
    # gradients *sum* to the vanilla gradient, so accumulate per ref name.
    grads: dict[str, tuple] = {}
    tied_refs: set[str] = set()
    for ref_name, param, spec, perm in mapped:
        packed = None if spec is None else (
            spec.axis, spec.num_shards, spec.shard_index,
            tuple(spec.full_shape))
        grad = None if param.grad is None else param.grad.data.copy()
        if ref_name not in grads:
            grads[ref_name] = (grad, packed, perm, param.dtype.name)
            continue
        tied_refs.add(ref_name)
        prev_grad, prev_packed, prev_perm, dtype_name = grads[ref_name]
        if prev_packed != packed or prev_perm != perm or (
                grad is not None and prev_grad is not None
                and grad.shape != prev_grad.shape):
            # Differently-sharded copies of one tied weight cannot be
            # summed shard-wise; drop the pair from the gradient check.
            grads[ref_name] = (None, None, None, dtype_name)
            continue
        if grad is None:
            continue
        merged = grad if prev_grad is None else prev_grad + grad
        grads[ref_name] = (merged, packed, perm, dtype_name)
    for ref_name in tied_refs:
        if grads[ref_name][1] is None and grads[ref_name][0] is None:
            grads.pop(ref_name)
    payload["grads"] = grads
    payload["tied_refs"] = sorted(tied_refs)

    if not check_step:
        return payload

    if zero_stage and mesh.dp_group.size > 1:
        payload["zero_err"], payload["zero_fail"] = \
            _zero_step_cross_check(run_model, mesh, zero_stage)

    stepper = SGD([p for _, p, _, _ in mapped], lr=_STEP_LR)
    stepper.step()
    # Tied weights the schedule untied see only their own path's partial
    # gradient at step time (a genuine semantic difference the gradient
    # stage already covered via summation), so skip them here.
    payload["post_step"] = {
        ref_name: (param.data.copy(),
                   None if spec is None else
                   (spec.axis, spec.num_shards, spec.shard_index,
                    tuple(spec.full_shape)),
                   perm, param.dtype.name)
        for ref_name, param, spec, perm in mapped
        if ref_name not in tied_refs
    }
    return payload


@dataclass
class _SpecView:
    axis: int
    num_shards: int
    shard_index: int
    full_shape: tuple


def _spec_view(packed) -> _SpecView | None:
    if packed is None:
        return None
    return _SpecView(*packed)


def _reference_run(model_factory, inputs_factory, seed: int,
                   check_grads: bool, check_step: bool, train_mode: bool
                   ) -> tuple:
    manual_seed(seed)
    reference = model_factory()
    reference.eval()
    inputs = tuple(inputs_factory())
    ref_out = [(t.numpy(), t.dtype.name)
               for t in _to_output_list(reference(*inputs))]
    ref_grads: dict[str, np.ndarray | None] = {}
    ref_post: dict[str, np.ndarray] = {}
    if check_grads:
        reference.train(train_mode)
        reference.zero_grad()
        _loss(_to_output_list(reference(*inputs))).backward()
        seen: set[int] = set()
        named = []
        for name, param in reference.named_parameters():
            if id(param) in seen:
                continue
            seen.add(id(param))
            named.append((name, param))
        ref_grads = {name: (None if p.grad is None else p.grad.data.copy())
                     for name, p in named}
        if check_step:
            SGD([p for _, p in named], lr=_STEP_LR).step()
            ref_post = {name: p.data.copy() for name, p in named}
    return ref_out, ref_grads, ref_post


def verify(model_factory: Callable[[], Module],
           schedule_fn: Callable[[Schedule], None],
           inputs_factory: Callable[[], Sequence],
           world_size: int = 1,
           parallel: ParallelConfig | None = None,
           seed: int = 0,
           rtol: float | None = None,
           atol: float | None = None,
           tolerance: TolerancePolicy | None = None,
           check_grads: bool = True,
           check_step: bool = True,
           zero_stage: int = 0,
           functionalize: bool = False) -> VerifyReport:
    """Differential-test a schedule against the unscheduled model.

    ``model_factory`` must build identical models when the global seed is
    fixed; ``schedule_fn(sch)`` applies the schedule under test;
    ``inputs_factory`` produces the (deterministic) test inputs.

    Three stages, each raising :class:`VerificationError` on divergence:

    1. **Eval outputs** — forward the scheduled model on the full batch and
       compare every output tensor (shape and values) on every rank.
    2. **Training gradients** (``check_grads``) — forward+backward in train
       mode (falling back to eval when the model has active dropout, whose
       masks cannot agree between a sharded and an unsharded model); each
       rank's parameter gradients — including tensor-parallel *shards*,
       matched to the vanilla parameter through their sharding provenance
       and compared slice-against-slice, after averaging across the
       data-parallel group — must match the vanilla model's gradients.
       The error names the worst-diverging parameter.
    3. **Optimizer step** (``check_step``) — one SGD step on both sides;
       post-step parameters must still agree (with ``zero_stage`` ≥ 1 and
       ``dp`` > 1 the ZeRO-partitioned step is additionally cross-checked
       exactly against the unpartitioned optimizer on identical gradients).

    Tolerances come from ``tolerance`` (default
    :meth:`TolerancePolicy.default`), resolved per tensor dtype; explicit
    ``rtol``/``atol`` override every stage uniformly (the legacy knobs).
    Returns a :class:`VerifyReport` describing what was checked.

    With ``functionalize=True`` every GraphModule the built model contains
    is additionally rewritten by :func:`repro.fx.functionalize` (hooks
    lifted into explicit ``sync_*`` nodes, mutation wrapped in ``mutate``
    markers) and CSE'd before any of the three stages run — differential
    coverage for the explicit-effect IR itself.
    """
    policy = (tolerance or TolerancePolicy.default()).override(rtol, atol)
    parallel = parallel or ParallelConfig(tp=world_size)
    if parallel.world_size != world_size:
        raise ValueError(
            f"parallel config {parallel} needs world size "
            f"{parallel.world_size}, got world_size={world_size}"
        )

    # Probe once, on the vanilla model, so reference and ranks agree on
    # the backward mode regardless of what the schedule replaces.
    manual_seed(seed)
    train_mode = _grad_check_train_mode(model_factory(), parallel.dp)
    ref_out, ref_grads, ref_post = _reference_run(
        model_factory, inputs_factory, seed, check_grads, check_step,
        train_mode)

    report = VerifyReport(world_size=world_size, parallel=parallel,
                          train_mode=train_mode and check_grads)

    if world_size == 1:
        mesh = DeviceMesh(ParallelConfig(1, 1, 1))
        payloads = [_run_scheduled(model_factory, schedule_fn,
                                   inputs_factory, parallel, seed, mesh,
                                   check_grads, check_step, zero_stage,
                                   train_mode, functionalize)]
    else:
        cluster = LocalCluster(world_size)

        def run_rank(ctx):
            mesh = DeviceMesh(parallel, ctx=ctx)
            return _run_scheduled(model_factory, schedule_fn,
                                  inputs_factory, parallel, seed, mesh,
                                  check_grads, check_step, zero_stage,
                                  train_mode, functionalize)

        payloads = cluster.run(run_rank)

    for rank, payload in enumerate(payloads):
        rank_report = _compare_payload(payload, ref_out, ref_grads,
                                       ref_post, rank, policy)
        report.merge(rank_report)
    return report


def _allclose(ref: np.ndarray, got: np.ndarray, tol: Tolerance
              ) -> tuple[bool, float]:
    ref64 = ref.astype(np.float64)
    got64 = got.astype(np.float64)
    err = float(np.max(np.abs(ref64 - got64))) if ref64.size else 0.0
    return np.allclose(ref64, got64, rtol=tol.rtol, atol=tol.atol), err


def _compare_payload(payload: dict, ref_out, ref_grads, ref_post,
                     rank: int, policy: TolerancePolicy) -> VerifyReport:
    report = VerifyReport()
    report.params_unmatched = len(payload["unmatched"])

    # -- stage 1: eval outputs ------------------------------------------ #
    got_out = payload["eval_out"]
    if len(ref_out) != len(got_out):
        raise VerificationError(
            f"rank {rank}: scheduled model returned {len(got_out)} "
            f"outputs, vanilla returned {len(ref_out)}"
        )
    for index, ((ref, dtype_name), (got, _)) in enumerate(
            zip(ref_out, got_out)):
        if ref.shape != got.shape:
            raise VerificationError(
                f"rank {rank}, output {index}: shape {got.shape} != "
                f"vanilla {ref.shape} (check your .shard axes/.sync "
                f"placement)"
            )
        if not np.issubdtype(ref.dtype, np.floating):
            if not np.array_equal(ref, got):
                raise VerificationError(
                    f"rank {rank}, output {index}: integer outputs differ"
                )
            report.outputs_checked += 1
            continue
        ok, err = _allclose(ref, got, policy.for_("output", dtype_name))
        report.outputs_checked += 1
        report.max_output_err = max(report.max_output_err, err)
        if not ok:
            raise VerificationError(
                f"rank {rank}, output {index}: values diverge "
                f"(max abs err {err:.3e}); the offending primitive is "
                f"likely a mis-placed .sync() or wrong .shard axis"
            )

    # -- stage 2: gradients --------------------------------------------- #
    if payload["grads"] is not None:
        diverged: list[tuple[str, float]] = []
        for ref_name, (grad, packed_spec, perm, dtype_name) in \
                payload["grads"].items():
            if ref_name not in ref_grads:
                report.params_unmatched += 1
                continue
            ref_grad = ref_grads[ref_name]
            if grad is None and ref_grad is None:
                report.grads_without_flow += 1
                continue
            if (grad is None) != (ref_grad is None):
                side = "scheduled" if grad is None else "vanilla"
                raise VerificationError(
                    f"rank {rank}: gradient flow mismatch on {ref_name!r} "
                    f"(no gradient reached the {side} copy)"
                )
            expected = _shard_slice(ref_grad, _spec_view(packed_spec), perm)
            if expected.shape != grad.shape:
                raise VerificationError(
                    f"rank {rank}: gradient shape {grad.shape} != expected "
                    f"shard {expected.shape} for {ref_name!r}"
                )
            ok, err = _allclose(expected, grad,
                                policy.for_("grad", dtype_name))
            report.grads_checked += 1
            if err > report.max_grad_err:
                report.max_grad_err = err
                report.worst_grad_param = ref_name
            if not ok:
                diverged.append((ref_name, err))
        if diverged:
            diverged.sort(key=lambda item: -item[1])
            worst_name, worst_err = diverged[0]
            raise VerificationError(
                f"rank {rank}: gradients diverge on {len(diverged)} "
                f"parameter(s); worst is {worst_name!r} "
                f"(max abs err {worst_err:.3e}) — check the backward "
                f".sync() placement for its layer"
            )

    # -- stage 3: post-step parameters ---------------------------------- #
    if payload["post_step"] is not None:
        if payload["zero_fail"] is not None:
            raise VerificationError(f"rank {rank}: {payload['zero_fail']}")
        if payload["zero_err"] is not None:
            report.zero_step_checked = True
        diverged = []
        for ref_name, (data, packed_spec, perm, dtype_name) in \
                payload["post_step"].items():
            if ref_name not in ref_post:
                continue
            expected = _shard_slice(ref_post[ref_name],
                                    _spec_view(packed_spec), perm)
            if expected.shape != data.shape:
                raise VerificationError(
                    f"rank {rank}: post-step parameter shape {data.shape} "
                    f"!= expected shard {expected.shape} for {ref_name!r}"
                )
            ok, err = _allclose(expected, data,
                                policy.for_("param", dtype_name))
            report.params_checked += 1
            report.max_param_err = max(report.max_param_err, err)
            if not ok:
                diverged.append((ref_name, err))
        if diverged:
            diverged.sort(key=lambda item: -item[1])
            worst_name, worst_err = diverged[0]
            raise VerificationError(
                f"rank {rank}: post-step parameters diverge on "
                f"{len(diverged)} parameter(s); worst is {worst_name!r} "
                f"(max abs err {worst_err:.3e})"
            )
    return report
