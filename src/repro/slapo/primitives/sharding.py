"""Parameter sharding and synchronisation (paper §3.2.2).

``.shard(param_name, axis)`` partitions a parameter across the mesh's
tensor-parallel group; ``.sync(mode, sync_op_or_fn)`` inserts the matching
collective as a forward/backward hook.  Neither touches the computation
graph, so untraceable models can still be tensor-parallelised — one of the
paper's central claims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.framework.layers import Embedding, Linear, MoEFeedForward, ModuleList
from repro.framework.parameter import Parameter

from ..registry import Primitive, SchedulingError, register_primitive


@dataclass(frozen=True)
class ShardSpec:
    """How a parameter was partitioned (kept on the Parameter object)."""

    axis: int
    num_shards: int
    shard_index: int
    full_shape: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Origin:
    """Where a shard came from, without keeping the source alive.

    ``key`` is the source parameter's ``id()``, ``parent`` the source's
    own record (``None`` unless it was a shard too) and ``row_perm`` the
    row permutation it carried (``_slapo_row_perm``) when it was sliced.
    """

    key: int
    parent: "Origin | None"
    row_perm: np.ndarray | None


def _shard_parameter(param: Parameter, axis: int, num: int, index: int
                     ) -> Parameter:
    full_shape = tuple(param.shape)
    if axis >= len(full_shape):
        raise SchedulingError(
            f"shard axis {axis} out of range for shape {full_shape}"
        )
    if full_shape[axis] % num != 0:
        raise SchedulingError(
            f"dimension {full_shape[axis]} (axis {axis}) is not divisible "
            f"by the tensor-parallel size {num}"
        )
    shard_size = full_shape[axis] // num
    new_shape = tuple(shard_size if d == axis else s
                      for d, s in enumerate(full_shape))
    if param.is_meta:
        sharded = Parameter.meta(new_shape, param.dtype,
                                 requires_grad=param.requires_grad)
    else:
        slicer = tuple(
            slice(index * shard_size, (index + 1) * shard_size)
            if d == axis else slice(None)
            for d in range(len(full_shape))
        )
        sharded = Parameter(param.data[slicer].copy(), dtype=param.dtype,
                            requires_grad=param.requires_grad)
    sharded.shard_spec = ShardSpec(axis, num, index, full_shape)
    # Provenance for the verifier, which checks a shard's gradient against
    # the matching slice of the original's.  A record, not the parameter:
    # holding the full-size original would pin it (and its data) for the
    # model's lifetime; ``verify()`` pins the originals itself.
    sharded._slapo_origin = Origin(
        id(param), getattr(param, "_slapo_origin", None),
        getattr(param, "_slapo_row_perm", None))
    return sharded


def _shard_buffer(buffer, axis: int, num: int, index: int):
    """Slice a non-learnable buffer (e.g. BatchNorm running statistics)."""
    from repro.framework.tensor import Tensor

    shape = tuple(buffer.shape)
    if shape[axis] % num:
        raise SchedulingError(
            f"buffer dimension {shape[axis]} not divisible by {num}"
        )
    size = shape[axis] // num
    if buffer.is_meta:
        new_shape = tuple(size if d == axis else s
                          for d, s in enumerate(shape))
        return Tensor.meta(new_shape, buffer.dtype)
    slicer = tuple(slice(index * size, (index + 1) * size) if d == axis
                   else slice(None) for d in range(len(shape)))
    return Tensor(buffer.data[slicer].copy(), dtype=buffer.dtype)


@register_primitive()
class ShardPrimitive(Primitive):
    """``.shard(param_name_or_list, axis)``."""

    name = "shard"

    @staticmethod
    def check(sch, param_names, axis: int = 0) -> None:
        names = [param_names] if isinstance(param_names, str) else param_names
        for name in names:
            if sch.mod._parameters.get(name) is None and \
                    sch.mod._buffers.get(name) is None:
                raise SchedulingError(
                    f"{sch.path or '<root>'} has no parameter or buffer "
                    f"{name!r} to shard"
                )

    @staticmethod
    def apply(sch, param_names, axis: int = 0):
        group = sch.mesh.tp_group
        names = [param_names] if isinstance(param_names, str) else \
            list(param_names)
        mod = sch.mod
        index = group.ranks.index(group.rank) if group.size > 1 else 0
        for name in names:
            if name in mod._buffers:
                if group.size > 1:
                    mod._buffers[name] = _shard_buffer(
                        mod._buffers[name], axis, group.size, index)
                continue
            param = mod._parameters[name]
            if group.size == 1:
                param.shard_spec = ShardSpec(axis, 1, 0, tuple(param.shape))
                continue
            mod._parameters[name] = _shard_parameter(
                param, axis, group.size, index)
        _refresh_module_dims(mod, sch, names, axis, group.size, index)
        _defer_row_parallel_bias(mod, names, axis, group.size)
        return sch


def _defer_row_parallel_bias(mod, names, axis, num) -> None:
    """Row-parallel weight shard: the bias must be added *after* the output
    all-reduce, or every rank's copy gets summed ``num`` times (Megatron's
    RowParallelLinear semantics).  Move it aside; ``.sync(fwd_post)`` adds
    it back on the reduced output.
    """
    if num == 1 or axis != 1 or "weight" not in names or "bias" in names:
        return
    bias = mod._parameters.get("bias")
    if bias is None:
        return
    mod._slapo_meta["deferred_bias"] = bias
    mod.register_parameter("bias", None)
    # Keep the parameter reachable for optimizers / state_dict.
    mod.register_parameter("deferred_bias", bias)


def _refresh_module_dims(mod, sch, names, axis, num, index) -> None:
    """Keep layer bookkeeping attributes consistent after sharding."""
    if num == 1:
        return
    if isinstance(mod, Linear) or hasattr(mod, "in_features"):
        if "weight" in names:
            if axis == 0:
                mod.out_features //= num
            else:
                mod.in_features //= num
    if isinstance(mod, Embedding) and "weight" in names and axis == 0:
        shard = mod.num_embeddings // num
        mod.num_embeddings = shard
        mod._slapo_meta["vocab_range"] = (index * shard, (index + 1) * shard)


@register_primitive()
class ShardExpertsPrimitive(Primitive):
    """``.shard_experts(ep)``: partition MoE experts over the mesh's ep axis.

    Each rank of the ``ep`` group keeps ``num_experts / ep`` consecutive
    experts (parameter objects are kept, not copied, so the verifier's
    provenance mapping is the identity); the layer's forward then
    exchanges capacity-shaped dispatch/combine buffers with its peers via
    ``all_to_all``.  Two ``.sync()``-style hooks complete the contract —
    and, because they are ordinary module hooks, traced ``GraphModule``
    wrappers and pipeline stages carry them exactly like ``.sync()``
    collectives:

    * a forward hook all-reduces the stripe-partial outputs back into the
      replicated full output;
    * a backward hook all-reduces the stripe-partial input gradient and
      the replicated router (gate) parameter gradients — the expert-
      parallel analogue of the data-parallel gradient all-reduce.

    ``ep`` is optional and, when given, must match the mesh's ``ep`` axis
    (the mesh is the single source of the group layout); with ``ep = 1``
    the primitive is a no-op.
    """

    name = "shard_experts"
    fuzzable = True

    @staticmethod
    def _moe_module(sch):
        mod = sch.mod
        if isinstance(mod, MoEFeedForward):
            return mod
        # Duck-typed so user-defined MoE layers can opt in.
        if hasattr(mod, "experts") and hasattr(mod, "gate") \
                and hasattr(mod, "num_experts"):
            return mod
        return None

    @staticmethod
    def check(sch, ep: int | None = None) -> None:
        mod = ShardExpertsPrimitive._moe_module(sch)
        if mod is None:
            raise SchedulingError(
                f"{sch.path or '<root>'} is not a mixture-of-experts "
                f"layer (needs .experts / .gate / .num_experts)"
            )
        group = sch.mesh.group("ep")
        if ep is not None and int(ep) != group.size:
            raise SchedulingError(
                f"shard_experts(ep={ep}) disagrees with the mesh's "
                f"expert-parallel axis of size {group.size}"
            )
        if mod._slapo_meta.get("moe_ep") is not None:
            raise SchedulingError(
                f"{sch.path or '<root>'} is already expert-sharded"
            )
        if mod.num_experts % group.size:
            raise SchedulingError(
                f"{mod.num_experts} experts are not divisible by the "
                f"expert-parallel size {group.size}"
            )

    @staticmethod
    def apply(sch, ep: int | None = None):
        group = sch.mesh.group("ep")
        if group.size == 1:
            return sch  # world of one along ep: nothing to partition
        mod = ShardExpertsPrimitive._moe_module(sch)
        num_local = mod.num_experts // group.size
        index = group.ranks.index(group.rank)
        offset = index * num_local
        mod.experts = ModuleList(
            list(mod.experts)[offset:offset + num_local])
        mod._slapo_meta["moe_ep"] = {
            "group": group, "offset": offset, "num_local": num_local,
        }

        def combine(m, args, out):
            # Token stripes are disjoint: the sum is the full output.
            return group.all_reduce(out)

        def grad_sync(m, grad):
            # The router is replicated but its gradient contributions are
            # expert-partitioned — sum them like dp sums batch slices.
            for param in m.gate.parameters():
                if param.grad is not None:
                    reduced = group.all_reduce(param.grad.data)
                    param.grad.data[...] = reduced.astype(
                        param.grad.data.dtype)
            return group.all_reduce(grad)

        combine._slapo_effect = {"kind": "sync", "op": "all_reduce"}
        grad_sync._slapo_effect = {"kind": "sync_bwd", "op": "all_reduce"}
        mod.register_forward_hook(combine)
        mod.register_backward_hook(grad_sync)
        return sch

    @staticmethod
    def fuzz_candidates(sch) -> list[tuple[tuple, dict]]:
        mod = ShardExpertsPrimitive._moe_module(sch)
        if mod is None or mod._slapo_meta.get("moe_ep") is not None:
            return []
        if mod.num_experts % sch.mesh.group("ep").size:
            return []
        return [((), {})]


@register_primitive()
class SyncPrimitive(Primitive):
    """``.sync(mode, sync_op_or_fn)``.

    Modes (paper appendix A): ``"fwd_pre"``, ``"fwd_post"`` (alias
    ``"forward"``), ``"bwd_post"`` (alias ``"backward"``).  The sync op is
    ``"all_reduce"`` / ``"reduce_scatter"`` or a callable
    ``fn(module, value, group) -> value`` from :mod:`repro.slapo.op`.
    """

    name = "sync"

    _MODES = {"fwd_pre", "fwd_post", "forward", "bwd_post", "backward"}

    @staticmethod
    def check(sch, mode: str, sync_op_or_fn="all_reduce") -> None:
        if mode not in SyncPrimitive._MODES:
            raise SchedulingError(
                f"unknown sync mode {mode!r}; expected one of "
                f"{sorted(SyncPrimitive._MODES)}"
            )
        if isinstance(sync_op_or_fn, str) and \
                sync_op_or_fn not in ("all_reduce", "reduce_scatter",
                                      "all_gather"):
            raise SchedulingError(
                f"unknown sync op {sync_op_or_fn!r}"
            )
        # Verifier rule (paper §3.5): a sync must follow a shard somewhere
        # at or beneath this module.
        prefix = sch.path
        sharded = any(
            record.name == "shard" and (
                record.path == prefix or record.path.startswith(
                    f"{prefix}." if prefix else ""))
            for record in sch.context.history
        )
        if not sharded:
            raise SchedulingError(
                f".sync() on {prefix or '<root>'} has no preceding .shard() "
                f"— the output aggregation would be a no-op (verifier rule)"
            )

    @staticmethod
    def apply(sch, mode: str, sync_op_or_fn="all_reduce"):
        group = sch.mesh.tp_group
        mod = sch.mod

        if callable(sync_op_or_fn):
            custom = sync_op_or_fn
            custom_op = getattr(custom, "__name__", "custom")
            if mode == "fwd_pre":
                def custom_pre(m, args):
                    return custom(m, args, group)

                custom_pre._slapo_effect = {"kind": "sync_pre",
                                            "op": custom_op}
                mod.register_forward_pre_hook(custom_pre)
            elif mode in ("fwd_post", "forward"):
                def custom_post(m, args, out):
                    return custom(m, out, group)

                custom_post._slapo_effect = {"kind": "sync", "op": custom_op}
                mod.register_forward_hook(custom_post)
            else:
                def custom_bwd(m, grad):
                    return custom(m, grad, group)

                custom_bwd._slapo_effect = {"kind": "sync_bwd",
                                            "op": custom_op}
                mod.register_backward_hook(custom_bwd)
            return sch

        if sync_op_or_fn == "all_gather":
            # Column-parallel output head: gather shards along the last dim.
            def op(value):
                return group.all_gather(value, axis=-1)
        elif sync_op_or_fn == "all_reduce":
            op = group.all_reduce
        else:
            op = group.reduce_scatter
        if mode == "fwd_pre":
            def scatter_inputs(m, args):
                return (group.copy_to_group(args[0]),) + args[1:]

            scatter_inputs._slapo_effect = {"kind": "sync_pre",
                                            "op": "copy_to_group"}
            mod.register_forward_pre_hook(scatter_inputs)
        elif mode in ("fwd_post", "forward"):
            def aggregate(m, args, out):
                reduced = op(out)
                deferred = m._slapo_meta.get("deferred_bias")
                return reduced if deferred is None else reduced + deferred

            aggregate._slapo_effect = {"kind": "sync", "op": sync_op_or_fn}
            mod.register_forward_hook(aggregate)
        else:  # bwd_post / backward: aggregate input gradients
            def grad_aggregate(m, grad):
                return op(grad)

            grad_aggregate._slapo_effect = {"kind": "sync_bwd",
                                            "op": sync_op_or_fn}
            mod.register_backward_hook(grad_aggregate)
        return sch
