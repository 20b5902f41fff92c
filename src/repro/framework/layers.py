"""Built-in layer modules (the framework's ``nn`` namespace).

All layers support construction on ``device="meta"``: parameters then carry
shapes only, which is how billion-parameter models are instantiated for the
performance simulator.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterable

import numpy as np

from . import dtype as dtypes, functional as F, init
from .dtype import DType
from .module import Module
from .parameter import Parameter
from .tensor import Tensor


def _param(tensor: Tensor) -> Parameter:
    return Parameter.from_tensor(tensor)


class Identity(Module):
    def forward(self, x):
        return x


class Linear(Module):
    """Affine layer with torch's (out_features, in_features) weight layout.

    The layout matters to Slapo schedules: ``.shard("weight", axis=0)``
    partitions the *output* dimension (column parallel in Megatron terms)
    and ``axis=1`` partitions the input dimension (row parallel).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 dtype: DType = dtypes.float32, device: str = "cpu"):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = _param(init.kaiming_uniform(
            (out_features, in_features), fan_in=in_features,
            dtype=dtype, device=device))
        if bias:
            self.bias = _param(init.kaiming_uniform(
                (out_features,), fan_in=in_features, dtype=dtype,
                device=device))
        else:
            self.register_parameter("bias", None)

    def forward(self, x):
        return F.linear(x, self.weight, self._parameters.get("bias"))

    def extra_repr(self) -> str:
        return (f"in_features={self.in_features}, "
                f"out_features={self.out_features}, "
                f"bias={self._parameters.get('bias') is not None}")


class LayerNorm(Module):
    def __init__(self, normalized_shape, eps: float = 1e-5,
                 dtype: DType = dtypes.float32, device: str = "cpu"):
        super().__init__()
        if isinstance(normalized_shape, int):
            normalized_shape = (normalized_shape,)
        self.normalized_shape = tuple(normalized_shape)
        self.eps = eps
        self.weight = _param(init.ones(self.normalized_shape, dtype, device))
        self.bias = _param(init.zeros(self.normalized_shape, dtype, device))

    def forward(self, x):
        return F.layer_norm(x, self.normalized_shape, self.weight, self.bias,
                            self.eps)

    def extra_repr(self) -> str:
        return f"{self.normalized_shape}, eps={self.eps}"


class RMSNorm(Module):
    """LLaMA-style RMS normalisation."""

    def __init__(self, hidden_size: int, eps: float = 1e-6,
                 dtype: DType = dtypes.float32, device: str = "cpu"):
        super().__init__()
        self.eps = eps
        self.weight = _param(init.ones((hidden_size,), dtype, device))

    def forward(self, x):
        return F.rms_norm(x, self.weight, self.eps)


class Embedding(Module):
    def __init__(self, num_embeddings: int, embedding_dim: int,
                 padding_idx: int | None = None,
                 dtype: DType = dtypes.float32, device: str = "cpu"):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        self.weight = _param(init.normal(
            (num_embeddings, embedding_dim), std=0.02, dtype=dtype,
            device=device))

    def forward(self, indices):
        return F.embedding(indices, self.weight, self.padding_idx)

    def extra_repr(self) -> str:
        return f"{self.num_embeddings}, {self.embedding_dim}"


class Dropout(Module):
    def __init__(self, p: float = 0.5):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1): {p}")
        self.p = p

    def forward(self, x):
        return F.dropout(x, self.p, self.training)

    def extra_repr(self) -> str:
        return f"p={self.p}"


class GELU(Module):
    def forward(self, x):
        return F.gelu(x)


class ReLU(Module):
    def forward(self, x):
        return F.relu(x)


class SiLU(Module):
    def forward(self, x):
        return F.silu(x)


class Tanh(Module):
    def forward(self, x):
        return F.tanh(x)


class Softmax(Module):
    def __init__(self, dim: int = -1):
        super().__init__()
        self.dim = dim

    def forward(self, x):
        return F.softmax(x, self.dim)


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 dtype: DType = dtypes.float32, device: str = "cpu"):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = _param(init.kaiming_uniform(
            (out_channels, in_channels, kernel_size, kernel_size),
            fan_in=fan_in, dtype=dtype, device=device))
        if bias:
            self.bias = _param(init.kaiming_uniform(
                (out_channels,), fan_in=fan_in, dtype=dtype, device=device))
        else:
            self.register_parameter("bias", None)

    def forward(self, x):
        return F.conv2d(x, self.weight, self._parameters.get("bias"),
                        self.stride, self.padding)

    def extra_repr(self) -> str:
        return (f"{self.in_channels}, {self.out_channels}, "
                f"kernel_size={self.kernel_size}, stride={self.stride}, "
                f"padding={self.padding}")


class BatchNorm2d(Module):
    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1, dtype: DType = dtypes.float32,
                 device: str = "cpu"):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = _param(init.ones((num_features,), dtype, device))
        self.bias = _param(init.zeros((num_features,), dtype, device))
        self.register_buffer("running_mean",
                             init.zeros((num_features,), dtypes.float32, device))
        self.register_buffer("running_var",
                             init.ones((num_features,), dtypes.float32, device))

    def forward(self, x):
        # Attribute access (not ``self._buffers[...]``) so an inlined trace
        # records get_attr nodes and resolves the running stats *live* at
        # run time — a traced graph must never bake the buffer tensors.
        return F.batch_norm(x, self.running_mean, self.running_var,
                            self.weight, self.bias, self.training,
                            self.momentum, self.eps)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None,
                 padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x):
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)


class AdaptiveAvgPool2d(Module):
    def __init__(self, output_size: int = 1):
        super().__init__()
        self.output_size = output_size

    def forward(self, x):
        return F.adaptive_avg_pool2d(x, self.output_size)


class MoEExpert(Module):
    """One feed-forward expert of a mixture-of-experts layer."""

    def __init__(self, hidden_size: int, intermediate_size: int,
                 dtype: DType = dtypes.float32, device: str = "cpu"):
        super().__init__()
        self.fc1 = Linear(hidden_size, intermediate_size, dtype=dtype,
                          device=device)
        self.fc2 = Linear(intermediate_size, hidden_size, dtype=dtype,
                          device=device)

    def forward(self, x):
        return self.fc2(F.gelu(self.fc1(x)))


def fill_capacity(choices: np.ndarray, num_experts: int, capacity: int
                  ) -> tuple[np.ndarray, np.ndarray, int]:
    """Assign top-k expert choices to capacity slots, first come first served.

    ``choices`` is ``(seq, k)`` expert ids in per-token priority order.
    Tokens are processed in sequence order and their choices in priority
    order; an expert that is already at ``capacity`` drops the assignment.
    Returns ``(slot_pos, valid, dropped)`` where ``slot_pos[t, j]`` is the
    capacity slot the assignment landed in and ``dropped`` counts the
    assignments that found their expert full — deterministic by
    construction, which the differential verifier relies on.
    """
    seq, top_k = choices.shape
    slot_pos = np.zeros((seq, top_k), dtype=np.int64)
    valid = np.zeros((seq, top_k), dtype=bool)
    fill = np.zeros(num_experts, dtype=np.int64)
    for t in range(seq):
        for j in range(top_k):
            expert = choices[t, j]
            if fill[expert] < capacity:
                slot_pos[t, j] = fill[expert]
                valid[t, j] = True
                fill[expert] += 1
    return slot_pos, valid, int(seq * top_k - valid.sum())


def top_k_choices(probs: np.ndarray, top_k: int) -> np.ndarray:
    """Per-token expert ids in descending-probability order, ``(seq, k)``.

    Ties break toward the lower expert index (stable sort), so the
    routing is a pure deterministic function of the probabilities.
    """
    return np.argsort(-probs, axis=-1, kind="stable")[:, :top_k]


class MoEFeedForward(Module):
    """Top-k gated mixture-of-experts feed-forward (Switch/GShard style).

    Routing is computed per sample: every token picks its ``top_k``
    experts by gate probability, and each expert accepts at most
    ``capacity = ceil(capacity_factor · seq · top_k / num_experts)``
    assignments per sample (first come, first served; the overflow is
    *dropped* — the token's output contribution for that slot is zero and
    the surrounding residual connection carries it through).  The number
    of dropped assignments of the latest forward is kept in
    ``last_dropped``.

    Expert parallelism: ``sch.shard_experts(ep)`` keeps ``num_experts/ep``
    experts per rank and records an ``moe_ep`` annotation; the forward
    then exchanges capacity-shaped dispatch/combine buffers with the other
    expert-parallel ranks via two ``all_to_all`` collectives, and the
    primitive's sync hooks restore the replicated output (forward
    all-reduce) and gradients (backward all-reduce) — see
    :class:`repro.slapo.primitives.sharding.ShardExpertsPrimitive`.
    """

    def __init__(self, hidden_size: int, intermediate_size: int,
                 num_experts: int, top_k: int = 2,
                 capacity_factor: float = 1.25,
                 dtype: DType = dtypes.float32, device: str = "cpu"):
        super().__init__()
        if not 1 <= top_k <= num_experts:
            raise ValueError(
                f"top_k must be in [1, num_experts]: {top_k} vs "
                f"{num_experts}"
            )
        if capacity_factor <= 0:
            raise ValueError(f"capacity_factor must be > 0: {capacity_factor}")
        self.hidden_size = hidden_size
        self.intermediate_size = intermediate_size
        self.num_experts = num_experts
        self.top_k = top_k
        self.capacity_factor = capacity_factor
        self.gate = Linear(hidden_size, num_experts, bias=False, dtype=dtype,
                           device=device)
        self.experts = ModuleList([
            MoEExpert(hidden_size, intermediate_size, dtype=dtype,
                      device=device)
            for _ in range(num_experts)
        ])
        #: dropped (token, expert) assignments of the latest real forward
        self.last_dropped = 0
        #: when True, forward returns ``{"output": y, "dropped": n}`` so a
        #: traced graph carries routing stats through the dataflow instead
        #: of callers scraping ``last_dropped`` off the module afterwards
        self.emit_stats = False

    def extra_repr(self) -> str:
        return (f"num_experts={self.num_experts}, top_k={self.top_k}, "
                f"capacity_factor={self.capacity_factor}")

    def capacity(self, seq_len: int) -> int:
        return max(1, math.ceil(
            self.capacity_factor * seq_len * self.top_k / self.num_experts))

    # -- routing -------------------------------------------------------- #
    def _route(self, probs_np, batch: int, seq: int):
        """(slot_expert, slot_pos, valid, capacity, dropped) per sample.

        ``probs_np is None`` (meta probabilities have no data to route on)
        synthesizes a deterministic round-robin assignment with the same
        shapes, so the simulator traces the exact capacity-shaped buffers a
        real forward produces.  This is the MoE layer's one branch on the
        device: everything after routing runs the same ops on both.
        """
        cap = self.capacity(seq)
        k, num = self.top_k, self.num_experts
        slot_expert = np.empty((batch, seq, k), dtype=np.int64)
        slot_pos = np.empty((batch, seq, k), dtype=np.int64)
        valid = np.empty((batch, seq, k), dtype=bool)
        dropped = 0
        for b in range(batch):
            if probs_np is None:
                choices = (np.arange(seq)[:, None] * k
                           + np.arange(k)[None, :]) % num
            else:
                choices = top_k_choices(probs_np[b], k)
            slot_expert[b] = choices
            slot_pos[b], valid[b], sample_dropped = \
                fill_capacity(choices, num, cap)
            dropped += sample_dropped
        return slot_expert, slot_pos, valid, cap, dropped

    # -- forward -------------------------------------------------------- #
    def _pad_row(self, x, batch: int, width: int):
        return init.zeros((batch, 1, width), x.dtype, x.device)

    def _combine(self, slots, probs, slot_expert, slot_pos, valid,
                 cap: int, batch: int, seq: int, hidden: int):
        """Gather each token's expert outputs and mix them by gate value.

        ``slots`` is ``(batch, num_experts·capacity, hidden)``; invalid
        (dropped or foreign-stripe) assignments index a zero padding row
        and are gate-masked, so they contribute exactly nothing — forward
        and backward.
        """
        padded = F.cat([slots, self._pad_row(slots, batch, hidden)], dim=1)
        slot_idx = np.where(valid, slot_expert * cap + slot_pos,
                            self.num_experts * cap)
        b_idx = np.arange(batch)[:, None, None]
        s_idx = np.arange(seq)[None, :, None]
        per_slot = padded[b_idx, slot_idx]              # (B, S, k, H)
        gates = probs[b_idx, s_idx, slot_expert]        # (B, S, k)
        mask = Tensor(valid.astype(gates.dtype.np_dtype), dtype=gates.dtype)
        return ((gates * mask).unsqueeze(-1) * per_slot).sum(dim=2)

    def forward(self, x):
        batch, seq, hidden = (int(d) for d in x.shape)
        probs = F.softmax(self.gate(x), dim=-1)
        probs_np = None if x.is_meta else probs.numpy()
        slot_expert, slot_pos, valid, cap, dropped = \
            self._route(probs_np, batch, seq)
        self.last_dropped = dropped
        num = self.num_experts

        # Token index feeding each (sample, expert, capacity) slot;
        # unfilled slots point at the zero padding row (index ``seq``).
        token_for_slot = np.full((batch, num, cap), seq, dtype=np.int64)
        bb, tt, jj = np.nonzero(valid)
        token_for_slot[bb, slot_expert[bb, tt, jj],
                       slot_pos[bb, tt, jj]] = tt
        x_pad = F.cat([x, self._pad_row(x, batch, hidden)], dim=1)

        spec = self._slapo_meta.get("moe_ep")
        if spec is None or spec["group"].size == 1:
            b_idx = np.arange(batch)[:, None, None]
            dispatch = x_pad[b_idx, token_for_slot]     # (B, E, C, H)
            outs = [self.experts[e](dispatch[:, e]) for e in range(num)]
            slots = F.reshape(F.stack(outs, dim=1),
                              (batch, num * cap, hidden))
            out = self._combine(slots, probs, slot_expert, slot_pos,
                                valid, cap, batch, seq, hidden)
        else:
            out = self._forward_expert_parallel(
                x_pad, probs, spec, token_for_slot, slot_expert, slot_pos,
                valid, cap, batch, seq, hidden)
        if self.emit_stats:
            return {"output": out, "dropped": dropped}
        return out

    def _forward_expert_parallel(self, x_pad, probs, spec, token_for_slot,
                                 slot_expert, slot_pos, valid, cap: int,
                                 batch: int, seq: int, hidden: int):
        """Dispatch → local experts → combine across the ep group.

        Routing is replicated (identical on every ep rank); the *work* is
        partitioned two ways: each rank owns a contiguous stripe of the
        tokens (dispatch side) and a contiguous slice of the experts
        (compute side).  The returned output covers only this rank's token
        stripe — the ``shard_experts`` forward hook all-reduces the
        disjoint stripes back into the full replicated output, and its
        backward hook all-reduces the matching stripe-partial gradients.
        """
        group = spec["group"]
        world = group.size
        num_local = spec["num_local"]
        num = self.num_experts
        my = group.ranks.index(group.rank)

        # Contiguous token stripes (uneven counts allowed: the exchanged
        # buffers are capacity-shaped, not stripe-shaped).
        owner = np.empty(batch * seq, dtype=np.int64)
        for index, chunk in enumerate(
                np.array_split(np.arange(batch * seq), world)):
            owner[chunk] = index
        owner = owner.reshape(batch, seq)
        owner_pad = np.concatenate(
            [owner, np.full((batch, 1), -1, dtype=np.int64)], axis=1)
        b_idx = np.arange(batch)[:, None, None]
        owner_of_slot = owner_pad[b_idx, token_for_slot]    # (B, E, C)
        mine = np.where(owner_of_slot == my, token_for_slot, seq)

        # Dispatch: expert-major buffer, chunk j of axis 0 → ep rank j.
        send = x_pad[np.arange(batch)[None, :, None],
                     mine.transpose(1, 0, 2)]               # (E, B, C, H)
        received = group.all_to_all(send, axis=0)
        # Segment j holds *my* experts' slots filled from rank j's stripe;
        # stripes fill disjoint slots, so the sum reassembles them exactly.
        dispatch = F.reshape(
            received, (world, num_local, batch, cap, hidden)).sum(dim=0)
        outs = [self.experts[e](dispatch[e]) for e in range(num_local)]
        stacked = F.stack(outs, dim=0)                  # (E_local, B, C, H)

        # Combine: every peer gets one copy of my experts' outputs; the
        # return all-to-all reassembles the full expert-major buffer in
        # global expert order.  (Each copy's gradient carries exactly one
        # stripe's contribution; the tape sums the copies.)
        full = group.all_to_all(F.cat([stacked] * world, dim=0), axis=0)
        slots = F.reshape(full.permute(1, 0, 2, 3), (batch, num * cap,
                                                     hidden))
        valid_mine = valid & (owner[:, :, None] == my)
        return self._combine(slots, probs, slot_expert, slot_pos,
                             valid_mine, cap, batch, seq, hidden)


class Sequential(Module):
    """Chain of modules executed in insertion order."""

    def __init__(self, *modules):
        super().__init__()
        if len(modules) == 1 and isinstance(modules[0], OrderedDict):
            for name, module in modules[0].items():
                self.add_module(name, module)
        else:
            for idx, module in enumerate(modules):
                self.add_module(str(idx), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self):
        return iter(self._modules.values())

    def __getitem__(self, idx: int) -> Module:
        return list(self._modules.values())[idx]

    def append(self, module: Module) -> "Sequential":
        self.add_module(str(len(self._modules)), module)
        return self

    def forward(self, x):
        for module in self._modules.values():
            x = module(x)
        return x


class ModuleList(Module):
    """Indexed list of submodules (no forward of its own)."""

    def __init__(self, modules: Iterable[Module] = ()):
        super().__init__()
        for idx, module in enumerate(modules):
            self.add_module(str(idx), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self):
        return iter(self._modules.values())

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return list(self._modules.values())[idx]
        if idx < 0:
            idx += len(self._modules)
        return self._modules[str(idx)]

    def __setitem__(self, idx: int, module: Module) -> None:
        if idx < 0:
            idx += len(self._modules)
        self._modules[str(idx)] = module

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._modules)), module)
        return self
