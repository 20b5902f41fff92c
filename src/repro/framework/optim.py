"""Optimizers: SGD and AdamW with fp32 master weights for fp16 params.

AdamW keeps, per parameter, the fp32 master copy plus two fp32 moments —
the 16-bytes-per-parameter optimizer state that dominates large-model memory
and that ZeRO partitions.  The memory model in :mod:`repro.sim` mirrors this
layout exactly.

Both optimizers update their state and the fp32 weights in place, with
the operation order and rounding of the textbook expressions: a Python
scalar hyper-parameter is rounded to float32 first (NumPy's weak-scalar
rule for ``scalar * float32_array``), then applied with ``out=``.  The
fp32 target is the fp16 parameter's master copy, the fp32 parameter's own
storage (``param.data`` stays the same object, so views of it stay live),
or a float32 copy for any other dtype; only a target that is not the
parameter's storage is written back.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import dtype as dtypes
from .parameter import Parameter


class Optimizer:
    def __init__(self, params: Iterable[Parameter], defaults: dict):
        deduped: list[Parameter] = []
        seen: set[int] = set()
        for param in params:
            if id(param) not in seen:  # tied weights must update once
                seen.add(id(param))
                deduped.append(param)
        self.param_groups = [{"params": deduped, **defaults}]
        if not self.param_groups[0]["params"]:
            raise ValueError("optimizer got an empty parameter list")
        self.state: dict[int, dict] = {}

    def zero_grad(self) -> None:
        for group in self.param_groups:
            for param in group["params"]:
                param.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def state_bytes_per_param(self) -> int:
        """Optimizer-state bytes per scalar parameter (for the memory model)."""
        raise NotImplementedError


class SGD(Optimizer):
    def __init__(self, params, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(params, {"lr": lr, "momentum": momentum,
                                  "weight_decay": weight_decay})

    def step(self) -> None:
        for group in self.param_groups:
            lr = group["lr"]
            momentum = group["momentum"]
            weight_decay = group["weight_decay"]
            for param in group["params"]:
                if param.grad is None:
                    continue
                grad = param.grad.data.astype(np.float32, copy=False)
                if weight_decay:
                    decay = param.data.astype(np.float32, copy=False) \
                        * np.float32(weight_decay)
                    decay += grad
                    grad = decay
                if momentum:
                    state = self.state.setdefault(id(param), {})
                    buf = state.get("momentum")
                    if buf is None:
                        buf = state["momentum"] = np.array(grad, np.float32)
                    else:
                        buf *= np.float32(momentum)
                        buf += grad
                    grad = buf
                update = grad * np.float32(lr)
                param.data -= update.astype(param.data.dtype, copy=False)

    def state_bytes_per_param(self) -> int:
        return 4 if self.param_groups[0]["momentum"] else 0


class AdamW(Optimizer):
    """Decoupled weight decay Adam (Loshchilov & Hutter)."""

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        super().__init__(params, {"lr": lr, "betas": betas, "eps": eps,
                                  "weight_decay": weight_decay})

    def step(self) -> None:
        for group in self.param_groups:
            lr = group["lr"]
            beta1, beta2 = group["betas"]
            eps = group["eps"]
            weight_decay = group["weight_decay"]
            for param in group["params"]:
                if param.grad is None:
                    continue
                state = self.state.setdefault(id(param), {})
                if not state:
                    state["step"] = 0
                    state["exp_avg"] = np.zeros(param.shape, np.float32)
                    state["exp_avg_sq"] = np.zeros(param.shape, np.float32)
                    if param.dtype == dtypes.float16:
                        state["master"] = param.data.astype(np.float32)
                state["step"] += 1
                step = state["step"]
                grad = param.grad.data.astype(np.float32, copy=False)
                exp_avg, exp_avg_sq = state["exp_avg"], state["exp_avg_sq"]
                target = state.get("master")
                if target is None:
                    target = param.data.astype(np.float32, copy=False)
                # Decoupled weight decay.
                target *= np.float32(1.0 - lr * weight_decay)
                # exp_avg = beta1 * exp_avg + (1 - beta1) * grad
                scratch = grad * np.float32(1 - beta1)
                exp_avg *= np.float32(beta1)
                exp_avg += scratch
                # exp_avg_sq = beta2 * exp_avg_sq + (1 - beta2) * grad * grad
                np.multiply(grad, np.float32(1 - beta2), out=scratch)
                scratch *= grad
                exp_avg_sq *= np.float32(beta2)
                exp_avg_sq += scratch
                bias1 = 1 - beta1 ** step
                bias2 = 1 - beta2 ** step
                step_size = lr / bias1
                # target -= step_size * exp_avg / (sqrt(exp_avg_sq / bias2)
                #                                  + eps)
                denom = np.divide(exp_avg_sq, np.float32(bias2))
                np.sqrt(denom, out=denom)
                denom += np.float32(eps)
                np.multiply(exp_avg, np.float32(step_size), out=scratch)
                scratch /= denom
                target -= scratch
                if target is not param.data:
                    param.data[...] = target.astype(param.data.dtype)

    def state_bytes_per_param(self) -> int:
        # fp32 exp_avg + exp_avg_sq + master copy.
        return 12
