"""FlashAttention: block-wise, memory-efficient exact attention.

This is the xFormers ``mem_eff_attention`` stand-in the paper's kernel
schedules plug in (§2.2 step 2).  The forward pass uses the genuine
block-wise *online softmax* algorithm of Dao et al. (2022): the (S×S)
attention matrix is never materialised — only one (S×block) tile lives at a
time, which is what slashes peak activation memory and lets schedules raise
the batch size.

The backward pass recomputes tiles block-by-block (as the real kernel does)
rather than saving the probability matrix.
"""

from __future__ import annotations

import math

import numpy as np

from repro.framework import dtype as fw_dtypes
from repro.framework import functional as F
from repro.framework.module import Module
from repro.framework.tensor import astensor


def _block_scores(q_rows, k_blk, scale, causal, row0, start):
    """Scaled, causally masked scores of query rows ``row0:`` vs a block."""
    scores = q_rows @ np.swapaxes(k_blk, -1, -2)
    scores *= scale
    if causal:
        qi = np.arange(row0, row0 + q_rows.shape[-2])[:, None]
        kj = np.arange(start, start + k_blk.shape[-2])[None, :]
        np.copyto(scores, np.float32(-1e9), where=kj > qi)
    return scores


def _online_softmax_forward(q32, k32, v32, scale, causal, block):
    """Block-wise attention forward; returns (out, row_lse)."""
    s_k = k32.shape[-2]
    out = np.zeros(q32.shape[:-1] + (v32.shape[-1],), np.float32)
    row_max = np.full(q32.shape[:-1], -np.inf, np.float32)
    row_sum = np.zeros(q32.shape[:-1], np.float32)
    for start in range(0, s_k, block):
        stop = min(start + block, s_k)
        # Under the causal mask (key > query hidden), rows < start see
        # only masked keys in this block: their tile would add
        # exp(-1e9 - max) == 0, so it is skipped (Dao et al., 2022).  Every
        # row sees key 0 in the first block, so its running max is already
        # finite and the skip is exact for any s_q, s_k.
        row0 = start if causal else 0
        scores = _block_scores(q32[..., row0:, :], k32[..., start:stop, :],
                               scale, causal, row0, start)
        new_max = np.maximum(row_max[..., row0:], scores.max(axis=-1))
        correction = np.exp(row_max[..., row0:] - new_max)
        scores -= new_max[..., None]
        p = np.exp(scores, out=scores)
        sums, acc = row_sum[..., row0:], out[..., row0:, :]  # views
        sums *= correction
        sums += p.sum(axis=-1)
        acc *= correction[..., None]
        acc += p @ v32[..., start:stop, :]
        row_max[..., row0:] = new_max
    out /= row_sum[..., None]
    lse = row_max + np.log(row_sum)
    return out, lse


class FlashAttentionFunction:
    """Functional flash attention with recompute-based backward."""

    @staticmethod
    def apply(query, key, value, scale=None, is_causal=False, block_size=64):
        q, k, v = astensor(query), astensor(key), astensor(value)
        d = q.shape[-1]
        scale = scale if scale is not None else 1.0 / math.sqrt(d)
        s_q, s_k = q.shape[-2], k.shape[-2]
        out_shape = tuple(q.shape[:-1]) + (v.shape[-1],)
        batch = 1
        for s in q.shape[:-2]:
            batch *= s
        fp32 = q.dtype == fw_dtypes.float32

        def eager():
            q32 = q.data.astype(np.float32, copy=False)
            k32 = k.data.astype(np.float32, copy=False)
            v32 = v.data.astype(np.float32, copy=False)
            out, lse = _online_softmax_forward(q32, k32, v32, scale,
                                               is_causal, block_size)
            dtypes = q.data.dtype, k.data.dtype, v.data.dtype

            def backward(grad):
                g = grad.astype(np.float32, copy=False)
                gq = np.zeros_like(q32)
                gk = np.zeros_like(k32)
                gv = np.zeros_like(v32)
                # delta_i = sum_j P_ij * dP_ij = rowsum(dO * O)
                delta = (g * out).sum(axis=-1)
                for start in range(0, s_k, block_size):
                    stop = min(start + block_size, s_k)
                    row0 = start if is_causal else 0  # as in the forward
                    q_rows, g_rows = q32[..., row0:, :], g[..., row0:, :]
                    k_blk = k32[..., start:stop, :]
                    scores = _block_scores(q_rows, k_blk, scale, is_causal,
                                           row0, start)
                    scores -= lse[..., row0:, None]
                    p = np.exp(scores, out=scores)
                    gv[..., start:stop, :] += np.swapaxes(p, -1, -2) @ g_rows
                    ds = g_rows @ np.swapaxes(v32[..., start:stop, :],
                                              -1, -2)
                    ds -= delta[..., row0:, None]
                    ds *= p
                    ds *= scale
                    gq[..., row0:, :] += ds @ k_blk
                    gk[..., start:stop, :] += np.swapaxes(ds, -1, -2) @ q_rows
                return tuple(grad.astype(dtype, copy=False)
                             for grad, dtype in zip((gq, gk, gv), dtypes))

            return out.astype(q.data.dtype, copy=False), backward

        # fp32 q, k, v and output, and the row log-sum-exp
        saved = (F._f32(q), F._f32(k), F._f32(v), 4 * batch * s_q)
        if not fp32:
            saved += (4 * F._numel(out_shape),)
        return F._op("flash_attention", (q, k, v), out_shape, q.dtype, eager,
                     flops=4 * batch * s_q * s_k * d,
                     bytes_moved=2 * (q.nbytes + k.nbytes + v.nbytes),
                     kernel="flash_attention", saved=saved, saves_out=fp32)


def flash_attention(query, key, value, scale=None, is_causal=False,
                    block_size=64):
    """Functional entry point (see :class:`FlashAttention`)."""
    return FlashAttentionFunction.apply(query, key, value, scale, is_causal,
                                        block_size)


class FlashAttention(Module):
    """Drop-in attention-core module for ``.replace(..., subgraph)``.

    Takes (q, k, v) shaped (batch, heads, seq, head_dim) and returns the
    attention output, exactly like the subgraph it replaces.
    """

    def __init__(self, scale: float | None = None, is_causal: bool = False,
                 block_size: int = 64):
        super().__init__()
        self.scale = scale
        self.is_causal = is_causal
        self.block_size = block_size
        self._slapo_meta["custom_kernel"] = "flash_attention"

    def forward(self, query, key, value, scale=None):
        effective = scale if scale is not None else self.scale
        if effective is not None and effective > 1.0:
            # Schedules sometimes bind the *divisor* (sqrt(d)); normalise.
            effective = 1.0 / float(effective)
        return flash_attention(query, key, value, effective, self.is_causal,
                               self.block_size)
