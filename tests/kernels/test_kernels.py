"""Kernels are differentially tested against the naive op compositions."""

import math

import numpy as np
import pytest

from repro import framework as fw
from repro import fx
from repro.framework import functional as F
from repro.kernels import (
    CompilerNotSupportedError,
    FlashAttention,
    compile_subgraph,
    flash_attention,
)


def naive_attention(q, k, v, scale, causal=False):
    attn = (q @ k.transpose(-2, -1)) * scale
    if causal:
        s = q.shape[-2]
        mask = fw.tensor(np.triu(np.ones((s, s), bool), k=1))
        attn = attn.masked_fill(mask, -1e9)
    return F.softmax(attn, dim=-1) @ v


class TestFlashAttention:
    @pytest.mark.parametrize("seq,block", [(16, 4), (17, 8), (64, 64)])
    def test_matches_naive_forward(self, seq, block):
        fw.manual_seed(0)
        q, k, v = (fw.randn(2, 3, seq, 8) for _ in range(3))
        scale = 1.0 / math.sqrt(8)
        out = flash_attention(q, k, v, block_size=block)
        ref = naive_attention(q, k, v, scale)
        np.testing.assert_allclose(out.numpy(), ref.numpy(), rtol=1e-4,
                                   atol=1e-5)

    def test_causal_matches_naive(self):
        fw.manual_seed(1)
        q, k, v = (fw.randn(1, 2, 12, 8) for _ in range(3))
        out = flash_attention(q, k, v, is_causal=True, block_size=4)
        ref = naive_attention(q, k, v, 1.0 / math.sqrt(8), causal=True)
        np.testing.assert_allclose(out.numpy(), ref.numpy(), rtol=1e-4,
                                   atol=1e-5)

    def test_backward_matches_naive(self):
        fw.manual_seed(2)
        shapes = (1, 2, 10, 8)
        base = [fw.randn(*shapes) for _ in range(3)]
        flash_in = [t.clone().requires_grad_() for t in base]
        naive_in = [t.clone().requires_grad_() for t in base]
        flash_attention(*flash_in, block_size=4).sum().backward()
        naive_attention(*naive_in, 1.0 / math.sqrt(8)).sum().backward()
        for fi, ni in zip(flash_in, naive_in):
            np.testing.assert_allclose(fi.grad.numpy(), ni.grad.numpy(),
                                       rtol=1e-3, atol=1e-4)

    def test_meta_shape(self):
        q = fw.Tensor.meta((2, 4, 128, 64))
        out = flash_attention(q, q, q)
        assert out.is_meta and tuple(out.shape) == (2, 4, 128, 64)

    def test_module_normalises_divisor_scale(self):
        fw.manual_seed(0)
        q, k, v = (fw.randn(1, 1, 6, 8) for _ in range(3))
        # Schedules bind sqrt(d) as a divisor; the module must invert it.
        mod = FlashAttention()
        out = mod(q, k, v, scale=math.sqrt(8))
        ref = naive_attention(q, k, v, 1.0 / math.sqrt(8))
        np.testing.assert_allclose(out.numpy(), ref.numpy(), rtol=1e-4,
                                   atol=1e-5)


class TestCompilerStandIns:
    def _elementwise_chain_gm(self):
        class Chain(fw.Module):
            def forward(self, x, bias):
                return F.gelu(x + bias)

        return fx.symbolic_trace(Chain())

    def test_compile_subgraph_runs_same_numerics(self):
        gm = self._elementwise_chain_gm()
        match = fx.find_matches(gm.graph, lambda x, b: F.gelu(x + b))[0]
        sub = fx.extract_match_as_module(gm, match)
        kernel = compile_subgraph(sub, "bias_gelu", backend="TorchInductor")
        x, b = fw.randn(3, 4), fw.randn(4)
        np.testing.assert_allclose(
            kernel(x, b).numpy(), F.gelu(x + b).numpy(), rtol=1e-5)
        assert kernel._slapo_meta["fused_backend"] == "TorchInductor"

    def test_unknown_backend_rejected(self):
        gm = self._elementwise_chain_gm()
        match = fx.find_matches(gm.graph, lambda x, b: F.gelu(x + b))[0]
        sub = fx.extract_match_as_module(gm, match)
        with pytest.raises(CompilerNotSupportedError):
            compile_subgraph(sub, "k", backend="XLA")

    def test_fused_kernel_is_leaf_for_tracer(self):
        gm = self._elementwise_chain_gm()
        match = fx.find_matches(gm.graph, lambda x, b: F.gelu(x + b))[0]
        sub = fx.extract_match_as_module(gm, match)
        kernel = compile_subgraph(sub, "bias_gelu")

        class Holder(fw.Module):
            def __init__(self):
                super().__init__()
                self.kernel = kernel

            def forward(self, x, b):
                return self.kernel(x, b) * 2

        traced = fx.symbolic_trace(Holder())
        assert any(n.op == "call_module" and n.target == "kernel"
                   for n in traced.graph)
