"""Static-graph primitives: .trace/.find/.fuse/.replace(subgraph)/.checkpoint(subgraph)."""

import numpy as np
import pytest

import repro.slapo as slapo
from repro import framework as fw
from repro import fx
from repro.framework import functional as F
from repro.kernels import FlashAttention, flash_attention
from repro.schedules.common import attention_core_nodrop, bias_gelu
from repro.slapo import SchedulingError


class Attention(fw.Module):
    def __init__(self, hidden=8):
        super().__init__()
        self.qkv = fw.Linear(hidden, hidden * 3)
        self.out = fw.Linear(hidden, hidden)
        self.hidden = hidden

    def forward(self, x):
        qkv = self.qkv(x)
        q = qkv[:, :, : self.hidden]
        k = qkv[:, :, self.hidden: 2 * self.hidden]
        v = qkv[:, :, 2 * self.hidden:]
        attn = q @ k.transpose(-2, -1)
        attn = attn / (self.hidden ** 0.5)
        attn = F.softmax(attn, dim=-1)
        return self.out(attn @ v)


class Block(fw.Module):
    def __init__(self, hidden=8):
        super().__init__()
        self.attention = Attention(hidden)
        self.fc1 = fw.Linear(hidden, hidden * 4)
        self.fc2 = fw.Linear(hidden * 4, hidden)

    def forward(self, x):
        x = x + self.attention(x)
        return x + self.fc2(F.gelu(self.fc1(x)))


class TestTrace:
    def test_hierarchical_trace_keeps_children_opaque(self):
        model = Block()
        sch = slapo.create_schedule(model)
        sch.context.root = model  # root trace path
        slapo.create_schedule(model)["attention"].trace(flatten=True)
        assert isinstance(model.attention, fx.GraphModule)

    def test_trace_default_is_hierarchical(self):
        model = Block()
        sch = slapo.create_schedule(model)
        sub = sch["attention"]
        sub.trace()  # children (qkv, out) become leaves
        targets = [n.target for n in sub.mod.graph if n.op == "call_module"]
        assert "qkv" in targets and "out" in targets

    def test_trace_is_idempotent(self):
        model = Block()
        sch = slapo.create_schedule(model)
        sch["attention"].trace(flatten=True)
        gm = model.attention
        sch["attention"].trace(flatten=True)
        assert model.attention is gm

    def test_traced_module_still_numerically_identical(self):
        fw.manual_seed(0)
        model = Block()
        x = fw.randn(2, 4, 8)
        expected = model(x).numpy()
        sch = slapo.create_schedule(model)
        sch["attention"].trace(flatten=True)
        np.testing.assert_allclose(model(x).numpy(), expected, rtol=1e-5)

    def test_find_requires_trace(self):
        sch = slapo.create_schedule(Block())
        with pytest.raises(SchedulingError, match="static graph"):
            sch["attention"].find(attention_core_nodrop)


class TestFindReplaceFuse:
    def _traced_attention_schedule(self):
        fw.manual_seed(0)
        model = Block()
        sch = slapo.create_schedule(model)
        sub = sch["attention"]
        sub.trace(flatten=True)
        return model, sch, sub

    def test_find_attention_core(self):
        _, _, sub = self._traced_attention_schedule()
        matches = sub.find(attention_core_nodrop)
        assert len(matches) == 1

    def test_find_regex(self):
        _, _, sub = self._traced_attention_schedule()
        nodes = sub.find(r"softmax.*")
        assert nodes and all(n.op == "call_function" for n in nodes)

    def test_replace_subgraph_with_flash_attention(self):
        model, sch, sub = self._traced_attention_schedule()
        x = fw.randn(2, 4, 8)
        model.eval()
        expected = model(x).numpy()
        matches = sub.find(attention_core_nodrop)
        sub.replace(FlashAttention(), matches, name="FA")
        assert any(n.op == "call_module" and n.target == "FA"
                   for n in model.attention.graph)
        np.testing.assert_allclose(model(x).numpy(), expected, rtol=1e-3,
                                   atol=1e-4)

    def test_replace_subgraph_with_function(self):
        model, sch, sub = self._traced_attention_schedule()
        x = fw.randn(2, 4, 8)
        model.eval()
        expected = model(x).numpy()
        matches = sub.find(attention_core_nodrop)

        def attention(q, k, v, scale):
            return flash_attention(q, k, v, scale=1.0 / float(scale))

        sub.replace(attention, matches)
        np.testing.assert_allclose(model(x).numpy(), expected, rtol=1e-4,
                                   atol=1e-5)

    def test_fuse_bias_gelu_pattern(self):
        fw.manual_seed(0)
        model = Block()
        x = fw.randn(2, 4, 8)
        model.eval()
        expected = model(x).numpy()
        root_sch = slapo.create_schedule(model)
        root_sch["fc1"].decompose()
        root_sch.trace(flatten=True)
        sch = slapo.create_schedule(root_sch.context.root)
        matches = sch.find(bias_gelu)
        assert len(matches) == 1
        sch.fuse(matches, compiler="TorchInductor", name="BiasGeLU")
        gm = sch.mod
        assert any(n.op == "call_module" and str(n.target).startswith("BiasGeLU")
                   for n in gm.graph)
        np.testing.assert_allclose(gm(x).numpy(), expected, rtol=1e-4,
                                   atol=1e-5)

    def test_fuse_unknown_compiler_rejected(self):
        model, sch, sub = self._traced_attention_schedule()
        matches = sub.find(attention_core_nodrop)
        with pytest.raises(Exception, match="unknown compiler"):
            sub.fuse(matches, compiler="GCC")

    def test_fuse_empty_matches_rejected(self):
        _, _, sub = self._traced_attention_schedule()
        with pytest.raises(SchedulingError, match="empty"):
            sub.fuse([], compiler="TorchScript")

    def test_partial_checkpoint_subgraph(self):
        fw.manual_seed(0)
        model = Block()
        x = fw.randn(2, 4, 8)
        model.eval()
        expected = model(x).numpy()
        sch = slapo.create_schedule(model)
        sub = sch["attention"]
        sub.trace(flatten=True)
        matches = sub.find(attention_core_nodrop)
        sub.checkpoint(matches)
        np.testing.assert_allclose(model(x).numpy(), expected, rtol=1e-4,
                                   atol=1e-5)
        # Gradients flow through the checkpointed region.
        model.train()
        y = fw.randn(2, 4, 8, requires_grad=True)
        model(y).sum().backward()
        assert y.grad is not None
        assert model.attention.get_submodule("qkv").weight.grad is not None
