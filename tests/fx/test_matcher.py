"""Pattern matching and graph rewriting."""

import numpy as np
import pytest

from repro import framework as fw
from repro import fx
from repro.framework import functional as F
from repro.kernels import flash_attention


class TinyAttention(fw.Module):
    """Flattened attention math for matcher tests (traceable)."""

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
        ctx = attn @ v
        return self.out(ctx)


def attention_pattern(q, k, v, scale):
    attn = q @ k.transpose(-2, -1)
    attn = attn / scale
    attn = F.softmax(attn, dim=-1)
    return attn @ v


class TestMatcher:
    def test_finds_attention_core(self):
        gm = fx.symbolic_trace(TinyAttention())
        matches = fx.find_matches(gm.graph, attention_pattern)
        assert len(matches) == 1
        match = matches[0]
        # matmul, transpose, div, softmax, matmul
        assert len(match.internal_nodes) == 5
        assert len(match.placeholder_bindings) == 4

    def test_wildcards_bind_consistently(self):
        def pattern(x):
            return x + x

        class SelfAdd(fw.Module):
            def forward(self, a, b):
                return (a * 1) + (a * 1) if False else a + a

        gm = fx.symbolic_trace(SelfAdd())
        assert len(fx.find_matches(gm.graph, pattern)) == 1

        class DiffAdd(fw.Module):
            def forward(self, a, b):
                return a + b

        gm2 = fx.symbolic_trace(DiffAdd())
        assert len(fx.find_matches(gm2.graph, pattern)) == 0

    def test_repeated_layers_all_matched(self):
        class Repeat(fw.Module):
            def forward(self, x):
                for _ in range(3):
                    x = F.gelu(x) * 2
                return x

        gm = fx.symbolic_trace(Repeat())
        matches = fx.find_matches(gm.graph, lambda x: F.gelu(x) * 2)
        assert len(matches) == 3

    def test_no_match_when_interior_escapes(self):
        class Escaping(fw.Module):
            def forward(self, x):
                g = F.gelu(x)
                return g * 2 + g  # gelu used outside the pattern body

        gm = fx.symbolic_trace(Escaping())
        matches = fx.find_matches(gm.graph, lambda x: F.gelu(x) * 2)
        assert len(matches) == 0

    def test_module_pattern_regex(self):
        from repro.fx.matcher import ModulePattern

        gm = fx.symbolic_trace(TinyAttention())
        pattern_graph = fx.Graph()
        ph = pattern_graph.placeholder("x")
        call = pattern_graph.create_node(
            "call_module", ModulePattern(r"qkv"), (ph,), {})
        pattern_graph.output(call)
        matches = fx.SubgraphMatcher(pattern_graph).match(gm.graph)
        assert len(matches) == 1
        assert matches[0].output_node.target == "qkv"

    def test_find_nodes_by_regex(self):
        gm = fx.symbolic_trace(TinyAttention())
        assert fx.find_nodes_by_regex(gm.graph, r"softmax.*")
        assert not fx.find_nodes_by_regex(gm.graph, r"conv.*")


class TestRewriter:
    def test_replace_with_module_preserves_numerics(self):
        fw.manual_seed(1)
        model = TinyAttention()
        gm = fx.symbolic_trace(model)
        x = fw.randn(2, 4, 8)
        baseline = gm(x).numpy()

        class FusedCore(fw.Module):
            def forward(self, q, k, v, scale):
                return flash_attention(q, k, v, scale=1.0 / float(scale))

        match = fx.find_matches(gm.graph, attention_pattern)[0]
        fx.replace_match_with_module(gm, match, FusedCore(), "fused_core")
        np.testing.assert_allclose(gm(x).numpy(), baseline, rtol=1e-4,
                                   atol=1e-5)
        assert any(n.op == "call_module" and n.target == "fused_core"
                   for n in gm.graph)
        assert not fx.find_matches(gm.graph, attention_pattern)

    def test_extract_match_runs_standalone(self):
        fw.manual_seed(0)
        gm = fx.symbolic_trace(TinyAttention())
        match = fx.find_matches(gm.graph, attention_pattern)[0]
        sub = fx.extract_match_as_module(gm, match)
        q = fw.randn(2, 4, 8)
        k = fw.randn(2, 4, 8)
        v = fw.randn(2, 4, 8)
        expected = attention_pattern(q, k, v, 8 ** 0.5)
        np.testing.assert_allclose(
            sub(q, k, v, 8 ** 0.5).numpy(), expected.numpy(), rtol=1e-5)

    def test_dead_code_elimination(self):
        class Dead(fw.Module):
            def forward(self, x):
                unused = x * 3
                return x + 1

        gm = fx.symbolic_trace(Dead())
        assert gm.graph.eliminate_dead_code() == 1
        assert all(n.target is not F.mul for n in gm.graph
                   if n.op == "call_function")

    def test_erase_with_users_raises(self):
        gm = fx.symbolic_trace(TinyAttention())
        node = next(n for n in gm.graph if n.op == "call_module")
        with pytest.raises(RuntimeError):
            gm.graph.erase_node(node)


class TestPipelineSplit:
    def _chain(self):
        class Chain(fw.Module):
            def __init__(self):
                super().__init__()
                self.a = fw.Linear(8, 8)
                self.b = fw.Linear(8, 8)
                self.c = fw.Linear(8, 8)
                self.d = fw.Linear(8, 8)

            def forward(self, x):
                return self.d(self.c(self.b(self.a(x))))

        return fx.symbolic_trace(Chain())

    def test_two_stage_split_equivalent(self):
        fw.manual_seed(0)
        gm = self._chain()
        x = fw.randn(3, 8)
        expected = gm(x).numpy()
        boundary = next(n for n in gm.graph
                        if n.op == "call_module" and n.target == "b")
        stages = fx.split_graph_module(gm, [boundary])
        assert len(stages) == 2
        mid = stages[0](x)
        out = stages[1](*mid)
        np.testing.assert_allclose(out.numpy(), expected, rtol=1e-5)

    def test_liveness_threads_skip_connections(self):
        class Skip(fw.Module):
            def __init__(self):
                super().__init__()
                self.a = fw.Linear(8, 8)
                self.b = fw.Linear(8, 8)
                self.c = fw.Linear(8, 8)

            def forward(self, x):
                h0 = self.a(x)
                h1 = self.b(h0)
                return self.c(h1) + h0 + x  # h0 and x cross both boundaries

        fw.manual_seed(0)
        gm = fx.symbolic_trace(Skip())
        x = fw.randn(2, 8)
        expected = gm(x).numpy()
        nodes = [n for n in gm.graph if n.op == "call_module"]
        stages = fx.split_graph_module(gm, [nodes[0], nodes[1]])
        assert len(stages) == 3
        value = stages[0](x)
        value = stages[1](*value)
        out = stages[2](*value)
        np.testing.assert_allclose(out.numpy(), expected, rtol=1e-5)
        # Stage 0 must forward both h0 and x.
        assert len(stages[1].graph.placeholders()) >= 2

    def test_three_stage_gradients_flow(self):
        gm = self._chain()
        nodes = [n for n in gm.graph if n.op == "call_module"]
        stages = fx.split_graph_module(gm, [nodes[0], nodes[2]])
        x = fw.randn(2, 8, requires_grad=True)
        value = (x,)
        for idx, stage in enumerate(stages):
            value = stage(*value) if isinstance(value, tuple) else stage(value)
        value.sum().backward()
        assert x.grad is not None
        assert gm.get_submodule("a").weight.grad is not None
