"""Symbolic tracing: opcodes, leaf control, flattening, untraceable code."""

import numpy as np
import pytest

from repro import framework as fw
from repro import fx
from repro.framework import functional as F


class MLP(fw.Module):
    def __init__(self, hidden=8):
        super().__init__()
        self.fc1 = fw.Linear(hidden, hidden * 4)
        self.fc2 = fw.Linear(hidden * 4, hidden)

    def forward(self, x):
        return self.fc2(F.gelu(self.fc1(x)))


class Outer(fw.Module):
    def __init__(self):
        super().__init__()
        self.mlp = MLP()
        self.norm = fw.LayerNorm(8)

    def forward(self, x):
        return self.norm(self.mlp(x) + x)


class Scaled(fw.Module):
    def __init__(self):
        super().__init__()
        self.fc = fw.Linear(8, 16)

    def forward(self, x, scale=fw.ones((3, 1, 1))):
        return self.fc(x) * scale


class ControlFlow(fw.Module):
    def forward(self, x):
        if x.sum().item() > 0:  # data-dependent branch: untraceable
            return x * 2
        return x


class TestTracing:
    def test_leaf_modules_stay_opaque(self):
        gm = fx.symbolic_trace(MLP())
        ops = [(n.op, n.target) for n in gm.graph]
        assert ("call_module", "fc1") in ops
        assert ("call_module", "fc2") in ops
        assert any(n.op == "call_function" and n.target is F.gelu
                   for n in gm.graph)

    def test_nonleaf_submodule_is_inlined(self):
        gm = fx.symbolic_trace(Outer())
        targets = [n.target for n in gm.graph if n.op == "call_module"]
        # MLP got flattened; its linears appear with qualified paths.
        assert "mlp.fc1" in targets and "mlp.fc2" in targets
        assert "mlp" not in targets

    def test_explicit_leaf_name(self):
        gm = fx.symbolic_trace(Outer(), leaves=("mlp",))
        targets = [n.target for n in gm.graph if n.op == "call_module"]
        assert "mlp" in targets
        assert "mlp.fc1" not in targets

    def test_traced_module_matches_eager(self):
        fw.manual_seed(0)
        model = Outer()
        gm = fx.symbolic_trace(model)
        x = fw.randn(4, 8)
        np.testing.assert_allclose(gm(x).numpy(), model(x).numpy(), rtol=1e-5)

    def test_traced_module_shares_parameters(self):
        model = Outer()
        gm = fx.symbolic_trace(model)
        assert gm.get_submodule("mlp.fc1").weight is model.mlp.fc1.weight

    def test_grad_flows_through_graphmodule(self):
        model = MLP()
        gm = fx.symbolic_trace(model)
        x = fw.randn(2, 8, requires_grad=True)
        gm(x).sum().backward()
        assert x.grad is not None
        assert model.fc1.weight.grad is not None

    def test_control_flow_raises_trace_error(self):
        with pytest.raises(fx.TraceError):
            fx.symbolic_trace(ControlFlow())

    def test_untraceable_inside_leaf_is_fine(self):
        class Wrapper(fw.Module):
            def __init__(self):
                super().__init__()
                self.inner = ControlFlow()

            def forward(self, x):
                return self.inner(x) + 1

        gm = fx.symbolic_trace(Wrapper(), leaves=("inner",))
        assert any(n.op == "call_module" and n.target == "inner"
                   for n in gm.graph)

    def test_method_calls_become_call_method(self):
        class Views(fw.Module):
            def forward(self, x):
                return x.view(-1, 4).transpose(0, 1)

        gm = fx.symbolic_trace(Views())
        methods = [n.target for n in gm.graph if n.op == "call_method"]
        assert methods == ["view", "transpose"]
        x = fw.randn(2, 4)
        np.testing.assert_allclose(
            gm(x).numpy(), x.view(-1, 4).transpose(0, 1).numpy())

    def test_getitem_traced(self):
        class Slicer(fw.Module):
            def forward(self, x):
                return x[:, :2] + x[:, 2:]

        gm = fx.symbolic_trace(Slicer())
        x = fw.randn(3, 4)
        np.testing.assert_allclose(
            gm(x).numpy(), (x[:, :2] + x[:, 2:]).numpy())

    def test_retracing_graphmodule_keeps_it_opaque(self):
        gm_inner = fx.symbolic_trace(MLP())

        class Holder(fw.Module):
            def __init__(self):
                super().__init__()
                self.block = gm_inner

            def forward(self, x):
                return self.block(x) * 2

        gm = fx.symbolic_trace(Holder())
        assert any(n.op == "call_module" and n.target == "block"
                   for n in gm.graph)

    def test_graph_lint_passes(self):
        gm = fx.symbolic_trace(Outer())
        gm.graph.lint()

    def test_print_tabular_smoke(self):
        gm = fx.symbolic_trace(MLP())
        table = gm.graph.print_tabular()
        assert "call_module" in table and "fc1" in table


class TestShapeProp:
    def test_shapes_annotated(self):
        gm = fx.symbolic_trace(MLP(hidden=8))
        fx.ShapeProp(gm).run(fw.Tensor.meta((4, 8)))
        out = gm.graph.output_node.args[0]
        assert out.meta["shape"] == (4, 8)
        fc1 = next(n for n in gm.graph
                   if n.op == "call_module" and n.target == "fc1")
        assert fc1.meta["shape"] == (4, 32)

    def test_shapeprop_on_meta_model_no_alloc(self):
        model = MLP(hidden=8)
        gm = fx.symbolic_trace(model)
        fx.ShapeProp(gm).run(fw.Tensor.meta((1024, 8)))
        assert gm.graph.output_node.args[0].meta["shape"] == (1024, 8)

    @staticmethod
    def _shapes(gm):
        return {n.name: n.meta["shape"] for n in gm.graph
                if n.op != "output"}

    def test_defaulted_placeholder_binds_its_default(self):
        """A placeholder traced with ``include_defaults`` takes its
        default when the call omits it, as ``gm(x)`` does."""
        gm = fx.symbolic_trace(Scaled(), include_defaults=("scale",))
        x = fw.randn(4, 8)
        out = fx.ShapeProp(gm).run(x)
        assert out.shape == gm(x).shape == (3, 4, 16)
        assert self._shapes(gm) == {"x": (4, 8), "scale": (3, 1, 1),
                                    "fc": (4, 16), "mul": (3, 4, 16)}

    def test_keyword_inputs(self):
        gm = fx.symbolic_trace(Scaled(), include_defaults=("scale",))
        x, scale = fw.randn(4, 8), fw.ones((2, 1, 1))
        out = fx.ShapeProp(gm).run(x=x, scale=scale)
        assert out.shape == gm(x=x, scale=scale).shape == (2, 4, 16)
        assert self._shapes(gm) == {"x": (4, 8), "scale": (2, 1, 1),
                                    "fc": (4, 16), "mul": (2, 4, 16)}
        with pytest.raises(TypeError, match="unexpected keyword"):
            fx.ShapeProp(gm).run(x, bias=scale)
