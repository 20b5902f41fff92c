"""Schedule creation, navigation, and module-level primitives."""

import numpy as np
import pytest

import repro.slapo as slapo
from repro import framework as fw
from repro.framework import functional as F
from repro.slapo import SchedulingError
from repro.sim import TraceRecorder


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
        attn = F.softmax((q @ k.transpose(-2, -1)) / (self.hidden ** 0.5),
                         dim=-1)
        return self.out(attn @ v)


class Block(fw.Module):
    def __init__(self, hidden=8):
        super().__init__()
        self.attention = Attention(hidden)
        self.fc1 = fw.Linear(hidden, hidden * 4)
        self.fc2 = fw.Linear(hidden * 4, hidden)
        self.norm = fw.LayerNorm(hidden)

    def forward(self, x):
        x = x + self.attention(x)
        return self.norm(x + self.fc2(F.gelu(self.fc1(x))))


class Tiny(fw.Module):
    def __init__(self, hidden=8, layers=2):
        super().__init__()
        self.embed = fw.Embedding(16, hidden)
        self.layers = fw.ModuleList([Block(hidden) for _ in range(layers)])
        self.head = fw.Linear(hidden, 16)

    def forward(self, ids):
        x = self.embed(ids)
        for layer in self.layers:
            x = layer(x)
        return self.head(x)


class TestScheduleBasics:
    def test_create_and_navigate(self):
        sch = slapo.create_schedule(Tiny())
        sub = sch["layers.0.attention"]
        assert isinstance(sub.mod, Attention)
        assert sub.path == "layers.0.attention"
        assert sub.parent.path == "layers.0"

    def test_nested_getitem(self):
        sch = slapo.create_schedule(Tiny())
        assert sch["layers.0"]["attention"]["qkv"].mod.out_features == 24

    def test_bad_path_raises(self):
        sch = slapo.create_schedule(Tiny())
        with pytest.raises(AttributeError):
            sch["layers.9"]

    def test_non_module_rejected(self):
        with pytest.raises(TypeError):
            slapo.create_schedule("not a module")

    def test_unknown_primitive_raises(self):
        sch = slapo.create_schedule(Tiny())
        with pytest.raises(AttributeError, match="no primitive"):
            sch.frobnicate()

    def test_schedules_are_immutable_views(self):
        sch = slapo.create_schedule(Tiny())
        with pytest.raises(AttributeError):
            sch.mod_cache = 1

    def test_history_records_primitives(self):
        model = Tiny()
        sch = slapo.create_schedule(model)
        sch["layers.0.fc1"].shard("weight", axis=0)
        assert sch.context.history[-1].name == "shard"
        assert sch.context.history[-1].path == "layers.0.fc1"


class TestReplace:
    def test_module_replace_preserves_path(self):
        fw.manual_seed(0)
        model = Tiny()
        sch = slapo.create_schedule(model)
        new_attn = Attention()
        sch["layers.0.attention"].replace(new_attn)
        assert model.layers[0].attention is new_attn

    def test_module_replace_with_rename(self):
        model = Tiny()
        sch = slapo.create_schedule(model)
        new_sch = sch["layers.0.attention"].replace(Attention(),
                                                    name="eff_attn")
        assert new_sch.path == "layers.0.eff_attn"
        assert "eff_attn" in dict(model.layers[0].named_children())
        assert "attention" not in dict(model.layers[0].named_children())

    def test_replace_root_rejected(self):
        sch = slapo.create_schedule(Tiny())
        with pytest.raises(SchedulingError):
            sch.replace(Attention())

    def test_subgraph_replace_requires_trace(self):
        sch = slapo.create_schedule(Tiny())
        with pytest.raises(SchedulingError, match="static graph"):
            sch["layers.0.attention"].replace(fw.Identity(), subgraph=object())


class TestCheckpoint:
    def test_checkpoint_sets_flag_and_preserves_numerics(self):
        fw.manual_seed(0)
        model = Tiny()
        ids = fw.randint(0, 16, (2, 4))
        model.eval()
        expected = model(ids).numpy()
        sch = slapo.create_schedule(model)
        sch["layers.0"].checkpoint()
        assert model.layers[0]._slapo_meta["checkpoint"]
        np.testing.assert_allclose(model(ids).numpy(), expected, rtol=1e-5)

    def test_checkpoint_gradients_match_uncheckpointed(self):
        def grads_with(checkpointed: bool):
            fw.manual_seed(3)
            model = Tiny()
            model.train()
            if checkpointed:
                sch = slapo.create_schedule(model)
                for idx in range(2):
                    sch[f"layers.{idx}"].checkpoint()
            fw.manual_seed(100)  # fix dropout streams (none here, but rng)
            ids = fw.tensor([[1, 2, 3, 4]], dtype=fw.int64)
            loss = F.cross_entropy(
                model(ids).view(-1, 16),
                fw.tensor([2, 3, 4, 5], dtype=fw.int64))
            loss.backward()
            return {n: p.grad.numpy().copy()
                    for n, p in model.named_parameters()}

        plain = grads_with(False)
        ckpt = grads_with(True)
        assert plain.keys() == ckpt.keys()
        for name in plain:
            np.testing.assert_allclose(ckpt[name], plain[name], rtol=1e-4,
                                       atol=1e-6, err_msg=name)

    def test_checkpoint_replays_dropout_mask(self):
        class Dropper(fw.Module):
            def __init__(self):
                super().__init__()
                self.fc = fw.Linear(8, 8)
                self.drop = fw.Dropout(0.5)

            def forward(self, x):
                return self.drop(self.fc(x))

        fw.manual_seed(0)
        model = Dropper()
        model._slapo_meta["checkpoint"] = True
        x = fw.randn(4, 8, requires_grad=True)
        fw.manual_seed(7)
        out = model(x)
        out.sum().backward()
        # Gradient must correspond to the same mask used in forward:
        # grad_x = (mask/keep) @ W; forward out = mask/keep * (xW+b).
        # Verify by re-running forward with same seed and comparing zeros.
        mask_fw = out.numpy() == 0
        fc_grad = x.grad is not None
        assert fc_grad
        fw.manual_seed(7)
        again = model(x)
        np.testing.assert_array_equal(again.numpy() == 0, mask_fw)

    def test_a_parent_trace_keeps_a_checkpointed_child(self):
        class Inner(fw.Module):
            def __init__(self):
                super().__init__()
                self.fc = fw.Linear(8, 8)

            def forward(self, x):
                return F.gelu(self.fc(x))

        class Outer(fw.Module):
            def __init__(self):
                super().__init__()
                self.inner = Inner()
                self.head = fw.Linear(8, 4)

            def forward(self, x):
                return self.head(F.relu(self.inner(x)))

        fw.manual_seed(0)
        model = Outer()
        x = fw.randn(2, 8)
        expected = model(x).numpy()
        sch = slapo.create_schedule(model)
        sch["inner"].checkpoint()
        sch.trace(flatten=True)
        graph = sch.mod.graph
        calls = [n.target for n in graph if n.op == "call_module"]
        assert calls == ["inner", "head"]
        assert sch.mod.inner._slapo_meta["checkpoint"]
        recorder = TraceRecorder()
        with fw.recording(recorder):
            np.testing.assert_array_equal(sch.mod(x).numpy(), expected)
        ops = recorder.finish().ops
        assert [op.in_checkpoint for op in ops] == \
            [True, True, False, False]  # inner.fc, gelu | relu, head

    def test_uncheckpoint(self):
        model = Tiny()
        sch = slapo.create_schedule(model)
        sch["layers.0"].checkpoint()
        sch["layers.0"].uncheckpoint()
        assert "checkpoint" not in model.layers[0]._slapo_meta


class TestDecompose:
    def test_decompose_splits_bias(self):
        fw.manual_seed(0)
        model = Tiny()
        x = fw.randint(0, 16, (2, 3))
        model.eval()
        expected = model(x).numpy()
        sch = slapo.create_schedule(model)
        sch["layers.0.fc1"].decompose()
        from repro.slapo import DecomposedLinear

        assert isinstance(model.layers[0].fc1, DecomposedLinear)
        np.testing.assert_allclose(model(x).numpy(), expected, rtol=1e-5)

    def test_decompose_requires_bias(self):
        class NoBias(fw.Module):
            def __init__(self):
                super().__init__()
                self.fc = fw.Linear(4, 4, bias=False)

            def forward(self, x):
                return self.fc(x)

        sch = slapo.create_schedule(NoBias())
        with pytest.raises(SchedulingError, match="bias"):
            sch["fc"].decompose()

    def test_decompose_non_linear_rejected(self):
        sch = slapo.create_schedule(Tiny())
        with pytest.raises(SchedulingError):
            sch["layers.0.norm"].decompose()

    def test_decomposed_linear_traces_with_get_attr(self):
        from repro import fx

        model = Tiny()
        sch = slapo.create_schedule(model)
        sch["layers.0.fc1"].decompose()
        sch["layers.0"].trace(flatten=True)
        gm = model.layers[0]
        get_attrs = [n.target for n in gm.graph if n.op == "get_attr"]
        assert any(t.endswith("fc1.bias") for t in get_attrs)
        assert any(t.endswith("fc1.weight") for t in get_attrs)


class TestExtensiblePrimitives:
    def test_user_defined_primitive_registers(self):
        @slapo.register_primitive()
        class TagPrimitive(slapo.Primitive):
            name = "tag_for_test"

            @staticmethod
            def apply(sch, label):
                sch.mod._slapo_meta["tag"] = label
                return sch

        model = Tiny()
        sch = slapo.create_schedule(model)
        sch["layers.0"].tag_for_test("hello")
        assert model.layers[0]._slapo_meta["tag"] == "hello"
        assert "tag_for_test" in slapo.list_primitives()

    def test_register_requires_name(self):
        with pytest.raises(ValueError):
            @slapo.register_primitive()
            class Nameless(slapo.Primitive):
                pass

    def test_quantize_swaps_module(self):
        model = Tiny()
        sch = slapo.create_schedule(model)
        sch["layers.0.fc1"].quantize(bits=8)
        assert model.layers[0].fc1._slapo_meta["quantized"]
        out = model(fw.randint(0, 16, (1, 3)))
        assert tuple(out.shape) == (1, 3, 16)

    def test_bind_validates_kernel(self):
        model = Tiny()
        sch = slapo.create_schedule(model)

        def good_kernel(module, x):
            return F.linear(x, module.weight, module.bias)

        x = fw.randn(2, 8)
        sch["layers.0.fc1"].bind(good_kernel, validate_input=(x,))
        assert model.layers[0].fc1._slapo_meta["custom_kernel"]

        def bad_kernel(module, x):
            return F.linear(x, module.weight, module.bias) * 2

        sch2 = slapo.create_schedule(Tiny())
        with pytest.raises(SchedulingError, match="differential"):
            sch2["layers.0.fc1"].bind(bad_kernel, validate_input=(fw.randn(2, 8),))

    def test_cudagraphify_conflicts_with_checkpoint(self):
        model = Tiny()
        sch = slapo.create_schedule(model)
        sch["layers.0"].checkpoint()
        with pytest.raises(SchedulingError, match="checkpoint"):
            sch["layers.0"].cudagraphify()

    def test_cudagraphify_wraps(self):
        model = Tiny()
        sch = slapo.create_schedule(model)
        sch["layers.1"].cudagraphify()
        assert model.layers[1]._slapo_meta["cuda_graph"]
