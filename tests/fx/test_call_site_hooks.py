"""Tracing lifts every submodule's hooks into ``sync_*`` nodes at its call
site, each firing once.

A hooked submodule no longer stays opaque: it inlines like any other
(its body traced between its hook nodes), or — a leaf — becomes a
``call_module`` that runs without the hooks its ``meta["lifted_hooks"]``
names.  Hooks registered after tracing still fire through the
``call_module``, and ``functionalize`` lifts them the same way.
"""

import numpy as np
import pytest

from repro import framework as fw
from repro import fx
from repro.framework import functional as F
from repro.framework.tensor import Tensor
from repro.fx import (FunctionalizationError, assert_functional,
                      functionalize, sync_backward, sync_forward,
                      sync_forward_pre)
from repro.fx.functionalize import unlifted_hooks
from repro.slapo.primitives.pipeline import PipelineModule, \
    partition_pipeline
from repro.slapo.primitives.structural import DecomposedLinear


class Inner(fw.Module):
    """A non-leaf block: inlined by the tracer."""

    def __init__(self):
        super().__init__()
        self.fc = fw.Linear(8, 8)

    def forward(self, x):
        return F.gelu(self.fc(x)) * 0.5


class Outer(fw.Module):
    def __init__(self):
        super().__init__()
        self.inner = Inner()
        self.head = fw.Linear(8, 8)

    def forward(self, x):
        return self.head(self.inner(x) + x)


def _hook(module, log, tag):
    """Register pre/forward/backward hooks that rewrite values and log."""
    def pre(m, args):
        log.append(f"{tag}.pre")
        return (args[0] * 2.0,) + args[1:]

    def post(m, args, out):
        log.append(f"{tag}.post")
        return out + 1.0

    def bwd(m, grad):
        log.append(f"{tag}.bwd")
        return grad * 3.0

    module.register_forward_pre_hook(pre)
    module.register_forward_hook(post)
    module.register_backward_hook(bwd)


def _model(log, seed=0):
    fw.manual_seed(seed)
    model = Outer()
    _hook(model.inner, log, "inner")
    _hook(model.head, log, "head")
    return model


def _run(module, seed=1):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((4, 8)).astype(np.float32),
               requires_grad=True)
    for param in module.parameters():
        param.grad = None
    out = module(x)
    (out * out).sum().backward()
    grads = sorted((p.grad.numpy().tobytes() for p in module.parameters()))
    return out.numpy().tobytes(), x.grad.numpy().tobytes(), grads


def _markers(gm, target):
    return gm.graph.find_nodes(op="call_function", target=target)


def test_hooked_submodules_become_sync_nodes_at_their_call_sites():
    eager_log, traced_log = [], []
    want = _run(_model(eager_log))
    gm = fx.symbolic_trace(_model(traced_log))
    # The hooked non-leaf inlines; the hooked leaf stays a call_module.
    assert [n.target for n in gm.graph.find_nodes(op="call_module")] \
        == ["inner.fc", "head"]
    assert len(_markers(gm, sync_forward_pre)) == 2
    assert len(_markers(gm, sync_backward)) == 2
    assert len(_markers(gm, sync_forward)) == 2
    head = gm.graph.find_nodes(op="call_module", target="head")[0]
    assert len(head.meta["lifted_hooks"]) == 3
    assert not any(unlifted_hooks(gm, head))
    assert _run(gm) == want
    assert traced_log == eager_log
    assert eager_log.count("inner.pre") == eager_log.count("head.bwd") == 1


def test_decomposed_sharded_linear_exposes_its_bias_add():
    """``.decompose()`` keeps a column-parallel linear's backward hook;
    the bias-add still reaches the parent graph, so Bias-GeLU matches as
    without the hook."""
    class Block(fw.Module):
        def __init__(self):
            super().__init__()
            self.fc = fw.Linear(8, 8)

        def forward(self, x):
            return F.gelu(self.fc(x))

    block = Block()
    # A column-parallel linear's input-gradient all-reduce.
    block.fc.register_backward_hook(lambda m, grad: grad)
    block.fc = DecomposedLinear(block.fc)
    gm = fx.symbolic_trace(block)
    matches = fx.find_matches(gm.graph, lambda x, b: F.gelu(x + b))
    assert len(matches) == 1
    assert not gm.graph.find_nodes(op="call_module")


def test_hooks_registered_after_tracing_fire_and_functionalize_lifts_them():
    log = []
    fw.manual_seed(0)
    model = Outer()
    gm = fx.symbolic_trace(model)
    _hook(model.head, log, "head")
    want = _run(gm)
    assert log == ["head.pre", "head.post", "head.bwd"]
    with pytest.raises(FunctionalizationError, match="after tracing"):
        assert_functional(gm, "some_pass")
    fgm = functionalize(gm)
    head = fgm.graph.find_nodes(op="call_module", target="head")[0]
    assert not any(unlifted_hooks(fgm, head))
    assert len(_markers(fgm, sync_forward)) == 1
    log.clear()
    assert _run(fgm) == want
    assert log == ["head.pre", "head.post", "head.bwd"]


def test_functionalize_rejects_an_unmarked_mutating_call():
    def scribble(x):
        return x

    scribble.__is_mutating__ = lambda *a, **k: True
    gm = fx.symbolic_trace(Outer())
    output = gm.graph.output_node
    with gm.graph.inserting_before(output):
        node = gm.graph.call_function(scribble, (output.args[0],))
    output.args = (node,)
    with pytest.raises(FunctionalizationError, match="mutate marker"):
        functionalize(gm)


class TestCommutativeMatching:
    class Residual(fw.Module):
        def __init__(self):
            super().__init__()
            self.dropout = fw.Dropout(0.0)
            self.fc = fw.Linear(8, 8)

        def forward(self, x):
            return x + self.dropout(self.fc(x))

    def test_add_matches_either_operand_order(self):
        from repro.schedules.common import dropout_add

        gm = fx.symbolic_trace(self.Residual())
        matches = fx.find_matches(gm.graph, dropout_add)
        assert len(matches) == 1
        x = gm.graph.placeholders()[0]
        # The residual wildcard binds the graph's first operand.
        assert matches[0].placeholder_bindings[1] is x

    def test_mul_matches_either_operand_order(self):
        graph = fx.trace_pattern(lambda x: x * F.silu(x * 2.0))
        matches = fx.find_matches(graph, lambda a, b: F.silu(a) * b)
        assert len(matches) == 1

    def test_fused_swapped_match_computes_what_the_graph_did(self):
        import repro.slapo as slapo
        from repro.schedules.common import dropout_add

        fw.manual_seed(3)
        model = self.Residual()
        x = fw.randn(4, 8)
        want = model(x).numpy()
        sch = slapo.create_schedule(model)
        sch.trace(flatten=True)
        sch.fuse(sch.find(dropout_add), compiler="TorchInductor",
                 name="DropoutAdd")
        gm = sch.context.root
        assert gm.graph.find_nodes(op="call_module", target="DropoutAdd")
        np.testing.assert_array_equal(gm(x).numpy(), want)


class TestPipelineCallSites:
    class Stack(fw.Module):
        def __init__(self):
            super().__init__()
            self.body = Outer()
            self.tail = fw.Linear(8, 8)

        def forward(self, x):
            return self.tail(self.body(x))

    def _stack(self, log):
        fw.manual_seed(0)
        model = self.Stack()
        _hook(model.body, log, "body")       # inlined ancestor of the cut
        _hook(model.body.head, log, "head")  # the cut itself, a leaf
        return model

    def test_cut_stage_ends_after_its_forward_hooks(self):
        eager_log, piped_log = [], []
        want = _run(self._stack(eager_log))
        stages = partition_pipeline(self._stack(piped_log), ["body.head"])
        assert len(stages) == 2
        # head's forward hooks close stage 0; body's run after body's
        # forward, so in stage 1.
        assert [n.kwargs["module"] for n in _markers(stages[0], sync_forward)
                ] == [stages[0].get_submodule("body.head")]
        assert len(_markers(stages[1], sync_forward)) == 1
        assert _run(PipelineModule(stages)) == want
        assert piped_log == eager_log

    def test_cut_inside_a_traced_module_retraces_its_sync_nodes(self):
        """Tracing through a traced GraphModule re-records its markers
        and keeps its leaves' lifted hooks lifted: each fires once."""
        eager_log, piped_log = [], []
        want = _run(self._stack(eager_log))
        model = self._stack(piped_log)
        model.body = fx.symbolic_trace(model.body)
        stages = partition_pipeline(model, ["body.head"])
        for stage in stages:
            for node in stage.graph.find_nodes(op="call_module"):
                assert not any(unlifted_hooks(stage, node)), node.name
        assert _run(PipelineModule(stages)) == want
        assert piped_log == eager_log


def test_a_dropped_traced_module_frees_its_hooked_leaves_at_once():
    """Sync nodes hold their hooked module; the graph's node links are
    cycles.  Dropping the GraphModule must still free the module by
    reference counting, not at the next full cyclic collection."""
    import gc
    import weakref

    gm = fx.symbolic_trace(_model([]))
    head = weakref.ref(gm.get_submodule("head"))
    gc.disable()
    try:
        del gm
        assert head() is None
    finally:
        gc.enable()
