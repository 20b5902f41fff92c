"""Tracing lifts the root's hooks into ``sync_*`` graph nodes.

A traced GraphModule carries no hook of its own: the hooks become
``sync_forward_pre`` / ``sync_backward`` / ``sync_forward`` nodes that run
them with ``Module.__call__`` semantics, bit for bit.  Pipeline stages cut
from a hooked root therefore fire the root's hooks too.
"""

import numpy as np

from repro import framework as fw
from repro import fx, slapo
from repro.framework.tensor import Tensor
from repro.fx import Effect, sync_backward, sync_forward, sync_forward_pre
from repro.slapo.primitives.pipeline import PipelineModule, \
    partition_pipeline


class TwoLinears(fw.Module):
    def __init__(self):
        super().__init__()
        self.fc1 = fw.Linear(8, 8)
        self.fc2 = fw.Linear(8, 8)

    def forward(self, x):
        return self.fc2(fw.functional.gelu(self.fc1(x)))


def _hooked_model(log, seed=0):
    fw.manual_seed(seed)
    model = TwoLinears()

    def pre(m, args):
        log.append("pre")
        return (args[0] * 2.0,) + args[1:]

    def post(m, args, out):
        log.append("post")
        return out + 1.0

    def bwd(m, grad):
        log.append("bwd")
        return grad * 3.0

    model.register_forward_pre_hook(pre)
    model.register_forward_hook(post)
    model.register_backward_hook(bwd)
    return model


def _run(module, seed=1):
    """Output, input grad and parameter grads of one forward/backward."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((4, 8)).astype(np.float32),
               requires_grad=True)
    for param in module.parameters():
        param.grad = None
    out = module(x)
    (out * out).sum().backward()
    grads = {name: p.grad.numpy().copy()
             for name, p in module.named_parameters()}
    return out.numpy().copy(), x.grad.numpy().copy(), grads


def _assert_bits_equal(got, want):
    out, x_grad, grads = got
    want_out, want_x_grad, want_grads = want
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(x_grad, want_x_grad)
    assert grads.keys() == want_grads.keys()
    for name in grads:
        np.testing.assert_array_equal(grads[name], want_grads[name])


def _sync_nodes(graph, target):
    return [n for n in graph
            if n.op == "call_function" and n.target is target]


def test_trace_lifts_hooks_into_sync_nodes():
    eager_log, traced_log = [], []
    want = _run(_hooked_model(eager_log))
    gm = fx.symbolic_trace(_hooked_model(traced_log))
    assert not gm._forward_pre_hooks
    assert not gm._forward_hooks
    assert not gm._backward_hooks
    inputs = gm.graph.placeholders()
    pre = _sync_nodes(gm.graph, sync_forward_pre)
    bwd = _sync_nodes(gm.graph, sync_backward)
    post = _sync_nodes(gm.graph, sync_forward)
    assert len(pre) == 1 and len(post) == 1
    assert len(bwd) == len(inputs) == 1
    assert [n.meta["effect"].kind for n in pre + bwd + post] \
        == ["sync_pre", "sync_bwd", "sync"]
    assert all(isinstance(n.meta["effect"], Effect)
               for n in pre + bwd + post)
    assert gm.graph.output_node.args[0] is post[0]

    _assert_bits_equal(_run(gm), want)
    assert eager_log == ["pre", "post", "bwd"]
    assert traced_log == eager_log


def test_lifted_hooks_see_the_graph_module_and_its_metadata():
    seen = []
    model = TwoLinears()
    model._slapo_meta["deferred_bias"] = "marker"
    model.register_forward_hook(
        lambda m, args, out: seen.append(
            (m, m._slapo_meta.get("deferred_bias"))))
    gm = fx.symbolic_trace(model)
    gm(fw.randn(2, 8))
    assert seen == [(gm, "marker")]


def test_checkpointed_traced_root_matches_bit_for_bit():
    want = _run(_hooked_model([]))
    sch = slapo.create_schedule(_hooked_model([]))
    sch.trace()
    sch.checkpoint()
    gm = sch.context.root
    assert isinstance(gm, fx.GraphModule) and gm._slapo_meta["checkpoint"]
    assert not gm._forward_hooks
    _assert_bits_equal(_run(gm), want)


def test_pipeline_stages_fire_the_root_hooks_once():
    eager_log, piped_log = [], []
    want = _run(_hooked_model(eager_log))
    model = _hooked_model(piped_log)
    stages = partition_pipeline(model, ["fc1"])
    assert len(stages) == 2
    for stage in stages:
        assert not (stage._forward_pre_hooks or stage._forward_hooks
                    or stage._backward_hooks)
    piped = PipelineModule(stages)
    got = _run(piped)
    assert piped_log == ["pre", "post", "bwd"]
    out, x_grad, grads = got
    want_out, want_x_grad, want_grads = want
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(x_grad, want_x_grad)
    # The stages share the root's parameters under stage-local paths.
    by_id = {id(p): name for name, p in model.named_parameters()}
    for _, param in piped.named_parameters():
        np.testing.assert_array_equal(param.grad.numpy(),
                                      want_grads[by_id[id(param)]])
