"""How long the tape keeps arrays alive.

The tape holds only what each backward formula reads (node edges, never
interior tensors; lean op closures), and ``backward()`` frees every node
once it has run, so a second backward through the same graph raises.
"""

import tracemalloc
import types
import weakref

import numpy as np
import pytest

import repro.slapo as slapo
from repro import framework as fw
from repro.framework import functional as F
from repro.framework import random as frandom
from repro.framework.autograd import detect_anomaly
from repro.framework.checkpoint import checkpoint_run
from repro.kernels.flash_attention import flash_attention
from repro.models import MODEL_ZOO
from repro.schedules import schedule_gpt


def _leaf(*shape, seed=0):
    rng = np.random.default_rng(seed)
    return fw.tensor(np.abs(rng.normal(size=shape)).astype(np.float32) + 0.5,
                     requires_grad=True)


# ---------------------------------------------------------------------- #
# Edges and closures
# ---------------------------------------------------------------------- #
def test_an_unread_intermediate_dies_right_after_forward():
    x = _leaf(3)
    a = x + x
    b = a + 1.0
    tensor_ref, data_ref = weakref.ref(a), weakref.ref(a.data)
    del a
    assert tensor_ref() is None and data_ref() is None
    b.sum().backward()
    np.testing.assert_array_equal(x.grad.numpy(), np.full(3, 2.0, np.float32))


def test_a_read_intermediate_keeps_its_array_but_not_its_tensor():
    x = _leaf(3)
    a = x * 3.0
    b = a * a  # mul reads both operands
    tensor_ref, data_ref = weakref.ref(a), weakref.ref(a.data)
    del a
    assert tensor_ref() is None and data_ref() is not None
    b.sum().backward()
    assert data_ref() is None  # freed by the walk; b still holds its node


def test_edges_are_nodes_leaves_or_none():
    x = _leaf(2, 2)
    frozen = fw.tensor(np.ones((2, 2), np.float32))
    h = x * 2.0
    out = F.matmul(h, frozen) + x
    mm_node, add_node = out.grad_fn.edges[0], out.grad_fn
    assert add_node.edges == (mm_node, x)
    assert mm_node.edges == (h.grad_fn, None)
    assert h.grad_fn.edges == (x, None)  # the float operand needs no grad


def _closure_values(fn, seen=None):
    """Everything ``fn`` reaches through closure cells (recursively)."""
    seen = set() if seen is None else seen
    if id(fn) in seen:
        return
    seen.add(id(fn))
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        yield value
        if isinstance(value, types.FunctionType):
            yield from _closure_values(value, seen)
        elif isinstance(value, (tuple, list)):
            yield from value


def _ops():
    x = _leaf(2, 3, 4)
    y = _leaf(2, 3, 4, seed=1)
    w = _leaf(5, 4, seed=2)
    mask = fw.tensor(np.random.default_rng(3).random((2, 3, 4)) > 0.5)
    ids = fw.tensor(np.array([[0, 2, 1]]))
    targets = fw.tensor(np.array([0, 3]))
    img = _leaf(1, 2, 4, 4, seed=4)
    kernel = _leaf(3, 2, 3, 3, seed=5)
    return {
        "add": lambda: x + y,
        "sub": lambda: x - y,
        "mul": lambda: x * y,
        "div": lambda: x / y,
        "maximum": lambda: F.maximum(x, y),
        "neg": lambda: -x,
        "exp": lambda: F.exp(x),
        "log": lambda: F.log(x),
        "sqrt": lambda: F.sqrt(x),
        "rsqrt": lambda: F.rsqrt(x),
        "pow": lambda: x ** 3,
        "tanh": lambda: F.tanh(x),
        "sigmoid": lambda: F.sigmoid(x),
        "relu": lambda: F.relu(x),
        "gelu": lambda: F.gelu(x),
        "silu": lambda: F.silu(x),
        "cast": lambda: F.cast(x, fw.float16),
        "where": lambda: F.where(mask, x, y),
        "masked_fill": lambda: F.masked_fill(x, mask, 0.0),
        "reshape": lambda: x.reshape(6, 4),
        "permute": lambda: x.permute(2, 0, 1),
        "expand": lambda: F.expand(x[:1], (4, 3, 4)),
        "getitem": lambda: x[:, 1],
        "cat": lambda: F.cat([x, y], 1),
        "sum": lambda: x.sum(1),
        "max": lambda: x.max(2),
        "matmul": lambda: F.matmul(x, y.permute(0, 2, 1)),
        "linear": lambda: F.linear(x, w, w[:, 0]),
        "softmax": lambda: F.softmax(x),
        "log_softmax": lambda: F.log_softmax(x),
        "layer_norm": lambda: F.layer_norm(x, 4, w[0], w[1]),
        "rms_norm": lambda: F.rms_norm(x, w[0]),
        "dropout": lambda: F.dropout(x, 0.5),
        "embedding": lambda: F.embedding(ids, w),
        "cross_entropy": lambda: F.cross_entropy(x[0, :2], targets),
        "sdpa": lambda: F.scaled_dot_product_attention(
            x, y, x, dropout_p=0.5, is_causal=True),
        "flash_attention": lambda: flash_attention(x, y, x, is_causal=True),
        "conv2d": lambda: F.conv2d(img, kernel, kernel[:, 0, 0, 0],
                                   padding=1),
        "max_pool2d": lambda: F.max_pool2d(img, 2),
        "batch_norm": lambda: F.batch_norm(
            img, None, None, img[0, :, 0, 0], img[0, :, 1, 1],
            training=True),
    }


@pytest.mark.parametrize("name", sorted(_ops()))
def test_no_backward_closure_holds_a_tensor(name):
    out = _ops()[name]()
    held = [type(v).__name__ for v in _closure_values(out.grad_fn.backward_fn)
            if isinstance(v, fw.Tensor)]
    assert held == [], f"{name}'s backward closure holds {held}"


@pytest.mark.parametrize("name,saved", [("add", 0), ("sub", 0), ("neg", 0),
                                        ("exp", 1), ("tanh", 1), ("log", 1),
                                        ("mul", 2), ("rsqrt", 2)])
def test_elementwise_closures_save_only_what_the_formula_reads(name, saved):
    out = _ops()[name]()
    arrays = [v for v in _closure_values(out.grad_fn.backward_fn)
              if isinstance(v, np.ndarray)]
    assert len(arrays) == saved


# ---------------------------------------------------------------------- #
# Freeing as backward goes
# ---------------------------------------------------------------------- #
def test_backward_frees_every_node_it_ran():
    x = _leaf(4)
    h = F.tanh(x * 2.0)
    loss = (h * h).sum()
    nodes = [loss.grad_fn, loss.grad_fn.edges[0], h.grad_fn,
             h.grad_fn.edges[0]]
    loss.backward()
    for node in nodes:
        assert node.backward_fn is None and node.edges == ()


def test_a_second_backward_raises_naming_the_node():
    x = _leaf(3)
    loss = (x * x).sum()
    loss.backward()
    first = x.grad.numpy().copy()
    with pytest.raises(RuntimeError, match=r"GradNode\(sum\)"):
        loss.backward()
    np.testing.assert_array_equal(x.grad.numpy(), first)


def test_a_backward_through_a_freed_shared_node_raises_naming_it():
    x = _leaf(3)
    h = F.exp(x)
    first, second = h.sum(), (h * 2.0).sum()
    first.backward()
    with pytest.raises(RuntimeError, match=r"GradNode\(exp\)"):
        second.backward()


def _tiny_checkpointed_gpt():
    config = MODEL_ZOO["GPT"][1].tiny(
        hidden_size=64, num_layers=2, num_heads=4, intermediate_size=128,
        max_seq_len=32, vocab_size=128)
    fw.manual_seed(0)
    sch = slapo.create_schedule(MODEL_ZOO["GPT"][0](config))
    schedule_gpt(sch, config, ckpt_ratio=0.5)
    return slapo.build(sch).model, config


def test_after_backward_only_the_parameter_gradients_stay_live():
    model, config = _tiny_checkpointed_gpt()
    rng = np.random.default_rng(0)
    vocab, seq = config.vocab_size, config.max_seq_len
    ids = fw.tensor(rng.integers(0, vocab, (2, seq)))
    labels = fw.tensor(rng.integers(0, vocab, (2 * seq,)))

    def loss_fn():
        return F.cross_entropy(model(ids).reshape(-1, vocab), labels)

    loss_fn().backward()  # warm any lazily built state
    model.zero_grad()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        loss = loss_fn()
        loss.backward()
        live = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    grad_bytes = sum(p.grad.nbytes for p in model.parameters())
    assert loss.grad_fn is not None  # the caller still holds the graph root
    assert live <= grad_bytes + 32 * 1024, (live, grad_bytes)


# ---------------------------------------------------------------------- #
# Activation checkpointing
# ---------------------------------------------------------------------- #
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN is the point
def test_a_failed_recompute_restores_the_rng():
    def block(t):
        t = F.dropout(t, 0.5)
        t = F.log(t + 2.0) * F.sqrt(t)
        return F.dropout(t, 0.5)

    fw.manual_seed(0)
    x = fw.tensor([1.0, -1.0], requires_grad=True)
    loss = checkpoint_run(block, x).sum()  # NaN, outside detect_anomaly
    state = frandom.get_rng_state()
    with detect_anomaly():
        with pytest.raises(FloatingPointError):
            loss.backward()
    assert frandom.get_rng_state() == state


def test_checkpoint_keeps_no_input_tensor_alive():
    x = _leaf(4)
    a = x * 2.0
    out = checkpoint_run(lambda t: F.tanh(t) * 3.0, a)
    tensor_ref = weakref.ref(a)
    del a
    assert tensor_ref() is None
    out.sum().backward()
    want = 6.0 * (1.0 - np.tanh(2.0 * x.numpy()) ** 2)
    np.testing.assert_allclose(x.grad.numpy(), want, rtol=1e-6)
