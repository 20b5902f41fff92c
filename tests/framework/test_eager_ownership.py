"""Buffer ownership of the eager hot path (see ``docs/framework.md``).

* every copy-free op returns data (and input gradients) that share memory
  with none of its inputs, and ``cast`` to the same dtype still copies;
* the in-place optimizers keep ``param.data`` the same object, and give
  the bits of the out-of-place textbook update kept here as an oracle;
* basic-index ``getitem`` backward equals an ``np.add.at`` oracle, and a
  framework ``Tensor`` works as an index on the eager and meta paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import functional as F
from repro.kernels import flash_attention
from repro.models import MODEL_ZOO


def _rand(*shape, dtype=np.float32, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def _t(array):
    return fw.Tensor(array, requires_grad=True)


HOT_OPS = {
    "layer_norm_affine": (lambda x, w, b: F.layer_norm(x, 8, w, b),
                          [(3, 4, 8), (8,), (8,)]),
    "layer_norm_plain": (lambda x: F.layer_norm(x, 8), [(3, 4, 8)]),
    "layer_norm_bias": (lambda x, b: F.layer_norm(x, 8, bias=b),
                        [(3, 4, 8), (8,)]),
    "rms_norm": (lambda x, w: F.rms_norm(x, w), [(3, 4, 8), (8,)]),
    "softmax": (F.softmax, [(3, 4, 8)]),
    "log_softmax": (F.log_softmax, [(3, 4, 8)]),
    "gelu": (F.gelu, [(3, 4, 8)]),
    "silu": (F.silu, [(3, 4, 8)]),
    "linear_bias": (F.linear, [(3, 4, 8), (5, 8), (5,)]),
    "flash_causal": (lambda q, k, v: flash_attention(q, k, v, is_causal=True,
                                                     block_size=4),
                     [(2, 2, 10, 4)] * 3),
    "getitem_slice": (lambda x: x[..., 2:5], [(3, 4, 8)]),
    "getitem_array": (lambda x: x[np.array([0, 2, 0])], [(3, 4, 8)]),
    "getitem_0d_view": (lambda x: x[1, 2, ..., 3], [(3, 4, 8)]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("name", sorted(HOT_OPS))
def test_hot_op_output_and_grads_own_their_memory(name, dtype):
    fn, shapes = HOT_OPS[name]
    inputs = [_t(_rand(*shape, dtype=dtype, seed=i))
              for i, shape in enumerate(shapes)]
    out = fn(*inputs)
    for t in inputs:
        assert not np.shares_memory(out.data, t.data)
    grad = _rand(*out.shape, dtype=out.data.dtype, seed=9)
    out.backward(grad)
    for t in inputs:
        assert not np.shares_memory(t.grad.data, grad)
        assert not np.shares_memory(t.grad.data, out.data)
        for other in inputs:
            assert not np.shares_memory(t.grad.data, other.data)


def test_cross_entropy_owns_its_memory():
    logits = _t(_rand(6, 5))
    loss = F.cross_entropy(logits, fw.tensor([0, 4, 1, 2, 2, 1]))
    assert not np.shares_memory(loss.data, logits.data)
    loss.backward()
    assert not np.shares_memory(logits.grad.data, logits.data)


def test_cast_to_same_dtype_copies():
    x = _t(_rand(4, 3))
    y = F.cast(x, fw.float32)
    assert not np.shares_memory(y.data, x.data)
    y.data[...] = 0
    assert np.all(x.data != 0)


def test_outputs_do_not_alias_saved_state():
    # Mutating an op's input after the forward must not change its output.
    x = _t(_rand(3, 8))
    outs = [F.layer_norm(x, 8), F.softmax(x), F.gelu(x), F.rms_norm(
        x, fw.ones(8))]
    before = [o.data.copy() for o in outs]
    x.data[...] = 0
    for o, b in zip(outs, before):
        np.testing.assert_array_equal(o.data, b)


# ---------------------------------------------------------------------- #
# Optimizers
# ---------------------------------------------------------------------- #
def _adamw_oracle(params, grads, state, lr, betas, eps, weight_decay):
    """The out-of-place AdamW update, one expression per formula."""
    beta1, beta2 = betas
    for i, (p, g) in enumerate(zip(params, grads)):
        st = state.setdefault(i, {"step": 0,
                                  "exp_avg": np.zeros(p.shape, np.float32),
                                  "exp_avg_sq": np.zeros(p.shape, np.float32)})
        if p.dtype == np.float16 and "master" not in st:
            st["master"] = p.astype(np.float32)
        st["step"] += 1
        g = g.astype(np.float32)
        target = st.get("master", p.astype(np.float32))
        target = target * (1.0 - lr * weight_decay)
        st["exp_avg"] = beta1 * st["exp_avg"] + (1 - beta1) * g
        st["exp_avg_sq"] = beta2 * st["exp_avg_sq"] + (1 - beta2) * g * g
        step_size = lr / (1 - beta1 ** st["step"])
        denom = np.sqrt(st["exp_avg_sq"] / (1 - beta2 ** st["step"])) + eps
        target = target - step_size * st["exp_avg"] / denom
        if "master" in st:
            st["master"] = target
        p[...] = target.astype(p.dtype)


def _sgd_oracle(params, grads, state, lr, momentum, weight_decay):
    for i, (p, g) in enumerate(zip(params, grads)):
        g = g.astype(np.float32)
        if weight_decay:
            g = g + weight_decay * p.astype(np.float32)
        if momentum:
            buf = state.get(i)
            buf = g if buf is None else momentum * buf + g
            state[i] = buf
            g = buf
        p -= (lr * g).astype(p.dtype)


def _params_and_grads(dtype, steps):
    rng = np.random.default_rng(3)
    shapes = [(4, 6), (6,), (3, 2, 5)]
    params = [fw.Parameter(rng.standard_normal(s).astype(dtype))
              for s in shapes]
    grads = [[rng.standard_normal(s).astype(dtype) for s in shapes]
             for _ in range(steps)]
    return params, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.float64])
@pytest.mark.parametrize("kind", ["adamw", "sgd"])
def test_optimizer_matches_out_of_place_oracle(kind, dtype):
    params, grads = _params_and_grads(dtype, steps=4)
    mirror = [p.data.copy() for p in params]
    objects = [p.data for p in params]
    if kind == "adamw":
        hyper = dict(lr=1e-2, betas=(0.9, 0.99), eps=1e-6, weight_decay=0.1)
        opt = fw.AdamW(params, **hyper)
    else:
        hyper = dict(lr=0.05, momentum=0.9, weight_decay=0.01)
        opt = fw.SGD(params, **hyper)
    state: dict = {}
    for step_grads in grads:
        for p, g in zip(params, step_grads):
            p.grad = fw.Tensor(g.copy())
        opt.step()
        oracle = _adamw_oracle if kind == "adamw" else _sgd_oracle
        oracle(mirror, step_grads, state, **hyper)
        for p, expected in zip(params, mirror):
            assert p.data.tobytes() == expected.tobytes()
    assert all(p.data is obj for p, obj in zip(params, objects))


def test_adamw_keeps_views_of_parameters_live():
    params, grads = _params_and_grads(np.float32, steps=1)
    view = params[0].data[1:, ::2]
    opt = fw.AdamW(params, lr=0.1)
    for p, g in zip(params, grads[0]):
        p.grad = fw.Tensor(g)
    opt.step()
    np.testing.assert_array_equal(view, params[0].data[1:, ::2])
    assert np.shares_memory(view, params[0].data)


def test_optimizer_does_not_mutate_gradients():
    params, grads = _params_and_grads(np.float32, steps=2)
    opt = fw.SGD(params, lr=0.1, momentum=0.9)
    for step_grads in grads:
        for p, g in zip(params, step_grads):
            p.grad = fw.Tensor(g.copy())
        opt.step()
        for p, g in zip(params, step_grads):
            assert p.grad.data.tobytes() == g.tobytes()


def test_second_optimizer_on_copied_model_gives_identical_bits():
    # Two optimizers stepping interleaved, on a model and a copy of its
    # weights, must not share any buffer: their parameters stay equal.
    config = MODEL_ZOO["GPT"][1].tiny()
    fw.manual_seed(11)
    models = [MODEL_ZOO["GPT"][0](config) for _ in range(2)]
    for src, dst in zip(models[0].parameters(), models[1].parameters()):
        dst.copy_(src)
    opts = [fw.AdamW(m.parameters(), lr=1e-2) for m in models]
    ids = fw.randint(0, config.vocab_size, (2, config.max_seq_len))
    labels = fw.randint(0, config.vocab_size, (2 * config.max_seq_len,))
    for _ in range(3):
        for model, opt in zip(models, opts):
            opt.zero_grad()
            F.cross_entropy(model(ids).reshape(-1, config.vocab_size),
                            labels).backward()
            opt.step()
    first, second = ([p.data.tobytes() for p in m.parameters()]
                     for m in models)
    assert first == second


# ---------------------------------------------------------------------- #
# getitem
# ---------------------------------------------------------------------- #
BASIC_INDICES = [
    (slice(1, 3),),
    (slice(None, None, -1), slice(4, 0, -2)),
    (None, Ellipsis, 2),
    (Ellipsis, slice(3, None)),
    1,
    (1, -1),
    (0, 1, 2),
    (slice(None), None, slice(1, 4)),
    np.int64(2),
]


@pytest.mark.parametrize("index", BASIC_INDICES, ids=repr)
def test_basic_index_backward_matches_add_at_oracle(index):
    x = _t(_rand(4, 5, 6))
    out = x[index]
    grad = _rand(*out.shape, seed=5)
    out.backward(grad)
    oracle = np.zeros_like(x.data)
    np.add.at(oracle, index, grad)
    assert x.grad.data.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("index", [
    np.array([0, 2, 0, 3]),
    (slice(None), np.array([1, 1, 4])),
    np.array([True, False, True, True]),
], ids=["dups", "inner_dups", "bool"])
def test_advanced_index_backward_accumulates_duplicates(index):
    x = _t(_rand(4, 5, 6))
    out = x[index]
    grad = _rand(*out.shape, seed=6)
    out.backward(grad)
    oracle = np.zeros_like(x.data)
    np.add.at(oracle, index, grad)
    assert x.grad.data.tobytes() == oracle.tobytes()


class TestTensorIndex:
    def test_integer_tensor_index_with_duplicates(self):
        x = _t(_rand(4, 3))
        out = x[fw.tensor([0, 2, 0])]
        np.testing.assert_array_equal(out.data, x.data[[0, 2, 0]])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad.data[:, 0], [2, 0, 1, 0])

    def test_tensor_inside_a_tuple_index(self):
        x = _t(_rand(4, 3))
        out = x[:, fw.tensor([1, 1])]
        assert tuple(out.shape) == (4, 2)
        out.sum().backward()
        np.testing.assert_array_equal(x.grad.data[0], [0, 2, 0])

    def test_boolean_tensor_index(self):
        x = _t(_rand(4, 3))
        mask = fw.tensor(np.array([True, False, True, False]))
        np.testing.assert_array_equal(x[mask].data, x.data[[0, 2]])

    def test_meta_integer_index_infers_its_shape(self):
        x = fw.Tensor.meta((5, 3))
        assert tuple(x[fw.Tensor.meta((7,), fw.int64)].shape) == (7, 3)
        assert tuple(x[:, fw.Tensor.meta((2, 2), fw.int64)].shape) == (5, 2, 2)
        assert tuple(x[fw.tensor([0, 4])].shape) == (2, 3)

    def test_meta_boolean_index_is_data_dependent(self):
        x = fw.Tensor.meta((5, 3))
        with pytest.raises(TypeError, match="data-dependent"):
            x[fw.Tensor.meta((5,), fw.bool_)]
