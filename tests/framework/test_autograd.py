"""Autograd: gradients checked against finite differences and closed forms."""

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import functional as F


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar-valued fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_grad(op, *shapes, tol=2e-2, **kwargs):
    """Compare analytic and numeric grads for op(*tensors).sum()."""
    fw.manual_seed(0)
    arrays = [np.random.default_rng(i).normal(size=s).astype(np.float64)
              for i, s in enumerate(shapes)]
    tensors = [fw.tensor(a.astype(np.float32), requires_grad=True)
               for a in arrays]
    out = op(*tensors, **kwargs)
    out.sum().backward()
    for idx, (arr, t) in enumerate(zip(arrays, tensors)):
        def scalar_fn(x, _idx=idx):
            args = [fw.tensor(a.astype(np.float32)) for a in arrays]
            args[_idx] = fw.tensor(x.astype(np.float32))
            return float(op(*args, **kwargs).sum().item())

        num = numeric_grad(scalar_fn, arr.copy())
        assert t.grad is not None, f"missing grad for input {idx}"
        np.testing.assert_allclose(t.grad.numpy(), num, rtol=tol, atol=tol)


class TestBasicBackward:
    def test_add(self):
        check_grad(F.add, (3, 4), (3, 4))

    def test_add_broadcast(self):
        check_grad(F.add, (3, 4), (4,))

    def test_mul(self):
        check_grad(F.mul, (2, 3), (2, 3))

    def test_div(self):
        fw.manual_seed(0)
        a = fw.tensor(np.random.rand(3, 3).astype(np.float32) + 1.0,
                      requires_grad=True)
        b = fw.tensor(np.random.rand(3, 3).astype(np.float32) + 1.0,
                      requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad.numpy(), 1.0 / b.numpy(), rtol=1e-5)

    def test_matmul(self):
        check_grad(F.matmul, (3, 4), (4, 5))

    def test_batched_matmul(self):
        check_grad(F.matmul, (2, 3, 4), (2, 4, 5))

    def test_linear(self):
        check_grad(F.linear, (5, 4), (3, 4), (3,))

    def test_softmax(self):
        check_grad(F.softmax, (4, 6))

    def test_gelu(self):
        check_grad(F.gelu, (8,))

    def test_tanh(self):
        check_grad(F.tanh, (8,))

    def test_silu(self):
        check_grad(F.silu, (8,))

    def test_layer_norm(self):
        check_grad(lambda x, w, b: F.layer_norm(x, 6, w, b), (4, 6), (6,), (6,))

    def test_rms_norm(self):
        check_grad(lambda x, w: F.rms_norm(x, w), (4, 6), (6,))

    def test_reductions(self):
        check_grad(lambda x: F.sum(x, dim=1), (3, 4))
        check_grad(lambda x: F.mean(x, dim=0), (3, 4))

    def test_getitem_slice(self):
        check_grad(lambda x: x[1:, :2], (4, 4))

    def test_cat(self):
        check_grad(lambda a, b: F.cat([a, b], dim=1), (2, 3), (2, 5))

    def test_split_sum(self):
        def op(x):
            a, b = F.split(x, 2, dim=1)
            return a * 2 + b
        check_grad(op, (3, 4))

    def test_masked_fill(self):
        mask = fw.tensor(np.array([[True, False], [False, True]]))
        x = fw.randn(2, 2, requires_grad=True)
        F.masked_fill(x, mask, -1e9).sum().backward()
        expected = np.array([[0.0, 1.0], [1.0, 0.0]], np.float32)
        np.testing.assert_array_equal(x.grad.numpy(), expected)

    def test_embedding(self):
        weight = fw.randn(10, 4, requires_grad=True)
        idx = fw.tensor([1, 1, 3], dtype=fw.int64)
        F.embedding(idx, weight).sum().backward()
        grad = weight.grad.numpy()
        assert grad[1].sum() == pytest.approx(8.0)  # hit twice
        assert grad[3].sum() == pytest.approx(4.0)
        assert grad[0].sum() == 0.0


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        x = fw.tensor([2.0], requires_grad=True)
        y = x * 3 + x * 4
        y.backward()
        assert x.grad.item() == pytest.approx(7.0)

    def test_grad_accumulates_across_backwards(self):
        x = fw.tensor([1.0], requires_grad=True)
        (x * 2).backward()
        (x * 3).backward()
        assert x.grad.item() == pytest.approx(5.0)

    def test_no_grad_blocks_tape(self):
        x = fw.tensor([1.0], requires_grad=True)
        with fw.no_grad():
            y = x * 2
        assert y.grad_fn is None

    def test_enable_grad_inside_no_grad(self):
        x = fw.tensor([1.0], requires_grad=True)
        with fw.no_grad():
            with fw.enable_grad():
                y = x * 2
        assert y.grad_fn is not None

    def test_backward_nonscalar_needs_grad(self):
        x = fw.randn(3, requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_diamond_graph(self):
        x = fw.tensor([3.0], requires_grad=True)
        a = x * 2
        b = x * 5
        (a * b).backward()  # d/dx (10 x^2) = 20 x
        assert x.grad.item() == pytest.approx(60.0)

    def test_deep_chain(self):
        x = fw.tensor([1.0], requires_grad=True)
        y = x
        for _ in range(50):
            y = y * 1.1
        y.backward()
        assert x.grad.item() == pytest.approx(1.1 ** 50, rel=1e-4)

    def test_cross_entropy_matches_manual(self):
        logits = fw.randn(4, 5, requires_grad=True)
        targets = fw.tensor([0, 1, 2, 3], dtype=fw.int64)
        loss = F.cross_entropy(logits, targets)
        manual = -F.log_softmax(logits.detach(), dim=-1).numpy()[
            np.arange(4), [0, 1, 2, 3]].mean()
        assert loss.item() == pytest.approx(float(manual), rel=1e-5)
        loss.backward()
        assert logits.grad is not None

    def test_cross_entropy_ignore_index(self):
        logits = fw.randn(4, 5, requires_grad=True)
        targets = fw.tensor([0, -100, 2, -100], dtype=fw.int64)
        loss = F.cross_entropy(logits, targets)
        loss.backward()
        grad = logits.grad.numpy()
        assert np.all(grad[1] == 0) and np.all(grad[3] == 0)
