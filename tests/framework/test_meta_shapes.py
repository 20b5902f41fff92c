"""The meta path computes the shape the eager path returns.

The simulator prices models on meta tensors, so an op whose meta shape
differs from its eager result prices a different program than the one
that runs.  Each case below diverged once.
"""

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import functional as F
from repro.framework.tensor import Tensor


def _pair(shape, dtype=np.float32, seed=0):
    """An eager tensor that requires grad and its meta twin."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape).astype(dtype) if shape \
        else np.asarray(rng.standard_normal(), dtype)
    return (Tensor(data, requires_grad=True),
            fw.zeros(*shape, device="meta"))


def _mask(shape, seed=1):
    rng = np.random.default_rng(seed)
    data = rng.random(shape) > 0.5
    return Tensor(data), fw.zeros(*shape, dtype=fw.bool_, device="meta")


def test_masked_fill_broadcasts_a_mask_larger_than_x():
    (x, x_meta), (mask, mask_meta) = _pair((2, 1)), _mask((2, 3))
    out = F.masked_fill(x, mask, 5.0)
    assert out.shape == F.masked_fill(x_meta, mask_meta, 5.0).shape \
        == (2, 3)
    want = np.where(mask.numpy(), 5.0, np.broadcast_to(x.numpy(), (2, 3)))
    np.testing.assert_array_equal(out.numpy(), want)
    F.sum(out).backward()
    # Each x element receives one gradient per unfilled column.
    np.testing.assert_array_equal(
        x.grad.numpy(), (~mask.numpy()).sum(axis=1, keepdims=True))


@pytest.mark.parametrize("a_shape,b_shape", [
    ((2, 3), (3,)), ((3,), (3,)), ((3,), (3, 2)), ((4, 2, 3), (3,)),
    ((3,), (4, 3, 2)), ((2, 3), (3, 4))])
def test_matmul_with_a_1d_operand(a_shape, b_shape):
    (a, a_meta), (b, b_meta) = _pair(a_shape), _pair(b_shape, seed=2)
    out = F.matmul(a, b)
    want = a.numpy() @ b.numpy()
    assert out.shape == F.matmul(a_meta, b_meta).shape == want.shape
    np.testing.assert_array_equal(out.numpy(), want)
    grad = np.random.default_rng(3).standard_normal(want.shape) \
        .astype(np.float32)
    F.sum(F.mul(out, Tensor(grad))).backward()
    a64, b64, g64 = (v.astype(np.float64) for v in
                     (a.numpy(), b.numpy(), grad))
    # d/da sum(g * (a @ b)) and d/db, through the matrix forms NumPy uses.
    am = a64[None, :] if a64.ndim == 1 else a64
    bm = b64[:, None] if b64.ndim == 1 else b64
    gm = g64[..., None] if b64.ndim == 1 else g64
    gm = np.expand_dims(gm, -2) if a64.ndim == 1 else gm
    want_a = (gm @ np.swapaxes(bm, -1, -2))
    want_b = (np.swapaxes(am, -1, -2) @ gm)
    want_a = want_a.reshape((-1,) + am.shape[-2:]).sum(0).reshape(a.shape) \
        if want_a.ndim > am.ndim else want_a.reshape(a.shape)
    want_b = want_b.reshape((-1,) + bm.shape[-2:]).sum(0).reshape(b.shape) \
        if want_b.ndim > bm.ndim else want_b.reshape(b.shape)
    np.testing.assert_allclose(a.grad.numpy(), want_a, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(b.grad.numpy(), want_b, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("keepdim", [False, True])
def test_max_over_all_elements_honours_keepdim(keepdim):
    x, x_meta = _pair((2, 3))
    out = F.max(x, dim=None, keepdim=keepdim)
    want = x.numpy().max(keepdims=keepdim)
    assert out.shape == F.max(x_meta, dim=None, keepdim=keepdim).shape \
        == want.shape
    np.testing.assert_array_equal(out.numpy(), want)
    F.sum(out).backward()
    np.testing.assert_array_equal(x.grad.numpy(),
                                  (x.numpy() == want).astype(np.float32))
