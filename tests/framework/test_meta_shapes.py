"""The meta path computes what the eager path computes.

The simulator prices models on meta tensors, so an op whose meta shape,
dtype or event differs from its eager result prices a different program
than the one that runs.  The differential op fuzzer below runs every
traceable op on both paths; each hand-written case diverged once.
"""

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import framework as fw
from repro.framework import autograd, events
from repro.framework import functional as F
from repro.framework.dtype import DType
from repro.framework.tensor import Tensor
from repro.sim import TraceRecorder

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "sim"))
from test_saved_bytes import _closure_arrays, _owner  # noqa: E402


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


# ---------------------------------------------------------------------- #
# The differential op fuzzer: every traceable ``F`` op, both paths
# ---------------------------------------------------------------------- #
# A hypothesis grammar draws each op's arguments once; the op then runs
# on eager tensors and on their meta twins.  Both must raise the same
# exception type or neither; both must return the same shapes and
# dtypes and record equal events; and an eager tape node's closure must
# keep exactly the bytes the op declares it keeps.
ALL = (fw.float32, fw.float16, fw.bool_, fw.int64)
FLOAT = (fw.float32, fw.float16)


@dataclass(frozen=True)
class Arg:
    """An operand, built once per device: eager data and its meta twin.

    ``perm`` builds it as a permuted (strided) view of a contiguous
    base; ``high`` draws int64 values in ``[0, high)``.
    """

    shape: tuple
    dtype: DType
    perm: tuple | None = None
    high: int | None = None
    seed: int = 0

    def build(self, device):
        shape = self.shape
        if self.perm is not None:
            shape = tuple(self.shape[self.perm.index(i)]
                          for i in range(len(shape)))
        if device == "meta":
            t = Tensor.meta(shape, self.dtype)
        else:
            rng = np.random.default_rng(self.seed)
            if self.dtype == fw.bool_:
                data = rng.random(shape) < 0.5
            elif self.high is not None:
                data = rng.integers(0, self.high, shape)
            elif self.dtype == fw.int64:
                data = rng.integers(-3, 4, shape)
            else:
                data = rng.standard_normal(shape)
            t = Tensor(np.asarray(data, self.dtype.np_dtype), dtype=self.dtype)
        if self.perm is not None:
            with autograd.no_grad():
                t = F.permute(t, self.perm)
        t.requires_grad = self.dtype.is_floating
        return t


def _build(value, device):
    if isinstance(value, Arg):
        return value.build(device)
    if isinstance(value, (tuple, list)):
        return type(value)(_build(v, device) for v in value)
    if isinstance(value, dict):
        return {k: _build(v, device) for k, v in value.items()}
    return value


@st.composite
def operand(draw, shape, dtypes=ALL, high=None):
    perm = None
    if len(shape) >= 2 and draw(st.booleans()):
        perm = tuple(draw(st.permutations(range(len(shape)))))
    return Arg(tuple(shape), draw(st.sampled_from(dtypes)), perm, high,
               draw(st.integers(0, 2**16)))


def shape(min_dims=0, max_dims=3, max_side=4):
    return hnp.array_shapes(min_dims=min_dims, max_dims=max_dims,
                            max_side=max_side)


def dim_of(ndim):
    """A dim of an ``ndim``-d tensor, negative ones and now and then an
    out-of-range one too."""
    return st.integers(-ndim - 1, max(ndim, 0))


def dims_of(ndim):
    """None, a dim, or a tuple of dims, repeated ones too."""
    one = dim_of(ndim)
    return st.one_of(st.none(), one,
                     st.lists(one, min_size=1, max_size=3).map(tuple))


@st.composite
def binary(draw, fn, dtypes=ALL):
    a_shape, b_shape = draw(hnp.mutually_broadcastable_shapes(
        num_shapes=2, min_dims=0, max_dims=3, max_side=4)).input_shapes
    if draw(st.integers(0, 9)) == 0:
        b_shape = draw(shape())  # not always broadcastable
    a = draw(operand(a_shape, dtypes))
    b = draw(st.one_of(operand(b_shape, dtypes),
                       st.sampled_from([2.0, 3, True, -0.5])))
    return (fn, (b, a) if draw(st.booleans()) else (a, b), {})


@st.composite
def unary(draw, fn, dtypes=ALL, extra=()):
    x = draw(operand(draw(shape()), dtypes))
    return (fn, (x,) + tuple(draw(e) for e in extra), {})


@st.composite
def reduction(draw, fn, keepdim=True):
    x = draw(operand(draw(shape()), ALL))
    kwargs = {"keepdim": draw(st.booleans())} if keepdim else {}
    return (fn, (x, draw(dims_of(len(x.shape)))), kwargs)


@st.composite
def with_dim(draw, fn, dtypes=ALL, min_dims=0):
    x = draw(operand(draw(shape(min_dims=min_dims)), dtypes))
    return (fn, (x, draw(dim_of(len(x.shape)))), {})


@st.composite
def where_case(draw):
    shapes = draw(hnp.mutually_broadcastable_shapes(
        num_shapes=3, max_dims=3, max_side=3)).input_shapes
    return (F.where, tuple(draw(operand(s)) for s in shapes), {})


@st.composite
def masked_fill_case(draw):
    x_shape, mask_shape = draw(hnp.mutually_broadcastable_shapes(
        num_shapes=2, max_dims=3, max_side=3)).input_shapes
    return (F.masked_fill, (draw(operand(x_shape)),
                            draw(operand(mask_shape, (fw.bool_,))),
                            draw(st.sampled_from([1.5, -2, 0.0]))), {})


@st.composite
def two_dims_case(draw, fn):
    x = draw(operand(draw(shape(min_dims=1))))
    ndim = len(x.shape)
    return (fn, (x, draw(dim_of(ndim)), draw(dim_of(ndim))), {})


@st.composite
def pool_case(draw):
    x = draw(operand((2, 1) + draw(shape(min_dims=1, max_dims=2)), FLOAT))
    return (F.adaptive_avg_pool2d, (x,), {})


@st.composite
def reshape_case(draw):
    x = draw(operand(draw(shape()), ALL))
    target = list(draw(shape(max_dims=4)))
    if draw(st.booleans()):
        numel = int(np.prod(x.shape))
        target = [d for d in target if numel % d == 0][:2]
        rest = numel // int(np.prod(target)) if target else numel
        target.insert(draw(st.integers(0, len(target))),
                      -1 if draw(st.booleans()) else rest)
    return (F.reshape, (x, tuple(target)), {})


@st.composite
def permute_case(draw):
    x = draw(operand(draw(shape()), ALL))
    dims = list(draw(st.permutations(range(len(x.shape)))))
    if dims and draw(st.integers(0, 4)) == 0:
        dims[0] = dims[-1]  # a repeated axis
    if draw(st.integers(0, 6)) == 0:
        dims.append(0)  # one too many
    return (F.permute, (x, tuple(dims)), {})


@st.composite
def expand_case(draw):
    x = draw(operand(draw(shape()), ALL))
    lead = draw(shape(max_dims=2))
    target = tuple(lead) + tuple(
        draw(st.sampled_from([-1, s, 3])) if s == 1 else
        draw(st.sampled_from([-1, s, s, 2])) for s in x.shape)
    return (F.expand, (x, target), {})


@st.composite
def getitem_case(draw):
    x = draw(operand(draw(shape(min_dims=1)), ALL))
    parts = []
    for size in x.shape:
        kind = draw(st.sampled_from(["slice", "int", "all", "array",
                                     "tensor"]))
        if kind == "slice":
            start = draw(st.integers(-size, size))
            parts.append(slice(start, draw(st.integers(-size, size + 1))))
        elif kind == "int":
            parts.append(draw(st.integers(-size, size - 1)))
        elif kind == "all":
            parts.append(slice(None))
        elif kind == "array":
            parts.append(np.asarray(draw(st.lists(
                st.integers(-size, size - 1), min_size=1, max_size=3))))
        else:
            parts.append(draw(operand((draw(st.integers(1, 3)),), (fw.int64,),
                                      high=size)))
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))),
                     draw(st.sampled_from([None, Ellipsis])))
    if draw(st.integers(0, 5)) == 0:
        parts = parts[:1]
    index = tuple(parts) if len(parts) != 1 or draw(st.booleans()) \
        else parts[0]
    return (F.getitem, (x, index), {})


@st.composite
def cat_case(draw, fn):
    base = list(draw(shape(min_dims=1)))
    dim = draw(st.integers(-len(base), len(base) - 1))
    tensors = []
    for _ in range(draw(st.integers(1, 3))):
        each = list(base)
        if fn is F.cat:
            each[dim] = draw(st.integers(1, 3))
        if draw(st.integers(0, 9)) == 0:
            each[0] += 1  # a mismatched size
        tensors.append(draw(operand(tuple(each), ALL)))
    return (fn, (tensors, dim), {})


@st.composite
def split_case(draw, fn):
    x = draw(operand(draw(shape(min_dims=1)), ALL))
    size = draw(st.integers(1, 4))
    if fn is F.split and draw(st.booleans()):
        size = [1, x.shape[0] - 1] if x.shape[0] > 1 else [1]
        return (fn, (x, size, 0), {})
    return (fn, (x, size, draw(dim_of(len(x.shape)))), {})


@st.composite
def matmul_case(draw):
    m, k, n = (draw(st.integers(1, 3)) for _ in range(3))
    batch = draw(shape(max_dims=2, max_side=2))
    a_shape = draw(st.sampled_from([(k,), (m, k), batch + (m, k)]))
    b_shape = draw(st.sampled_from([(k,), (k, n), batch[-1:] + (k, n)]))
    if draw(st.integers(0, 9)) == 0:
        b_shape = draw(shape())
    return (F.matmul, (draw(operand(a_shape)), draw(operand(b_shape))), {})


@st.composite
def linear_case(draw):
    i, o = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from(FLOAT))
    x = draw(operand(draw(shape(min_dims=0, max_dims=2)) + (i,), (dtype,)))
    w = draw(operand((o, i), (dtype,)))
    dtypes = ALL if draw(st.integers(0, 7)) == 0 else (dtype,)
    bias = draw(maybe(operand((o,), dtypes)))
    return (F.linear, (x, w, bias), {})


def maybe(arg):
    return st.one_of(st.none(), arg)


@st.composite
def norm_case(draw, fn):
    x_shape = draw(shape(min_dims=1))
    dtypes = draw(st.sampled_from([FLOAT, ALL]))
    x = draw(operand(x_shape, dtypes))
    if fn is F.rms_norm:
        return (fn, (x, draw(operand(x_shape[-1:], dtypes))), {})
    normalized = x_shape[-draw(st.integers(1, len(x_shape))):]
    affine = maybe(operand(normalized, dtypes))
    return (fn, (x, normalized, draw(affine), draw(affine)), {})


@st.composite
def batch_norm_case(draw):
    n, c, h, w = (draw(st.integers(1, 3)) for _ in range(4))
    x_shape = draw(st.sampled_from([(n, c, h, w), (n, c)]))
    dtype = draw(st.sampled_from(FLOAT))
    affine = maybe(operand((c,), (dtype,)))
    return (F.batch_norm, (draw(operand(x_shape, (dtype,))),
                           Arg((c,), fw.float32, seed=1),
                           Arg((c,), fw.float32, seed=2),
                           draw(affine), draw(affine)),
            {"training": draw(st.booleans())})


@st.composite
def embedding_case(draw):
    vocab, hidden = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    ids = draw(operand(draw(shape()), (fw.int64,), high=vocab))
    return (F.embedding, (ids, draw(operand((vocab, hidden), FLOAT))), {})


@st.composite
def cross_entropy_case(draw):
    n, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    logits_shape = draw(st.sampled_from([(n, c), (n, c), (n, c, 2)]))
    logits = draw(operand(logits_shape, FLOAT))
    return (F.cross_entropy, (logits, draw(operand((n,), (fw.int64,),
                                                    high=c))), {})


@st.composite
def conv_case(draw, fn):
    k = draw(st.integers(1, 3))
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    h, w = draw(st.integers(k, 5)), draw(st.integers(k, 5))
    x = draw(operand((n, c, h, w), FLOAT))
    stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, k // 2))
    if fn is F.max_pool2d:
        return (fn, (x, k, stride, padding), {})
    weight = draw(operand((draw(st.integers(1, 3)), c, k, k), (x.dtype,)))
    bias = draw(maybe(operand((weight.shape[0],), (x.dtype,))))
    return (fn, (x, weight, bias, stride, padding), {})


@st.composite
def heads_case(draw, fn):
    heads = draw(st.integers(1, 3))
    if fn is F.split_heads:
        x_shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
                   heads * draw(st.integers(1, 2)) + draw(
                       st.sampled_from([0, 0, 0, 1])))
        return (fn, (draw(operand(x_shape, ALL)), heads), {})
    return (fn, (draw(operand(draw(shape(min_dims=4, max_dims=4)), ALL)),),
            {})


GRAMMAR = {
    "add": binary(F.add), "sub": binary(F.sub), "mul": binary(F.mul),
    "div": binary(F.div), "maximum": binary(F.maximum),
    "minimum": binary(F.minimum), "eq": binary(F.eq), "ne": binary(F.ne),
    "lt": binary(F.lt), "gt": binary(F.gt),
    "where": where_case(), "masked_fill": masked_fill_case(),
    "neg": unary(F.neg), "exp": unary(F.exp), "log": unary(F.log),
    "sqrt": unary(F.sqrt), "rsqrt": unary(F.rsqrt), "tanh": unary(F.tanh),
    "sigmoid": unary(F.sigmoid), "relu": unary(F.relu),
    "gelu": unary(F.gelu), "silu": unary(F.silu), "clone": unary(F.clone),
    "pow": unary(F.pow, extra=(st.sampled_from([2, 0.5, -1.0, 3.0]),)),
    "cast": unary(F.cast, extra=(st.sampled_from(ALL),)),
    "dropout": unary(F.dropout, FLOAT,
                     extra=(st.sampled_from([0.0, 0.5]), st.booleans())),
    "reshape": reshape_case(), "permute": permute_case(),
    "expand": expand_case(), "getitem": getitem_case(),
    "flatten": two_dims_case(F.flatten),
    "transpose": two_dims_case(F.transpose),
    "unsqueeze": with_dim(F.unsqueeze), "squeeze": with_dim(F.squeeze),
    "cat": cat_case(F.cat), "stack": cat_case(F.stack),
    "split": split_case(F.split), "chunk": split_case(F.chunk),
    "sum": reduction(F.sum), "mean": reduction(F.mean),
    "max": reduction(F.max), "var": reduction(F.var),
    "argmax": reduction(F.argmax, keepdim=False),
    "softmax": with_dim(F.softmax), "log_softmax": with_dim(F.log_softmax),
    "matmul": matmul_case(), "linear": linear_case(),
    "layer_norm": norm_case(F.layer_norm), "rms_norm": norm_case(F.rms_norm),
    "batch_norm": batch_norm_case(), "embedding": embedding_case(),
    "cross_entropy": cross_entropy_case(),
    "mse_loss": binary(F.mse_loss, FLOAT),
    "conv2d": conv_case(F.conv2d), "max_pool2d": conv_case(F.max_pool2d),
    "adaptive_avg_pool2d": pool_case(),
    "split_heads": heads_case(F.split_heads),
    "merge_heads": heads_case(F.merge_heads),
    "position_ids": unary(F.position_ids),
    "apply_causal_mask": unary(F.apply_causal_mask, FLOAT),
}

#: Traceable ops the grammar leaves out, and why.
EXCLUDED: dict[str, str] = {}


def test_every_traceable_op_is_in_the_grammar_or_excluded():
    ops = {name for name in dir(F)
           if hasattr(getattr(F, name), "__wrapped_op__")}
    assert not set(GRAMMAR) & set(EXCLUDED)
    assert ops == set(GRAMMAR) | set(EXCLUDED), \
        sorted(ops ^ (set(GRAMMAR) | set(EXCLUDED)))


def _outputs(out):
    return list(out) if isinstance(out, (tuple, list)) else [out]


def _event(op):
    return (op.name, op.out_shape, op.dtype_name, op.flops, op.bytes_moved,
            op.kernel, op.saved_bytes)


def _run(fn, args, kwargs, device):
    """(exception type or None, outputs, recorded events) on ``device``."""
    args, kwargs = _build(args, device), _build(kwargs, device)
    recorder = TraceRecorder()
    with events.recording(recorder), np.errstate(all="ignore"):
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - compared across paths
            return type(exc), None, None
    return None, _outputs(out), [_event(op) for op in recorder.finish().ops]


def _closure_bytes(outputs) -> int:
    """Bytes the eager tape nodes behind ``outputs`` keep, each buffer once."""
    owners, seen, visited = {}, set(), set()
    stack = [t.grad_fn for t in outputs if t.grad_fn is not None]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        for array in _closure_arrays(node.backward_fn, seen):
            owners.setdefault(id(_owner(array)), _owner(array))
        stack.extend(e for e in node.edges
                     if isinstance(e, autograd.GradNode))
    return sum(owner.nbytes for owner in owners.values())


def check_op(fn, args, kwargs=None):
    """Run one call on both paths and assert they agree."""
    kwargs = kwargs or {}
    eager_exc, eager, eager_events = _run(fn, args, kwargs, "cpu")
    meta_exc, meta, meta_events = _run(fn, args, kwargs, "meta")
    assert meta_exc == eager_exc, (meta_exc, eager_exc)
    if eager_exc is not None:
        return
    assert [(tuple(t.shape), t.dtype) for t in meta] == \
        [(tuple(t.shape), t.dtype) for t in eager]
    assert all(t.is_meta for t in meta)
    assert meta_events == eager_events
    if any(t.grad_fn is not None for t in eager):
        declared = sum(event[-1] for event in meta_events)
        assert declared == _closure_bytes(eager)


@pytest.mark.parametrize("name", sorted(GRAMMAR))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_meta_and_eager_agree(name, data):
    fn, args, kwargs = data.draw(GRAMMAR[name], label=name)
    check_op(fn, args, kwargs)


# Each call below once passed on one path and not the other, or recorded
# different events on the two.
_X1 = Arg((4,), fw.float32)
_BOOL = Arg((3,), fw.bool_)


@pytest.mark.parametrize("fn,args,error", [
    (F.argmax, (Arg((2, 3), fw.float32), (0, 1)), TypeError),
    (F.sum, (_X1, (0, -1)), ValueError),
    (F.mean, (_X1, (0, -1)), ValueError),
    (F.max, (_X1, (0, -1)), ValueError),
    (F.var, (_X1, (0, -1)), ValueError),
    (F.neg, (_BOOL,), TypeError),
    (F.sub, (_BOOL, _BOOL), TypeError),
], ids=["argmax", "sum", "mean", "max", "var", "neg", "sub"])
def test_both_paths_refuse(fn, args, error):
    for device in ("cpu", "meta"):
        with pytest.raises(error):
            fn(*_build(args, device))
    check_op(fn, args)


@pytest.mark.parametrize("fn,args,kwargs", [
    (F.embedding, (Arg((2, 3), fw.int64, high=4), Arg((4, 8), fw.float32)),
     {}),
    (F.dropout, (Arg((4, 8), fw.float32), 0.0), {}),
    (F.getitem, (Arg((4, 8), fw.float32), (slice(1, 3),)), {}),
    (F.dropout, (Arg((), fw.float32), 0.5), {}),
], ids=["embedding", "dropout", "getitem", "dropout-0d"])
def test_both_paths_record_the_same_event(fn, args, kwargs):
    check_op(fn, args, kwargs)


def test_integer_division_is_true_division():
    a, b = Tensor(np.array([7, 5])), Tensor(np.array([2, 2]))
    out = F.div(a, b)
    assert out.dtype == fw.float32
    np.testing.assert_array_equal(out.numpy(), [3.5, 2.5])
    check_op(F.div, (Arg((2,), fw.int64), Arg((2,), fw.int64)))


def test_a_meta_clone_records_the_clone():
    recorder = TraceRecorder()
    with events.recording(recorder):
        Tensor.meta((2, 3)).clone()
    assert [op.name for op in recorder.finish().ops] == ["clone"]
    check_op(lambda x: x.clone(), (Arg((2, 3), fw.float16),))
