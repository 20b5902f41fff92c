"""Differentiable functional ops.

Every op in this module follows the same protocol:

1. **Proxy dispatch** — if any argument is an ``repro.fx`` Proxy, the op
   records a ``call_function`` node instead of computing (this is how the
   symbolic tracer sees through model code without patching).
2. **Meta path** — if any tensor argument is on the meta device, only shape
   inference runs and a kernel event is reported to the simulator.
3. **Eager path** — numpy compute, simulator event, and a tape node for
   reverse-mode autodiff.

Ops accept plain Python scalars and numpy arrays wherever a tensor is
expected, coercing via :func:`repro.framework.tensor.astensor`.
"""

from __future__ import annotations

import builtins
import functools
import math
from typing import Sequence

import numpy as np

from . import dtype as dtypes, events, random as frandom
from .autograd import (GradNode, check_finite, is_anomaly_enabled,
                       is_grad_enabled, unbroadcast)
from .dtype import DType, promote
from .tensor import Tensor, astensor

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------- #
# Dispatch plumbing
# ---------------------------------------------------------------------- #
def _find_proxy(*values):
    """Return the first fx Proxy found (searching nested tuples/lists)."""
    for value in values:
        if getattr(value, "is_fx_proxy", False):
            return value
        if isinstance(value, (tuple, list)):
            found = _find_proxy(*value)
            if found is not None:
                return found
        elif isinstance(value, dict):
            found = _find_proxy(*value.values())
            if found is not None:
                return found
    return None


def traceable(fn):
    """Make an op visible to the symbolic tracer as a ``call_function``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        proxy = _find_proxy(args, kwargs)
        if proxy is not None:
            return proxy.tracer.create_proxy(
                "call_function", wrapper, args, kwargs
            )
        return fn(*args, **kwargs)

    wrapper.__wrapped_op__ = fn
    return wrapper


def traceable_mutating(writes: tuple, is_mutating):
    """Like :func:`traceable`, but calls that will mutate their arguments
    trace to an explicit ``mutate`` marker node instead of a plain
    ``call_function`` — the mutation stays visible to graph passes (see
    :mod:`repro.fx.functionalize`).  ``writes`` names the mutated argument
    positions; ``is_mutating(*args, **kwargs)`` decides per call site.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            proxy = _find_proxy(args, kwargs)
            if proxy is not None:
                if is_mutating(*args, **kwargs):
                    from repro.fx.functionalize import mutate  # late: cycle
                    return proxy.tracer.create_proxy(
                        "call_function", mutate, (wrapper, *args),
                        {**kwargs, "_writes": writes})
                return proxy.tracer.create_proxy(
                    "call_function", wrapper, args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped_op__ = fn
        wrapper.__mutates__ = writes
        wrapper.__is_mutating__ = is_mutating
        return wrapper

    return decorate


def _batch_norm_mutates(x, running_mean=None, running_var=None, weight=None,
                        bias=None, training=False, momentum=0.1, eps=1e-5):
    """Train-mode batch norm writes its running-stat buffers."""
    if running_mean is None and running_var is None:
        return False
    if getattr(training, "is_fx_proxy", False):
        return True  # not statically known at trace time: assume writes
    return bool(training)


def _any_meta(*tensors) -> bool:
    return any(t.is_meta for t in tensors if isinstance(t, Tensor))


def _nbytes(shape, dtype: DType) -> int:
    n = 1
    for s in shape:
        n *= s
    return n * dtype.itemsize


def _numel(shape) -> int:
    n = 1
    for s in shape:
        n *= s
    return n


def _finalize(name, data, inputs, backward_fn, dtype=None, flops=0,
              bytes_moved=None, meta=None):
    """Wrap raw output data into a tensor with event + tape bookkeeping.

    The event payload is only built when a recorder is installed, and the
    finiteness check only runs under :func:`~.autograd.detect_anomaly`.
    """
    out = Tensor(data, dtype=dtype)
    if is_anomaly_enabled():
        check_finite(out.data, f"op {name!r}")
    recorder = events.get_recorder()
    if recorder is not None:
        if bytes_moved is None:
            bytes_moved = out.nbytes + builtins.sum(
                t.nbytes for t in inputs if isinstance(t, Tensor)
            )
        recorder.record_op(name, tuple(out.shape), out.dtype, flops,
                           bytes_moved, meta)
    if is_grad_enabled() and any(
        isinstance(t, Tensor) and (t.requires_grad or t.grad_fn is not None)
        for t in inputs
    ):
        tensor_inputs = tuple(t if isinstance(t, Tensor) else None for t in inputs)
        out.grad_fn = GradNode(name, tensor_inputs, backward_fn)
        out.requires_grad = True
    return out


def _meta_result(name, shape, dtype, inputs, flops=0, bytes_moved=None,
                 meta=None, saved=(), saves_out=False):
    """Report a meta op and return its storage-less output.

    ``saved`` declares what the eager op's backward closure keeps: tensors
    (or numpy arrays) whose storage it holds, and ints for the bytes of
    buffers the op allocates for it; ``saves_out`` adds the output.  The
    declaration reaches the recorder as ``meta["saved"]``.
    """
    if bytes_moved is None:
        bytes_moved = _nbytes(shape, dtype) + builtins.sum(
            t.nbytes for t in inputs if isinstance(t, Tensor)
        )
    out = Tensor.meta(shape, dtype)
    if saved or saves_out:
        meta = {**(meta or {}),
                "saved": (*saved, out) if saves_out else tuple(saved)}
    events.record_op(name, tuple(shape), dtype, flops, bytes_moved, meta)
    return out


def _f32(t):
    """What ``t.data.astype(np.float32, copy=False)`` keeps: ``t`` itself
    when it is fp32, else the bytes of a fresh fp32 copy."""
    return t if t.dtype == dtypes.float32 else 4 * t.numel()


def _view(out, x, strided=False):
    """Mark meta ``out`` as a numpy view of ``x``'s storage, as the eager
    op returns one; ``strided`` when it is no longer C-contiguous."""
    out._base = getattr(x, "_base", x)
    out._strided = strided or getattr(x, "_strided", False)
    return out


def buffer_owner(item):
    """The tensor or array owning the buffer a tensor or array keeps alive.

    A meta view points at its source through ``_base``; a real array is
    followed to the array owning its memory.
    """
    if isinstance(item, Tensor):
        if item.is_meta:
            return getattr(item, "_base", item)
        item = item.data
    while isinstance(item.base, np.ndarray):
        item = item.base
    return item


def _reshape_views(x, shape) -> bool:
    """Whether numpy's reshape of ``x``'s data to ``shape`` is a view: a
    contiguous source, or only size-1 axes added or dropped."""
    return not getattr(x, "_strided", False) or \
        [s for s in shape if s != 1] == [s for s in x.shape if s != 1]


# ---------------------------------------------------------------------- #
# Elementwise binary ops
# ---------------------------------------------------------------------- #
def _binary(name, a, b, fwd, bwd_a, bwd_b, saves="", flops_per_elem=1):
    """An elementwise op of two operands.

    ``bwd_a`` and ``bwd_b`` map ``(grad, x, y, out)`` to the gradient of
    ``a`` and ``b``.  ``saves`` names the arrays they read (``"xy"``,
    ``"o"``, ...): only those are kept for backward, the others reach the
    formulas as None.
    """
    # Python-number operands adopt the tensor's dtype (torch's scalar
    # promotion): x_fp16 / 8.0 stays fp16.
    if isinstance(a, Tensor) and isinstance(b, (bool, int, float)):
        b = astensor(b, dtype=a.dtype if a.dtype.is_floating else None)
    elif isinstance(b, Tensor) and isinstance(a, (bool, int, float)):
        a = astensor(a, dtype=b.dtype if b.dtype.is_floating else None)
    a, b = astensor(a), astensor(b)
    out_dtype = promote(a.dtype, b.dtype)
    if _any_meta(a, b):
        shape = np.broadcast_shapes(tuple(a.shape), tuple(b.shape))
        return _meta_result(name, shape, out_dtype, (a, b),
                            flops=_numel(shape) * flops_per_elem,
                            saved=[t for c, t in (("x", a), ("y", b))
                                   if c in saves],
                            saves_out="o" in saves)
    data = fwd(a.data, b.data)
    x = a.data if "x" in saves else None
    y = b.data if "y" in saves else None
    o = data if "o" in saves else None
    a_shape, b_shape = tuple(a.shape), tuple(b.shape)

    def backward(grad):
        ga = unbroadcast(bwd_a(grad, x, y, o), a_shape) if bwd_a else None
        gb = unbroadcast(bwd_b(grad, x, y, o), b_shape) if bwd_b else None
        return (ga, gb)

    return _finalize(name, data, (a, b), backward, dtype=out_dtype,
                     flops=data.size * flops_per_elem)


@traceable
def add(a, b):
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y, o: g, lambda g, x, y, o: g)


@traceable
def sub(a, b):
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y, o: g, lambda g, x, y, o: -g)


@traceable
def mul(a, b):
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g, x, y, o: g * y, lambda g, x, y, o: g * x,
                   saves="xy")


@traceable
def div(a, b):
    return _binary("div", a, b, lambda x, y: x / y,
                   lambda g, x, y, o: g / y,
                   lambda g, x, y, o: -g * x / (y * y), saves="xy")


@traceable
def maximum(a, b):
    return _binary("maximum", a, b, np.maximum,
                   lambda g, x, y, o: g * (x >= y),
                   lambda g, x, y, o: g * (y > x), saves="xy")


@traceable
def minimum(a, b):
    return _binary("minimum", a, b, np.minimum,
                   lambda g, x, y, o: g * (x <= y),
                   lambda g, x, y, o: g * (y < x), saves="xy")


# Comparison ops: no gradients, bool outputs.
def _compare(name, a, b, fwd):
    a, b = astensor(a), astensor(b)
    if _any_meta(a, b):
        shape = np.broadcast_shapes(tuple(a.shape), tuple(b.shape))
        return _meta_result(name, shape, dtypes.bool_, (a, b))
    data = fwd(a.data, b.data)
    out = Tensor(data, dtype=dtypes.bool_)
    events.record_op(name, tuple(out.shape), dtypes.bool_, 0,
                     out.nbytes + a.nbytes + b.nbytes, None)
    return out


@traceable
def eq(a, b):
    return _compare("eq", a, b, np.equal)


@traceable
def ne(a, b):
    return _compare("ne", a, b, np.not_equal)


@traceable
def lt(a, b):
    return _compare("lt", a, b, np.less)


@traceable
def gt(a, b):
    return _compare("gt", a, b, np.greater)


# ---------------------------------------------------------------------- #
# Elementwise unary ops
# ---------------------------------------------------------------------- #
def _unary(name, x, fwd, bwd, saves="", flops_per_elem=1):
    """An elementwise op of one operand.

    ``bwd`` maps ``(grad, v, out)`` to the input gradient; ``saves`` names
    the arrays it reads (``"v"``, ``"o"``, ``"vo"``): only those are kept
    for backward, the others reach it as None.
    """
    x = astensor(x)
    if x.is_meta:
        return _meta_result(name, tuple(x.shape), x.dtype, (x,),
                            flops=x.numel() * flops_per_elem,
                            saved=(x,) if "v" in saves else (),
                            saves_out="o" in saves)
    data = fwd(x.data)
    v = x.data if "v" in saves else None
    o = data if "o" in saves else None

    def backward(grad):
        return (bwd(grad, v, o),)

    return _finalize(name, data, (x,), backward, dtype=x.dtype,
                     flops=data.size * flops_per_elem)


@traceable
def neg(x):
    return _unary("neg", x, lambda v: -v, lambda g, v, o: -g)


@traceable
def exp(x):
    return _unary("exp", x, np.exp, lambda g, v, o: g * o, saves="o",
                  flops_per_elem=4)


@traceable
def log(x):
    return _unary("log", x, np.log, lambda g, v, o: g / v, saves="v",
                  flops_per_elem=4)


@traceable
def sqrt(x):
    return _unary("sqrt", x, np.sqrt, lambda g, v, o: g / (2 * o),
                  saves="o", flops_per_elem=2)


@traceable
def rsqrt(x):
    return _unary("rsqrt", x, lambda v: 1.0 / np.sqrt(v),
                  lambda g, v, o: -0.5 * g * o / v, saves="vo",
                  flops_per_elem=3)


@traceable
def pow(x, exponent):
    if not isinstance(exponent, (int, float)):
        raise TypeError("pow: only scalar exponents are supported")
    return _unary(
        "pow", x,
        lambda v: v ** exponent,
        lambda g, v, o: g * exponent * v ** (exponent - 1),
        saves="v", flops_per_elem=4,
    )


@traceable
def tanh(x):
    return _unary("tanh", x, np.tanh, lambda g, v, o: g * (1 - o * o),
                  saves="o", flops_per_elem=6)


@traceable
def sigmoid(x):
    return _unary(
        "sigmoid", x,
        lambda v: 1.0 / (1.0 + np.exp(-v.astype(np.float32))).astype(v.dtype),
        lambda g, v, o: g * o * (1 - o),
        saves="o", flops_per_elem=4,
    )


@traceable
def relu(x):
    return _unary("relu", x, lambda v: np.maximum(v, 0),
                  lambda g, v, o: g * (v > 0), saves="v")


#: Float32 ``erf(x) ≈ x·P(x²)/Q(x²)`` on ``x`` clamped to [-4, 4] (the
#: rational approximation of Eigen and XLA): max abs error 4.5e-7 against
#: ``math.erf``, odd by construction, clipped to [-1, 1]; beyond ±4 erf
#: rounds to ±1 in float32.
#: Coefficients highest power first.
_ERF_P = np.array([-2.72614225801306e-10, 2.77068142495902e-08,
                   -2.10102402082508e-06, -5.69250639462346e-05,
                   -7.34990630326855e-04, -2.95459980854025e-03,
                   -1.60960333262415e-02], np.float32)
_ERF_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04,
                   -1.68282697438203e-03, -7.37332916720468e-03,
                   -1.42647390514189e-02], np.float32)
#: Elements per chunk: 256 KB of float32, so a chunk and its scratch stay
#: in L2 while each NumPy call still does enough work to amortise its
#: dispatch.
_ERF_CHUNK = 1 << 16


def _chunks(n: int):
    """Slices of ``range(n)``, ``_ERF_CHUNK`` elements each."""
    return (slice(start, start + _ERF_CHUNK)
            for start in range(0, n, _ERF_CHUNK))


def _horner(s: np.ndarray, coefs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = coefs(s)``, the polynomial evaluated by Horner's rule."""
    np.multiply(s, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= s
        out += c
    return out


def _erf_chunk(x: np.ndarray, sq: np.ndarray, acc: np.ndarray) -> None:
    """Overwrite the float32 array ``x`` with ``erf(x)``; ``sq`` and
    ``acc`` are float32 scratch of its size, clobbered."""
    np.clip(x, -4.0, 4.0, out=x)  # NaN stays NaN, ±inf becomes ±4
    np.multiply(x, x, out=sq)
    x *= _horner(sq, _ERF_P, acc)
    x /= _horner(sq, _ERF_Q, acc)
    np.clip(x, -1.0, 1.0, out=x)  # the rational overshoots 1 by 4e-7


def _erf(v: np.ndarray) -> np.ndarray:
    """``erf(v)`` evaluated in float32, returned in ``v``'s dtype."""
    out = np.array(v, dtype=np.float32, order="C")
    flat = out.reshape(-1)
    sq, acc = np.empty((2, min(flat.size, _ERF_CHUNK)), np.float32)
    for chunk in _chunks(flat.size):
        x = flat[chunk]
        _erf_chunk(x, sq[:x.size], acc[:x.size])
    return out.astype(v.dtype, copy=False)


def _gelu_fp32(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(0.5·v·(1 + erf(v/√2)), 1 + erf(v/√2))`` for float32 ``v``.

    Chunk by chunk, so one chunk of scratch is the only temporary: the
    output's chunk holds ``x²`` until the product overwrites it.  Rounds
    exactly as the whole-array expression does.
    """
    flat_v = np.ascontiguousarray(v).reshape(-1)
    out = np.empty(v.shape, np.float32)
    one_plus_erf = np.empty(v.shape, np.float32)
    flat_out, flat_erf = out.reshape(-1), one_plus_erf.reshape(-1)
    acc = np.empty(min(flat_v.size, _ERF_CHUNK), np.float32)
    for chunk in _chunks(flat_v.size):
        e, o = flat_erf[chunk], flat_out[chunk]
        np.multiply(flat_v[chunk], _INV_SQRT2, out=e)
        _erf_chunk(e, o, acc[:e.size])
        e += 1.0
        np.multiply(flat_v[chunk], 0.5, out=o)
        o *= e
    return out, one_plus_erf


@traceable
def gelu(x):
    """Exact (erf) GELU, matching HF BERT's default activation.

    ``erf`` is the in-repo float32 kernel ``_erf`` (max abs error 4.5e-7).
    For fp32 the forward's ``1 + erf(v / sqrt 2)`` is saved and reused by
    the backward.  Other dtypes recompute it in fp32 there: their forward
    ``erf`` is rounded to the input dtype, the backward's is not.
    """
    x = astensor(x)
    if x.is_meta:
        return _meta_result("gelu", tuple(x.shape), x.dtype, (x,),
                            flops=10 * x.numel(),
                            saved=(x, 4 * x.numel())
                            if x.dtype == dtypes.float32 else (x,))
    v = x.data
    if v.dtype == np.float32:
        data, saved = _gelu_fp32(v)
    else:
        one_plus_erf = 1.0 + _erf(v * _INV_SQRT2)
        data = (0.5 * v * one_plus_erf).astype(v.dtype, copy=False)
        saved = None

    def backward(grad):
        v32 = v.astype(np.float32, copy=False)
        if saved is None:
            cdf = _erf(v32 * _INV_SQRT2)
            cdf += 1.0
            cdf *= 0.5
        else:
            cdf = 0.5 * saved
        pdf = -0.5 * v32
        pdf *= v32
        np.exp(pdf, out=pdf)
        pdf /= math.sqrt(2 * math.pi)
        pdf *= v32
        pdf += cdf
        if np.result_type(grad, pdf) != pdf.dtype:
            return ((grad * pdf).astype(v.dtype, copy=False),)
        pdf *= grad
        return (pdf.astype(v.dtype, copy=False),)

    return _finalize("gelu", data, (x,), backward, dtype=x.dtype,
                     flops=10 * x.numel())


@traceable
def silu(x):
    """SiLU / swish, used by LLaMA's MLP."""

    def fwd(v):
        s = 1.0 / (1.0 + np.exp(-v.astype(np.float32, copy=False)))
        return (v * s.astype(v.dtype, copy=False)).astype(v.dtype, copy=False)

    def bwd(g, v, o):
        v32 = v.astype(np.float32, copy=False)
        s = 1.0 / (1.0 + np.exp(-v32))
        return (g * (s * (1 + v32 * (1 - s)))).astype(v.dtype, copy=False)

    return _unary("silu", x, fwd, bwd, saves="v", flops_per_elem=5)


@traceable
def cast(x, dtype: DType):
    x = astensor(x)
    if x.is_meta:
        return _meta_result("cast", tuple(x.shape), dtype, (x,))
    data = x.data.astype(dtype.np_dtype)
    src_dtype = x.dtype

    def backward(grad):
        return (grad.astype(src_dtype.np_dtype),)

    return _finalize("cast", data, (x,), backward, dtype=dtype)


@traceable
def clone(x):
    x = astensor(x)
    if x.is_meta:
        return _meta_result("clone", tuple(x.shape), x.dtype, (x,))
    return _finalize("clone", x.data.copy(), (x,), lambda g: (g,),
                     dtype=x.dtype)


@traceable
def where(cond, a, b):
    cond, a, b = astensor(cond), astensor(a), astensor(b)
    out_dtype = promote(a.dtype, b.dtype)
    if _any_meta(cond, a, b):
        shape = np.broadcast_shapes(tuple(cond.shape), tuple(a.shape),
                                    tuple(b.shape))
        return _meta_result("where", shape, out_dtype, (cond, a, b),
                            saved=(cond,))
    data = np.where(cond.data, a.data, b.data)
    mask, a_shape, b_shape = cond.data, tuple(a.shape), tuple(b.shape)

    def backward(grad):
        return (None,
                unbroadcast(grad * mask, a_shape),
                unbroadcast(grad * ~mask, b_shape))

    return _finalize("where", data, (cond, a, b), backward, dtype=out_dtype)


def _fill_value(value, dtype: np.dtype) -> np.ndarray:
    """``value`` as a 0-d array of ``dtype``.  A finite value that
    overflows it raises ``OverflowError``, as torch's ``masked_fill``
    does, instead of silently becoming ``±inf``."""
    with np.errstate(over="ignore"):
        fill = np.asarray(value, dtype)
    if fill.dtype.kind == "f" and np.isinf(fill) and np.isfinite(value):
        raise OverflowError(
            f"fill value {value!r} overflows {dtype.name} (finite range "
            f"±{np.finfo(dtype).max}); use np.finfo({dtype.name}).min to "
            "mask with the most negative finite value")
    return fill


@traceable
def masked_fill(x, mask, value):
    x, mask = astensor(x), astensor(mask)
    fill = _fill_value(value, x.dtype.np_dtype)
    if _any_meta(x, mask):
        shape = np.broadcast_shapes(tuple(x.shape), tuple(mask.shape))
        return _meta_result("masked_fill", shape, x.dtype, (x, mask),
                            saved=(mask.numel(),))
    mask_b = np.broadcast_to(mask.data.astype(bool), x.data.shape)
    data = np.where(mask_b, fill, x.data)

    def backward(grad):
        return (np.where(mask_b, 0, grad), None)

    return _finalize("masked_fill", data, (x, mask), backward, dtype=x.dtype)


# ---------------------------------------------------------------------- #
# Shape ops
# ---------------------------------------------------------------------- #
def _resolve_shape(shape, numel: int) -> tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if shape.count(-1) > 1:
        raise ValueError("only one dimension can be inferred")
    if -1 in shape:
        known = 1
        for s in shape:
            if s != -1:
                known *= s
        shape = tuple(numel // known if s == -1 else s for s in shape)
    return shape


@traceable
def reshape(x, shape):
    x = astensor(x)
    new_shape = _resolve_shape(shape, x.numel())
    if x.is_meta:
        out = _meta_result("reshape", new_shape, x.dtype, (x,), bytes_moved=0)
        return _view(out, x) if _reshape_views(x, new_shape) else out
    old_shape = tuple(x.shape)
    data = x.data.reshape(new_shape)

    def backward(grad):
        return (grad.reshape(old_shape),)

    return _finalize("reshape", data, (x,), backward, dtype=x.dtype,
                     bytes_moved=0)


@traceable
def flatten(x, start_dim: int = 0, end_dim: int = -1):
    x = astensor(x)
    nd = x.ndim
    start = start_dim % nd
    end = end_dim % nd
    shape = tuple(x.shape)
    merged = 1
    for s in shape[start:end + 1]:
        merged *= s
    return reshape(x, shape[:start] + (merged,) + shape[end + 1:])


@traceable
def transpose(x, dim0: int, dim1: int):
    x = astensor(x)
    nd = x.ndim
    dim0, dim1 = dim0 % nd, dim1 % nd
    perm = list(range(nd))
    perm[dim0], perm[dim1] = perm[dim1], perm[dim0]
    return permute(x, tuple(perm))


@traceable
def permute(x, dims):
    x = astensor(x)
    dims = tuple(d % x.ndim for d in dims)
    if x.is_meta:
        shape = tuple(x.shape[d] for d in dims)
        moved = [d for d in dims if x.shape[d] != 1]
        return _view(_meta_result("permute", shape, x.dtype, (x,),
                                  bytes_moved=2 * x.nbytes),
                     x, strided=moved != sorted(moved))
    inverse = tuple(np.argsort(dims))
    data = np.transpose(x.data, dims)

    def backward(grad):
        return (np.transpose(grad, inverse),)

    return _finalize("permute", data, (x,), backward, dtype=x.dtype,
                     bytes_moved=2 * x.nbytes)


@traceable
def unsqueeze(x, dim: int):
    x = astensor(x)
    shape = list(x.shape)
    dim = dim % (len(shape) + 1)
    shape.insert(dim, 1)
    return reshape(x, tuple(shape))


@traceable
def squeeze(x, dim: int):
    x = astensor(x)
    shape = list(x.shape)
    dim = dim % len(shape)
    if shape[dim] != 1:
        raise ValueError(f"squeeze: dim {dim} has size {shape[dim]} != 1")
    del shape[dim]
    return reshape(x, tuple(shape))


@traceable
def expand(x, shape):
    x = astensor(x)
    target = tuple(
        int(x.shape[i - (len(shape) - x.ndim)]) if s == -1 else int(s)
        for i, s in enumerate(shape)
    )
    if x.is_meta:
        return _meta_result("expand", target, x.dtype, (x,), bytes_moved=0)
    data = np.broadcast_to(x.data, target).copy()
    src_shape = tuple(x.shape)

    def backward(grad):
        return (unbroadcast(grad, src_shape),)

    return _finalize("expand", data, (x,), backward, dtype=x.dtype)


_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))


def _is_basic_index(index) -> bool:
    """True when ``index`` selects a view: ints, slices, None, Ellipsis."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(isinstance(p, _BASIC_INDEX) and not isinstance(p, bool)
               for p in parts)


def _unwrap_index(index):
    """Replace framework tensors inside ``index`` by numpy arrays.

    A meta integer tensor stands in as zeros of its own shape (only the
    output shape is needed); a meta boolean mask has no such stand-in.
    """
    if isinstance(index, tuple):
        return tuple(_unwrap_index(part) for part in index)
    if not isinstance(index, Tensor):
        return index
    if not index.is_meta:
        return index.data
    if index.dtype == dtypes.bool_:
        raise TypeError(
            "getitem: a meta boolean-mask index makes the output shape "
            "data-dependent")
    return np.zeros(tuple(index.shape), dtype=np.intp)


def _index_is_meta(index) -> bool:
    parts = index if isinstance(index, tuple) else (index,)
    return any(isinstance(p, Tensor) and p.is_meta for p in parts)


@traceable
def getitem(x, index):
    if isinstance(x, dict):
        # Container passthrough: leaf modules may return pytree outputs
        # (e.g. an MoE routing dict) that traced code indexes by key.
        return x[index]
    x = astensor(x)
    if x.is_meta or _index_is_meta(index):
        # Infer the sliced shape with a zero-stride dummy array.
        dummy = np.broadcast_to(np.zeros(1, dtype=np.int8), tuple(x.shape))
        shape = dummy[_unwrap_index(index)].shape
        parts = index if isinstance(index, tuple) else (index,)
        return _meta_result("getitem", shape, x.dtype, (x,), bytes_moved=0,
                            saved=[p for p in parts
                                   if isinstance(p, (Tensor, np.ndarray))])
    index = _unwrap_index(index)
    basic = _is_basic_index(index)
    data = np.asarray(x.data[index])
    if np.may_share_memory(data, x.data):
        data = data.copy()  # a view: the output must not alias the input
    src_shape = tuple(x.shape)
    src_np_dtype = x.data.dtype

    def backward(grad):
        full = np.zeros(src_shape, dtype=src_np_dtype)
        if not basic:
            # Advanced indices may repeat an element: accumulate unbuffered.
            np.add.at(full, index, grad)
            return (full,)
        view = full[index]
        if isinstance(view, np.ndarray):
            view += grad
        else:  # an int on every axis: numpy returns a scalar, not a view
            full[index] = grad
        return (full,)

    return _finalize("getitem", data, (x,), backward, dtype=x.dtype,
                     bytes_moved=_nbytes(data.shape, x.dtype) * 2)


@traceable
def cat(tensors: Sequence, dim: int = 0):
    tensors = [astensor(t) for t in tensors]
    dim = dim % tensors[0].ndim
    if _any_meta(*tensors):
        shape = list(tensors[0].shape)
        shape[dim] = builtins.sum(t.shape[dim] for t in tensors)
        return _meta_result("cat", tuple(shape), tensors[0].dtype, tensors)
    data = np.concatenate([t.data for t in tensors], axis=dim)
    sizes = [t.shape[dim] for t in tensors]

    def backward(grad):
        pieces = np.split(grad, np.cumsum(sizes)[:-1], axis=dim)
        return tuple(pieces)

    return _finalize("cat", data, tuple(tensors), backward,
                     dtype=tensors[0].dtype)


@traceable
def stack(tensors: Sequence, dim: int = 0):
    tensors = [unsqueeze(astensor(t), dim) for t in tensors]
    return cat(tensors, dim)


@traceable
def split(x, split_size, dim: int = 0):
    """Split into equal chunks of ``split_size`` (or by a list of sizes)."""
    x = astensor(x)
    dim = dim % x.ndim
    total = x.shape[dim]
    if isinstance(split_size, int):
        sizes = [split_size] * (total // split_size)
        if total % split_size:
            sizes.append(total % split_size)
    else:
        sizes = list(split_size)
    outputs = []
    start = 0
    for size in sizes:
        index = tuple(
            slice(start, start + size) if d == dim else slice(None)
            for d in range(x.ndim)
        )
        outputs.append(getitem(x, index))
        start += size
    return tuple(outputs)


@traceable
def chunk(x, chunks: int, dim: int = 0):
    x = astensor(x)
    dim_size = x.shape[dim % x.ndim]
    size = -(-dim_size // chunks)  # ceil division, torch semantics
    return split(x, size, dim)


# ---------------------------------------------------------------------- #
# Reductions
# ---------------------------------------------------------------------- #
def _reduce_shape(shape, dim, keepdim):
    if dim is None:
        return () if not keepdim else tuple(1 for _ in shape)
    dims = (dim,) if isinstance(dim, int) else tuple(dim)
    dims = tuple(d % len(shape) for d in dims)
    if keepdim:
        return tuple(1 if i in dims else s for i, s in enumerate(shape))
    return tuple(s for i, s in enumerate(shape) if i not in dims)


@traceable
def sum(x, dim=None, keepdim: bool = False):
    x = astensor(x)
    if x.is_meta:
        shape = _reduce_shape(tuple(x.shape), dim, keepdim)
        return _meta_result("sum", shape, x.dtype, (x,), flops=x.numel())
    axis = dim if dim is None else (dim if isinstance(dim, int) else tuple(dim))
    data = x.data.sum(axis=axis, keepdims=keepdim)
    src_shape, src_np_dtype = tuple(x.shape), x.data.dtype

    def backward(grad):
        g = np.asarray(grad)
        if not keepdim and dim is not None:
            dims = (dim,) if isinstance(dim, int) else tuple(dim)
            for d in sorted(d % len(src_shape) for d in dims):
                g = np.expand_dims(g, d)
        return (np.broadcast_to(g, src_shape).astype(src_np_dtype),)

    return _finalize("sum", np.asarray(data), (x,), backward, dtype=x.dtype,
                     flops=x.numel())


@traceable
def mean(x, dim=None, keepdim: bool = False):
    x = astensor(x)
    if dim is None:
        count = x.numel()
    else:
        dims = (dim,) if isinstance(dim, int) else tuple(dim)
        count = 1
        for d in dims:
            count *= x.shape[d % x.ndim]
    return div(sum(x, dim, keepdim), float(count))


@traceable
def var(x, dim=None, keepdim: bool = False, unbiased: bool = False):
    x = astensor(x)
    centered = sub(x, mean(x, dim, keepdim=True))
    squared = mul(centered, centered)
    out = mean(squared, dim, keepdim)
    if unbiased:
        if dim is None:
            count = x.numel()
        else:
            dims = (dim,) if isinstance(dim, int) else tuple(dim)
            count = 1
            for d in dims:
                count *= x.shape[d % x.ndim]
        out = mul(out, count / builtins.max(count - 1, 1))
    return out


@traceable
def max(x, dim=None, keepdim: bool = False):
    x = astensor(x)
    if x.is_meta:
        shape = _reduce_shape(tuple(x.shape), dim, keepdim)
        return _meta_result("max", shape, x.dtype, (x,), flops=x.numel(),
                            saved=(x,), saves_out=dim is not None)
    data = x.data.max(axis=dim, keepdims=keepdim) if dim is not None \
        else x.data.max()
    src = x.data

    def backward(grad):
        if dim is None:
            mask = (src == src.max())
            return ((mask / mask.sum()) * grad,)
        expanded = np.asarray(data)
        g = np.asarray(grad)
        if not keepdim:
            expanded = np.expand_dims(expanded, dim)
            g = np.expand_dims(g, dim)
        mask = (src == expanded)
        counts = mask.sum(axis=dim, keepdims=True)
        return (mask / counts * g,)

    return _finalize("max", np.asarray(data), (x,), backward, dtype=x.dtype,
                     flops=x.numel())


@traceable
def argmax(x, dim=None):
    x = astensor(x)
    if x.is_meta:
        shape = _reduce_shape(tuple(x.shape), dim, False)
        return _meta_result("argmax", shape, dtypes.int64, (x,))
    data = np.argmax(x.data, axis=dim)
    out = Tensor(np.asarray(data), dtype=dtypes.int64)
    events.record_op("argmax", tuple(out.shape), dtypes.int64, x.numel(),
                     x.nbytes, None)
    return out


# ---------------------------------------------------------------------- #
# Linear algebra
# ---------------------------------------------------------------------- #
def _matmul_shape(a_shape, b_shape):
    if len(a_shape) < 1 or len(b_shape) < 1:
        raise ValueError("matmul requires at least 1-d operands")
    a_shape = (1,) + tuple(a_shape) if len(a_shape) == 1 else tuple(a_shape)
    b_shape = tuple(b_shape) + (1,) if len(b_shape) == 1 else tuple(b_shape)
    if a_shape[-1] != b_shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a_shape} @ {b_shape}")
    batch = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
    return batch + (a_shape[-2], b_shape[-1]), a_shape[-1]


@traceable
def matmul(a, b):
    a, b = astensor(a), astensor(b)
    out_dtype = promote(a.dtype, b.dtype)
    out_shape, k = _matmul_shape(tuple(a.shape), tuple(b.shape))
    flops = 2 * _numel(out_shape) * k
    if _any_meta(a, b):
        return _meta_result("matmul", out_shape, out_dtype, (a, b),
                            flops=flops, meta={"kernel": "gemm"},
                            saved=(a, b))
    x, y = a.data, b.data
    data = x @ y

    def backward(grad):
        b_t = np.swapaxes(y, -1, -2) if y.ndim >= 2 else y
        a_t = np.swapaxes(x, -1, -2) if x.ndim >= 2 else x
        ga = grad @ b_t if y.ndim >= 2 else np.outer(grad, y)
        gb = a_t @ grad if x.ndim >= 2 else np.outer(x, grad)
        return (unbroadcast(ga, x.shape), unbroadcast(gb, y.shape))

    return _finalize("matmul", data, (a, b), backward, dtype=out_dtype,
                     flops=flops, meta={"kernel": "gemm"})


@traceable
def linear(x, weight, bias=None):
    """``x @ weight.T + bias`` with torch's (out_features, in_features) layout."""
    x, weight = astensor(x), astensor(weight)
    out_features, in_features = weight.shape
    if x.shape[-1] != in_features:
        raise ValueError(
            f"linear: input dim {x.shape[-1]} != weight in_features {in_features}"
        )
    out_shape = tuple(x.shape[:-1]) + (out_features,)
    tokens = _numel(x.shape[:-1])
    flops = 2 * tokens * in_features * out_features
    if _any_meta(x, weight) or (bias is not None and astensor(bias).is_meta):
        x2d = x if _reshape_views(x, (tokens, in_features)) else x.nbytes
        return _meta_result("linear", out_shape, x.dtype,
                            (x, weight) + ((bias,) if bias is not None else ()),
                            flops=flops, meta={"kernel": "gemm"},
                            saved=(x2d, weight))
    x2d = x.data.reshape(-1, in_features)
    data = x2d @ weight.data.T
    if bias is not None:
        bias = astensor(bias)
        if bias.data.dtype == data.dtype:
            data += bias.data  # into the fresh GEMM output
        else:
            data = data + bias.data
    data = data.reshape(out_shape)
    w, x_shape, has_bias = weight.data, tuple(x.shape), bias is not None

    def backward(grad):
        g2d = grad.reshape(-1, out_features)
        gx = (g2d @ w).reshape(x_shape)
        gw = g2d.T @ x2d
        if has_bias:
            return (gx, gw, g2d.sum(axis=0))
        return (gx, gw)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _finalize("linear", data, inputs, backward, dtype=x.dtype,
                     flops=flops, meta={"kernel": "gemm"})


# ---------------------------------------------------------------------- #
# Normalisation / softmax
# ---------------------------------------------------------------------- #
@traceable
def softmax(x, dim: int = -1):
    x = astensor(x)
    if x.is_meta:
        return _meta_result("softmax", tuple(x.shape), x.dtype, (x,),
                            flops=5 * x.numel(), saves_out=True)
    v = x.data.astype(np.float32, copy=False)
    e = v - v.max(axis=dim, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=dim, keepdims=True)
    data = e.astype(x.data.dtype, copy=False)

    def backward(grad):
        y = data.astype(np.float32, copy=False)
        g = grad.astype(np.float32, copy=False)
        inner = (g * y).sum(axis=dim, keepdims=True)
        gx = g - inner
        gx *= y
        return (gx.astype(data.dtype, copy=False),)

    return _finalize("softmax", data, (x,), backward, dtype=x.dtype,
                     flops=5 * x.numel())


@traceable
def log_softmax(x, dim: int = -1):
    x = astensor(x)
    if x.is_meta:
        return _meta_result("log_softmax", tuple(x.shape), x.dtype, (x,),
                            flops=5 * x.numel(), saves_out=True)
    v = x.data.astype(np.float32, copy=False)
    v = v - v.max(axis=dim, keepdims=True)
    lse = np.log(np.exp(v).sum(axis=dim, keepdims=True))
    v -= lse
    data = v.astype(x.data.dtype, copy=False)

    def backward(grad):
        g = grad.astype(np.float32, copy=False)
        soft = np.exp(data.astype(np.float32, copy=False))
        soft *= g.sum(axis=dim, keepdims=True)
        return (np.subtract(g, soft, out=soft)
                .astype(data.dtype, copy=False),)

    return _finalize("log_softmax", data, (x,), backward, dtype=x.dtype,
                     flops=5 * x.numel())


@traceable
def layer_norm(x, normalized_shape, weight=None, bias=None, eps: float = 1e-5):
    x = astensor(x)
    if isinstance(normalized_shape, int):
        normalized_shape = (normalized_shape,)
    ndims = len(normalized_shape)
    axes = tuple(range(x.ndim - ndims, x.ndim))
    inputs = [x]
    if weight is not None:
        inputs.append(astensor(weight))
    if bias is not None:
        inputs.append(astensor(bias))
    if _any_meta(*inputs):
        rows = x.numel() // _numel(normalized_shape)
        # fp32 x_hat and inv_std, and the fp32 weight
        saved = (4 * x.numel(), 4 * rows) + \
            ((_f32(inputs[1]),) if weight is not None else ())
        return _meta_result("layer_norm", tuple(x.shape), x.dtype,
                            tuple(inputs), flops=8 * x.numel(), saved=saved)
    v = x.data.astype(np.float32, copy=False)
    x_hat = v - v.mean(axis=axes, keepdims=True)
    scratch = x_hat * x_hat
    inv_std = scratch.mean(axis=axes, keepdims=True)
    inv_std += eps
    inv_std = 1.0 / np.sqrt(inv_std)
    x_hat *= inv_std
    w = weight.data.astype(np.float32, copy=False) \
        if weight is not None else None
    data = scratch  # the variance's square is dead: reuse it for the output
    if w is not None:
        np.multiply(x_hat, w, out=data)
    else:
        data[...] = x_hat
    if bias is not None:
        data += bias.data.astype(np.float32, copy=False)
    data = data.astype(x.data.dtype, copy=False)
    reduce_axes = tuple(range(x.ndim - ndims))
    out_np_dtype = data.dtype
    w_dtype = None if weight is None else weight.data.dtype
    b_dtype = None if bias is None else bias.data.dtype

    def backward(grad):
        g = grad.astype(np.float32, copy=False)
        g_hat = g * w if w is not None else g
        # gx = inv_std * ((g_hat - mean(g_hat)) - x_hat * mean(g_hat * x_hat))
        scratch = g_hat * x_hat
        gx = g_hat - g_hat.mean(axis=axes, keepdims=True)
        gx -= np.multiply(x_hat, scratch.mean(axis=axes, keepdims=True),
                          out=scratch)
        gx *= inv_std
        grads = [gx.astype(out_np_dtype, copy=False)]
        if w_dtype is not None:
            grads.append(np.multiply(g, x_hat, out=scratch)
                         .sum(axis=reduce_axes)
                         .astype(w_dtype, copy=False))
        if b_dtype is not None:
            grads.append(g.sum(axis=reduce_axes)
                         .astype(b_dtype, copy=False))
        return tuple(grads)

    return _finalize("layer_norm", data, tuple(inputs), backward,
                     dtype=x.dtype, flops=8 * x.numel())


@traceable
def rms_norm(x, weight, eps: float = 1e-6):
    """RMSNorm (LLaMA): x / rms(x) * weight, no mean subtraction."""
    x, weight = astensor(x), astensor(weight)
    if _any_meta(x, weight):
        # fp32 x, inv_rms, x_hat and weight
        saved = (_f32(x), 4 * (x.numel() // x.shape[-1]), 4 * x.numel(),
                 _f32(weight))
        return _meta_result("rms_norm", tuple(x.shape), x.dtype, (x, weight),
                            flops=6 * x.numel(), saved=saved)
    v = x.data.astype(np.float32, copy=False)
    ms = (v * v).mean(axis=-1, keepdims=True)
    inv_rms = 1.0 / np.sqrt(ms + eps)
    x_hat = v * inv_rms
    w = weight.data.astype(np.float32, copy=False)
    data = (x_hat * w).astype(x.data.dtype, copy=False)
    reduce_axes = tuple(range(x.ndim - 1))
    out_np_dtype, w_dtype = data.dtype, weight.data.dtype

    def backward(grad):
        g = grad.astype(np.float32, copy=False)
        gw_hat = g * w
        inner = (gw_hat * v).mean(axis=-1, keepdims=True)
        gx = (inv_rms * gw_hat - v * inner * inv_rms ** 3)
        gweight = (g * x_hat).sum(axis=reduce_axes)
        return (gx.astype(out_np_dtype, copy=False),
                gweight.astype(w_dtype, copy=False))

    return _finalize("rms_norm", data, (x, weight), backward, dtype=x.dtype,
                     flops=6 * x.numel())


@traceable_mutating(writes=(1, 2), is_mutating=_batch_norm_mutates)
def batch_norm(x, running_mean, running_var, weight=None, bias=None,
               training: bool = False, momentum: float = 0.1,
               eps: float = 1e-5):
    """2d batch norm over (N, C, H, W); updates running stats in training."""
    x = astensor(x)
    inputs = [x] + [astensor(t) for t in (weight, bias) if t is not None]
    if _any_meta(*inputs):
        # fp32 x_hat, inv_std and weight copies
        channels = 4 * x.shape[1]
        saved = (4 * x.numel(), channels) + \
            ((channels,) if weight is not None else ())
        return _meta_result("batch_norm", tuple(x.shape), x.dtype,
                            tuple(inputs), flops=8 * x.numel(), saved=saved)
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    v = x.data.astype(np.float32)
    if training:
        mu = v.mean(axis=axes)
        variance = v.var(axis=axes)
        if running_mean is not None:
            running_mean.data[...] = ((1 - momentum) * running_mean.data
                                      + momentum * mu)
            running_var.data[...] = ((1 - momentum) * running_var.data
                                     + momentum * variance)
    else:
        mu = running_mean.data.astype(np.float32)
        variance = running_var.data.astype(np.float32)
    shape = (1, -1, 1, 1) if x.ndim == 4 else (-1,)
    inv_std = 1.0 / np.sqrt(variance + eps)
    x_hat = (v - mu.reshape(shape)) * inv_std.reshape(shape)
    data = x_hat
    if weight is not None:
        data = data * weight.data.astype(np.float32).reshape(shape)
    if bias is not None:
        data = data + bias.data.astype(np.float32).reshape(shape)
    data = data.astype(x.data.dtype)
    w = (weight.data.astype(np.float32).reshape(shape)
         if weight is not None else 1.0)
    out_np_dtype = data.dtype
    w_dtype = None if weight is None else weight.data.dtype
    b_dtype = None if bias is None else bias.data.dtype

    def backward(grad):
        g = grad.astype(np.float32)
        g_hat = g * w
        if training:
            mean_g = g_hat.mean(axis=axes, keepdims=True)
            mean_gx = (g_hat * x_hat).mean(axis=axes, keepdims=True)
            gx = inv_std.reshape(shape) * (g_hat - mean_g - x_hat * mean_gx)
        else:
            gx = inv_std.reshape(shape) * g_hat
        grads = [gx.astype(out_np_dtype)]
        if w_dtype is not None:
            grads.append((g * x_hat).sum(axis=axes).astype(w_dtype))
        if b_dtype is not None:
            grads.append(g.sum(axis=axes).astype(b_dtype))
        return tuple(grads)

    return _finalize("batch_norm", data, tuple(inputs), backward,
                     dtype=x.dtype, flops=8 * x.numel())


# ---------------------------------------------------------------------- #
# Dropout
# ---------------------------------------------------------------------- #
@traceable
def dropout(x, p: float = 0.5, training: bool = True):
    x = astensor(x)
    active = training and p != 0.0
    if x.is_meta:
        return _meta_result("dropout", tuple(x.shape), x.dtype, (x,),
                            flops=x.numel(),
                            saved=(x.numel(),) if active else ())  # bool mask
    if not active:
        return _finalize("dropout", x.data.copy(), (x,), lambda g: (g,),
                         dtype=x.dtype)
    keep = 1.0 - p
    mask = (frandom.generator().random(x.data.shape) < keep)
    scale = np.float32(1.0 / keep)
    out_np_dtype = x.data.dtype
    data = (x.data * mask * scale).astype(out_np_dtype)

    def backward(grad):
        return ((grad * mask * scale).astype(out_np_dtype),)

    return _finalize("dropout", data, (x,), backward, dtype=x.dtype,
                     flops=x.numel())


# ---------------------------------------------------------------------- #
# Embedding
# ---------------------------------------------------------------------- #
@traceable
def embedding(indices, weight, padding_idx: int | None = None):
    indices, weight = astensor(indices), astensor(weight)
    vocab, hidden = weight.shape
    out_shape = tuple(indices.shape) + (hidden,)
    if _any_meta(indices, weight):
        return _meta_result("embedding", out_shape, weight.dtype,
                            (indices, weight),
                            bytes_moved=2 * _nbytes(out_shape, weight.dtype),
                            saved=(8 * indices.numel(),))  # int64 indices
    idx = indices.data.astype(np.int64)
    data = weight.data[idx]
    out_np_dtype = data.dtype

    def backward(grad):
        gw = np.zeros((vocab, hidden), dtype=np.float32)
        np.add.at(gw, idx.reshape(-1), grad.reshape(-1, hidden))
        if padding_idx is not None:
            gw[padding_idx] = 0
        return (None, gw.astype(out_np_dtype))

    return _finalize("embedding", data, (indices, weight), backward,
                     dtype=weight.dtype)


# ---------------------------------------------------------------------- #
# Losses
# ---------------------------------------------------------------------- #
@traceable
def cross_entropy(logits, targets, ignore_index: int = -100):
    """Mean cross-entropy over non-ignored targets.

    ``logits``: (N, C) float; ``targets``: (N,) int64.
    """
    logits, targets = astensor(logits), astensor(targets)
    if logits.is_meta or targets.is_meta:
        n = logits.shape[0]
        # fp32 log p, int64 target indices, bool validity
        return _meta_result("cross_entropy", (), dtypes.float32,
                            (logits, targets), flops=6 * logits.numel(),
                            saved=(4 * logits.numel(), 8 * n, n))
    n, c = logits.shape
    idx = targets.data.astype(np.int64)
    valid = idx != ignore_index
    count = int(valid.sum())
    v = logits.data.astype(np.float32, copy=False)
    logp = v - v.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    safe_idx = np.where(valid, idx, 0)
    picked = logp[np.arange(n), safe_idx]
    loss = -(picked * valid).sum() / np.maximum(count, 1)
    logits_np_dtype = logits.data.dtype

    def backward(grad):
        g = float(np.asarray(grad))
        soft = np.exp(logp)
        soft[np.arange(n), safe_idx] -= 1.0  # soft - one_hot(targets)
        soft *= valid[:, None]
        # np.maximum returns an int64 scalar, so this divides in float64
        gl = soft / np.maximum(count, 1)
        gl *= g
        return (gl.astype(logits_np_dtype, copy=False), None)

    return _finalize("cross_entropy", np.asarray(loss, np.float32),
                     (logits, targets), backward, dtype=dtypes.float32,
                     flops=6 * logits.numel())


@traceable
def mse_loss(pred, target):
    pred, target = astensor(pred), astensor(target)
    diff = sub(pred, target)
    return mean(mul(diff, diff))


# ---------------------------------------------------------------------- #
# Convolution / pooling (for WideResNet)
# ---------------------------------------------------------------------- #
def _conv_out_size(size, kernel, stride, pad):
    return (size + 2 * pad - kernel) // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    n, c, h, w = x.shape
    ho = _conv_out_size(h, kh, stride, pad)
    wo = _conv_out_size(w, kw, stride, pad)
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kh, kw), axis=(2, 3)
    )[:, :, ::stride, ::stride]  # (n, c, ho, wo, kh, kw)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * kh * kw)
    return np.ascontiguousarray(cols), ho, wo


def _col2im(cols: np.ndarray, x_shape, kh, kw, stride, pad, ho, wo):
    n, c, h, w = x_shape
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float32)
    cols6 = cols.reshape(n, ho, wo, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] \
                += cols6[:, :, :, :, i, j]
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


@traceable
def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0):
    x, weight = astensor(x), astensor(weight)
    out_ch, in_ch, kh, kw = weight.shape
    n, c, h, w = x.shape
    if c != in_ch:
        raise ValueError(f"conv2d channel mismatch: {c} vs {in_ch}")
    ho = _conv_out_size(h, kh, stride, padding)
    wo = _conv_out_size(w, kw, stride, padding)
    out_shape = (n, out_ch, ho, wo)
    flops = 2 * n * ho * wo * out_ch * in_ch * kh * kw
    inputs = (x, weight) if bias is None else (x, weight, astensor(bias))
    if _any_meta(*inputs):
        return _meta_result("conv2d", out_shape, x.dtype, inputs,
                            flops=flops, meta={"kernel": "gemm"},
                            saved=(_f32(x), weight))
    x32, w_data = x.data.astype(np.float32, copy=False), weight.data
    cols, ho, wo = _im2col(x32, kh, kw, stride, padding)
    w_mat = w_data.astype(np.float32).reshape(out_ch, -1)
    out_mat = cols @ w_mat.T
    if bias is not None:
        out_mat = out_mat + bias.data.astype(np.float32)
    data = (out_mat.reshape(n, ho, wo, out_ch).transpose(0, 3, 1, 2)
            .astype(x.data.dtype))
    w_shape, w_dtype = tuple(weight.shape), weight.data.dtype
    out_np_dtype, has_bias = data.dtype, bias is not None

    def backward(grad):
        g_mat = (grad.transpose(0, 2, 3, 1).reshape(-1, out_ch)
                 .astype(np.float32))
        # the im2col columns and the fp32 weight are rebuilt, not kept
        cols = _im2col(x32, kh, kw, stride, padding)[0]
        gw = (g_mat.T @ cols).reshape(w_shape).astype(w_dtype)
        g_cols = g_mat @ w_data.astype(np.float32, copy=False) \
            .reshape(out_ch, -1)
        gx = _col2im(g_cols, (n, c, h, w), kh, kw, stride, padding, ho, wo) \
            .astype(out_np_dtype)
        if has_bias:
            return (gx, gw, g_mat.sum(axis=0).astype(np.float32))
        return (gx, gw)

    return _finalize("conv2d", data, inputs, backward, dtype=x.dtype,
                     flops=flops, meta={"kernel": "gemm"})


@traceable
def max_pool2d(x, kernel_size: int, stride: int | None = None,
               padding: int = 0):
    x = astensor(x)
    stride = stride or kernel_size
    n, c, h, w = x.shape
    ho = _conv_out_size(h, kernel_size, stride, padding)
    wo = _conv_out_size(w, kernel_size, stride, padding)
    out_shape = (n, c, ho, wo)
    if x.is_meta:
        # the padded input and the window maxima
        padded_numel = n * c * (h + 2 * padding) * (w + 2 * padding)
        saved = ((padded_numel + _numel(out_shape)) * x.dtype.itemsize,)
        return _meta_result("max_pool2d", out_shape, x.dtype, (x,),
                            saved=saved)
    padded = np.pad(x.data, ((0, 0), (0, 0), (padding, padding),
                             (padding, padding)),
                    constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kernel_size, kernel_size), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    data = windows.max(axis=(-2, -1))
    out_np_dtype = x.data.dtype

    def backward(grad):
        gx_padded = np.zeros_like(padded, dtype=np.float32)
        for i in range(kernel_size):
            for j in range(kernel_size):
                patch = padded[:, :, i:i + stride * ho:stride,
                               j:j + stride * wo:stride]
                mask = patch == data
                gx_padded[:, :, i:i + stride * ho:stride,
                          j:j + stride * wo:stride] += mask * grad
        if padding:
            gx_padded = gx_padded[:, :, padding:-padding, padding:-padding]
        return (gx_padded.astype(out_np_dtype),)

    return _finalize("max_pool2d", data.astype(x.data.dtype), (x,), backward,
                     dtype=x.dtype)


@traceable
def adaptive_avg_pool2d(x, output_size: int = 1):
    if output_size != 1:
        raise NotImplementedError("only global average pooling is supported")
    x = astensor(x)
    pooled = mean(x, dim=(2, 3), keepdim=True)
    return pooled


# ---------------------------------------------------------------------- #
# Attention
# ---------------------------------------------------------------------- #
@traceable
def split_heads(x, num_heads: int):
    """(batch, seq, hidden) → (batch, heads, seq, head_dim).

    A single traceable op: the reshape needs runtime batch/seq sizes, which
    symbolic tracing cannot observe — wrapping the composite keeps attention
    modules traceable (the torch.fx ``size()`` problem, solved as the paper
    does by keeping shape logic inside opaque ops).
    """
    x = astensor(x)
    b, s, h = x.shape
    return permute(reshape(x, (b, s, num_heads, h // num_heads)),
                   (0, 2, 1, 3))


@traceable
def merge_heads(x):
    """(batch, heads, seq, head_dim) → (batch, seq, hidden)."""
    x = astensor(x)
    b, n, s, d = x.shape
    return reshape(permute(x, (0, 2, 1, 3)), (b, s, n * d))


@traceable
def position_ids(input_ids):
    """0..seq_len-1 position indices for ``input_ids``.

    A traceable composite: the sequence length is a runtime property, which
    raw ``.shape`` access on a Proxy cannot observe.
    """
    input_ids = astensor(input_ids)
    length = int(input_ids.shape[-1])
    if input_ids.is_meta:
        return Tensor.meta((length,), dtypes.int64)
    return Tensor(np.arange(length), dtype=dtypes.int64)


@traceable
def apply_causal_mask(scores):
    """Mask out future positions of an attention-score matrix.

    Masked scores become the most negative finite value of the scores'
    dtype (HF's ``finfo(dtype).min``): softmax gives them exactly 0 in
    every float dtype, and fp16 does not overflow.
    A single traceable op (the mask depends on runtime sequence length),
    so decoder attention stays symbolically traceable and pattern-matchable.
    """
    scores = astensor(scores)
    s_q, s_k = scores.shape[-2], scores.shape[-1]
    mask = Tensor(np.triu(np.ones((s_q, s_k), dtype=bool), k=1))
    return masked_fill(scores, mask,
                       float(np.finfo(scores.dtype.np_dtype).min))



@traceable
def scaled_dot_product_attention(query, key, value, attn_mask=None,
                                 dropout_p: float = 0.0,
                                 is_causal: bool = False,
                                 scale: float | None = None,
                                 training: bool = True):
    """Memory-efficient attention kernel (flash-attention stand-in).

    Computes ``softmax(q @ k^T * scale + mask) @ v`` with fp32 accumulation.
    The simulator sees this as a *single fused kernel* that never
    materialises the (seq × seq) attention matrix — the defining property of
    FlashAttention that the paper's kernel-replacement schedules rely on.
    """
    q, k, v = astensor(query), astensor(key), astensor(value)
    b_shape = tuple(q.shape[:-2])
    s_q, d = q.shape[-2], q.shape[-1]
    s_k = k.shape[-2]
    out_shape = b_shape + (s_q, v.shape[-1])
    scale = scale if scale is not None else 1.0 / math.sqrt(d)
    flops = 4 * _numel(b_shape) * s_q * s_k * d
    if _any_meta(q, k, v):
        # Bytes: inputs + outputs only — no s_q*s_k intermediate.
        io_bytes = q.nbytes + k.nbytes + v.nbytes + _nbytes(out_shape, q.dtype)
        # fp32 copies of q, k, v and the probabilities; with dropout also
        # the dropped probabilities and the bool mask
        scores = _numel(b_shape) * s_q * s_k
        saved = (4 * q.numel(), 4 * k.numel(), 4 * v.numel(), 4 * scores)
        if dropout_p > 0.0 and training:
            saved += (4 * scores, scores)
        return _meta_result("sdpa", out_shape, q.dtype, (q, k, v),
                            flops=flops,
                            bytes_moved=io_bytes,
                            meta={"kernel": "flash_attention"}, saved=saved)
    q32 = q.data.astype(np.float32)
    k32 = k.data.astype(np.float32)
    v32 = v.data.astype(np.float32)
    scores = q32 @ np.swapaxes(k32, -1, -2) * scale
    if is_causal:
        causal = np.triu(np.ones((s_q, s_k), dtype=bool), k=1)
        scores = np.where(causal, -1e9, scores)
    if attn_mask is not None:
        mask = astensor(attn_mask)
        scores = scores + mask.data.astype(np.float32)
    scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    probs = e / e.sum(axis=-1, keepdims=True)
    if dropout_p > 0.0 and training:
        keep = 1.0 - dropout_p
        drop_mask = frandom.generator().random(probs.shape) < keep
        probs_used = probs * drop_mask / keep
    else:
        probs_used = probs
    data = (probs_used @ v32).astype(q.data.dtype)
    q_np_dtype, k_np_dtype, v_np_dtype = q.data.dtype, k.data.dtype, \
        v.data.dtype

    def backward(grad):
        g = grad.astype(np.float32)
        gv = np.swapaxes(probs_used, -1, -2) @ g
        gp = g @ np.swapaxes(v32, -1, -2)
        if dropout_p > 0.0 and training:
            gp = gp * drop_mask / (1.0 - dropout_p)
        inner = (gp * probs).sum(axis=-1, keepdims=True)
        gs = probs * (gp - inner)
        if is_causal:
            gs = np.where(np.triu(np.ones((s_q, s_k), dtype=bool), k=1), 0, gs)
        gq = (gs @ k32) * scale
        gk = (np.swapaxes(gs, -1, -2) @ q32) * scale
        return (gq.astype(q_np_dtype), gk.astype(k_np_dtype),
                gv.astype(v_np_dtype))

    io_bytes = q.nbytes + k.nbytes + v.nbytes + _nbytes(out_shape, q.dtype)
    return _finalize("sdpa", data, (q, k, v), backward, dtype=q.dtype,
                     flops=flops, bytes_moved=io_bytes,
                     meta={"kernel": "flash_attention"})
