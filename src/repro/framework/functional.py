"""Differentiable functional ops.

Every op in this module follows the same protocol:

1. **Proxy dispatch** — if any argument is an ``repro.fx`` Proxy, the op
   records a ``call_function`` node instead of computing (this is how the
   symbolic tracer sees through model code without patching).
2. **Declaration** — the op states, once, its output's shape and dtype,
   its event's flops, bytes moved and kernel, and what its backward keeps
   (:func:`_op`).  The shape and dtype rules run before anything is
   computed and raise the same error on either device.  On meta inputs
   the declaration returns the storage-less output and records the event.
3. **Eager fill and check** — on real inputs the op computes its numpy
   result and backward closure and hands both to the declaration, which
   raises :class:`OpDeclarationError` if the data's shape or dtype differ
   from the declared ones, records the *same* event the meta path records
   and builds the tape node.

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
from .parameter import Parameter
from .tensor import Tensor, astensor

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


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


# ---------------------------------------------------------------------- #
# The declaration
# ---------------------------------------------------------------------- #
class OpDeclarationError(RuntimeError):
    """An op's eager result has another shape or dtype than it declares."""

    def __init__(self, op: str, message: str):
        super().__init__(f"op {op!r}: {message}")
        self.op = op


def _numel(shape) -> int:
    n = 1
    for s in shape:
        n *= s
    return n


def _nbytes(shape, dtype: DType) -> int:
    return _numel(shape) * dtype.itemsize


def _op(name, inputs, shape, dtype, eager, flops=0, bytes_moved=None,
        kernel=None, saved=(), saves_out=False, view_of=None,
        strided=False):
    """Run one op from its declaration and return its output.

    ``inputs`` are the op's tensor operands in the order its backward
    returns their gradients (None for an absent one).  The declaration:
    the output ``shape`` and ``dtype``; the event's ``flops``,
    ``bytes_moved`` (default: the output's and the inputs' bytes) and
    ``kernel``; ``saved``, what the eager backward closure keeps —
    tensors (or numpy arrays) whose storage it holds, and ints for the
    bytes of buffers the op allocates for it — and ``saves_out``, which
    adds the output; ``view_of``, the input whose storage the output
    views (``strided`` when it is no longer C-contiguous).

    On meta inputs the output has no storage.  Otherwise ``eager()``
    returns ``(data, backward)``: the result, checked against the declared
    shape and dtype, and the tape node's backward function (None for an
    op without gradients).  Both paths record the same event.
    """
    for t in inputs:
        if t is not None and t.is_meta:
            out, backward = Tensor.meta(shape, dtype), None
            break
    else:
        data, backward = eager()
        if data.shape != shape or data.dtype != dtype.np_dtype:
            raise OpDeclarationError(
                name, f"computed {data.dtype} {data.shape}, declared "
                f"{dtype.name} {tuple(shape)}")
        if type(data) is not np.ndarray:
            data = np.asarray(data)
        out = Tensor.wrap(data, dtype)
        if is_anomaly_enabled():
            check_finite(data, f"op {name!r}")
    if view_of is not None:
        out._base = getattr(view_of, "_base", view_of)
        out._strided = strided or getattr(view_of, "_strided", False)
    recorder = events.get_recorder()
    if recorder is not None:
        if bytes_moved is None:
            bytes_moved = _nbytes(shape, dtype) + builtins.sum(
                t.nbytes for t in inputs if t is not None)
        meta = {"kernel": kernel} if kernel else {}
        if saved or saves_out:
            meta["saved"] = (*saved, out) if saves_out else tuple(saved)
        recorder.record_op(name, tuple(shape), dtype, flops, bytes_moved,
                           meta or None)
    if backward is not None and is_grad_enabled():
        for t in inputs:
            if t is not None and (t.requires_grad or t.grad_fn is not None):
                out.grad_fn = GradNode(name, inputs, backward)
                out.requires_grad = True
                break
    return out


def _f32(t):
    """What ``t.data.astype(np.float32, copy=False)`` keeps: ``t`` itself
    when it is fp32, else the bytes of a fresh fp32 copy."""
    return t if t.dtype == dtypes.float32 else 4 * t.numel()


def buffer_owner(item):
    """The tensor or array owning the buffer a tensor or array keeps alive.

    A view points at its source through ``_base``; a parameter or a meta
    tensor owns its buffer; a real array is followed to the array owning
    its memory.
    """
    if isinstance(item, Tensor):
        item = getattr(item, "_base", item)
        if item.is_meta or isinstance(item, Parameter):
            return item
        item = item.data
    while isinstance(item.base, np.ndarray):
        item = item.base
    return item


def _reshape_views(x, shape) -> bool:
    """Whether numpy's reshape of ``x``'s data to ``shape`` is a view.

    A real array answers for itself; a meta tensor is a view when its
    source is contiguous, or when only size-1 axes are added or dropped.
    """
    if not x.is_meta:
        try:
            return x.data.flags.c_contiguous or \
                x.data.reshape(shape, copy=False) is not None
        except ValueError:  # numpy would copy
            return False
    return not getattr(x, "_strided", False) or \
        [s for s in shape if s != 1] == [s for s in x.shape if s != 1]


def _refuse(name, t, accepts):
    """Raise ``TypeError`` unless ``accepts(t.dtype)``."""
    if not accepts(t.dtype):
        raise TypeError(f"{name}: not defined on {t.dtype.name} tensors")


def _is_float(dtype: DType) -> bool:
    return dtype.is_floating


def _not_bool(dtype: DType) -> bool:
    return dtype != dtypes.bool_


def _dim(name, dim, ndim) -> int:
    """``dim`` in ``range(ndim)``; ``IndexError`` if out of range."""
    if not -ndim <= dim < ndim:
        raise IndexError(f"{name}: dim {dim} out of range for a "
                         f"{ndim}-d tensor")
    return dim % ndim


# ---------------------------------------------------------------------- #
# Elementwise binary ops
# ---------------------------------------------------------------------- #
def _binary(name, a, b, fwd, bwd_a, bwd_b, saves="", flops_per_elem=1,
            rule=promote):
    """An elementwise op of two operands.

    ``rule`` maps the operands' dtypes to the output's; NumPy computes in
    that dtype.  ``bwd_a`` and ``bwd_b`` map ``(grad, x, y, out)`` to the
    gradient of ``a`` and ``b``.  ``saves`` names the arrays they read
    (``"xy"``, ``"o"``, ...): only those are kept for backward, the others
    reach the formulas as None.
    """
    # Python-number operands adopt the tensor's dtype (torch's scalar
    # promotion): x_fp16 / 8.0 stays fp16.
    if isinstance(a, Tensor) and isinstance(b, (bool, int, float)):
        b = astensor(b, dtype=a.dtype if a.dtype.is_floating else None)
    elif isinstance(b, Tensor) and isinstance(a, (bool, int, float)):
        a = astensor(a, dtype=b.dtype if b.dtype.is_floating else None)
    a, b = astensor(a), astensor(b)
    dtype = rule(a.dtype, b.dtype)
    a_shape, b_shape = tuple(a.shape), tuple(b.shape)
    shape = a_shape if a_shape == b_shape else \
        np.broadcast_shapes(a_shape, b_shape)

    def eager():
        x, y = a.data, b.data
        np_dtype = dtype.np_dtype
        data = fwd(x if x.dtype == np_dtype else x.astype(np_dtype),
                   y if y.dtype == np_dtype else y.astype(np_dtype))
        if type(data) is not np.ndarray:  # a 0-d result: keep an array
            data = np.asarray(data)
        sx = x if "x" in saves else None
        sy = y if "y" in saves else None
        so = data if "o" in saves else None

        def backward(grad):
            ga = unbroadcast(bwd_a(grad, sx, sy, so), a_shape) \
                if bwd_a else None
            gb = unbroadcast(bwd_b(grad, sx, sy, so), b_shape) \
                if bwd_b else None
            return (ga, gb)

        return data, backward

    return _op(name, (a, b), shape, dtype, eager,
               flops=_numel(shape) * flops_per_elem,
               saved=[t for c, t in (("x", a), ("y", b)) if c in saves],
               saves_out="o" in saves)


def _no_bool(a: DType, b: DType) -> DType:
    """``promote``, refusing two bools (torch has no bool subtraction)."""
    out = promote(a, b)
    if out == dtypes.bool_:
        raise TypeError("sub: not defined on bool tensors")
    return out


def _true_div(a: DType, b: DType) -> DType:
    """``promote``, with integer and bool division giving float32."""
    out = promote(a, b)
    return out if out.is_floating else dtypes.float32


@traceable
def add(a, b):
    return _binary("add", a, b, np.add,
                   lambda g, x, y, o: g, lambda g, x, y, o: g)


@traceable
def sub(a, b):
    return _binary("sub", a, b, np.subtract,
                   lambda g, x, y, o: g, lambda g, x, y, o: -g,
                   rule=_no_bool)


@traceable
def mul(a, b):
    return _binary("mul", a, b, np.multiply,
                   lambda g, x, y, o: g * y, lambda g, x, y, o: g * x,
                   saves="xy")


@traceable
def div(a, b):
    return _binary("div", a, b, np.true_divide,
                   lambda g, x, y, o: g / y,
                   lambda g, x, y, o: -g * x / (y * y), saves="xy",
                   rule=_true_div)


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
    shape = np.broadcast_shapes(tuple(a.shape), tuple(b.shape))
    return _op(name, (a, b), shape, dtypes.bool_,
               lambda: (fwd(a.data, b.data), None))


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
def _unary(name, x, fwd, bwd, saves="", flops_per_elem=1, accepts=None):
    """An elementwise op of one operand, in its dtype.

    ``bwd`` maps ``(grad, v, out)`` to the input gradient; ``saves`` names
    the arrays it reads (``"v"``, ``"o"``, ``"vo"``): only those are kept
    for backward, the others reach it as None.  ``accepts`` (a dtype
    predicate) refuses other inputs with ``TypeError``.
    """
    x = astensor(x)
    if accepts is not None:
        _refuse(name, x, accepts)

    def eager():
        data = fwd(x.data)
        if type(data) is not np.ndarray:  # a 0-d result: keep an array
            data = np.asarray(data)
        v = x.data if "v" in saves else None
        o = data if "o" in saves else None
        return data, lambda grad: (bwd(grad, v, o),)

    return _op(name, (x,), tuple(x.shape), x.dtype, eager,
               flops=x.numel() * flops_per_elem,
               saved=(x,) if "v" in saves else (), saves_out="o" in saves)


@traceable
def neg(x):
    return _unary("neg", x, np.negative, lambda g, v, o: -g,
                  accepts=_not_bool)


@traceable
def exp(x):
    return _unary("exp", x, np.exp, lambda g, v, o: g * o, saves="o",
                  flops_per_elem=4, accepts=_is_float)


@traceable
def log(x):
    return _unary("log", x, np.log, lambda g, v, o: g / v, saves="v",
                  flops_per_elem=4, accepts=_is_float)


@traceable
def sqrt(x):
    return _unary("sqrt", x, np.sqrt, lambda g, v, o: g / (2 * o),
                  saves="o", flops_per_elem=2, accepts=_is_float)


@traceable
def rsqrt(x):
    return _unary("rsqrt", x, lambda v: 1.0 / np.sqrt(v),
                  lambda g, v, o: -0.5 * g * o / v, saves="vo",
                  flops_per_elem=3, accepts=_is_float)


@traceable
def pow(x, exponent):
    if not isinstance(exponent, (int, float)):
        raise TypeError("pow: only scalar exponents are supported")
    return _unary(
        "pow", x,
        lambda v: v ** exponent,
        lambda g, v, o: g * exponent * v ** (exponent - 1),
        saves="v", flops_per_elem=4, accepts=_is_float,
    )


@traceable
def tanh(x):
    return _unary("tanh", x, np.tanh, lambda g, v, o: g * (1 - o * o),
                  saves="o", flops_per_elem=6, accepts=_is_float)


@traceable
def sigmoid(x):
    return _unary(
        "sigmoid", x,
        lambda v: 1.0 / (1.0 + np.exp(-v.astype(np.float32))).astype(v.dtype),
        lambda g, v, o: g * o * (1 - o),
        saves="o", flops_per_elem=4, accepts=_is_float,
    )


@traceable
def relu(x):
    return _unary("relu", x, lambda v: np.maximum(v, 0),
                  lambda g, v, o: g * (v > 0), saves="v", accepts=_not_bool)


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


def _erf_inplace(out: np.ndarray) -> np.ndarray:
    """Overwrite the C-contiguous float32 array ``out`` with ``erf(out)``
    and return it; two chunks of scratch are its only temporaries."""
    if out.dtype != np.float32 or not out.flags.c_contiguous:
        raise ValueError("_erf_inplace needs a C-contiguous float32 array")
    flat = out.reshape(-1)
    sq, acc = np.empty((2, min(flat.size, _ERF_CHUNK)), np.float32)
    for chunk in _chunks(flat.size):
        x = flat[chunk]
        _erf_chunk(x, sq[:x.size], acc[:x.size])
    return out


def _erf(v: np.ndarray) -> np.ndarray:
    """``erf(v)`` evaluated in float32, returned in ``v``'s dtype."""
    out = _erf_inplace(np.array(v, dtype=np.float32, order="C"))
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
    fp32 = x.dtype == dtypes.float32

    def eager():
        v = x.data
        if fp32:
            data, saved = _gelu_fp32(v)
        else:
            one_plus_erf = 1.0 + _erf(v * _INV_SQRT2)
            data = (0.5 * v * one_plus_erf).astype(v.dtype, copy=False)
            saved = None

        def backward(grad):
            # ``dtype=`` runs each product on ``v`` rounded to float32, so
            # a non-fp32 ``v`` needs no float32 copy.
            f32 = np.float32
            if saved is None:
                cdf = _erf_inplace(np.multiply(v, _INV_SQRT2, dtype=f32,
                                               order="C"))
                cdf += 1.0
                cdf *= 0.5
            else:
                cdf = 0.5 * saved
            pdf = np.multiply(v, -0.5, dtype=f32)
            np.multiply(pdf, v, out=pdf, dtype=f32)
            np.exp(pdf, out=pdf)
            pdf /= math.sqrt(2 * math.pi)
            np.multiply(pdf, v, out=pdf, dtype=f32)
            pdf += cdf
            del cdf
            if np.result_type(grad, pdf) != pdf.dtype:
                return ((grad * pdf).astype(v.dtype, copy=False),)
            pdf *= grad
            return (pdf.astype(v.dtype, copy=False),)

        return data, backward

    return _op("gelu", (x,), tuple(x.shape), x.dtype, eager,
               flops=10 * x.numel(),
               saved=(x, 4 * x.numel()) if fp32 else (x,))


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
    src = x.dtype.np_dtype
    return _op("cast", (x,), tuple(x.shape), dtype,
               lambda: (x.data.astype(dtype.np_dtype),
                        lambda grad: (grad.astype(src),)))


@traceable
def clone(x):
    x = astensor(x)
    return _op("clone", (x,), tuple(x.shape), x.dtype,
               lambda: (x.data.copy(), lambda grad: (grad,)))


@traceable
def where(cond, a, b):
    cond, a, b = astensor(cond), astensor(a), astensor(b)
    dtype = promote(a.dtype, b.dtype)
    a_shape, b_shape = tuple(a.shape), tuple(b.shape)
    shape = np.broadcast_shapes(tuple(cond.shape), a_shape, b_shape)

    def eager():
        mask, np_dtype = cond.data, dtype.np_dtype
        data = np.where(mask, a.data.astype(np_dtype, copy=False),
                        b.data.astype(np_dtype, copy=False))

        def backward(grad):
            return (None,
                    unbroadcast(grad * mask, a_shape),
                    unbroadcast(grad * ~mask, b_shape))

        return data, backward

    return _op("where", (cond, a, b), shape, dtype, eager, saved=(cond,))


def _fill_value(value, dtype: np.dtype) -> np.ndarray | None:
    """``value`` (a number or a 0-d tensor) as a 0-d array of ``dtype``,
    or None for a meta tensor.  A finite value that overflows ``dtype``
    raises ``OverflowError``, as torch's ``masked_fill`` does, instead of
    silently becoming ``±inf``."""
    if isinstance(value, Tensor):
        if value.ndim:
            raise ValueError("masked_fill takes a 0-d value tensor, got "
                             f"{value.ndim} dimensions")
        if value.is_meta:
            return None
        value = value.data
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
    """``x`` with ``value`` where ``mask`` is set.  ``value`` is a number
    or, as in torch, a 0-d tensor, whose gradient is the sum of the
    output gradient over the filled positions."""
    x, mask = astensor(x), astensor(mask)
    fill = _fill_value(value, x.dtype.np_dtype)
    inputs = (x, mask, value) if isinstance(value, Tensor) else (x, mask)
    shape = np.broadcast_shapes(tuple(x.shape), tuple(mask.shape))

    def eager():
        mask_b = np.broadcast_to(mask.data.astype(bool), shape)
        x_shape = tuple(x.shape)
        value_dtype = value.data.dtype if isinstance(value, Tensor) else None

        def backward(grad):
            grads = (unbroadcast(np.where(mask_b, 0, grad), x_shape), None)
            if value_dtype is None:
                return grads
            return grads + (np.asarray(np.where(mask_b, grad, 0).sum(),
                                       value_dtype),)

        return np.where(mask_b, fill, x.data), backward

    return _op("masked_fill", inputs, shape, x.dtype, eager,
               saved=(mask.numel(),))


# ---------------------------------------------------------------------- #
# Shape ops
# ---------------------------------------------------------------------- #
def _resolve_shape(shape, numel: int) -> tuple[int, ...]:
    """``shape`` with its one ``-1`` inferred; ``ValueError`` unless it
    holds ``numel`` elements."""
    shape = tuple(int(s) for s in shape)
    if shape.count(-1) > 1:
        raise ValueError("only one dimension can be inferred")
    known = 1
    for s in shape:
        if s != -1:
            known *= s
    if -1 in shape and known and numel % known == 0:
        shape = tuple(numel // known if s == -1 else s for s in shape)
    elif known != numel or -1 in shape:
        raise ValueError(f"reshape: cannot view {numel} elements as "
                         f"{shape}")
    return shape


@traceable
def reshape(x, shape):
    x = astensor(x)
    new_shape = _resolve_shape(shape, x.numel())
    old_shape = tuple(x.shape)
    return _op("reshape", (x,), new_shape, x.dtype,
               lambda: (x.data.reshape(new_shape),
                        lambda grad: (grad.reshape(old_shape),)),
               bytes_moved=0,
               view_of=x if _reshape_views(x, new_shape) else None)


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
    ndim = x.ndim
    dims = tuple(_dim("permute", d, ndim) for d in dims)
    if sorted(dims) != list(range(ndim)):
        raise ValueError(f"permute: {dims} is not a permutation of the "
                         f"{ndim} dims")
    shape = tuple(x.shape[d] for d in dims)
    moved = [d for d in dims if x.shape[d] != 1]

    def eager():
        inverse = tuple(np.argsort(dims))
        return (np.transpose(x.data, dims),
                lambda grad: (np.transpose(grad, inverse),))

    return _op("permute", (x,), shape, x.dtype, eager,
               bytes_moved=2 * x.nbytes, view_of=x,
               strided=moved != sorted(moved))


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
    src_shape, lead = tuple(x.shape), len(shape) - x.ndim
    target = tuple(src_shape[i - lead] if s == -1 and i >= lead else int(s)
                   for i, s in enumerate(shape))
    if lead < 0 or -1 in target or \
            np.broadcast_shapes(src_shape, target) != target:
        raise ValueError(f"expand: cannot expand {src_shape} to "
                         f"{tuple(shape)}")
    return _op("expand", (x,), target, x.dtype,
               lambda: (np.broadcast_to(x.data, target).copy(),
                        lambda grad: (unbroadcast(grad, src_shape),)),
               bytes_moved=0)


_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))


def _is_basic_index(index) -> bool:
    """True when ``index`` selects a view: ints, slices, None, Ellipsis."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(isinstance(p, _BASIC_INDEX) and not isinstance(p, bool)
               for p in parts)


def _unwrap_index(index, stand_in=False):
    """Replace framework tensors inside ``index`` by numpy arrays.

    With ``stand_in``, a meta integer tensor stands in as zeros of its
    own shape (only the output shape is needed); a meta boolean mask or a
    meta index of a real tensor has no stand-in.
    """
    if isinstance(index, tuple):
        return tuple(_unwrap_index(part, stand_in) for part in index)
    if not isinstance(index, Tensor):
        return index
    if not index.is_meta:
        return index.data
    if not stand_in or index.dtype == dtypes.bool_:
        raise TypeError("getitem: a meta index makes the output shape "
                        "data-dependent")
    return np.zeros(tuple(index.shape), dtype=np.intp)


@traceable
def getitem(x, index):
    if isinstance(x, dict):
        # Container passthrough: leaf modules may return pytree outputs
        # (e.g. an MoE routing dict) that traced code indexes by key.
        return x[index]
    x = astensor(x)
    parts = index if isinstance(index, tuple) else (index,)
    # The sliced shape, from a zero-stride dummy array.
    dummy = np.broadcast_to(np.zeros(1, dtype=np.int8), tuple(x.shape))
    shape = dummy[_unwrap_index(index, stand_in=True)].shape

    def eager():
        real = _unwrap_index(index)
        basic = _is_basic_index(real)
        data = np.asarray(x.data[real])
        if np.may_share_memory(data, x.data):
            data = data.copy()  # a view: the output must not alias the input
        src_shape = tuple(x.shape)
        src_np_dtype = x.data.dtype

        def backward(grad):
            full = np.zeros(src_shape, dtype=src_np_dtype)
            if not basic:
                # Advanced indices may repeat an element: accumulate
                # unbuffered.
                np.add.at(full, real, grad)
                return (full,)
            view = full[real]
            if isinstance(view, np.ndarray):
                view += grad
            else:  # an int on every axis: numpy returns a scalar, not a view
                full[real] = grad
            return (full,)

        return data, backward

    return _op("getitem", (x,), shape, x.dtype, eager, bytes_moved=0,
               saved=[p for p in parts
                      if isinstance(p, (Tensor, np.ndarray))])


@traceable
def cat(tensors: Sequence, dim: int = 0):
    tensors = [astensor(t) for t in tensors]
    first = list(tensors[0].shape)
    dim = _dim("cat", dim, len(first))
    shape = list(first)
    shape[dim] = 0
    dtype = tensors[0].dtype
    for t in tensors:
        each = list(t.shape)
        shape[dim], each[dim] = shape[dim] + each[dim], 0
        if each != first[:dim] + [0] + first[dim + 1:]:
            raise ValueError(f"cat: {tuple(t.shape)} and {tuple(first)} "
                             f"differ outside dim {dim}")
        dtype = promote(dtype, t.dtype)
    sizes = [t.shape[dim] for t in tensors]

    def eager():
        data = np.concatenate([t.data for t in tensors], axis=dim,
                              dtype=dtype.np_dtype)
        return data, lambda grad: tuple(
            np.split(grad, np.cumsum(sizes)[:-1], axis=dim))

    return _op("cat", tuple(tensors), tuple(shape), dtype, eager)


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
def _reduce_dims(name, dim, ndim) -> tuple[int, ...] | None:
    """``dim`` (None, an int or a sequence of ints) as sorted axes in
    ``range(ndim)``; ``IndexError`` out of range, ``ValueError`` for a
    repeated axis."""
    if dim is None:
        return None
    dims = (dim,) if isinstance(dim, int) else tuple(dim)
    axes = sorted(_dim(name, d, ndim) for d in dims)
    if len(set(axes)) != len(axes):
        raise ValueError(f"{name}: dim {dim} repeats an axis")
    return tuple(axes)


def _reduce_shape(shape, axes, keepdim):
    if axes is None:
        return () if not keepdim else tuple(1 for _ in shape)
    if keepdim:
        return tuple(1 if i in axes else s for i, s in enumerate(shape))
    return tuple(s for i, s in enumerate(shape) if i not in axes)


@traceable
def sum(x, dim=None, keepdim: bool = False):
    x = astensor(x)
    axes = _reduce_dims("sum", dim, x.ndim)
    src_shape = tuple(x.shape)
    # integers and bools sum as int64, in torch as in numpy
    dtype = x.dtype if x.dtype.is_floating else dtypes.int64

    def eager():
        src_np_dtype = x.data.dtype

        def backward(grad):
            g = np.asarray(grad)
            if not keepdim and axes is not None:
                g = np.expand_dims(g, axes)
            return (np.broadcast_to(g, src_shape).astype(src_np_dtype),)

        return x.data.sum(axis=axes, keepdims=keepdim), backward

    return _op("sum", (x,), _reduce_shape(src_shape, axes, keepdim), dtype,
               eager, flops=x.numel())


def _count(x, dim) -> int:
    """Elements a reduction over ``dim`` folds into each output."""
    if dim is None:
        return x.numel()
    count = 1
    for d in _reduce_dims("mean", dim, x.ndim):
        count *= x.shape[d]
    return count


@traceable
def mean(x, dim=None, keepdim: bool = False):
    x = astensor(x)
    return div(sum(x, dim, keepdim), float(_count(x, dim)))


@traceable
def var(x, dim=None, keepdim: bool = False, unbiased: bool = False):
    x = astensor(x)
    centered = sub(x, mean(x, dim, keepdim=True))
    squared = mul(centered, centered)
    out = mean(squared, dim, keepdim)
    if unbiased:
        count = _count(x, dim)
        out = mul(out, count / builtins.max(count - 1, 1))
    return out


@traceable
def max(x, dim=None, keepdim: bool = False):
    x = astensor(x)
    axes = _reduce_dims("max", dim, x.ndim)

    def eager():
        src = x.data
        data = np.asarray(src.max(axis=axes, keepdims=keepdim))
        if axes is None:
            def backward(grad):
                mask = (src == src.max())
                return ((mask / mask.sum()) * grad,)
        else:
            def backward(grad):
                expanded, g = data, np.asarray(grad)
                if not keepdim:
                    expanded = np.expand_dims(expanded, axes)
                    g = np.expand_dims(g, axes)
                mask = (src == expanded)
                counts = mask.sum(axis=axes, keepdims=True)
                return (mask / counts * g,)
        return data, backward

    return _op("max", (x,), _reduce_shape(tuple(x.shape), axes, keepdim),
               x.dtype, eager, flops=x.numel(), saved=(x,),
               saves_out=axes is not None)


@traceable
def argmax(x, dim=None):
    x = astensor(x)
    if dim is not None and not isinstance(dim, int):
        raise TypeError(f"argmax: dim must be an int or None, got {dim!r}")
    axes = _reduce_dims("argmax", dim, x.ndim)
    return _op("argmax", (x,), _reduce_shape(tuple(x.shape), axes, False),
               dtypes.int64,
               lambda: (np.argmax(x.data, axis=dim), None))


# ---------------------------------------------------------------------- #
# Linear algebra
# ---------------------------------------------------------------------- #
def _matmul_shape(a_shape, b_shape):
    """Output shape and contraction size of ``a @ b``; as in NumPy, a 1-d
    operand is promoted to a matrix and its added dimension dropped."""
    if len(a_shape) < 1 or len(b_shape) < 1:
        raise ValueError("matmul requires at least 1-d operands")
    a_vec, b_vec = len(a_shape) == 1, len(b_shape) == 1
    a_shape = (1,) + tuple(a_shape) if a_vec else tuple(a_shape)
    b_shape = tuple(b_shape) + (1,) if b_vec else tuple(b_shape)
    if a_shape[-1] != b_shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a_shape} @ {b_shape}")
    batch = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
    rows = () if a_vec else (a_shape[-2],)
    cols = () if b_vec else (b_shape[-1],)
    return batch + rows + cols, a_shape[-1]


@traceable
def matmul(a, b):
    a, b = astensor(a), astensor(b)
    dtype = promote(a.dtype, b.dtype)
    shape, k = _matmul_shape(tuple(a.shape), tuple(b.shape))

    def eager():
        x, y = a.data, b.data
        np_dtype = dtype.np_dtype
        data = np.matmul(x.astype(np_dtype, copy=False),
                         y.astype(np_dtype, copy=False))

        def backward(grad):
            # In matrix form: a 1-d operand as a row / column, the output
            # gradient with the dimension the forward dropped restored.
            xm = x[None, :] if x.ndim == 1 else x
            ym = y[:, None] if y.ndim == 1 else y
            g = np.asarray(grad)
            if y.ndim == 1:
                g = g[..., None]
            if x.ndim == 1:
                g = np.expand_dims(g, -2)
            ga = unbroadcast(g @ np.swapaxes(ym, -1, -2), xm.shape)
            gb = unbroadcast(np.swapaxes(xm, -1, -2) @ g, ym.shape)
            return (ga.reshape(x.shape), gb.reshape(y.shape))

        return data, backward

    return _op("matmul", (a, b), shape, dtype, eager,
               flops=2 * _numel(shape) * k, kernel="gemm", saved=(a, b))


@traceable
def linear(x, weight, bias=None):
    """``x @ weight.T + bias`` with torch's (out_features, in_features) layout."""
    x, weight = astensor(x), astensor(weight)
    bias = None if bias is None else astensor(bias)
    out_features, in_features = weight.shape
    if x.ndim == 0 or x.shape[-1] != in_features:
        raise ValueError(
            f"linear: input shape {tuple(x.shape)} does not end in weight "
            f"in_features {in_features}")
    if bias is not None and tuple(bias.shape) != (out_features,):
        raise ValueError(f"linear: bias shape {tuple(bias.shape)} is not "
                         f"({out_features},)")
    out_shape = tuple(x.shape[:-1]) + (out_features,)
    tokens = _numel(out_shape[:-1])

    def eager():
        x2d = x.data.reshape(-1, in_features)
        w = weight.data
        data = x2d @ w.T
        if bias is not None:
            if bias.data.dtype == data.dtype:
                data += bias.data  # into the fresh GEMM output
            else:
                data = data + bias.data
        # A parameter of another dtype computes in the promoted one; the
        # output is rounded to the input's.
        data = data.astype(x.data.dtype, copy=False)
        x_shape, has_bias = tuple(x.shape), bias is not None

        def backward(grad):
            g2d = grad.reshape(-1, out_features)
            gx = (g2d @ w).reshape(x_shape)
            gw = g2d.T @ x2d
            if has_bias:
                return (gx, gw, g2d.sum(axis=0))
            return (gx, gw)

        return data.reshape(out_shape), backward

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _op("linear", inputs, out_shape, x.dtype, eager,
               flops=2 * tokens * in_features * out_features, kernel="gemm",
               saved=(x if _reshape_views(x, (tokens, in_features))
                      else x.nbytes, weight))


# ---------------------------------------------------------------------- #
# Normalisation / softmax
# ---------------------------------------------------------------------- #
@traceable
def softmax(x, dim: int = -1):
    x = astensor(x)
    _dim("softmax", dim, x.ndim)

    def eager():
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

        return data, backward

    return _op("softmax", (x,), tuple(x.shape), x.dtype, eager,
               flops=5 * x.numel(), saves_out=True)


@traceable
def log_softmax(x, dim: int = -1):
    x = astensor(x)
    _dim("log_softmax", dim, x.ndim)

    def eager():
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

        return data, backward

    return _op("log_softmax", (x,), tuple(x.shape), x.dtype, eager,
               flops=5 * x.numel(), saves_out=True)


def _affine_shape(name, t, shape):
    """Raise ``ValueError`` unless ``t`` (or None) has ``shape``."""
    if t is not None and tuple(t.shape) != tuple(shape):
        raise ValueError(f"{name}: expected a {tuple(shape)} parameter, "
                         f"got {tuple(t.shape)}")


@traceable
def layer_norm(x, normalized_shape, weight=None, bias=None, eps: float = 1e-5):
    x = astensor(x)
    if isinstance(normalized_shape, int):
        normalized_shape = (normalized_shape,)
    normalized_shape = tuple(normalized_shape)
    ndims = len(normalized_shape)
    if tuple(x.shape[x.ndim - ndims:]) != normalized_shape or ndims > x.ndim:
        raise ValueError(f"layer_norm: {normalized_shape} is not the end of "
                         f"{tuple(x.shape)}")
    weight = None if weight is None else astensor(weight)
    bias = None if bias is None else astensor(bias)
    _affine_shape("layer_norm", weight, normalized_shape)
    _affine_shape("layer_norm", bias, normalized_shape)
    axes = tuple(range(x.ndim - ndims, x.ndim))
    inputs = tuple(t for t in (x, weight, bias) if t is not None)
    rows = x.numel() // _numel(normalized_shape)

    def eager():
        v = x.data.astype(np.float32, copy=False)
        x_hat = v - v.mean(axis=axes, keepdims=True)
        scratch = x_hat * x_hat
        inv_std = scratch.mean(axis=axes, keepdims=True)
        inv_std += eps
        inv_std = 1.0 / np.sqrt(inv_std)
        x_hat *= inv_std
        w = weight.data.astype(np.float32, copy=False) \
            if weight is not None else None
        data = scratch  # the variance's square is dead: reuse it
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
            # gx = inv_std * ((g_hat - mean(g_hat))
            #                 - x_hat * mean(g_hat * x_hat))
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

        return data, backward

    # fp32 x_hat and inv_std, and the fp32 weight
    return _op("layer_norm", inputs, tuple(x.shape), x.dtype, eager,
               flops=8 * x.numel(),
               saved=(4 * x.numel(), 4 * rows)
               + ((_f32(weight),) if weight is not None else ()))


@traceable
def rms_norm(x, weight, eps: float = 1e-6):
    """RMSNorm (LLaMA): x / rms(x) * weight, no mean subtraction."""
    x, weight = astensor(x), astensor(weight)
    if x.ndim == 0 or tuple(weight.shape) != (x.shape[-1],):
        raise ValueError(f"rms_norm: a {tuple(weight.shape)} weight for a "
                         f"{tuple(x.shape)} input")

    def eager():
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

        return data, backward

    # fp32 x, inv_rms, x_hat and weight
    return _op("rms_norm", (x, weight), tuple(x.shape), x.dtype, eager,
               flops=6 * x.numel(),
               saved=(_f32(x), 4 * (x.numel() // x.shape[-1]),
                      4 * x.numel(), _f32(weight)))


@traceable_mutating(writes=(1, 2), is_mutating=_batch_norm_mutates)
def batch_norm(x, running_mean, running_var, weight=None, bias=None,
               training: bool = False, momentum: float = 0.1,
               eps: float = 1e-5):
    """2d batch norm over (N, C, H, W); updates running stats in training."""
    x = astensor(x)
    if x.ndim not in (2, 4):
        raise ValueError(f"batch_norm: expected a 2-d or 4-d input, got "
                         f"{tuple(x.shape)}")
    if not training and (running_mean is None or running_var is None):
        raise ValueError("batch_norm: eval mode needs running statistics")
    weight = None if weight is None else astensor(weight)
    bias = None if bias is None else astensor(bias)
    channels = x.shape[1]
    _affine_shape("batch_norm", weight, (channels,))
    _affine_shape("batch_norm", bias, (channels,))
    inputs = tuple(t for t in (x, weight, bias) if t is not None)

    def eager():
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
                gx = inv_std.reshape(shape) * (g_hat - mean_g
                                               - x_hat * mean_gx)
            else:
                gx = inv_std.reshape(shape) * g_hat
            grads = [gx.astype(out_np_dtype)]
            if w_dtype is not None:
                grads.append((g * x_hat).sum(axis=axes).astype(w_dtype))
            if b_dtype is not None:
                grads.append(g.sum(axis=axes).astype(b_dtype))
            return tuple(grads)

        return data, backward

    # fp32 x_hat, inv_std and weight copies
    return _op("batch_norm", inputs, tuple(x.shape), x.dtype, eager,
               flops=8 * x.numel(),
               saved=(4 * x.numel(), 4 * channels)
               + ((4 * channels,) if weight is not None else ()))


# ---------------------------------------------------------------------- #
# Dropout
# ---------------------------------------------------------------------- #
@traceable
def dropout(x, p: float = 0.5, training: bool = True):
    x = astensor(x)
    active = training and p != 0.0

    def eager():
        if not active:
            return x.data.copy(), lambda grad: (grad,)
        keep = 1.0 - p
        # an array even for a 0-d input, where the comparison is a scalar
        mask = np.asarray(frandom.generator().random(x.data.shape) < keep)
        scale = np.float32(1.0 / keep)
        out_np_dtype = x.data.dtype
        return ((x.data * mask * scale).astype(out_np_dtype),
                lambda grad: ((grad * mask * scale).astype(out_np_dtype),))

    return _op("dropout", (x,), tuple(x.shape), x.dtype, eager,
               flops=x.numel(),
               saved=(x.numel(),) if active else ())  # the bool mask


# ---------------------------------------------------------------------- #
# Embedding
# ---------------------------------------------------------------------- #
@traceable
def embedding(indices, weight, padding_idx: int | None = None):
    indices, weight = astensor(indices), astensor(weight)
    vocab, hidden = weight.shape
    out_shape = tuple(indices.shape) + (hidden,)

    def eager():
        idx = indices.data.astype(np.int64)
        data = weight.data[idx]
        out_np_dtype = data.dtype

        def backward(grad):
            gw = np.zeros((vocab, hidden), dtype=np.float32)
            np.add.at(gw, idx.reshape(-1), grad.reshape(-1, hidden))
            if padding_idx is not None:
                gw[padding_idx] = 0
            return (None, gw.astype(out_np_dtype))

        return data, backward

    return _op("embedding", (indices, weight), out_shape, weight.dtype,
               eager, bytes_moved=2 * _nbytes(out_shape, weight.dtype),
               saved=(8 * indices.numel(),))  # int64 indices


# ---------------------------------------------------------------------- #
# Losses
# ---------------------------------------------------------------------- #
@traceable
def cross_entropy(logits, targets, ignore_index: int = -100):
    """Mean cross-entropy over non-ignored targets.

    ``logits``: (N, C) float; ``targets``: (N,) int64.
    """
    logits, targets = astensor(logits), astensor(targets)
    if logits.ndim != 2 or tuple(targets.shape) != tuple(logits.shape[:1]):
        raise ValueError(f"cross_entropy: expected (N, C) logits and (N,) "
                         f"targets, got {tuple(logits.shape)} and "
                         f"{tuple(targets.shape)}")
    n = logits.shape[0]

    def eager():
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

        return np.asarray(loss, np.float32), backward

    # fp32 log p, int64 target indices, bool validity
    return _op("cross_entropy", (logits, targets), (), dtypes.float32, eager,
               flops=6 * logits.numel(),
               saved=(4 * logits.numel(), 8 * n, n))


@traceable
def mse_loss(pred, target):
    pred, target = astensor(pred), astensor(target)
    diff = sub(pred, target)
    return mean(mul(diff, diff))


# ---------------------------------------------------------------------- #
# Convolution / pooling (for WideResNet)
# ---------------------------------------------------------------------- #
def _conv_out_size(name, size, kernel, stride, pad):
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ValueError(f"{name}: a {kernel}-wide window does not fit a "
                         f"{size}-wide input padded by {pad}")
    return out


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int,
            ho: int, wo: int):
    n, c = x.shape[:2]
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kh, kw), axis=(2, 3)
    )[:, :, ::stride, ::stride]  # (n, c, ho, wo, kh, kw)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * kh * kw)
    return np.ascontiguousarray(cols)


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
    ho = _conv_out_size("conv2d", h, kh, stride, padding)
    wo = _conv_out_size("conv2d", w, kw, stride, padding)
    bias = None if bias is None else astensor(bias)

    def eager():
        x32, w_data = x.data.astype(np.float32, copy=False), weight.data
        cols = _im2col(x32, kh, kw, stride, padding, ho, wo)
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
            cols = _im2col(x32, kh, kw, stride, padding, ho, wo)
            gw = (g_mat.T @ cols).reshape(w_shape).astype(w_dtype)
            g_cols = g_mat @ w_data.astype(np.float32, copy=False) \
                .reshape(out_ch, -1)
            gx = _col2im(g_cols, (n, c, h, w), kh, kw, stride, padding, ho,
                         wo).astype(out_np_dtype)
            if has_bias:
                return (gx, gw, g_mat.sum(axis=0).astype(np.float32))
            return (gx, gw)

        return data, backward

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _op("conv2d", inputs, (n, out_ch, ho, wo), x.dtype,
               eager, flops=2 * n * ho * wo * out_ch * in_ch * kh * kw,
               kernel="gemm", saved=(_f32(x), weight))


@traceable
def max_pool2d(x, kernel_size: int, stride: int | None = None,
               padding: int = 0):
    x = astensor(x)
    _refuse("max_pool2d", x, _is_float)
    stride = stride or kernel_size
    n, c, h, w = x.shape
    ho = _conv_out_size("max_pool2d", h, kernel_size, stride, padding)
    wo = _conv_out_size("max_pool2d", w, kernel_size, stride, padding)

    def eager():
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
                gx_padded = gx_padded[:, :, padding:-padding,
                                      padding:-padding]
            return (gx_padded.astype(out_np_dtype),)

        return data.astype(out_np_dtype), backward

    # the padded input and the window maxima
    padded_numel = n * c * (h + 2 * padding) * (w + 2 * padding)
    return _op("max_pool2d", (x,), (n, c, ho, wo), x.dtype, eager,
               saved=((padded_numel + n * c * ho * wo) * x.dtype.itemsize,))


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
