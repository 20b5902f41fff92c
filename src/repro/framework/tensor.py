"""The framework tensor: numpy storage, autograd hooks, and a meta device.

A tensor lives on one of two devices:

* ``"cpu"`` — backed by a real ``numpy.ndarray``; supports autograd.
* ``"meta"`` — shape/dtype only, no storage.  Billion-parameter models are
  instantiated on meta so the performance simulator can walk their structure
  without allocating memory (mirrors ``torch.device("meta")``).

Arithmetic and method calls defer to :mod:`repro.framework.functional`, which
centralises shape inference, autograd, and simulator event reporting.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import autograd, dtype as dtypes, random as frandom
from .dtype import DType


def _normalize_shape(shape) -> tuple[int, ...]:
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    return tuple(int(s) for s in shape)


class Size(tuple):
    """Shape tuple with ``numel``, mirroring ``torch.Size``."""

    def numel(self) -> int:
        out = 1
        for s in self:
            out *= s
        return out


class Tensor:
    """An n-dimensional array with optional autograd tracking."""

    # Make numpy defer binary ops (np_array * tensor) to Tensor.__rmul__.
    __array_priority__ = 1000

    def __init__(self, data, dtype: DType | None = None, requires_grad: bool = False,
                 device: str = "cpu"):
        if device == "meta":
            raise ValueError("use Tensor.meta(shape, dtype) for meta tensors")
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if dtype is not None:
            array = array.astype(dtype.np_dtype, copy=False)
        elif array.dtype == np.float64:
            # Match torch's default of 32-bit floats for Python literals.
            array = array.astype(np.float32)
        self.data: np.ndarray | None = array
        self._meta_shape: tuple[int, ...] | None = None
        self._dtype = DType.from_numpy(array.dtype)
        self.device = "cpu"
        self.requires_grad = bool(requires_grad) and self._dtype.is_floating
        self.grad: Tensor | None = None
        self.grad_fn: autograd.GradNode | None = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def meta(shape, dtype: DType = dtypes.float32,
             requires_grad: bool = False) -> "Tensor":
        """Create a storage-less tensor carrying only shape and dtype."""
        t = Tensor.__new__(Tensor)
        t.data = None
        t._meta_shape = _normalize_shape(shape)
        t._dtype = dtype
        t.device = "meta"
        t.requires_grad = bool(requires_grad) and dtype.is_floating
        t.grad = None
        t.grad_fn = None
        return t

    @staticmethod
    def wrap(array: np.ndarray, dtype: DType) -> "Tensor":
        """A tensor over ``array``, whose dtype the caller vouches is
        ``dtype``: no conversion and no lookup."""
        t = Tensor.__new__(Tensor)
        t.data = array
        t._meta_shape = None
        t._dtype = dtype
        t.device = "cpu"
        t.requires_grad = False
        t.grad = None
        t.grad_fn = None
        return t

    @staticmethod
    def from_numpy(array: np.ndarray) -> "Tensor":
        return Tensor(array)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def is_meta(self) -> bool:
        return self.device == "meta"

    @property
    def shape(self) -> Size:
        if self.is_meta:
            return Size(self._meta_shape)
        return Size(self.data.shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def dtype(self) -> DType:
        return self._dtype

    @property
    def is_leaf(self) -> bool:
        return self.grad_fn is None

    @property
    def nbytes(self) -> int:
        return self.numel() * self._dtype.itemsize

    def numel(self) -> int:
        return self.shape.numel()

    def size(self, dim: int | None = None):
        if dim is None:
            return self.shape
        return self.shape[dim]

    def dim(self) -> int:
        return self.ndim

    def item(self):
        if self.is_meta:
            raise RuntimeError("cannot call item() on a meta tensor")
        return self.data.item()

    def numpy(self) -> np.ndarray:
        if self.is_meta:
            raise RuntimeError("cannot export a meta tensor to numpy")
        return self.data

    def tolist(self):
        return self.numpy().tolist()

    def __len__(self) -> int:
        if self.ndim == 0:
            raise TypeError("len() of a 0-d tensor")
        return self.shape[0]

    def __repr__(self) -> str:
        if self.is_meta:
            return f"Tensor(meta, shape={tuple(self.shape)}, dtype={self.dtype.name})"
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad})"

    def __bool__(self) -> bool:
        if self.is_meta:
            raise RuntimeError("bool() on a meta tensor is data-dependent")
        if self.data.size != 1:
            raise RuntimeError("bool() of a multi-element tensor is ambiguous")
        return bool(self.data)

    # ------------------------------------------------------------------ #
    # Autograd
    # ------------------------------------------------------------------ #
    def backward(self, grad=None) -> None:
        autograd.backward(self, grad)

    def detach(self) -> "Tensor":
        if self.is_meta:
            return Tensor.meta(self.shape, self.dtype)
        out = Tensor(self.data)
        out._dtype = self._dtype
        return out

    def requires_grad_(self, flag: bool = True) -> "Tensor":
        if flag and not self._dtype.is_floating:
            raise RuntimeError("only floating-point tensors can require grad")
        self.requires_grad = flag
        return self

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate_grad(self, grad_array: np.ndarray) -> None:
        grad_array = autograd.unbroadcast(np.asarray(grad_array), tuple(self.shape))
        if self.grad is None:
            acc = grad_array.astype(self._dtype.np_dtype, copy=True)
            self.grad = Tensor(acc, dtype=self._dtype)
        else:
            self.grad.data += grad_array

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to(self, dtype: DType) -> "Tensor":
        return F.cast(self, dtype)

    def float(self) -> "Tensor":
        return self.to(dtypes.float32)

    def half(self) -> "Tensor":
        return self.to(dtypes.float16)

    def clone(self) -> "Tensor":
        return F.clone(self)

    def copy_(self, other: "Tensor") -> "Tensor":
        """In-place copy of values (no autograd), used by optimizers/sharding."""
        if self.is_meta or other.is_meta:
            raise RuntimeError("copy_ is not supported on meta tensors")
        self.data[...] = other.data.astype(self._dtype.np_dtype, copy=False)
        return self

    # ------------------------------------------------------------------ #
    # Operator sugar — all defer to functional
    # ------------------------------------------------------------------ #
    def __add__(self, other):
        return F.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return F.sub(self, other)

    def __rsub__(self, other):
        return F.sub(other, self)

    def __mul__(self, other):
        return F.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return F.div(self, other)

    def __rtruediv__(self, other):
        return F.div(other, self)

    def __matmul__(self, other):
        return F.matmul(self, other)

    def __neg__(self):
        return F.neg(self)

    def __pow__(self, exponent):
        return F.pow(self, exponent)

    def __getitem__(self, index):
        return F.getitem(self, index)

    def __eq__(self, other):
        return F.eq(self, other)

    def __ne__(self, other):
        return F.ne(self, other)

    def __lt__(self, other):
        return F.lt(self, other)

    def __gt__(self, other):
        return F.gt(self, other)

    def __hash__(self) -> int:
        return id(self)

    # ------------------------------------------------------------------ #
    # Method-style ops used by model code
    # ------------------------------------------------------------------ #
    def matmul(self, other):
        return self.__matmul__(other)

    def view(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    reshape = view

    def flatten(self, start_dim: int = 0, end_dim: int = -1):
        return F.flatten(self, start_dim, end_dim)

    def transpose(self, dim0: int, dim1: int):
        return F.transpose(self, dim0, dim1)

    @property
    def T(self):
        return F.transpose(self, -2, -1)

    def permute(self, *dims):
        if len(dims) == 1 and isinstance(dims[0], (tuple, list)):
            dims = tuple(dims[0])
        return F.permute(self, dims)

    def contiguous(self):
        return self

    def split(self, split_size, dim: int = 0):
        return F.split(self, split_size, dim)

    def chunk(self, chunks: int, dim: int = 0):
        return F.chunk(self, chunks, dim)

    def unsqueeze(self, dim: int):
        return F.unsqueeze(self, dim)

    def squeeze(self, dim: int):
        return F.squeeze(self, dim)

    def expand(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.expand(self, shape)

    def sum(self, dim=None, keepdim: bool = False):
        return F.sum(self, dim, keepdim)

    def mean(self, dim=None, keepdim: bool = False):
        return F.mean(self, dim, keepdim)

    def max(self, dim=None, keepdim: bool = False):
        return F.max(self, dim, keepdim)

    def argmax(self, dim=None):
        return F.argmax(self, dim)

    def exp(self):
        return F.exp(self)

    def sqrt(self):
        return F.sqrt(self)

    def tanh(self):
        return F.tanh(self)

    def masked_fill(self, mask, value):
        return F.masked_fill(self, mask, value)


def astensor(value, dtype: DType | None = None) -> Tensor:
    """Coerce scalars/arrays/tensors into a Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)


# ---------------------------------------------------------------------- #
# Factory functions (torch-like module-level constructors)
# ---------------------------------------------------------------------- #
def tensor(data, dtype: DType | None = None, requires_grad: bool = False) -> Tensor:
    return Tensor(data, dtype=dtype, requires_grad=requires_grad)


def zeros(*shape, dtype: DType = dtypes.float32, device: str = "cpu",
          requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list, Size)):
        shape = tuple(shape[0])
    if device == "meta":
        return Tensor.meta(shape, dtype, requires_grad)
    return Tensor(np.zeros(shape, dtype.np_dtype), requires_grad=requires_grad)


def ones(*shape, dtype: DType = dtypes.float32, device: str = "cpu",
         requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list, Size)):
        shape = tuple(shape[0])
    if device == "meta":
        return Tensor.meta(shape, dtype, requires_grad)
    return Tensor(np.ones(shape, dtype.np_dtype), requires_grad=requires_grad)


def full(shape, fill_value, dtype: DType = dtypes.float32) -> Tensor:
    return Tensor(np.full(_normalize_shape(shape), fill_value, dtype.np_dtype))


def arange(*args, dtype: DType = dtypes.int64) -> Tensor:
    return Tensor(np.arange(*args), dtype=dtype)


def randn(*shape, dtype: DType = dtypes.float32, device: str = "cpu",
          requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list, Size)):
        shape = tuple(shape[0])
    if device == "meta":
        return Tensor.meta(shape, dtype, requires_grad)
    data = frandom.generator().standard_normal(shape).astype(dtype.np_dtype)
    return Tensor(data, requires_grad=requires_grad)


def rand(*shape, dtype: DType = dtypes.float32) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list, Size)):
        shape = tuple(shape[0])
    data = frandom.generator().random(shape).astype(dtype.np_dtype)
    return Tensor(data)


def randint(low: int, high: int, shape, dtype: DType = dtypes.int64) -> Tensor:
    data = frandom.generator().integers(low, high, _normalize_shape(shape))
    return Tensor(data, dtype=dtype)


def zeros_like(t: Tensor) -> Tensor:
    return zeros(tuple(t.shape), dtype=t.dtype,
                 device="meta" if t.is_meta else "cpu")


def ones_like(t: Tensor) -> Tensor:
    return ones(tuple(t.shape), dtype=t.dtype,
                device="meta" if t.is_meta else "cpu")


def allclose(a: Tensor, b: Tensor, rtol: float = 1e-5, atol: float = 1e-6) -> bool:
    return np.allclose(a.numpy(), b.numpy(), rtol=rtol, atol=atol)


# Last: functional builds on Tensor, and every method above calls it.
from . import functional as F  # noqa: E402
