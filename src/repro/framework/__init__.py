"""Mini deep-learning framework: the PyTorch-shaped substrate for Slapo.

Public surface (mirrors the torch APIs the paper's schedules touch)::

    from repro import framework as fw
    from repro.framework import functional as F

    layer = fw.Linear(16, 32)
    out = layer(fw.randn(4, 16))
    out.sum().backward()
"""

from . import dtype as dtypes
from . import functional
from . import init
from . import random
from .autograd import detect_anomaly, enable_grad, no_grad
from .dtype import DType, bool_, float16, float32, float64, int32, int64
from .events import recording, set_recorder
from .layers import (
    GELU,
    SiLU,
    AdaptiveAvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Identity,
    LayerNorm,
    Linear,
    MaxPool2d,
    MoEExpert,
    MoEFeedForward,
    ModuleList,
    ReLU,
    RMSNorm,
    Sequential,
    Softmax,
    Tanh,
)
from .module import Module
from .optim import SGD, AdamW, Optimizer
from .parameter import Parameter
from .random import get_rng_state, manual_seed, set_rng_state
from .tensor import (
    Size,
    Tensor,
    allclose,
    arange,
    astensor,
    full,
    ones,
    ones_like,
    rand,
    randint,
    randn,
    tensor,
    zeros,
    zeros_like,
)

__all__ = [
    "DType", "float16", "float32", "float64", "int32", "int64", "bool_",
    "Tensor", "Parameter", "Module", "Size",
    "Linear", "LayerNorm", "RMSNorm", "Embedding", "Dropout", "GELU", "ReLU",
    "SiLU", "Tanh", "Softmax", "Conv2d", "BatchNorm2d", "MaxPool2d",
    "AdaptiveAvgPool2d", "Sequential", "ModuleList", "Identity",
    "MoEExpert", "MoEFeedForward",
    "SGD", "AdamW", "Optimizer",
    "no_grad", "enable_grad", "detect_anomaly",
    "manual_seed", "get_rng_state", "set_rng_state",
    "recording", "set_recorder",
    "tensor", "zeros", "ones", "full", "arange", "randn", "rand", "randint",
    "zeros_like", "ones_like", "allclose", "astensor",
    "functional", "init", "random", "dtypes",
]
