"""repro.kernels — efficient kernels and stand-in fusion compilers."""

from .compilers import (
    SUPPORTED_COMPILERS,
    CompilerNotSupportedError,
    FusedKernel,
    compile_subgraph,
)
from .flash_attention import FlashAttention, flash_attention

__all__ = [
    "FlashAttention", "flash_attention",
    "FusedKernel", "compile_subgraph", "SUPPORTED_COMPILERS",
    "CompilerNotSupportedError",
]
