"""The float32 ``erf`` kernel behind exact GELU, against ``math.erf``.

``F._erf`` evaluates a rational approximation in float32 chunks; ``F.gelu``
uses it in its forward and in the fp16 backward's recompute.  The oracle
is the standard library's float64 ``math.erf``, so no SciPy is needed,
and a subprocess checks that importing and running the engine loads no
SciPy at all: NumPy is the package's only dependency.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import functional as F

SRC = Path(__file__).resolve().parents[2] / "src"
#: the kernel's documented bound, max abs error against ``math.erf``
ERF_ATOL = 5e-7
#: GELU forward and derivative against their float64 exact values
GELU_ATOL = 2e-6

_erf64 = np.vectorize(math.erf, otypes=[np.float64])


def exact_gelu(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.float64)
    return 0.5 * v * (1.0 + _erf64(v / math.sqrt(2.0)))


def exact_gelu_grad(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.float64)
    return (0.5 * (1.0 + _erf64(v / math.sqrt(2.0)))
            + v * np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi))


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32)


class TestErfKernel:
    def test_dense_grid_within_bound(self):
        x = np.linspace(-6.0, 6.0, 2_000_001, dtype=np.float32)
        got = F._erf(x)
        assert got.dtype == np.float32
        assert np.abs(got - _erf64(x)).max() <= ERF_ATOL
        assert np.abs(got).max() <= 1.0

    def test_odd_bit_for_bit(self):
        x = np.concatenate([
            np.linspace(0.0, 6.0, 300_001, dtype=np.float32),
            np.array([1e-30, 1e-40, 1e-45, 4.0, 1e30, np.inf], np.float32)])
        assert np.array_equal(_bits(F._erf(-x)), _bits(-F._erf(x)))

    @pytest.mark.parametrize("x", [0.0, 1e-30, 1.1754944e-38, 1e-40, 1e-45])
    def test_zero_tiny_and_denormal_keep_their_sign(self, x):
        for value in (x, -x):
            arg = np.array([value], np.float32)
            got = F._erf(arg)[0]
            assert abs(got - math.erf(float(arg[0]))) <= ERF_ATOL
            assert np.signbit(got) == np.signbit(arg[0])

    def test_saturates_beyond_four(self):
        x = np.array([4.0, 4.5, 10.0, 1e30, np.finfo(np.float32).max],
                     np.float32)
        assert np.abs(F._erf(x) - _erf64(x)).max() <= ERF_ATOL
        assert np.abs(F._erf(-x) + _erf64(x)).max() <= ERF_ATOL

    def test_inf_and_nan(self):
        got = F._erf(np.array([np.inf, -np.inf, np.nan], np.float32))
        assert got[0] == 1.0 and got[1] == -1.0 and np.isnan(got[2])

    def test_chunk_boundaries_and_layouts(self):
        """Arrays longer than a chunk, non-contiguous views and float16
        inputs give what the kernel gives element by element."""
        rng = np.random.default_rng(0)
        x = (rng.standard_normal(3 * F._ERF_CHUNK + 17) * 3).astype(
            np.float32)
        flat = F._erf(x)
        assert np.array_equal(flat, np.concatenate(
            [F._erf(x[i:i + 1000]) for i in range(0, x.size, 1000)]))
        grid = x[:4096].reshape(64, 64)
        assert np.array_equal(F._erf(grid.T), flat[:4096].reshape(64, 64).T)
        assert np.array_equal(F._erf(grid[:, ::3]),
                              flat[:4096].reshape(64, 64)[:, ::3])
        half = x[:4096].astype(np.float16)
        got = F._erf(half)
        assert got.dtype == np.float16
        assert np.array_equal(got, F._erf(half.astype(np.float32)).astype(
            np.float16))

    def test_does_not_write_its_input(self):
        x = np.linspace(-8.0, 8.0, 1001, dtype=np.float32)
        before = x.copy()
        F._erf(x)
        assert np.array_equal(x, before)


class TestGeluNumerics:
    def test_fp32_forward_and_backward(self):
        v = np.linspace(-6.0, 6.0, 200_001, dtype=np.float32)
        x = fw.Tensor(v, requires_grad=True)
        out = F.gelu(x)
        out.backward(np.ones_like(v))
        assert out.data.dtype == x.grad.data.dtype == np.float32
        assert np.abs(out.data - exact_gelu(v)).max() <= GELU_ATOL
        assert np.abs(x.grad.data - exact_gelu_grad(v)).max() <= GELU_ATOL

    def test_fp16_forward_matches_exact_erf_arithmetic(self):
        """An fp16 forward rounds ``v/√2``, ``erf`` and ``1 + erf`` to
        fp16 (documented on ``gelu``).  On every fp16 value in [-6, 6] it
        equals that same fp16 arithmetic over the float64 exact erf: the
        kernel's error never flips one of the roundings."""
        v = np.unique(np.linspace(-6.0, 6.0, 200_001).astype(np.float16))
        arg = v * F._INV_SQRT2
        ref = 0.5 * v * (1.0 + _erf64(arg).astype(np.float16))
        out = F.gelu(fw.Tensor(v)).data
        assert out.dtype == np.float16
        assert np.array_equal(out, ref)

    def test_fp16_backward_within_bound_of_one_rounding(self):
        """The fp16 backward works in fp32 and rounds once, to fp16."""
        v = np.unique(np.linspace(-6.0, 6.0, 200_001).astype(np.float16))
        x = fw.Tensor(v, requires_grad=True)
        F.gelu(x).backward(np.ones_like(v))
        grad = x.grad.data
        assert grad.dtype == np.float16
        exact = exact_gelu_grad(v)
        half_ulp = np.spacing(np.abs(exact).astype(np.float16)).astype(
            np.float64) / 2
        assert np.all(np.abs(grad - exact) <= GELU_ATOL + half_ulp)

    def test_forward_transient_memory(self):
        """Beyond its output, one fp32 forward allocates the saved
        ``1 + erf`` and one chunk of scratch."""
        v = np.random.default_rng(1).standard_normal((4, 128, 1024)).astype(
            np.float32)
        x = fw.Tensor(v, requires_grad=True)
        F.gelu(x)  # warm-up
        tracemalloc.start()
        try:
            out = F.gelu(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.data.nbytes + 0.5e6

    def test_fp16_backward_transient_memory(self):
        """The fp16 backward's float32 work is two buffers, the erf
        argument (overwritten in place) and the derivative, plus chunk
        scratch; the fp16 gradient it returns fits beside the latter."""
        v = np.random.default_rng(1).standard_normal((4, 128, 1024)).astype(
            np.float16)
        grad = fw.Tensor(np.ones_like(v))
        for _ in range(2):  # the first pass warms up
            x = fw.Tensor(v, requires_grad=True)
            out = F.gelu(x)
            tracemalloc.start()
            try:
                out.backward(grad)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 4 * out.data.nbytes + 0.5e6


def test_engine_loads_no_scipy():
    """Importing the package and running an eager gelu forward and
    backward loads no ``scipy`` module: NumPy is the only dependency
    ``pyproject.toml`` declares."""
    code = textwrap.dedent("""
        import importlib, pkgutil, sys
        import numpy as np
        import repro, repro.framework, repro.slapo, repro.models
        import repro.schedules
        from repro import framework as fw
        from repro.framework import functional as F
        for dtype in (np.float32, np.float16):
            x = fw.Tensor(np.linspace(-3, 3, 64).astype(dtype),
                          requires_grad=True)
            F.gelu(x).sum().backward()
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
