"""``detect_anomaly()``: NaN/Inf raise at the op or tape node making them."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import functional as F
from repro.kernels import flash_attention


@pytest.fixture(autouse=True)
def _quiet_overflow():
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        yield


def test_forward_overflow_names_the_op():
    x = fw.tensor(np.array([1.0, 100.0], np.float32), requires_grad=True)
    y = x * 2.0
    with fw.detect_anomaly():
        with pytest.raises(FloatingPointError, match="'exp'"):
            F.exp(y)


def test_backward_overflow_names_the_grad_node():
    x = fw.tensor(np.array([0.0, 4.0], np.float32), requires_grad=True)
    with fw.detect_anomaly():
        y = F.sqrt(x)  # finite forward, infinite gradient at 0
        with pytest.raises(FloatingPointError, match=r"GradNode\(sqrt\)"):
            y.sum().backward()


def test_flash_attention_output_is_checked():
    q = np.zeros((1, 1, 4, 2), np.float32)
    q[0, 0, 1, 0] = np.nan
    with fw.detect_anomaly():
        with pytest.raises(FloatingPointError, match="flash_attention"):
            flash_attention(q, q, q, is_causal=True, block_size=2)


def test_outside_the_context_non_finite_values_pass_through():
    out = F.exp(fw.tensor(np.array([100.0], np.float32)))
    assert np.isinf(out.data).all()
    with fw.detect_anomaly():
        pass
    assert np.isinf(F.exp(fw.tensor(np.array([100.0], np.float32))).data).all()


def test_another_threads_ops_are_unaffected():
    entered, computed = threading.Event(), threading.Event()
    results = {}

    def checking():
        with fw.detect_anomaly(), np.errstate(over="ignore"):
            entered.set()
            computed.wait(timeout=10)
            try:
                F.exp(fw.tensor(np.array([100.0], np.float32)))
            except FloatingPointError:
                results["checking"] = "raised"

    def plain():
        entered.wait(timeout=10)
        with np.errstate(over="ignore"):
            results["plain"] = F.exp(
                fw.tensor(np.array([100.0], np.float32))).data
        computed.set()

    threads = [threading.Thread(target=checking),
               threading.Thread(target=plain)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert results["checking"] == "raised"
    assert np.isinf(results["plain"]).all()
