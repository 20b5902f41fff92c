"""Masking never overflows: fp16 attention runs clean under ``-W error``.

``apply_causal_mask`` fills with the scores dtype's most negative finite
value (HF's ``finfo(dtype).min``), and ``masked_fill`` raises
``OverflowError`` for a finite fill value its dtype cannot hold, as torch
does, instead of casting it to ``-inf`` behind a ``RuntimeWarning``.
Every test here turns warnings into errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import framework as fw
from repro.baselines.megatron import build_megatron_model
from repro.framework import dtypes
from repro.framework import functional as F
from repro.models import MODEL_ZOO

pytestmark = pytest.mark.filterwarnings("error")

FLOATS = [np.float16, np.float32]


@pytest.mark.parametrize("dtype", FLOATS)
def test_causal_mask_fills_the_lowest_finite_value(dtype):
    scores = np.random.default_rng(0).standard_normal((2, 5, 7)).astype(
        dtype)
    out = F.apply_causal_mask(fw.Tensor(scores)).data
    future = np.triu(np.ones((5, 7), bool), k=1)
    assert out.dtype == dtype
    assert np.all(out[:, future] == np.finfo(dtype).min)
    assert np.array_equal(out[:, ~future], scores[:, ~future])


@pytest.mark.parametrize("dtype", FLOATS)
def test_masked_softmax_gives_future_keys_exactly_zero(dtype):
    scores = fw.Tensor(
        (np.random.default_rng(1).standard_normal((3, 6, 6)) * 4).astype(
            dtype), requires_grad=True)
    probs = F.softmax(F.apply_causal_mask(scores), dim=-1)
    probs.backward(np.ones(probs.shape, dtype))
    future = np.triu(np.ones((6, 6), bool), k=1)
    assert np.all(probs.data[:, future] == 0)
    assert np.allclose(probs.data.astype(np.float64).sum(-1), 1.0,
                       atol=1e-2)
    assert np.all(np.isfinite(scores.grad.data))


@pytest.mark.parametrize("device", ["cpu", "meta"])
def test_masked_fill_rejects_an_overflowing_fill(device):
    x = fw.Tensor.meta((2, 2), dtypes.float16) if device == "meta" \
        else fw.Tensor(np.zeros((2, 2), np.float16))
    mask = fw.tensor(np.array([[True, False], [False, True]]))
    for value in (-1e9, 1e5, 65520.0):
        with pytest.raises(OverflowError, match="overflows float16"):
            F.masked_fill(x, mask, value)
    with pytest.raises(OverflowError):
        x.masked_fill(mask, -1e9)


def test_masked_fill_keeps_representable_fills():
    x = fw.Tensor(np.zeros((2, 2), np.float16))
    mask = fw.tensor(np.array([[True, False], [False, True]]))
    for value in (-65504.0, 65504.0, -np.inf, np.inf):
        out = F.masked_fill(x, mask, value).data
        assert out[0, 0] == out[1, 1] == np.float16(value)
    assert np.isnan(F.masked_fill(x, mask, np.nan).data[0, 0])
    wide = F.masked_fill(fw.Tensor(np.zeros(3, np.float32)),
                         fw.tensor(np.array([True, False, True])), -1e9)
    assert wide.data[0] == np.float32(-1e9)


def test_fp16_gpt_step_runs_clean():
    """The fp16 GPT of the golden fixture's ``gpt_fp16_adamw`` run: one
    forward and backward raise no warning."""
    config = MODEL_ZOO["GPT"][1].tiny(dtype=dtypes.float16)
    fw.manual_seed(0)
    model = MODEL_ZOO["GPT"][0](config)
    ids = fw.randint(0, config.vocab_size, (2, config.max_seq_len))
    loss = F.cross_entropy(model(ids).reshape(-1, config.vocab_size),
                           ids.reshape(-1))
    loss.backward()
    assert np.isfinite(loss.numpy())


def test_fp16_megatron_attention_runs_clean():
    """Megatron's fused scaled-masked-softmax fills fp16 scores too."""
    config = MODEL_ZOO["GPT"][1].tiny(dtype=dtypes.float16)
    fw.manual_seed(0)
    model = build_megatron_model("GPT", config)
    ids = fw.randint(0, config.vocab_size, (2, config.max_seq_len))
    assert np.all(np.isfinite(model(ids).numpy().astype(np.float32)))
