"""Golden eager fixture: losses, parameters and op results stay bit-exact.

``data/eager_golden.json`` pins what the eager NumPy engine computes:

* per-step losses and per-parameter sha256s after short training runs:
  the GPT tp=2 configuration of ``perfbench``'s ``train_gpt_tp2``
  (``schedule_gpt(ckpt_ratio=0.5)``, AdamW, ``LocalCluster(2)``) at tiny
  size for 4 steps and at full size for 2 steps; BERT tp=2 (non-causal
  flash attention, Bias-GeLU); LLaMA tp=2 (silu, rms_norm); an fp16 GPT
  with AdamW master weights; and a BERT trained by SGD with momentum;
* forward outputs and input gradients of the hot ops on edge inputs:
  ``getitem`` with basic and advanced indices (duplicates included),
  causal flash attention with ``s_q != s_k`` and a sequence length that
  is not a multiple of ``block_size``, ``layer_norm`` without weight or
  bias, fp16 ``gelu`` and more.

Losses are pinned as float32 hex bits, arrays as the hex of their raw
bytes (small ones) or their sha256.  An optimisation of the eager engine
must reproduce every entry bit for bit.  Regenerate (only for an
intended numerical change) with::

    PYTHONPATH=src python tests/framework/test_eager_golden.py

The bits also depend on the platform: the BLAS build and the CPU
features NumPy dispatches on decide how matrix products and
transcendentals round.  The fixture records the platform it was
generated on, and the bit-for-bit tests skip with a message on any other
platform; regenerating there from a commit known to be good re-arms
them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.slapo as slapo
from repro import framework as fw
from repro.distributed import DeviceMesh, LocalCluster, ParallelConfig
from repro.framework import dtypes
from repro.framework import functional as F
from repro.kernels import flash_attention
from repro.models import GPT_TRAIN_SIZES, MODEL_ZOO
from repro.schedules import schedule_bert, schedule_gpt, schedule_llama

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).parent / "data" / "eager_golden.json"
BATCH = 4
SEED = 7
#: arrays up to this many bytes are pinned in full, larger ones by hash
INLINE_BYTES = 1024


def platform_fingerprint() -> dict:
    """What the pinned bits depend on besides the code: the machine, the
    NumPy version, the BLAS build and the SIMD extensions NumPy found on
    this CPU."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration")
        or f"{blas.get('name')} {blas.get('version')}",
        "simd": config["SIMD Extensions"]["found"],
    }


def _loss_bits(value) -> str:
    return f"{int(np.float32(value).view(np.uint32)):08x}"


def _pin(array) -> dict:
    array = np.ascontiguousarray(array)
    raw = array.tobytes()
    entry = {"shape": list(array.shape), "dtype": array.dtype.name}
    if len(raw) <= INLINE_BYTES:
        entry["hex"] = raw.hex()
    else:
        entry["sha256"] = hashlib.sha256(raw).hexdigest()
    return entry


def _param_digests(model) -> dict:
    return {name: hashlib.sha256(
                np.ascontiguousarray(p.data).tobytes()).hexdigest()[:24]
            for name, p in model.named_parameters()}


def _batches(config, steps: int, seed: int):
    rng = np.random.default_rng([seed, 1])
    seq, vocab = config.max_seq_len, config.vocab_size
    return [(fw.tensor(rng.integers(0, vocab, (BATCH, seq))),
             fw.tensor(rng.integers(0, vocab, (BATCH * seq,))))
            for _ in range(steps)]


def _train(model, opt, batches, vocab: int) -> list[str]:
    losses = []
    for ids, labels in batches:
        opt.zero_grad()
        logits = model(ids)
        loss = F.cross_entropy(logits.reshape(-1, vocab), labels)
        loss.backward()
        opt.step()
        losses.append(_loss_bits(loss.numpy()))
    return losses


def _train_tp2(family: str, schedule, config, steps: int) -> dict:
    batches = _batches(config, steps, SEED)

    def rank(ctx):
        fw.manual_seed(SEED)
        model = MODEL_ZOO[family][0](config)
        sch = slapo.create_schedule(
            model, mesh=DeviceMesh(ParallelConfig(tp=2), ctx=ctx))
        schedule(sch, config, ckpt_ratio=0.5)
        built = slapo.build(sch).model
        opt = fw.AdamW(built.parameters(), lr=1e-3)
        losses = _train(built, opt, batches, config.vocab_size)
        return losses, _param_digests(built)

    ranks = LocalCluster(2).run(rank)
    return {"losses": [r[0] for r in ranks],
            "params": [r[1] for r in ranks]}


def _train_single(family: str, config, steps: int, make_opt) -> dict:
    fw.manual_seed(SEED)
    model = MODEL_ZOO[family][0](config)
    losses = _train(model, make_opt(model.parameters()),
                    _batches(config, steps, SEED), config.vocab_size)
    return {"losses": [losses], "params": [_param_digests(model)]}


def _gpt(size: str):
    return MODEL_ZOO["GPT"][1].tiny(**GPT_TRAIN_SIZES[size])


def training_runs() -> dict:
    bert = MODEL_ZOO["BERT"][1].tiny(hidden_size=32, num_heads=4,
                                     intermediate_size=64)
    llama = MODEL_ZOO["LLaMA-7B"][1].tiny(hidden_size=32, num_heads=4,
                                          intermediate_size=64)
    return {
        "gpt_tp2_tiny": _train_tp2("GPT", schedule_gpt, _gpt("tiny"), 4),
        "gpt_tp2_full": _train_tp2("GPT", schedule_gpt, _gpt("full"), 2),
        "bert_tp2": _train_tp2("BERT", schedule_bert, bert, 3),
        "llama_tp2": _train_tp2("LLaMA-7B", schedule_llama, llama, 3),
        "gpt_fp16_adamw": _train_single(
            "GPT", MODEL_ZOO["GPT"][1].tiny(dtype=dtypes.float16), 3,
            lambda params: fw.AdamW(params, lr=1e-3)),
        "bert_sgd_momentum": _train_single(
            "BERT", MODEL_ZOO["BERT"][1].tiny(), 3,
            lambda params: fw.SGD(params, lr=0.05, momentum=0.9,
                                  weight_decay=0.01)),
    }


# ---------------------------------------------------------------------- #
# Op edge cases
# ---------------------------------------------------------------------- #
def _randn(rng, shape, dtype=np.float32):
    return rng.standard_normal(shape).astype(dtype)


def _run_op(fn, arrays: dict, rng) -> dict:
    """Forward ``fn(**tensors)`` then backward a seeded output gradient;
    pins the output and every floating input's gradient."""
    tensors = {name: fw.Tensor(a, requires_grad=a.dtype.kind == "f")
               for name, a in arrays.items()}
    out = fn(**tensors)
    grad = _randn(rng, out.shape, out.data.dtype) if out.ndim \
        else np.ones((), out.data.dtype)
    out.backward(grad)
    entry = {"out": _pin(out.data)}
    for name, t in tensors.items():
        if t.requires_grad:
            entry[f"grad_{name}"] = _pin(t.grad.data)
    return entry


GETITEM_INDICES = {
    "slice": (slice(1, 3),),
    "slice_step": (slice(None), slice(0, 5, 2)),
    "negative_step": (slice(None, None, -2), slice(4, 0, -1)),
    "none_ellipsis": (None, Ellipsis, 2),
    "ellipsis_slice": (Ellipsis, slice(3, None)),
    "int": 1,
    "int_tuple": (1, -1),
    "last_dim_slice": (Ellipsis, slice(None, 2)),
    "int_array_dups": np.array([0, 2, 0, 3]),
    "int_array_inner": (slice(None), np.array([1, 1, 4])),
    "bool_mask": np.array([True, False, True, True]),
    "mixed_arrays": (np.array([0, 0, 3]), slice(None), np.array([5, 5, 1])),
}


def op_edges() -> dict:
    rng = np.random.default_rng(2024)
    out = {}
    x = _randn(rng, (4, 5, 6))
    for name, index in GETITEM_INDICES.items():
        out[f"getitem/{name}"] = _run_op(
            lambda x, index=index: F.getitem(x, index), {"x": x}, rng)

    for name, (s_q, s_k, causal, block) in {
        "causal_sq_lt_sk": (6, 10, True, 4),
        "causal_sq_gt_sk": (10, 6, True, 4),
        "causal_ragged": (10, 10, True, 4),
        "causal_even": (16, 16, True, 4),
        "dense_ragged": (7, 11, False, 4),
    }.items():
        arrays = {"q": _randn(rng, (2, 3, s_q, 8)),
                  "k": _randn(rng, (2, 3, s_k, 8)),
                  "v": _randn(rng, (2, 3, s_k, 8))}
        out[f"flash/{name}"] = _run_op(
            lambda q, k, v, causal=causal, block=block: flash_attention(
                q, k, v, is_causal=causal, block_size=block), arrays, rng)
    for name, dtype in {"fp32": np.float32, "fp16": np.float16}.items():
        for causal in (False, True):
            arrays = {n: _randn(rng, (2, 2, 6, 4), dtype) for n in "qkv"}
            out[f"sdpa/{name}_causal{int(causal)}"] = _run_op(
                lambda q, k, v, causal=causal:
                    F.scaled_dot_product_attention(q, k, v,
                                                   is_causal=causal),
                arrays, rng)

    for name, dtype in {"fp32": np.float32, "fp16": np.float16}.items():
        x = _randn(rng, (3, 4, 8), dtype)
        w, b = _randn(rng, (8,), dtype), _randn(rng, (8,), dtype)
        out[f"layer_norm/{name}_plain"] = _run_op(
            lambda x: F.layer_norm(x, 8), {"x": x}, rng)
        out[f"layer_norm/{name}_weight"] = _run_op(
            lambda x, w: F.layer_norm(x, (8,), w), {"x": x, "w": w}, rng)
        out[f"layer_norm/{name}_bias"] = _run_op(
            lambda x, b: F.layer_norm(x, 8, bias=b), {"x": x, "b": b}, rng)
        out[f"layer_norm/{name}_affine"] = _run_op(
            lambda x, w, b: F.layer_norm(x, 8, w, b),
            {"x": x, "w": w, "b": b}, rng)
        out[f"layer_norm/{name}_2d"] = _run_op(
            lambda x: F.layer_norm(x, (4, 8)), {"x": x}, rng)
        out[f"rms_norm/{name}"] = _run_op(
            lambda x, w: F.rms_norm(x, w), {"x": x, "w": w}, rng)
        for op in ("gelu", "silu", "softmax", "log_softmax"):
            fn = getattr(F, op)
            out[f"{op}/{name}"] = _run_op(lambda x, fn=fn: fn(x),
                                          {"x": x * 3}, rng)
        logits = _randn(rng, (6, 5), dtype) * 4
        targets = np.array([0, 4, -100, 2, 2, 1])
        out[f"cross_entropy/{name}"] = _run_op(
            lambda logits, targets: F.cross_entropy(logits, targets),
            {"logits": logits, "targets": targets}, rng)
        xw = _randn(rng, (2, 3, 8), dtype)
        weight = _randn(rng, (5, 8), dtype)
        out[f"linear/{name}_nobias"] = _run_op(
            lambda x, w: F.linear(x, w), {"x": xw, "w": weight}, rng)
        out[f"linear/{name}_bias"] = _run_op(
            lambda x, w, b: F.linear(x, w, b),
            {"x": xw, "w": weight, "b": _randn(rng, (5,), dtype)}, rng)
    out["linear/fp16_fp32bias"] = _run_op(
        lambda x, w, b: F.linear(x, w, b),
        {"x": _randn(rng, (3, 8), np.float16),
         "w": _randn(rng, (5, 8), np.float16),
         "b": _randn(rng, (5,))}, rng)
    return out


def outputs() -> dict:
    return {"platform": platform_fingerprint(), "training": training_runs(),
            "ops": op_edges()}


# ---------------------------------------------------------------------- #
# Tests
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def golden():
    golden = json.loads(GOLDEN.read_text())
    here = json.loads(json.dumps(platform_fingerprint()))
    if golden["platform"] != here:
        pytest.skip(
            f"{GOLDEN.name} was generated on {golden['platform']}, not on "
            f"this platform {here}; its bits depend on the BLAS and the CPU, "
            "so a mismatch here is not a numerical regression.  Regenerate "
            "it on this platform from a commit known to be good to compare "
            "bit for bit.")
    return golden


@functools.lru_cache(maxsize=1)
def _training():
    return json.loads(json.dumps(training_runs()))


@functools.lru_cache(maxsize=1)
def _ops():
    return json.loads(json.dumps(op_edges()))


def test_gpt_sizes_match_the_benchmark():
    """The fixture's GPT runs are ``train_gpt_tp2``'s model."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import train

    assert GPT_TRAIN_SIZES == train.SIZES
    assert (BATCH, 0.5) == (train.BATCH, train.CKPT_RATIO)


def test_fixture_covers_every_case(golden):
    assert set(golden["training"]) == set(_training())
    assert set(golden["ops"]) == set(_ops())
    tiny = golden["training"]["gpt_tp2_tiny"]
    assert len(tiny["losses"][0]) == 4
    assert tiny["losses"][0] == tiny["losses"][1]  # ranks in lockstep


@pytest.mark.parametrize("run", ["gpt_tp2_tiny", "gpt_tp2_full", "bert_tp2",
                                 "llama_tp2", "gpt_fp16_adamw",
                                 "bert_sgd_momentum"])
def test_training_run(golden, run):
    assert _training()[run] == golden["training"][run]


def test_op_edges(golden):
    computed = _ops()
    mismatched = [name for name in golden["ops"]
                  if computed.get(name) != golden["ops"][name]]
    assert not mismatched


if __name__ == "__main__":
    result = outputs()
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
