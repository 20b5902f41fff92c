"""Synthetic workload generators.

The paper trains on standard corpora but measures *throughput*, which
depends only on tensor shapes — synthetic batches of the right shape and
vocabulary exercise the identical code path (the ``repro_why`` substitution
for the data dependency).
"""

from __future__ import annotations

from repro import framework as fw
from repro.framework.tensor import Tensor

from .configs import ResNetConfig, TransformerConfig


def lm_batch(config: TransformerConfig, batch_size: int,
             seq_len: int | None = None, device: str = "cpu"
             ) -> tuple[Tensor, Tensor]:
    """(input_ids, labels) for MLM/CLM training."""
    seq_len = seq_len or config.max_seq_len
    if device == "meta":
        ids = Tensor.meta((batch_size, seq_len), fw.int64)
        labels = Tensor.meta((batch_size * seq_len,), fw.int64)
        return ids, labels
    ids = fw.randint(0, config.vocab_size, (batch_size, seq_len))
    labels = fw.randint(0, config.vocab_size, (batch_size * seq_len,))
    return ids, labels


def seq2seq_batch(config: TransformerConfig, batch_size: int,
                  src_len: int | None = None, tgt_len: int | None = None,
                  device: str = "cpu") -> tuple[Tensor, Tensor, Tensor]:
    """(input_ids, decoder_input_ids, labels) for T5-style training.

    The paper uses 1024/512 source/target lengths for T5 (Table 3).
    """
    src_len = src_len or config.max_seq_len
    tgt_len = tgt_len or max(config.max_seq_len // 2, 1)
    if device == "meta":
        return (Tensor.meta((batch_size, src_len), fw.int64),
                Tensor.meta((batch_size, tgt_len), fw.int64),
                Tensor.meta((batch_size * tgt_len,), fw.int64))
    return (fw.randint(0, config.vocab_size, (batch_size, src_len)),
            fw.randint(0, config.vocab_size, (batch_size, tgt_len)),
            fw.randint(0, config.vocab_size, (batch_size * tgt_len,)))


def image_batch(config: ResNetConfig, batch_size: int, device: str = "cpu"
                ) -> tuple[Tensor, Tensor]:
    """(images, labels) for image classification."""
    shape = (batch_size, 3, config.image_size, config.image_size)
    if device == "meta":
        return (Tensor.meta(shape, config.dtype),
                Tensor.meta((batch_size,), fw.int64))
    return (fw.randn(*shape, dtype=config.dtype),
            fw.randint(0, config.num_classes, (batch_size,)))


def example_inputs(family: str, config, batch_size: int = 1,
                   seq_len: int | None = None, device: str = "cpu"
                   ) -> tuple[Tensor, ...]:
    """A MODEL_ZOO family's forward inputs for one synthetic batch:
    ``(input_ids, decoder_input_ids)`` for T5 (both ``seq_len`` long when
    it is given), ``(images,)`` for WideResNet, ``(input_ids,)`` for the
    language models."""
    if family == "T5":
        src, tgt, _ = seq2seq_batch(config, batch_size, seq_len, seq_len,
                                    device=device)
        return (src, tgt)
    if family == "WideResNet":
        images, _ = image_batch(config, batch_size, device=device)
        return (images,)
    ids, _ = lm_batch(config, batch_size, seq_len, device=device)
    return (ids,)
