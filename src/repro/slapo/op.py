"""Sync-op library for ``.sync(mode, sync_op_or_fn=...)``.

The paper's appendix schedules vocab-parallel embeddings with
``slapo.op.embed_fwd_hook`` / ``embed_bwd_hook``; these are those hooks.

Vocab-parallel embedding protocol (Megatron-LM): each rank holds a
contiguous slice of the vocabulary rows.  The pre-hook maps global token
ids into the local range and remembers which ids fall outside; the
post-hook zeroes those rows and all-reduces, so the sum across ranks
reconstructs the full lookup.
"""

from __future__ import annotations

from repro.framework import functional as F


def vocab_shard(ids, start: int, stop: int, dtype):
    """Megatron-LM's vocab-parallel lookup prologue, from declared ops.

    Returns ``(local, mask)``: ``ids`` mapped into the shard's rows
    ``[start, stop)`` (an id outside reads row 0) and a ``dtype`` mask of
    shape ``ids.shape + (1,)``, 1 where the id is inside.  Both devices
    run the same ops, so both record the same events.
    """
    # ids < start implies ids < stop: the two differ exactly inside
    inside = F.ne(F.lt(ids, start), F.lt(ids, stop))
    local = F.where(inside, F.sub(ids, start), 0)
    return local, F.unsqueeze(F.cast(inside, dtype), -1)


def embed_fwd_hook(module, args, group):
    """Forward pre-hook: localise token ids into this rank's vocab shard."""
    if group.size == 1:
        return args  # single device: the embedding holds the full vocab
    vocab_range = module._slapo_meta.get("vocab_range")
    if vocab_range is None:
        raise RuntimeError(
            "embed_fwd_hook needs a vocab-sharded embedding; apply "
            '.shard("weight", axis=0) first'
        )
    local, module._slapo_meta["embed_mask"] = vocab_shard(
        args[0], *vocab_range, module.weight.dtype)
    return (local,) + tuple(args[1:])


def embed_bwd_hook(module, output, group):
    """Forward post-hook: zero out-of-shard rows, then all-reduce.

    (Named ``bwd`` in the paper's appendix because the masked all-reduce
    also defines the gradient flow: the backward of the all-reduce is the
    identity and the mask stops gradients for foreign rows.)
    """
    if group.size == 1:
        return output
    mask = module._slapo_meta.pop("embed_mask", None)
    if mask is None:
        raise RuntimeError("embed_bwd_hook must follow embed_fwd_hook")
    return group.all_reduce(output * mask)


def all_reduce_hook(module, value, group):
    """Generic hook: all-reduce whatever passes through."""
    return group.all_reduce(value)


def reduce_scatter_hook(module, value, group):
    return group.reduce_scatter(value)
