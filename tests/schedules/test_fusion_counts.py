"""The Table-4 fusions match the same subgraphs at every tensor-parallel
degree.

Tensor parallelism adds ``.sync()`` hooks to the linears a fusion
pattern sits between; tracing lifts them into ``sync_*`` nodes at their
call sites, so the bias-add and activation stay visible to ``.find()``.
Each recipe's ``fuse`` records — the matched nodes by name — are
therefore the same at tp=2 as at tp=1, and the residual ``dropout_add``
pattern matches the models' ``residual + dropout(x)`` operand order.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.schedules import SCHEDULES

from test_history_golden import history


def fuse_records(family: str, tp: int) -> list:
    return [record for record in history(family, tp, 1, 0.0)
            if record[0] == "fuse"]


def fusion_counts(records: list) -> Counter:
    """Matches fused per kernel name."""
    return Counter({name: sum(len(r[2][0]) for r in records
                              if r[3]["name"] == name)
                    for name in {r[3]["name"] for r in records}})


@pytest.mark.parametrize("family", list(SCHEDULES))
def test_fuse_records_at_tp2_equal_tp1(family):
    assert fuse_records(family, 2) == fuse_records(family, 1)


@pytest.mark.parametrize("family,layers", [
    ("GPT", 36), ("GPT-10B", 48), ("OPT", 32), ("OPT-350M", 24)])
def test_pre_ln_recipes_fuse_dropout_add_per_layer(family, layers):
    for tp in (1, 2):
        counts = fusion_counts(fuse_records(family, tp))
        assert counts["DropoutAdd"] == layers, (tp, counts)
