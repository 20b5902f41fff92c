"""Schedule lines-of-code accounting (paper Table 4).

Counts non-blank, non-comment source lines between the ``# <schedule>`` /
``# </schedule>`` markers of each family module — the code a performance
engineer actually writes: every family-specific step of the family's
:class:`~repro.schedules.common.Layout` (its vocab, attention, MLP, conv
pair, flash-attention and fusion steps and their helpers), ``def`` lines
included.  The layer-path list, the ``Layout`` wiring and the shared
driver :func:`~repro.schedules.common.apply_layout` are not counted, as
the other helpers of :mod:`~repro.schedules.common` are not.
"""

from __future__ import annotations

import inspect

from . import bert, gpt, llama, opt, t5, wideresnet

SCHEDULE_SOURCES = {
    "BERT": bert,
    "RoBERTa": bert,  # shared with BERT (paper §5.3)
    "GPT": gpt,
    "OPT": opt,
    "T5": t5,
    "WideResNet": wideresnet,
    "LLaMA": llama,
}

#: the paper's Table 4
PAPER_LOC = {
    "BERT": 21, "RoBERTa": 21, "GPT": 10, "OPT": 10, "T5": 11,
    "WideResNet": 12, "LLaMA": 11,
}


def schedule_loc(source) -> int:
    """Schedule LoC of a family module (or any object with source)."""
    lines = inspect.getsource(source).splitlines()
    inside = False
    count = 0
    for line in lines:
        stripped = line.strip()
        if stripped == "# </schedule>":
            inside = False
        if inside and stripped and not stripped.startswith("#"):
            count += 1
        if stripped == "# <schedule>":
            inside = True
    return count


def table4() -> dict[str, dict[str, int]]:
    """Measured vs paper LoC for every model family."""
    out = {}
    for family, fn in SCHEDULE_SOURCES.items():
        out[family] = {
            "measured": schedule_loc(fn),
            "paper": PAPER_LOC[family],
        }
    return out
