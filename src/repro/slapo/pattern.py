"""Pattern helpers for ``.find()`` (paper appendix A)."""

from __future__ import annotations

from repro.framework import functional as F
from repro.fx.matcher import ModulePattern
from repro.fx.proxy import Proxy


def call_module(name_regex: str, *args):
    """Inside a pattern function: match a call_module whose target path
    matches ``name_regex`` (e.g. ``call_module("output.LayerNorm", x)``)."""
    proxy = next((a for a in args if isinstance(a, Proxy)), None)
    if proxy is None:
        raise RuntimeError("call_module pattern needs at least one traced arg")
    return proxy.tracer.create_proxy(
        "call_module", ModulePattern(name_regex), args, {})


def scaled_dot_product_dropout(q, k, v, scale, p):
    """Attention core including the attention-probability dropout."""
    attn = q @ k.transpose(-2, -1)
    attn = attn / scale
    attn = F.dropout(F.softmax(attn, dim=-1), p)
    return attn @ v
