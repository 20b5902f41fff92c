"""Lint: effect-unsafe graph passes must refuse un-functionalized graphs.

The functionalization contract (``docs/fx.md``) says every pass that
erases, deduplicates, or reorders nodes guards itself with
``assert_functional`` so a graph with hidden effects — module hooks
outside the graph, or mutating calls without a ``mutate`` marker —
can never be transformed unsoundly.  This script checks the contract
from both ends:

1. **Static** — every function in ``repro.fx.functionalize`` listed in
   ``GUARDED_PASSES`` actually calls ``assert_functional`` (by source
   inspection), so a refactor cannot silently drop the guard.
2. **Runtime smoke** — tracing a hooked module, or a module with a
   hooked leaf, lifts the hooks into ``sync_*`` nodes and leaves none on
   the GraphModule; hooks registered *after* tracing (on the GraphModule
   or on one of its leaves) and a graph with an unmarked mutating call
   make ``assert_functional`` raise ``FunctionalizationError`` (and
   ``functionalize`` refuses the unmarked mutation), while the
   functionalized form passes and the passes run on it.

Wired into ``make test``; run directly with ``python
scripts/check_functional.py``.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: pass name -> callable; each must guard itself with assert_functional
GUARDED_PASSES = ("eliminate_common_subexpressions", "fuse_elementwise")


def check_static() -> list[str]:
    import importlib

    # repro.fx re-binds the name ``functionalize`` to the function, so
    # reach the submodule through importlib.
    mod = importlib.import_module("repro.fx.functionalize")

    problems = []
    for name in GUARDED_PASSES:
        source = inspect.getsource(getattr(mod, name))
        if "assert_functional" not in source:
            problems.append(
                f"{name} does not call assert_functional — an "
                f"effect-unsafe pass lost its guard")
    return problems


def check_runtime() -> list[str]:
    import numpy as np

    from repro import framework as fw
    from repro import fx
    from repro.framework.tensor import Tensor
    from repro.fx.functionalize import FunctionalizationError

    problems = []

    class Net(fw.Module):
        def __init__(self):
            super().__init__()
            self.fc = fw.Linear(4, 4)

        def forward(self, x):
            return self.fc(x)

    # Tracing a hooked module lifts its hooks into the graph: the
    # GraphModule carries none and holds the sync nodes instead.
    hooked = Net()
    hooked.register_forward_pre_hook(lambda m, args: args)
    hooked.register_forward_hook(lambda m, i, o: o)
    hooked.register_backward_hook(lambda m, grad: grad)
    traced = fx.symbolic_trace(hooked)
    if traced._forward_pre_hooks or traced._forward_hooks \
            or traced._backward_hooks:
        problems.append("tracing a hooked module left hooks on the "
                        "GraphModule")
    for marker in (fx.sync_forward_pre, fx.sync_backward, fx.sync_forward):
        if not traced.graph.find_nodes(op="call_function", target=marker):
            problems.append(f"tracing a hooked module emitted no "
                            f"{marker.__name__} node")

    # A hooked leaf's hooks become sync nodes at its call site too, and
    # its call_module runs without them.
    leaf_hooked = Net()
    leaf_hooked.fc.register_forward_hook(lambda m, i, o: o)
    traced = fx.symbolic_trace(leaf_hooked)
    if not traced.graph.find_nodes(op="call_function",
                                   target=fx.sync_forward):
        problems.append("tracing a hooked leaf emitted no sync_forward node")

    # Hooks registered after tracing — on the GraphModule or on one of
    # its leaves — sit outside its graph: every guard must reject that
    # module.
    model = Net()
    gm = fx.symbolic_trace(model)
    gm.register_forward_hook(lambda m, i, o: o)
    late_leaf = fx.symbolic_trace(Net())
    late_leaf.fc.register_forward_hook(lambda m, i, o: o)
    for name in GUARDED_PASSES:
        for case, module in (("", gm), (" (a leaf's)", late_leaf)):
            try:
                getattr(fx, name)(module)
            except FunctionalizationError:
                pass
            else:
                problems.append(
                    f"{name} accepted a hook-carrying graph{case}")

    # Train-mode batch_norm inlined into a graph must arrive with its
    # mutation already marked (the tracer wraps mutating calls), never
    # as a hidden effect.
    from repro.fx.functionalize import hidden_mutation_nodes, mutate

    class BNNet(fw.Module):
        def __init__(self):
            super().__init__()
            self.bn = fw.BatchNorm2d(3)

        def forward(self, x):
            return self.bn(x)

    bn_model = BNNet()
    bn_model.train()
    bn_gm = fx.symbolic_trace(bn_model, leaf_types=())
    if hidden_mutation_nodes(bn_gm.graph):
        problems.append(
            "tracing train-mode batch_norm left a hidden mutating call")
    if not list(bn_gm.graph.find_nodes(op="call_function", target=mutate)):
        problems.append(
            "tracing train-mode batch_norm produced no mutate marker")

    # A graph that does contain an unmarked mutating call must be
    # rejected by every guard.
    def scribble(x):
        return x

    scribble.__is_mutating__ = lambda *a, **k: True
    dirty = fx.symbolic_trace(Net())
    output = dirty.graph.output_node
    with dirty.graph.inserting_before(output):
        node = dirty.graph.call_function(scribble, (output.args[0],))
    output.args = (node,)
    for name in GUARDED_PASSES + ("functionalize",):
        try:
            getattr(fx, name)(dirty)
        except FunctionalizationError:
            pass
        else:
            problems.append(
                f"{name} accepted a graph with an unmarked mutating call")

    # The functionalized forms must pass the guard, run, and agree with
    # eager execution.
    fgm = fx.functionalize(gm)
    fx.eliminate_common_subexpressions(fgm)
    x = Tensor(np.random.default_rng(0)
               .standard_normal((2, 4)).astype(np.float32))
    if not np.allclose(fgm(x).numpy(), model(x).numpy()):
        problems.append("functionalized graph diverged from eager")

    fbn = fx.functionalize(bn_gm)
    fbn.train()
    fx.eliminate_common_subexpressions(fbn)

    flate = fx.functionalize(late_leaf)
    fx.eliminate_common_subexpressions(flate)
    if not flate.graph.find_nodes(op="call_function",
                                  target=fx.sync_forward):
        problems.append("functionalize did not lift a leaf's late hook")
    return problems


def main() -> int:
    problems = check_static() + check_runtime()
    for problem in problems:
        print(f"check_functional: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("check_functional: all graph passes honor the "
          "functionalization contract")
    return 0


if __name__ == "__main__":
    sys.exit(main())
