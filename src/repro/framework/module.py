"""The module system: hierarchical containers for parameters and submodules.

Mirrors the parts of ``torch.nn.Module`` that Slapo's schedule language
depends on: attribute-based registration, dotted-path lookup
(``get_submodule``), named traversal, hot-swapping children
(``set_submodule`` — used by ``.replace()``), state dicts, train/eval mode,
and forward/backward hooks (used by ``.sync()`` to inject collectives).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator

from . import autograd
from . import events as fw_events
from .parameter import Parameter
from .tensor import Tensor


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_forward_pre_hooks", [])
        object.__setattr__(self, "_forward_hooks", [])
        object.__setattr__(self, "_backward_hooks", [])
        # Annotations consumed by the simulator / pipeline partitioner.
        object.__setattr__(self, "_slapo_meta", {})

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.pop(name, None)
            self._modules.pop(name, None)
            self._buffers.pop(name, None)
            self._parameters[name] = value
        elif isinstance(value, Module):
            self.__dict__.pop(name, None)
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
            self._modules[name] = value
        else:
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        # Only called when normal lookup fails.
        for store in ("_parameters", "_buffers"):
            registry = self.__dict__.get(store)
            if registry is not None and name in registry:
                value = registry[name]
                proxy = _maybe_trace_get_attr(self, name, value)
                return value if proxy is None else proxy
        modules = self.__dict__.get("_modules")
        if modules is not None and name in modules:
            return modules[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __delattr__(self, name: str) -> None:
        for store in (self._parameters, self._buffers, self._modules):
            if name in store:
                del store[name]
                return
        object.__delattr__(self, name)

    def register_buffer(self, name: str, tensor: Tensor | None) -> None:
        """Register a non-learnable tensor (e.g. running statistics)."""
        self._buffers[name] = tensor

    def register_parameter(self, name: str, param: Parameter | None) -> None:
        self._parameters[name] = param

    def add_module(self, name: str, module: "Module | None") -> None:
        self._modules[name] = module

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def children(self) -> Iterator["Module"]:
        for module in self._modules.values():
            if module is not None:
                yield module

    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        for name, module in self._modules.items():
            if module is not None:
                yield name, module

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, module in self._modules.items():
            if module is None:
                continue
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_modules(child_prefix)

    def parameters(self, recurse: bool = True) -> Iterator[Parameter]:
        for _, param in self.named_parameters(recurse=recurse):
            yield param

    def named_parameters(self, prefix: str = "", recurse: bool = True
                         ) -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            if param is not None:
                yield (f"{prefix}.{name}" if prefix else name), param
        if recurse:
            for name, module in self._modules.items():
                if module is None:
                    continue
                child_prefix = f"{prefix}.{name}" if prefix else name
                yield from module.named_parameters(child_prefix, recurse=True)

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, buf in self._buffers.items():
            if buf is not None:
                yield (f"{prefix}.{name}" if prefix else name), buf
        for name, module in self._modules.items():
            if module is None:
                continue
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_buffers(child_prefix)

    def get_submodule(self, target: str) -> "Module":
        """Resolve a dotted path like ``encoder.layer.0.attention``."""
        if target == "":
            return self
        module: Module = self
        for atom in target.split("."):
            if atom not in module._modules or module._modules[atom] is None:
                raise AttributeError(
                    f"{type(module).__name__} has no submodule {atom!r} "
                    f"(resolving {target!r})"
                )
            module = module._modules[atom]
        return module

    def set_submodule(self, target: str, new_module: "Module") -> None:
        """Replace the submodule at a dotted path (used by ``.replace()``)."""
        if "." in target:
            parent_path, _, leaf = target.rpartition(".")
            parent = self.get_submodule(parent_path)
        else:
            parent, leaf = self, target
        if leaf not in parent._modules:
            raise AttributeError(
                f"{type(parent).__name__} has no submodule {leaf!r}"
            )
        parent._modules[leaf] = new_module

    def get_parameter(self, target: str) -> Parameter:
        module_path, _, name = target.rpartition(".")
        module = self.get_submodule(module_path)
        if name not in module._parameters or module._parameters[name] is None:
            raise AttributeError(f"no parameter {target!r}")
        return module._parameters[name]

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for module in self.modules():
            fn(module)
        return self

    # ------------------------------------------------------------------ #
    # Modes & state
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def state_dict(self, prefix: str = "") -> "OrderedDict[str, Tensor]":
        state: OrderedDict[str, Tensor] = OrderedDict()
        for name, param in self.named_parameters(prefix):
            state[name] = param
        for name, buf in self.named_buffers(prefix):
            state[name] = buf
        return state

    def load_state_dict(self, state: dict) -> None:
        own = self.state_dict()
        missing = [k for k in own if k not in state]
        if missing:
            raise KeyError(f"missing keys in state_dict: {missing}")
        for key, tensor in state.items():
            if key in own:
                own[key].copy_(tensor)

    def num_parameters(self) -> int:
        """Total scalar parameter count (meta-safe; tied weights count once)."""
        seen: set[int] = set()
        total = 0
        for param in self.parameters():
            if id(param) not in seen:
                seen.add(id(param))
                total += param.numel()
        return int(total)

    @property
    def is_meta(self) -> bool:
        for param in self.parameters():
            return param.is_meta
        return False

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def register_forward_pre_hook(self, hook: Callable) -> Callable:
        """``hook(module, args) -> args | None`` runs before forward."""
        self._forward_pre_hooks.append(hook)
        return hook

    def register_forward_hook(self, hook: Callable) -> Callable:
        """``hook(module, args, output) -> output | None`` runs after forward."""
        self._forward_hooks.append(hook)
        return hook

    def register_backward_hook(self, hook: Callable) -> Callable:
        """``hook(module, grad_input) -> grad_input | None``.

        Runs when gradients w.r.t. the module *inputs* have been computed —
        the semantics tensor-parallel ``.sync(mode="bwd_post")`` needs to
        all-reduce input gradients.
        """
        self._backward_hooks.append(hook)
        return hook

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError(
            f"{type(self).__name__} must implement forward()"
        )

    def __call__(self, *args, **kwargs):
        return self.call_lifted((), args, kwargs)

    def call_lifted(self, lifted: tuple, args: tuple, kwargs: dict):
        """``__call__`` without the hooks in ``lifted``: a graph runs those
        as ``sync_*`` nodes around this call site."""
        from .functional import _find_proxy  # late import, avoids cycle

        proxy = _find_proxy(args, kwargs)
        if proxy is not None:
            return proxy.tracer.call_module_proxy(self, args, kwargs, lifted)
        pre, bwd, fwd = self.hooks_except(lifted)
        for hook in pre:
            result = hook(self, args)
            if result is not None:
                args = result if isinstance(result, tuple) else (result,)
        if bwd:
            args = tuple(attach_backward_hooks(a, self, bwd) for a in args)
        if self._slapo_meta.get("ckpt_unit") \
                and fw_events.get_recorder() is not None:
            with fw_events.layer_region(self, args):
                output = self._run_forward(args, kwargs)
        else:
            output = self._run_forward(args, kwargs)
        for hook in fwd:
            result = hook(self, args, output)
            if result is not None:
                output = result
        return output

    def hooks_except(self, lifted: tuple = ()) -> tuple:
        """The forward-pre, backward and forward hooks not in ``lifted``,
        in ``__call__`` order."""
        groups = (self._forward_pre_hooks, self._backward_hooks,
                  self._forward_hooks)
        if not lifted:
            return groups
        return tuple([h for h in group if h not in lifted]
                     for group in groups)

    def _run_forward(self, args, kwargs):
        if self._slapo_meta.get("checkpoint"):
            from .checkpoint import checkpoint_run

            return checkpoint_run(self.forward, *args, **kwargs)
        return self.forward(*args, **kwargs)

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        extra = self.extra_repr()
        head = f"{type(self).__name__}({extra})"
        if not self._modules:
            return head
        lines = [f"{type(self).__name__}("]
        if extra:
            lines[0] = f"{type(self).__name__}({extra},"
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child_repr}")
        lines.append(")")
        return "\n".join(lines)


def _maybe_trace_get_attr(module: Module, name: str, value):
    """During symbolic tracing, parameter reads become get_attr nodes.

    This lets inlined (non-leaf) module code like ``x + self.bias`` trace to
    a graph that resolves the parameter *at run time*, so later sharding or
    replacement of the parameter is observed by the traced graph.
    """
    from repro.fx import tracer as fx_tracer  # late import, avoids a cycle

    active = fx_tracer.active_tracer()
    if active is None:
        return None
    return active.get_attr_proxy(module, name)


def attach_backward_hooks(value, module: Module, hooks):
    """Insert an identity node whose backward runs ``hooks(module, grad)``.

    ``Module.__call__`` and the ``sync_backward`` graph node both use it.
    """
    if not isinstance(value, Tensor) or value.is_meta \
            or not autograd.is_grad_enabled():
        return value
    if not (value.requires_grad or value.grad_fn is not None):
        return value
    out = Tensor(value.data)
    out._dtype = value.dtype

    def backward(grad):
        for hook in hooks:
            result = hook(module, grad)
            if result is not None:
                grad = result
        return (grad,)

    out.grad_fn = autograd.GradNode("backward_hook", (value,), backward)
    out.requires_grad = True
    return out
