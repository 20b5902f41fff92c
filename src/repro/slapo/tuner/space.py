"""Define-by-run search spaces (paper §3.4, Fig. 6).

Users write an ``update_space(space)`` function calling
``space.create_symbol(name, candidates)``; because later candidate lists
may depend on earlier symbols' *values* (the paper's conditional
``ckpt_ratio`` example), the space is a polygon rather than a rectangle.
Enumeration re-executes ``update_space`` along every branch of the implied
decision tree.  :func:`factorization_columns` builds the plan service's
space shape straight as columns, in the order that replay yields it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

#: micro-batches per stage ``parallelism_symbols`` offers at ``pp > 1``
MIN_MICRO_BATCHES = (1, 2, 4, 8)


class SpaceError(ValueError):
    """Raised on ill-formed search-space definitions."""


#: axis placements worth sweeping (innermost-first, comma-joined for the
#: ``placement`` symbol): the Megatron default (tp on NVLink), dp
#: innermost (the classic mistake at scale), and ep innermost (keeps the
#: MoE all-to-all on NVLink at the price of tp crossing nodes)
DEFAULT_PLACEMENTS = (
    "tp,ep,dp,pp",
    "dp,ep,tp,pp",
    "ep,tp,dp,pp",
)


class Space:
    """One trial's view of the space: symbols resolve to concrete values."""

    def __init__(self, assignment: dict[str, object]):
        self._assignment = dict(assignment)
        self._order: list[str] = []
        self._candidates: dict[str, list] = {}
        self._pending: tuple[str, list] | None = None

    def create_symbol(self, name: str, candidates: Iterable):
        """Declare a tunable symbol; returns its value for this trial."""
        candidates = list(candidates)
        if not candidates:
            raise SpaceError(f"symbol {name!r} has no candidates")
        if name in self._candidates:
            raise SpaceError(f"symbol {name!r} declared twice")
        self._order.append(name)
        self._candidates[name] = candidates
        if name in self._assignment:
            value = self._assignment[name]
            if value not in candidates:
                raise _Invalid(name)
            return value
        # First time this symbol is reachable: remember it so enumeration
        # can branch, and provisionally return the first candidate.
        if self._pending is None:
            self._pending = (name, candidates)
        return candidates[0]

    @property
    def assignment(self) -> dict[str, object]:
        return dict(self._assignment)


class _Invalid(Exception):
    """A partial assignment became unreachable under this branch."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


def enumerate_space(update_fn: Callable[[Space], object]
                    ) -> list[dict[str, object]]:
    """All complete configurations of the (possibly conditional) space."""
    complete: list[dict[str, object]] = []
    stack: list[dict[str, object]] = [{}]
    seen: set[tuple] = set()
    while stack:
        assignment = stack.pop()
        space = Space(assignment)
        try:
            update_fn(space)
        except _Invalid:
            continue
        if space._pending is None:
            key = tuple(sorted(assignment.items()))
            if key not in seen:
                seen.add(key)
                complete.append(dict(assignment))
            continue
        name, candidates = space._pending
        for value in candidates:
            branch = dict(assignment)
            branch[name] = value
            stack.append(branch)
    return complete


def _divisors(n: int) -> list[int]:
    """Ascending divisors of ``n``, from an O(√n) walk over pairs
    ``(d, n // d)`` with ``d ≤ √n``."""
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def parallelism_symbols(space: Space, world_size: int,
                        max_tp: int | None = None,
                        max_pp: int | None = None,
                        min_micro_batches: tuple[int, ...]
                        = MIN_MICRO_BATCHES,
                        max_ep: int | None = None,
                        pipeline_schedules: Sequence[str] | None = None,
                        overlap_grad_sync: bool = False,
                        placements: Sequence[str] | None = None,
                        ) -> tuple[int, ...]:
    """Declare a ``tp``/``pp``[/``ep``]/``dp`` mesh factorization as
    search symbols.

    The axes are declared *conditionally* (the polygon-space pattern of
    paper Fig. 6): ``pp`` candidates depend on the chosen ``tp``, the
    optional ``ep`` candidates on both, and ``dp`` is the forced
    co-factor — so enumeration yields exactly the factorizations
    ``tp·dp·pp[·ep] = world_size``, never an invalid mesh.  With
    ``pp > 1`` a ``num_micro_batches`` symbol is also declared (multiples
    of ``pp``, from ``min_micro_batches``), since a pipeline is only
    fillable with at least one micro-batch per stage.

    ``max_ep=None`` (the default) declares no expert-parallel symbol and
    returns ``(tp, dp, pp)`` exactly as before; with ``max_ep`` set an
    ``ep`` symbol joins the factorization and ``(tp, dp, pp, ep)`` is
    returned.

    ``pipeline_schedules`` (a tuple of registered tick-program names,
    e.g. ``repro.pipeline.SCHEDULE_NAMES``) additionally declares a
    ``pipeline_schedule`` symbol whenever ``pp > 1`` — the tuner then
    sweeps *how* the pipeline executes jointly with its depth and
    micro-batch count.  ``None`` (the default) declares no such symbol,
    keeping existing spaces and their enumerations unchanged.  The
    micro-batch counts are multiples of ``pp``, so every enumerated
    point can express every registered schedule (interleaved requires
    ``m % pp == 0``).

    ``overlap_grad_sync=True`` declares a boolean ``overlap_grad_sync``
    symbol whenever the resolved mesh has ``dp > 1`` and ``pp == 1``
    (the primitive's applicability condition) — the tuner then sweeps
    bucketed grad-sync overlap jointly with the mesh.  ``placements``
    (e.g. :data:`DEFAULT_PLACEMENTS`; comma-joined axis orders,
    innermost first) declares a ``placement`` symbol whenever more than
    one axis is non-trivial, making *where* each axis lands on the
    topology a search coordinate.  Both default to off, keeping existing
    spaces and their enumerations unchanged.
    """
    tp_candidates = _divisors(world_size)
    if max_tp is not None:
        tp_candidates = [t for t in tp_candidates if t <= max_tp]
    tp = space.create_symbol("tp", tp_candidates)
    pp_candidates = _divisors(world_size // tp)
    if max_pp is not None:
        pp_candidates = [p for p in pp_candidates if p <= max_pp]
    pp = space.create_symbol("pp", pp_candidates)
    ep = None
    if max_ep is not None:
        ep_candidates = [e for e in _divisors(world_size // (tp * pp))
                         if e <= max_ep]
        ep = space.create_symbol("ep", ep_candidates)
    dp = space.create_symbol(
        "dp", [world_size // (tp * pp * (ep or 1))])
    if pp > 1:
        space.create_symbol("num_micro_batches",
                            [pp * f for f in min_micro_batches])
        if pipeline_schedules:
            space.create_symbol("pipeline_schedule",
                                list(pipeline_schedules))
    if overlap_grad_sync and dp > 1 and pp == 1:
        space.create_symbol("overlap_grad_sync", [False, True])
    if placements and sum(1 for axis in (tp, dp, pp, ep or 1)
                          if axis > 1) > 1:
        space.create_symbol("placement", list(placements))
    if ep is None:
        return tp, dp, pp
    return tp, dp, pp, ep


@dataclass(frozen=True)
class SpaceColumns:
    """A factorization space as int64 columns; ``num_micro_batches`` is 1
    (what the absent key reads as) on ``pp == 1`` rows.  The fields are
    in the replay's symbol order, which :meth:`config` keys follow."""

    tp: np.ndarray
    pp: np.ndarray
    dp: np.ndarray
    num_micro_batches: np.ndarray
    zero_stage: np.ndarray
    micro_batch: np.ndarray

    def __len__(self) -> int:
        return int(self.tp.shape[0])

    def config(self, index: int) -> dict[str, int]:
        """Row ``index`` as the dict :func:`enumerate_space` yields: equal
        keys, in the same order."""
        return {name: int(column[index])
                for name, column in vars(self).items()
                if name != "num_micro_batches" or self.pp[index] > 1}


def _replay_order(candidates: Sequence, bound: int | None = None) -> list:
    """``candidates`` (those ≤ ``bound``) in :func:`enumerate_space`'s
    visiting order: its stack pops the last first, and a repeat only
    yields rows again."""
    return list(dict.fromkeys(c for c in reversed(candidates)
                              if bound is None or c <= bound))


def factorization_columns(world_size: int, max_tp: int | None = None,
                          max_pp: int | None = None,
                          zero_stages: Sequence[int] = (0,),
                          micro_batches: Sequence[int] = (1,)
                          ) -> SpaceColumns:
    """The space of ``parallelism_symbols(space, world_size, max_tp,
    max_pp)`` then ``zero_stage`` and ``micro_batch`` symbols over these
    menus, as columns in the order :func:`enumerate_space` yields it
    (planners break ties by it), with no per-row Python."""
    meshes = np.array([(tp, pp)
                       for tp in _replay_order(_divisors(world_size), max_tp)
                       for pp in _replay_order(_divisors(world_size // tp),
                                               max_pp)], np.int64)
    factors, zero, micro = (np.array(_replay_order(menu), np.int64) for menu
                            in (MIN_MICRO_BATCHES, zero_stages, micro_batches))
    # every (mesh, micro-batch count, ZeRO stage, micro-batch) in replay
    # order, less the counts a pp = 1 mesh does not declare
    index = np.indices((len(meshes), len(factors), len(zero), len(micro))
                       ).reshape(4, -1)
    index = index[:, (meshes[index[0], 1] > 1) | (index[1] == 0)]
    (tp, pp), f, z, m = meshes[index[0]].T, *index[1:]
    return SpaceColumns(
        tp=tp, pp=pp, dp=world_size // (tp * pp),
        num_micro_batches=np.where(pp > 1, pp * factors[f], 1),
        zero_stage=zero[z], micro_batch=micro[m])


def sample_space(update_fn: Callable[[Space], object], rng,
                 k: int = 1) -> list[dict[str, object]]:
    """Deterministically sample ``k`` complete configurations.

    ``rng`` is a :class:`numpy.random.Generator`; the same seed yields the
    same sample (the schedule fuzzer's reproducibility contract).  Sampling
    is uniform over the enumerated polygon space, *without* replacement
    until the space is exhausted, then with replacement.
    """
    configs = enumerate_space(update_fn)
    if not configs:
        raise SpaceError("cannot sample an empty space")
    picks: list[dict[str, object]] = []
    remaining = list(range(len(configs)))
    while len(picks) < k:
        if not remaining:
            remaining = list(range(len(configs)))
        index = remaining.pop(int(rng.integers(len(remaining))))
        picks.append(dict(configs[index]))
    return picks


def symbol_values(update_fn: Callable[[Space], object], name: str
                  ) -> list:
    """The union of candidate values symbol ``name`` takes across branches."""
    values: list = []
    for config in enumerate_space(update_fn):
        if name in config and config[name] not in values:
            values.append(config[name])
    return values
