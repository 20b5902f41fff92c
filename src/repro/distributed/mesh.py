"""Device meshes: factor a world of ranks into tp × ep × dp × pp axes.

Follows the Megatron-LM convention by default: tensor-parallel groups are
innermost (consecutive ranks, so TP traffic stays on NVLink), then expert
parallel (the all-to-all-heavy MoE axis, kept close for the same reason),
then data parallel, then pipeline parallel outermost.  With ``ep = 1`` (the
default) the layout reduces exactly to the historical tp × dp × pp
factorization.

The axis order is itself a coordinate: :class:`ParallelConfig` carries an
``order`` tuple (innermost first) so the planner can sweep *placement* —
which axes sit inside an NVLink island and which cross the network — rather
than inheriting it as an accident of rank numbering.  See
``docs/topology.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import BaseGroup, RankContext, SimGroup, SingleGroup
from .topology import ClusterSpec

#: Megatron-style default placement, innermost axis first
DEFAULT_AXIS_ORDER = ("tp", "ep", "dp", "pp")


@dataclass(frozen=True)
class ParallelConfig:
    """How a world of GPUs is carved into parallel dimensions.

    ``ep`` (expert parallelism) is declared last so the historical
    positional form ``ParallelConfig(tp, dp, pp)`` keeps meaning what it
    always did.  ``order`` lists the axes innermost-first; the default is
    the Megatron placement (tp on NVLink, dp/pp across nodes).
    """

    tp: int = 1
    dp: int = 1
    pp: int = 1
    ep: int = 1
    order: tuple[str, ...] = DEFAULT_AXIS_ORDER

    def __post_init__(self):
        order = tuple(self.order)
        if sorted(order) != sorted(DEFAULT_AXIS_ORDER):
            raise ValueError(
                f"order must be a permutation of {DEFAULT_AXIS_ORDER}, "
                f"got {order!r}"
            )
        object.__setattr__(self, "order", order)

    @property
    def world_size(self) -> int:
        return self.tp * self.ep * self.dp * self.pp

    def validate(self, world_size: int) -> None:
        if self.world_size != world_size:
            raise ValueError(
                f"tp*ep*dp*pp = {self.world_size} != world size "
                f"{world_size}"
            )


def axis_stride(config: ParallelConfig, axis: str) -> int:
    """Rank stride between neighbours along one mesh axis.

    The stride is the product of all axis sizes placed *inside* ``axis``
    in ``config.order`` — 1 for the innermost axis.  Collective pricing
    uses it to decide which topology tier a group's traffic crosses.
    """
    stride = 1
    for name in config.order:
        if name == axis:
            return stride
        stride *= getattr(config, name)
    raise ValueError(f"unknown mesh axis: {axis!r}")


def axis_ranks(rank: int, config: ParallelConfig
               ) -> dict[str, tuple[int, ...]]:
    """Ranks sharing each mesh-axis group with ``rank``.

    This is the **single** source of truth for rank-group layout: both
    :class:`DeviceMesh` (functional collectives) and the simulator's
    collective pricing (:mod:`repro.sim.throughput`) derive their groups
    here, so the two can never drift apart.  With the default order the
    layout is ``rank = tp_idx + tp·(ep_idx + ep·(dp_idx + dp·pp_idx))``;
    a custom ``config.order`` permutes which axis owns which stride.
    """
    groups: dict[str, tuple[int, ...]] = {}
    stride = 1
    for axis in config.order:
        size = getattr(config, axis)
        idx = (rank // stride) % size
        base = rank - idx * stride
        groups[axis] = tuple(base + i * stride for i in range(size))
        stride *= size
    return groups


class DeviceMesh:
    """Per-rank view of the parallel groups.

    For simulation, construct with ``sim=True`` (no cluster needed): groups
    are :class:`SimGroup` objects that only record communication events.
    For functional runs inside a LocalCluster, pass the rank context.
    """

    def __init__(self, config: ParallelConfig,
                 ctx: RankContext | None = None,
                 cluster_spec: ClusterSpec | None = None,
                 rank: int = 0, sim: bool = False):
        self.config = config
        self.cluster_spec = cluster_spec
        self.rank = ctx.rank if ctx is not None else rank
        axis = axis_ranks(self.rank, config)
        if ctx is not None:
            config.validate(ctx.world_size)
            self._groups = {
                name: ctx.group(ranks, tag=name)
                for name, ranks in axis.items()
            }
        elif sim:
            self._groups = {
                name: SimGroup(ranks, tag=name) if len(ranks) > 1
                else SingleGroup(tag=name)
                for name, ranks in axis.items()
            }
        else:
            if config.world_size != 1:
                raise ValueError(
                    "a multi-rank mesh needs a RankContext or sim=True"
                )
            self._groups = {name: SingleGroup(tag=name)
                            for name in ("tp", "ep", "dp", "pp")}

    @property
    def tp_group(self) -> BaseGroup:
        return self._groups["tp"]

    @property
    def ep_group(self) -> BaseGroup:
        return self._groups["ep"]

    @property
    def dp_group(self) -> BaseGroup:
        return self._groups["dp"]

    @property
    def pp_group(self) -> BaseGroup:
        return self._groups["pp"]

    def group(self, name: str) -> BaseGroup:
        return self._groups[name]

    @property
    def pp_stage(self) -> int:
        c = self.config
        return (self.rank // axis_stride(c, "pp")) % c.pp

    def __repr__(self) -> str:
        c = self.config
        return (f"DeviceMesh(rank={self.rank}, tp={c.tp}, ep={c.ep}, "
                f"dp={c.dp}, pp={c.pp})")


def single_device_mesh() -> DeviceMesh:
    """The default mesh: one device, all groups trivial."""
    return DeviceMesh(ParallelConfig(1, 1, 1))
