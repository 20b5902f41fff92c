"""Hardware topology: the paper's testbed, described analytically.

The evaluation machines are Amazon EC2 p3dn.24xlarge instances: 8 NVIDIA
V100-SXM2-32GB GPUs per node connected by NVLink (300 GB/s aggregate per
GPU), and 100 Gbps (EFA) networking between nodes.  The constants below come
from public hardware specifications, not from fitting the paper's charts.

Beyond the paper's flat two-level machine, :class:`ClusterSpec` can carry an
explicit **link hierarchy** (:class:`LinkTier`): an ordered tuple of tiers,
innermost first, each with its own bandwidth, latency and NIC rail count.
Collective pricing resolves the tier from the *actual rank set* — a
hierarchical ring is bottlenecked by the slowest tier it crosses — so the
same mesh axes cost very different amounts depending on where the planner
places them (see ``docs/topology.md``).  When ``tiers`` is left ``None`` the
legacy two-tier (NVLink + node NIC) model is synthesized from the flat
bandwidth fields, byte-identically to the historical arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

#: bytes/second per Gbit/s of link speed — the Gbps→bytes/s conversion
#: that used to hide inside ``100e9 / 8``.
GBPS = 1e9 / 8


@dataclass(frozen=True)
class GPUSpec:
    """A single accelerator."""

    name: str = "V100-SXM2-32GB"
    #: peak tensor-core throughput for fp16 GEMMs (FLOP/s)
    peak_fp16_flops: float = 125e12
    #: peak fp32 throughput (FLOP/s)
    peak_fp32_flops: float = 15.7e12
    #: HBM2 bandwidth (bytes/s)
    memory_bandwidth: float = 900e9
    #: device memory (bytes)
    memory_capacity: float = 32e9
    #: memory the allocator/runtime reserves (fragmentation, cudnn, nccl)
    memory_reserved: float = 2.5e9
    #: fixed cost of launching one kernel (seconds)
    kernel_launch_overhead: float = 8e-6

    @property
    def usable_memory(self) -> float:
        return self.memory_capacity - self.memory_reserved

    def peak_flops(self, dtype_name: str) -> float:
        return self.peak_fp16_flops if dtype_name == "float16" \
            else self.peak_fp32_flops


@dataclass(frozen=True)
class LinkTier:
    """One level of the interconnect hierarchy.

    ``span`` is the number of *consecutive ranks* that form one island of
    this tier (8 for an 8-GPU NVLink node, ``8 * racks`` for a rack-local
    switch, 0 for "the whole cluster").  A rank set whose members all fall
    inside one island communicates at this tier; a set that crosses
    islands escalates to the next (slower) tier out.
    """

    name: str
    #: consecutive ranks per island; 0 = spans the entire cluster
    span: int
    #: per-link bandwidth (bytes/s) — for NIC tiers, per *rail*
    bandwidth: float
    #: per-hop collective latency (seconds)
    latency: float
    #: parallel NIC rails per island (rail-optimized fabrics have one NIC
    #: per GPU; the paper's p3dn nodes have a single shared EFA device)
    rails: int = 1


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of multi-GPU nodes."""

    num_nodes: int = 1
    gpus_per_node: int = 8
    gpu: GPUSpec = field(default_factory=GPUSpec)
    #: effective per-GPU NVLink bus bandwidth for ring collectives (bytes/s)
    intra_node_bandwidth: float = 130e9
    #: node-to-node network bandwidth (bytes/s); 100 Gbps EFA
    inter_node_bandwidth: float = 100 * GBPS
    #: per-hop collective latency (seconds)
    link_latency: float = 5e-6
    #: explicit link hierarchy, innermost tier first; ``None`` synthesizes
    #: the legacy two-tier model from the flat bandwidth fields above
    tiers: tuple[LinkTier, ...] | None = None
    #: fraction of the dp gradient all-reduce the runtime hides under
    #: backward when *not* using the bucketed ``overlap_grad_sync``
    #: stream-timeline mechanism
    dp_sync_overlap: float = 0.7
    #: fraction of ZeRO-3 gather/scatter traffic hidden by prefetching
    zero_prefetch_overlap: float = 0.25

    @property
    def world_size(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def node_of(self, rank: int) -> int:
        return rank // self.gpus_per_node

    def spans_nodes(self, ranks: tuple[int, ...]) -> bool:
        return len({self.node_of(r) for r in ranks}) > 1

    # ------------------------------------------------------------------ #
    # link hierarchy
    # ------------------------------------------------------------------ #
    @cached_property
    def link_tiers(self) -> tuple[LinkTier, ...]:
        """The resolved hierarchy (legacy two-tier model when implicit)."""
        if self.tiers is not None:
            return self.tiers
        return (
            LinkTier("intra_node", self.gpus_per_node,
                     self.intra_node_bandwidth, self.link_latency),
            LinkTier("inter_node", 0,
                     self.inter_node_bandwidth, self.link_latency),
        )

    def tier_for(self, ranks: tuple[int, ...]) -> LinkTier:
        """The slowest tier a rank set crosses (hierarchical ring).

        Walks the hierarchy innermost-out and returns the first tier whose
        islands contain the whole set; traffic inside one NVLink node never
        pays the network tier, while a set spanning nodes is governed by
        the network no matter how many of its hops are node-local.
        """
        for tier in self.link_tiers:
            if tier.span <= 0:
                return tier
            if len({r // tier.span for r in ranks}) <= 1:
                return tier
        return self.link_tiers[-1]

    def _ranks_per_node(self, ranks: tuple[int, ...]) -> int:
        nodes: dict[int, int] = {}
        for r in ranks:
            nodes[self.node_of(r)] = nodes.get(self.node_of(r), 0) + 1
        return max(nodes.values())

    # ------------------------------------------------------------------ #
    # α-β cost model for ring collectives
    # ------------------------------------------------------------------ #
    def _ring_link(self, ranks: tuple[int, ...]) -> tuple[float, float]:
        """(bandwidth, latency) governing a ring over ``ranks``.

        A ring crossing node boundaries is limited by the node NIC.  One
        world-spanning ring uses the full NIC; when a group places only a
        few ranks per node (e.g. data-parallel groups of tensor-sharded
        ranks), its sibling groups run the same collective concurrently and
        share the NIC, so each ring gets a proportional slice — unless the
        tier has enough rails to give each concurrent ring its own NIC.
        """
        tier = self.tier_for(ranks)
        if tier is self.link_tiers[0]:
            return tier.bandwidth, tier.latency
        ranks_per_node = self._ranks_per_node(ranks)
        concurrent_rings = max(self.gpus_per_node // ranks_per_node, 1)
        served = min(tier.rails, concurrent_rings)
        return tier.bandwidth * served / concurrent_rings, tier.latency

    def _ring_bandwidth(self, ranks: tuple[int, ...]) -> float:
        """Bottleneck bandwidth of a ring over ``ranks``."""
        return self._ring_link(ranks)[0]

    def _a2a_link(self, ranks: tuple[int, ...]) -> tuple[float, float]:
        """(bandwidth, latency) for an all-to-all over ``ranks``.

        On a multi-rail network tier the exchange is *rail-optimized*:
        every local rank drives its own NIC rail, so the per-rank
        bottleneck is a rail rather than a shared node uplink.  Single-rail
        tiers (the paper's EFA) fall back to the ring sharing model.
        """
        tier = self.tier_for(ranks)
        if tier is self.link_tiers[0] or tier.rails <= 1:
            return self._ring_link(ranks)
        ranks_per_node = self._ranks_per_node(ranks)
        active = min(tier.rails, ranks_per_node)
        return tier.bandwidth * active / ranks_per_node, tier.latency

    def all_reduce_time(self, nbytes: float, ranks: tuple[int, ...]) -> float:
        n = len(ranks)
        if n <= 1 or nbytes == 0:
            return 0.0
        bw, latency = self._ring_link(ranks)
        return 2 * (n - 1) / n * nbytes / bw + 2 * (n - 1) * latency

    def all_gather_time(self, nbytes: float, ranks: tuple[int, ...]) -> float:
        """``nbytes`` is the size of the *gathered* (full) tensor."""
        n = len(ranks)
        if n <= 1 or nbytes == 0:
            return 0.0
        bw, latency = self._ring_link(ranks)
        return (n - 1) / n * nbytes / bw + (n - 1) * latency

    reduce_scatter_time = all_gather_time

    def all_to_all_time(self, nbytes: float, ranks: tuple[int, ...]) -> float:
        """``nbytes`` is each rank's full (pre-split) buffer size.

        Every rank keeps its own ``1/n`` chunk and exchanges the other
        ``(n-1)/n`` pairwise — the same traffic volume per rank as an
        all-gather of the full buffer, so the α–β form matches it.
        """
        n = len(ranks)
        if n <= 1 or nbytes == 0:
            return 0.0
        bw, latency = self._a2a_link(ranks)
        return (n - 1) / n * nbytes / bw + (n - 1) * latency

    def broadcast_time(self, nbytes: float, ranks: tuple[int, ...]) -> float:
        n = len(ranks)
        if n <= 1 or nbytes == 0:
            return 0.0
        bw, latency = self._ring_link(ranks)
        return nbytes / bw + (n - 1) * latency

    def p2p_time(self, nbytes: float, src: int, dst: int) -> float:
        if nbytes == 0 or src == dst:
            return 0.0
        tier = self.tier_for((src, dst))
        return nbytes / tier.bandwidth + tier.latency

    def collective_coeffs(self, kind: str, ranks: tuple[int, ...]
                          ) -> tuple[float, float]:
        """(α, β) of the ring collective: ``time = α + β·nbytes``.

        Valid for ``nbytes > 0`` (empty collectives cost nothing).  This
        is the same α–β model the per-call methods above evaluate; having
        the coefficients lets a batch of ``k`` collectives totalling ``B``
        bytes be priced as ``k·α + β·B`` in one step.
        """
        n = len(ranks)
        if n <= 1:
            return 0.0, 0.0
        if kind == "all_to_all":
            bw, latency = self._a2a_link(ranks)
            return (n - 1) * latency, (n - 1) / n / bw
        bw, latency = self._ring_link(ranks)
        if kind == "all_reduce":
            return 2 * (n - 1) * latency, 2 * (n - 1) / n / bw
        if kind in ("all_gather", "reduce_scatter"):
            return (n - 1) * latency, (n - 1) / n / bw
        if kind == "broadcast":
            return (n - 1) * latency, 1.0 / bw
        raise ValueError(f"unknown collective kind: {kind}")

    def collective_time(self, kind: str, nbytes: float,
                        ranks: tuple[int, ...]) -> float:
        dispatch = {
            "all_reduce": self.all_reduce_time,
            "all_gather": self.all_gather_time,
            "reduce_scatter": self.reduce_scatter_time,
            "all_to_all": self.all_to_all_time,
            "broadcast": self.broadcast_time,
        }
        try:
            return dispatch[kind](nbytes, ranks)
        except KeyError:
            raise ValueError(f"unknown collective kind: {kind}") from None


#: the paper's single-node testbed
P3DN_NODE = ClusterSpec(num_nodes=1, gpus_per_node=8)


def p3dn_cluster(num_nodes: int) -> ClusterSpec:
    """A cluster of p3dn.24xlarge nodes (the paper's multi-node testbed)."""
    return ClusterSpec(num_nodes=num_nodes, gpus_per_node=8)


# ---------------------------------------------------------------------- #
# modern-scale presets (DGX-class nodes, rail-optimized IB fabrics)
# ---------------------------------------------------------------------- #

A100_GPU = GPUSpec(
    name="A100-SXM4-80GB",
    peak_fp16_flops=312e12,
    peak_fp32_flops=19.5e12,
    memory_bandwidth=2039e9,
    memory_capacity=80e9,
    memory_reserved=4e9,
    kernel_launch_overhead=5e-6,
)

H100_GPU = GPUSpec(
    name="H100-SXM5-80GB",
    peak_fp16_flops=989e12,
    peak_fp32_flops=67e12,
    memory_bandwidth=3350e9,
    memory_capacity=80e9,
    memory_reserved=4e9,
    kernel_launch_overhead=4e-6,
)


def a100_cluster(num_nodes: int = 1, gpus_per_node: int = 8) -> ClusterSpec:
    """DGX-A100-class cluster: NVLink3 nodes on an 8-rail 200 Gb HDR fabric."""
    return ClusterSpec(
        num_nodes=num_nodes, gpus_per_node=gpus_per_node, gpu=A100_GPU,
        intra_node_bandwidth=260e9,
        inter_node_bandwidth=gpus_per_node * 200 * GBPS,
        link_latency=5e-6,
        tiers=(
            LinkTier("nvlink", gpus_per_node, 260e9, 3e-6),
            LinkTier("ib_hdr", 0, 200 * GBPS, 5e-6, rails=gpus_per_node),
        ),
    )


def h100_cluster(num_nodes: int = 1, gpus_per_node: int = 8) -> ClusterSpec:
    """DGX-H100-class cluster: NVLink4 nodes on an 8-rail 400 Gb NDR fabric."""
    return ClusterSpec(
        num_nodes=num_nodes, gpus_per_node=gpus_per_node, gpu=H100_GPU,
        intra_node_bandwidth=450e9,
        inter_node_bandwidth=gpus_per_node * 400 * GBPS,
        link_latency=4e-6,
        tiers=(
            LinkTier("nvlink", gpus_per_node, 450e9, 2e-6),
            LinkTier("ib_ndr", 0, 400 * GBPS, 4e-6, rails=gpus_per_node),
        ),
    )


#: one DGX-A100-class node (NVLink only)
A100_NODE = a100_cluster(num_nodes=1)

#: one DGX-H100-class node (NVLink only)
H100_NODE = h100_cluster(num_nodes=1)
