"""Hierarchical link-tier pricing: property tests over the topology layer.

Three laws anchor the tier model:

1. **Flat compatibility** — a spec with ``tiers=None`` synthesizes the
   legacy two-tier (intra/inter) hierarchy, and an explicitly-written
   legacy hierarchy prices byte-identically to it;
2. **Locality** — a rank set contained in one node never pays the inter
   tier, whatever the inter tier's coefficients;
3. **Monotonicity** — collective alpha/beta coefficients never improve
   as a rank set spreads across more nodes (hierarchical ring: the
   slowest tier crossed governs).
"""

import dataclasses

import pytest

from repro.distributed import (
    GBPS,
    ClusterSpec,
    LinkTier,
    a100_cluster,
    h100_cluster,
)
from repro.distributed.topology import A100_GPU, H100_GPU, p3dn_cluster

COLLECTIVES = ("all_reduce", "all_gather", "reduce_scatter", "broadcast",
               "all_to_all", "p2p")


def node_spread_sets(gpus_per_node=8, max_nodes=8):
    """Rank sets of fixed size 8 spanning 1, 2, 4, 8 nodes."""
    sets = {}
    for nodes in (1, 2, 4, 8):
        stride = (gpus_per_node * nodes) // 8
        sets[nodes] = tuple(r * stride for r in range(8))
    return sets


class TestGbpsNaming:
    def test_gbps_is_the_gigabit_to_bytes_conversion(self):
        assert GBPS == 1e9 / 8

    def test_default_inter_node_is_100_gbit_exactly(self):
        # the magic number 100e9 / 8 is now named: 100 Gb/s EFA in bytes/s
        assert ClusterSpec().inter_node_bandwidth == 100e9 / 8
        assert ClusterSpec().inter_node_bandwidth == 100 * GBPS


class TestFlatCompatibility:
    def test_explicit_legacy_tiers_price_byte_identically(self):
        implicit = p3dn_cluster(4)
        explicit = dataclasses.replace(
            implicit,
            tiers=(
                LinkTier("intra_node", implicit.gpus_per_node,
                         implicit.intra_node_bandwidth,
                         implicit.link_latency),
                LinkTier("inter_node", 0, implicit.inter_node_bandwidth,
                         implicit.link_latency),
            ))
        nbytes = 12_345_678
        rank_sets = [range(4), range(8), range(16), (0, 8), (3, 5, 11, 29),
                     range(32)]
        for ranks in rank_sets:
            ranks = tuple(ranks)
            for kind in COLLECTIVES:
                if kind == "p2p":
                    a = implicit.p2p_time(nbytes, ranks[0], ranks[-1])
                    b = explicit.p2p_time(nbytes, ranks[0], ranks[-1])
                else:
                    a = implicit.collective_time(kind, nbytes, ranks)
                    b = explicit.collective_time(kind, nbytes, ranks)
                assert a == b, (kind, ranks)
            for kind in COLLECTIVES[:-1]:
                assert implicit.collective_coeffs(kind, ranks) \
                    == explicit.collective_coeffs(kind, ranks), (kind, ranks)

    def test_flat_single_tier_spec_ignores_node_boundaries(self):
        flat = dataclasses.replace(
            p3dn_cluster(4),
            tiers=(LinkTier("uniform", 0, 130e9, 5e-6),))
        same_node = tuple(range(8))
        across = tuple(r * 4 for r in range(8))
        for kind in COLLECTIVES[:-1]:
            assert flat.collective_coeffs(kind, same_node) \
                == flat.collective_coeffs(kind, across), kind


class TestLocality:
    def test_single_node_rank_sets_never_pay_inter_tier(self):
        base = p3dn_cluster(4)
        # same cluster, inter-node links 1000x slower
        slow = dataclasses.replace(
            base, inter_node_bandwidth=base.inter_node_bandwidth / 1000)
        for node in range(4):
            ranks = tuple(range(node * 8, node * 8 + 8))
            assert base.tier_for(ranks) is base.link_tiers[0]
            for kind in COLLECTIVES[:-1]:
                assert base.collective_coeffs(kind, ranks) \
                    == slow.collective_coeffs(kind, ranks), (kind, node)

    def test_crossing_any_node_boundary_pays_inter_tier(self):
        cluster = p3dn_cluster(4)
        assert cluster.tier_for((7, 8)) is cluster.link_tiers[1]
        assert cluster.tier_for((0, 31)) is cluster.link_tiers[1]


class TestMonotonicity:
    @pytest.mark.parametrize("kind", COLLECTIVES[:-1])
    def test_coeffs_never_improve_with_node_spread(self, kind):
        for cluster in (p3dn_cluster(8), a100_cluster(8), h100_cluster(8)):
            spreads = node_spread_sets(cluster.gpus_per_node)
            prev = None
            for nodes in sorted(spreads):
                alpha, beta = cluster.collective_coeffs(kind, spreads[nodes])
                if prev is not None:
                    prev_alpha, prev_beta = prev
                    assert alpha >= prev_alpha - 1e-18, (cluster, nodes)
                    assert beta >= prev_beta - 1e-24, (cluster, nodes)
                prev = (alpha, beta)

    def test_times_monotone_in_node_spread(self):
        cluster = a100_cluster(8)
        nbytes = 64 << 20
        spreads = node_spread_sets(cluster.gpus_per_node)
        times = [cluster.all_reduce_time(nbytes, spreads[n])
                 for n in sorted(spreads)]
        assert all(b >= a for a, b in zip(times, times[1:])), times


class TestPresets:
    def test_a100_and_h100_shapes(self):
        a, h = a100_cluster(2), h100_cluster(2)
        assert a.world_size == h.world_size == 16
        assert a.gpu is A100_GPU and h.gpu is H100_GPU
        # generation leaps: compute, HBM, NVLink, and the fabric
        assert H100_GPU.peak_fp16_flops > A100_GPU.peak_fp16_flops
        assert H100_GPU.memory_bandwidth > A100_GPU.memory_bandwidth
        assert h.intra_node_bandwidth > a.intra_node_bandwidth
        assert h.inter_node_bandwidth > a.inter_node_bandwidth
        # named tiers: NVLink island per node, rail-optimized IB fabric
        assert [t.name for t in a.link_tiers] == ["nvlink", "ib_hdr"]
        assert [t.name for t in h.link_tiers] == ["nvlink", "ib_ndr"]
        assert a.link_tiers[1].rails == a.gpus_per_node

    def test_inter_node_bandwidth_is_aggregate_of_rails(self):
        a = a100_cluster(2)
        assert a.inter_node_bandwidth \
            == a.gpus_per_node * a.link_tiers[1].bandwidth

    def test_rail_optimized_all_to_all_beats_single_rail(self):
        a = a100_cluster(4)
        single_rail = dataclasses.replace(
            a, tiers=tuple(dataclasses.replace(t, rails=1)
                           for t in a.link_tiers))
        ranks = tuple(range(0, 32, 4))  # 8 ranks over 4 nodes
        nbytes = 64 << 20
        assert a.all_to_all_time(nbytes, ranks) \
            < single_rail.all_to_all_time(nbytes, ranks)
        # but intra-node all-to-all is rail-independent (NVLink island)
        local = tuple(range(8))
        assert a.all_to_all_time(nbytes, local) \
            == single_rail.all_to_all_time(nbytes, local)


class TestOverlapKnobs:
    def test_knob_defaults_match_the_retired_constants(self):
        # the fractional overlap defaults the simulator has always used
        assert ClusterSpec.dp_sync_overlap == 0.7
        assert ClusterSpec.zero_prefetch_overlap == 0.25

    def test_knobs_are_per_cluster(self):
        eager = dataclasses.replace(p3dn_cluster(2), dp_sync_overlap=0.9)
        assert eager.dp_sync_overlap == 0.9
        assert p3dn_cluster(2).dp_sync_overlap == 0.7
