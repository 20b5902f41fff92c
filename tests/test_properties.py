"""Property-based tests (hypothesis) over core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import framework as fw
from repro import fx
from repro.distributed import DeviceMesh, ParallelConfig
from repro.distributed.topology import P3DN_NODE, p3dn_cluster
from repro.framework import functional as F
from repro.distributed.mesh import axis_ranks
from repro.slapo.tuner import enumerate_space
from repro.slapo.tuner.space import _divisors, parallelism_symbols

shapes = st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple)
floats = st.floats(-10, 10, allow_nan=False, width=32)


class TestTensorProperties:
    @given(shape=shapes, seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_reshape_roundtrip_preserves_values(self, shape, seed):
        fw.manual_seed(seed)
        t = fw.randn(*shape)
        flat = t.view(-1)
        back = flat.view(*shape)
        np.testing.assert_array_equal(back.numpy(), t.numpy())

    @given(shape=shapes, seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_meta_shapes_match_real_shapes(self, shape, seed):
        fw.manual_seed(seed)
        real = fw.randn(*shape)
        meta = fw.Tensor.meta(shape)
        for op in (lambda x: x + 1.0, lambda x: F.gelu(x),
                   lambda x: F.softmax(x, dim=-1),
                   lambda x: x.sum(dim=0)):
            assert tuple(op(real).shape) == tuple(op(meta).shape)

    @given(a=st.integers(1, 6), b=st.integers(1, 6), c=st.integers(1, 6),
           seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_linear_grad_shape_invariants(self, a, b, c, seed):
        fw.manual_seed(seed)
        x = fw.randn(a, b, requires_grad=True)
        layer = fw.Linear(b, c)
        layer(x).sum().backward()
        assert tuple(x.grad.shape) == (a, b)
        assert tuple(layer.weight.grad.shape) == (c, b)

    @given(shape=shapes, seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_softmax_rows_sum_to_one(self, shape, seed):
        fw.manual_seed(seed)
        out = F.softmax(fw.randn(*shape), dim=-1).numpy()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-4)

    @given(seed=st.integers(0, 500), p=st.floats(0.05, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_checkpoint_grads_equal_plain(self, seed, p):
        def grads(checkpointed):
            fw.manual_seed(seed)
            net = fw.Sequential(fw.Linear(6, 12), fw.GELU(),
                                fw.Linear(12, 6))
            if checkpointed:
                net._slapo_meta["checkpoint"] = True
            fw.manual_seed(seed + 1)
            x = fw.randn(3, 6, requires_grad=True)
            net(x).sum().backward()
            return x.grad.numpy()

        np.testing.assert_allclose(grads(True), grads(False), rtol=1e-5)


class TestShardingProperties:
    @given(tp=st.sampled_from([1, 2, 4, 8]), out=st.sampled_from([8, 16, 32]))
    @settings(max_examples=20, deadline=None)
    def test_shard_concat_reconstructs_parameter(self, tp, out):
        import repro.slapo as slapo

        fw.manual_seed(0)
        full = fw.Linear(8, out)
        original = full.weight.numpy().copy()
        shards = []
        for rank in range(tp):
            fw.manual_seed(0)

            class Holder(fw.Module):
                def __init__(self):
                    super().__init__()
                    self.fc = fw.Linear(8, out)

                def forward(self, x):
                    return self.fc(x)

            holder = Holder()
            mesh = DeviceMesh(ParallelConfig(tp=tp), rank=rank, sim=True)
            # sim meshes are rank-0 views; slice manually per rank instead
            from repro.slapo.primitives.sharding import _shard_parameter

            shards.append(_shard_parameter(holder.fc.weight, 0, tp,
                                           rank).numpy())
        np.testing.assert_array_equal(np.concatenate(shards, axis=0),
                                      original)


class TestGraphProperties:
    @given(depth=st.integers(1, 6), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_trace_execute_equivalence(self, depth, seed):
        fw.manual_seed(seed)

        class Chain(fw.Module):
            def __init__(self):
                super().__init__()
                self.layers = fw.ModuleList(
                    [fw.Linear(4, 4) for _ in range(depth)])

            def forward(self, x):
                for layer in self.layers:
                    x = F.gelu(layer(x))
                return x

        model = Chain()
        gm = fx.symbolic_trace(model)
        x = fw.randn(2, 4)
        np.testing.assert_allclose(gm(x).numpy(), model(x).numpy(),
                                   rtol=1e-5)

    @given(depth=st.integers(2, 6), cut=st.integers(0, 4),
           seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_pipeline_split_equivalence_any_cut(self, depth, cut, seed):
        cut = min(cut, depth - 2)
        fw.manual_seed(seed)

        class Chain(fw.Module):
            def __init__(self):
                super().__init__()
                self.layers = fw.ModuleList(
                    [fw.Linear(4, 4) for _ in range(depth)])

            def forward(self, x):
                for layer in self.layers:
                    x = layer(x) + x
                return x

        model = Chain()
        gm = fx.symbolic_trace(model)
        x = fw.randn(2, 4)
        expected = gm(x).numpy()
        nodes = [n for n in gm.graph if n.op == "call_module"]
        stages = fx.split_graph_module(gm, [nodes[cut]])
        value = stages[0](x)
        out = stages[1](*value) if isinstance(value, tuple) \
            else stages[1](value)
        np.testing.assert_allclose(out.numpy(), expected, rtol=1e-5)


class TestCostModelProperties:
    @given(nbytes=st.floats(1e3, 1e10), n=st.sampled_from([2, 4, 8]))
    @settings(max_examples=30, deadline=None)
    def test_collective_time_monotone_in_bytes(self, nbytes, n):
        ranks = tuple(range(n))
        smaller = P3DN_NODE.all_reduce_time(nbytes / 2, ranks)
        larger = P3DN_NODE.all_reduce_time(nbytes, ranks)
        assert larger >= smaller

    @given(nbytes=st.floats(1e6, 1e9))
    @settings(max_examples=20, deadline=None)
    def test_inter_node_never_faster_than_intra(self, nbytes):
        intra = P3DN_NODE.all_reduce_time(nbytes, tuple(range(8)))
        inter = p3dn_cluster(2).all_reduce_time(nbytes, tuple(range(16)))
        assert inter >= intra


class TestParallelismSpaceProperties:
    """Every configuration of the mesh-factorization space is valid
    (the fuzzer and the tuner both lean on this)."""

    @given(world_size=st.sampled_from([8, 16]))
    @settings(max_examples=4, deadline=None)
    def test_every_config_factors_world_size(self, world_size):
        configs = enumerate_space(
            lambda space: parallelism_symbols(space, world_size))
        assert configs
        for config in configs:
            assert config["tp"] * config["dp"] * config["pp"] == world_size

    @given(world_size=st.sampled_from([8, 16]))
    @settings(max_examples=4, deadline=None)
    def test_pipelines_always_fillable(self, world_size):
        """m >= pp for every configuration that declares micro-batches."""
        configs = enumerate_space(
            lambda space: parallelism_symbols(space, world_size))
        for config in configs:
            if config["pp"] > 1:
                m = config["num_micro_batches"]
                assert m >= config["pp"]
                assert m % config["pp"] == 0

    @given(world_size=st.sampled_from([8, 16]),
           max_tp=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=10, deadline=None)
    def test_limits_respected_and_space_complete(self, world_size, max_tp):
        configs = enumerate_space(
            lambda space: parallelism_symbols(space, world_size,
                                              max_tp=max_tp))
        seen = {(c["tp"], c["dp"], c["pp"]) for c in configs}
        assert all(tp <= max_tp for tp, _, _ in seen)
        # Completeness: every legal factorization under the cap appears.
        expected = {
            (tp, world_size // (tp * pp), pp)
            for tp in range(1, max_tp + 1) if world_size % tp == 0
            for pp in range(1, world_size // tp + 1)
            if (world_size // tp) % pp == 0
        }
        assert seen == expected


    def test_divisors_match_brute_force(self):
        for n in range(4097):
            assert _divisors(n) == [d for d in range(1, n + 1)
                                    if n % d == 0], n


class TestExpertParallelSpaceProperties:
    """The ep axis joins the mesh factorization without losing
    completeness or validity (tp·dp·pp·ep == world size, always)."""

    @given(world_size=st.sampled_from([8, 16]))
    @settings(max_examples=4, deadline=None)
    def test_every_config_factors_world_size_with_ep(self, world_size):
        configs = enumerate_space(
            lambda space: parallelism_symbols(space, world_size,
                                              max_ep=world_size))
        assert configs
        for config in configs:
            assert config["tp"] * config["dp"] * config["pp"] \
                * config["ep"] == world_size

    @given(world_size=st.sampled_from([8, 16]),
           max_ep=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=10, deadline=None)
    def test_ep_space_complete_under_cap(self, world_size, max_ep):
        """Every legal tp·pp·ep·dp factorization under the cap appears
        exactly once."""
        configs = enumerate_space(
            lambda space: parallelism_symbols(space, world_size,
                                              max_ep=max_ep))
        seen = {(c["tp"], c["dp"], c["pp"], c["ep"]) for c in configs}
        # Full configs are unique (pp > 1 adds a num_micro_batches axis).
        assert len({tuple(sorted(c.items())) for c in configs}) \
            == len(configs)
        expected = {
            (tp, world_size // (tp * pp * ep), pp, ep)
            for tp in range(1, world_size + 1) if world_size % tp == 0
            for pp in range(1, world_size // tp + 1)
            if (world_size // tp) % pp == 0
            for ep in range(1, max_ep + 1)
            if (world_size // (tp * pp)) % ep == 0
        }
        assert seen == expected

    @given(world_size=st.sampled_from([8, 16]))
    @settings(max_examples=4, deadline=None)
    def test_ep_axis_defaults_to_legacy_space(self, world_size):
        """Without max_ep the space (and its symbols) is exactly the
        pre-ep tp/dp/pp factorization — no silent behaviour change."""
        legacy = enumerate_space(
            lambda space: parallelism_symbols(space, world_size))
        assert all("ep" not in config for config in legacy)
        assert {(c["tp"], c["dp"], c["pp"]) for c in legacy} == {
            (c["tp"], c["dp"], c["pp"])
            for c in enumerate_space(
                lambda space: parallelism_symbols(space, world_size,
                                                  max_ep=1))
        }


class TestRouterProperties:
    """Top-k routing is a deterministic function of the probabilities,
    and capacity drops are exactly countable."""

    @given(seed=st.integers(0, 500), seq=st.integers(2, 12),
           num_experts=st.sampled_from([2, 4, 8]),
           top_k=st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_routing_deterministic_under_seed(self, seed, seq, num_experts,
                                              top_k):
        from repro.framework.layers import fill_capacity, top_k_choices

        probs = np.random.default_rng(seed).random((seq, num_experts))
        probs /= probs.sum(axis=-1, keepdims=True)
        first = top_k_choices(probs, top_k)
        second = top_k_choices(probs.copy(), top_k)
        np.testing.assert_array_equal(first, second)
        pos1, valid1, drop1 = fill_capacity(first, num_experts, 2)
        pos2, valid2, drop2 = fill_capacity(second, num_experts, 2)
        np.testing.assert_array_equal(pos1, pos2)
        np.testing.assert_array_equal(valid1, valid2)
        assert drop1 == drop2

    def test_ties_break_toward_lower_expert_index(self):
        from repro.framework.layers import top_k_choices

        probs = np.full((3, 4), 0.25)
        choices = top_k_choices(probs, 2)
        np.testing.assert_array_equal(choices, [[0, 1]] * 3)

    def test_capacity_drop_counts_exact_for_crafted_logits(self):
        """All tokens prefer expert 0: exactly seq − capacity of the
        first choices drop; second choices (expert 1) drop the same way."""
        from repro.framework.layers import fill_capacity, top_k_choices

        seq, num_experts, capacity = 6, 4, 2
        logits = np.tile(np.array([4.0, 3.0, 2.0, 1.0]), (seq, 1))
        choices = top_k_choices(logits, 2)
        np.testing.assert_array_equal(choices, [[0, 1]] * seq)
        _, valid, dropped = fill_capacity(choices, num_experts, capacity)
        assert dropped == 2 * (seq - capacity)
        # Exactly the first `capacity` tokens kept, per expert.
        np.testing.assert_array_equal(valid[:capacity], True)
        np.testing.assert_array_equal(valid[capacity:], False)

    def test_layer_reports_exact_drop_count(self):
        fw.manual_seed(0)
        moe = fw.MoEFeedForward(8, 16, num_experts=4, top_k=1,
                                capacity_factor=0.5)
        # capacity = ceil(0.5 · 8 · 1 / 4) = 1 slot per expert
        assert moe.capacity(8) == 1
        x = fw.randn(1, 8, 8)
        moe(x)
        # 8 assignments into 4 single-slot experts: at least 4 must drop
        assert moe.last_dropped >= 4
        expected = moe.last_dropped
        moe(x)
        assert moe.last_dropped == expected  # deterministic re-forward

    @given(world_size=st.sampled_from([8, 16]))
    @settings(max_examples=4, deadline=None)
    def test_ep_groups_partition_the_world(self, world_size):
        """axis_ranks stays a disjoint cover with the ep axis active."""
        for tp in (1, 2):
            for ep in (2, 4):
                rest = world_size // (tp * ep)
                config = ParallelConfig(tp=tp, dp=rest, pp=1, ep=ep)
                groups = {axis_ranks(rank, config)["ep"]
                          for rank in range(world_size)}
                flat = [r for group in groups for r in group]
                assert sorted(flat) == list(range(world_size))
                assert all(len(group) == ep for group in groups)


class TestMeshRankProperties:
    """axis_ranks is the single source of rank-group truth; its groups
    must partition the world along every axis for every factorization."""

    def _factorizations(self, world_size):
        return [
            (tp, dp, world_size // (tp * dp))
            for tp in range(1, world_size + 1) if world_size % tp == 0
            for dp in range(1, world_size // tp + 1)
            if (world_size // tp) % dp == 0
        ]

    @given(world_size=st.sampled_from([8, 16]))
    @settings(max_examples=4, deadline=None)
    def test_groups_partition_the_world(self, world_size):
        for tp, dp, pp in self._factorizations(world_size):
            config = ParallelConfig(tp=tp, dp=dp, pp=pp)
            for axis, size in (("tp", tp), ("dp", dp), ("pp", pp)):
                groups = {axis_ranks(rank, config)[axis]
                          for rank in range(world_size)}
                # Disjoint cover of the world with equal-size groups.
                flat = [r for group in groups for r in group]
                assert sorted(flat) == list(range(world_size))
                assert all(len(group) == size for group in groups)
                assert len(groups) == world_size // size

    @given(world_size=st.sampled_from([8, 16]))
    @settings(max_examples=4, deadline=None)
    def test_every_rank_is_in_its_own_groups(self, world_size):
        for tp, dp, pp in self._factorizations(world_size):
            config = ParallelConfig(tp=tp, dp=dp, pp=pp)
            for rank in range(world_size):
                groups = axis_ranks(rank, config)
                for axis in ("tp", "dp", "pp"):
                    assert rank in groups[axis]
                    assert groups[axis] == tuple(sorted(groups[axis]))

    @given(world_size=st.sampled_from([8, 16]))
    @settings(max_examples=4, deadline=None)
    def test_axis_groups_intersect_only_at_self(self, world_size):
        """tp/dp/pp groups of one rank share exactly that rank."""
        for tp, dp, pp in self._factorizations(world_size):
            config = ParallelConfig(tp=tp, dp=dp, pp=pp)
            for rank in range(world_size):
                groups = axis_ranks(rank, config)
                for a, b in (("tp", "dp"), ("tp", "pp"), ("dp", "pp")):
                    overlap = set(groups[a]) & set(groups[b])
                    assert overlap == {rank}


class TestTunerProperties:
    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_rectangular_space_cardinality(self, sizes):
        def update(space):
            for idx, size in enumerate(sizes):
                space.create_symbol(f"s{idx}", list(range(size)))

        configs = enumerate_space(update)
        expected = 1
        for size in sizes:
            expected *= size
        assert len(configs) == expected
        assert len({tuple(sorted(c.items())) for c in configs}) == expected
