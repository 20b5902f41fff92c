"""Peer-parallel all_reduce / reduce_scatter: each rank sums its own slice.

The results must equal, bit for bit, the serial float32 sum over ranks in
rank order, and every rank's result must be its own buffer.
"""

import numpy as np
import pytest

from repro.distributed import LocalCluster


def _inputs(world, shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    # Magnitudes spread over many binades, so a different summation order
    # would change low bits.
    return [np.asarray(rng.normal(size=shape)
                       * 10.0 ** rng.integers(-3, 4, size=shape), dtype)
            for _ in range(world)]


def _serial_sum(arrays):
    acc = arrays[0].astype(np.float32, copy=True)
    for other in arrays[1:]:
        acc += other
    return acc


def _assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).reshape(-1).view(np.uint8),
        np.ascontiguousarray(want).reshape(-1).view(np.uint8))


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("world", [2, 3, 4])
@pytest.mark.parametrize("shape", [(1,), (7,), (5, 13), (3, 4, 5), ()])
def test_all_reduce_matches_the_serial_rank_order_sum(dtype, world, shape):
    arrays = _inputs(world, shape, dtype)
    want = _serial_sum(arrays).astype(dtype)

    def fn(ctx):
        return ctx.world_group().all_reduce(arrays[ctx.rank])

    for got in LocalCluster(world).run(fn):
        _assert_bits_equal(got, want)


def test_all_reduce_of_a_strided_view():
    arrays = [a.T for a in _inputs(3, (6, 5), np.float32, seed=1)]
    want = _serial_sum(arrays)

    def fn(ctx):
        return ctx.world_group().all_reduce(arrays[ctx.rank])

    for got in LocalCluster(3).run(fn):
        _assert_bits_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("world", [2, 3, 4])
@pytest.mark.parametrize("shape,axis", [((12, 5), 0), ((7, 12), 1),
                                        ((3, 12, 2), -2)])
def test_reduce_scatter_matches_the_serial_rank_order_sum(dtype, world,
                                                          shape, axis):
    arrays = _inputs(world, shape, dtype, seed=2)
    shards = np.split(_serial_sum(arrays), world, axis=axis)

    def fn(ctx):
        return ctx.world_group().reduce_scatter(arrays[ctx.rank], axis=axis)

    for rank, got in enumerate(LocalCluster(world).run(fn)):
        _assert_bits_equal(got, shards[rank].astype(dtype))


@pytest.mark.parametrize("op", ["all_reduce", "reduce_scatter"])
def test_a_rank_mutating_its_result_leaves_peers_unchanged(op):
    world = 3
    arrays = _inputs(world, (6, 7), np.float32, seed=3)

    def fn(ctx):
        group = ctx.world_group()
        if op == "all_reduce":
            out = group.all_reduce(arrays[ctx.rank])
        else:
            out = group.reduce_scatter(arrays[ctx.rank], axis=0)
        before = out.copy()
        group.barrier()
        if ctx.rank == 0:
            out[...] = -1.0  # only rank 0 writes
        group.barrier()
        return before, out

    results = LocalCluster(world).run(fn)
    assert (results[0][1] == -1.0).all()
    for before, after in results[1:]:
        np.testing.assert_array_equal(after, before)


def test_inputs_are_not_written():
    arrays = _inputs(2, (9,), np.float32, seed=4)
    copies = [a.copy() for a in arrays]

    def fn(ctx):
        group = ctx.world_group()
        group.all_reduce(arrays[ctx.rank])
        group.reduce_scatter(arrays[ctx.rank][:8], axis=0)

    LocalCluster(2).run(fn)
    for got, want in zip(arrays, copies):
        np.testing.assert_array_equal(got, want)
