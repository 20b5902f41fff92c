"""LocalCluster: run N simulated ranks as lock-stepped threads.

Every rank executes the same function (SPMD); collectives rendezvous through
a shared :class:`Communicator`.  Reductions sum in rank order (each rank
sums its own slice of the buffers), so results are bit-identical across
runs — which the differential-testing verifier (paper §3.5) depends on.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable

import numpy as np


class ClusterError(RuntimeError):
    """Raised on the caller when any rank fails.

    ``original`` carries the failing rank's exception so callers (the
    verifier, the schedule fuzzer) can classify the root cause without
    parsing the message; it is also chained as ``__cause__``.
    """

    def __init__(self, message: str, original: Exception | None = None):
        super().__init__(message)
        self.original = original


def _rank_order_sum(parts: list) -> np.ndarray:
    """Sum ``parts`` (one per rank, in rank order) in float32."""
    acc = parts[0].astype(np.float32, copy=True)
    for other in parts[1:]:
        acc += other
    return acc


class Communicator:
    """Rendezvous point for one group of ranks.

    Every collective follows one protocol (:meth:`_rendezvous`): each
    rank posts its buffer, waits, builds a private result from its peers'
    buffers, and waits again before its slot is released and reused.
    """

    def __init__(self, ranks: tuple[int, ...]):
        self.ranks = tuple(ranks)
        self.size = len(ranks)
        self._barrier = threading.Barrier(self.size)
        self._slots: dict[int, np.ndarray] = {}
        self._p2p: dict[tuple[int, int], queue.Queue] = {}
        self._p2p_lock = threading.Lock()

    def _local_index(self, rank: int) -> int:
        return self.ranks.index(rank)

    def _rendezvous(self, rank: int, post, build: Callable):
        """The one protocol of every collective.

        Post this rank's ``post``, wait for every peer, build this rank's
        private result with ``build(posts)`` (the posts in group order),
        and wait again, so no peer's post is reused before every rank has
        read it; then drop this rank's slot, so no buffer outlives its
        collective.
        """
        self._slots[rank] = post
        self._barrier.wait()
        result = build([self._slots[r] for r in self.ranks])
        self._barrier.wait()
        del self._slots[rank]
        return result

    def all_reduce(self, rank: int, array: np.ndarray) -> np.ndarray:
        """Sum across ranks; every rank gets a private result.

        Peer-parallel: rank ``i`` of ``P`` sums the ``i``-th of ``P``
        contiguous slices of the flattened buffers, in rank order, and
        writes that slice into every rank's output.  Elementwise, that is
        the same float32 sum the serial rank-order reduction computes.
        """
        out = np.empty(array.shape, array.dtype)
        index, n = self._local_index(rank), array.size
        part = slice(index * n // self.size, (index + 1) * n // self.size)

        def build(peers):
            acc = _rank_order_sum([flat[part] for flat, _ in peers])
            for _, flat_out in peers:
                flat_out[part] = acc
            return out  # complete once every peer wrote its slice

        return self._rendezvous(rank, (array.reshape(-1), out.reshape(-1)),
                                build)

    def all_gather(self, rank: int, array: np.ndarray, axis: int
                   ) -> np.ndarray:
        """Concatenate every rank's buffer along ``axis``, in rank order.

        Each rank builds its own result from its peers' buffers, so no
        result shares memory with any input.
        """
        return self._rendezvous(
            rank, array, lambda peers: np.concatenate(peers, axis=axis))

    def reduce_scatter(self, rank: int, array: np.ndarray, axis: int
                       ) -> np.ndarray:
        """Sum across ranks, then keep this rank's shard along ``axis``.

        Each rank sums only its own shard, in rank order and float32.
        """
        index = self._local_index(rank)
        acc = self._rendezvous(rank, array, lambda peers: _rank_order_sum(
            [np.split(peer, self.size, axis=axis)[index] for peer in peers]))
        return acc.astype(array.dtype, copy=False)

    def broadcast(self, rank: int, array, src: int):
        """Every rank gets a private copy of rank ``src``'s buffer.

        The copy is taken before the closing barrier, so a later in-place
        write by the source (an optimizer broadcasting parameters it
        keeps updating) cannot reach a receiver.
        """
        index = self._local_index(src)
        return self._rendezvous(rank, array,
                                lambda peers: np.array(peers[index]))

    def all_to_all(self, rank: int, array: np.ndarray, axis: int
                   ) -> np.ndarray:
        """Exchange equal chunks: chunk ``j`` of ``array`` (along ``axis``)
        goes to the group's ``j``-th rank; the result concatenates the
        chunks received from every peer, in group-rank order.

        Received chunks are **copied** before the closing barrier — a
        zero-copy view of a peer's send buffer would let the receiver race
        any later in-place mutation by that peer.
        """
        mine = self._local_index(rank)
        return self._rendezvous(
            rank, np.split(array, self.size, axis=axis),
            lambda peers: np.concatenate(
                [np.array(chunks[mine]) for chunks in peers], axis=axis))

    def barrier(self, rank: int) -> None:
        self._barrier.wait()

    # p2p ---------------------------------------------------------------- #
    def _channel(self, src: int, dst: int) -> queue.Queue:
        with self._p2p_lock:
            key = (src, dst)
            if key not in self._p2p:
                self._p2p[key] = queue.Queue()
            return self._p2p[key]

    def send(self, src: int, dst: int, value) -> None:
        self._channel(src, dst).put(value)

    def recv(self, dst: int, src: int, timeout: float = 60.0):
        return self._channel(src, dst).get(timeout=timeout)

    def abort(self) -> None:
        self._barrier.abort()


class LocalCluster:
    """Executes ``fn(ctx)`` on every rank in parallel threads."""

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self._world = Communicator(tuple(range(world_size)))
        self._group_cache: dict[tuple[int, ...], Communicator] = {
            tuple(range(world_size)): self._world
        }
        self._cache_lock = threading.Lock()

    def communicator(self, ranks: tuple[int, ...]) -> Communicator:
        ranks = tuple(sorted(ranks))
        with self._cache_lock:
            if ranks not in self._group_cache:
                self._group_cache[ranks] = Communicator(ranks)
            return self._group_cache[ranks]

    def run(self, fn: Callable, timeout: float = 120.0) -> list:
        """Run ``fn(rank_context)`` on all ranks; returns per-rank results."""
        from .group import RankContext

        results: list = [None] * self.world_size
        errors: list = [None] * self.world_size

        def worker(rank: int) -> None:
            try:
                results[rank] = fn(RankContext(rank, self))
            except Exception as exc:  # noqa: BLE001 - propagate to caller
                errors[rank] = exc
                for comm in list(self._group_cache.values()):
                    comm.abort()

        threads = [
            threading.Thread(target=worker, args=(rank,), daemon=True)
            for rank in range(self.world_size)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
            if thread.is_alive():
                for comm in list(self._group_cache.values()):
                    comm.abort()
                raise ClusterError("cluster run timed out (deadlock?)")
        failures = [(r, e) for r, e in enumerate(errors) if e is not None]
        if failures:
            # Prefer the root cause over secondary broken-barrier fallout.
            root = [(r, e) for r, e in failures
                    if not isinstance(e, threading.BrokenBarrierError)]
            rank, error = (root or failures)[0]
            raise ClusterError(f"rank {rank} failed: {error!r}",
                               original=error) from error
        return results
