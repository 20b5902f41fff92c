"""Process groups: the communication handles Slapo's sync primitives use.

Three implementations share one interface:

* :class:`ThreadGroup` — real data movement between LocalCluster threads
  (functional testing, the verifier).
* :class:`SimGroup` — meta-device execution; collectives only record
  communication events for the performance simulator.
* :class:`SingleGroup` — world size 1; every collective is the identity.

All collectives accept framework Tensors (with autograd: e.g. the backward
of a forward all-reduce is the identity, exactly as in Megatron-LM's
``_ReduceFromModelParallelRegion``) and raw numpy arrays (as used inside
backward hooks).
"""

from __future__ import annotations

import numpy as np

from repro.framework import events
from repro.framework.autograd import GradNode, is_grad_enabled
from repro.framework.functional import OpDeclarationError
from repro.framework.tensor import Tensor


class RankContext:
    """Per-thread handle inside a LocalCluster run."""

    def __init__(self, rank: int, cluster):
        self.rank = rank
        self.cluster = cluster
        self.world_size = cluster.world_size

    def group(self, ranks=None, tag: str = "world") -> "ThreadGroup":
        ranks = tuple(ranks) if ranks is not None \
            else tuple(range(self.world_size))
        return ThreadGroup(self.rank, ranks, self.cluster.communicator(ranks),
                           tag=tag)

    def world_group(self) -> "ThreadGroup":
        return self.group()


class BaseGroup:
    """Common surface; see module docstring."""

    tag: str = "world"
    size: int = 1
    rank: int = 0
    ranks: tuple[int, ...] = (0,)

    # Subclasses implement the raw numpy-level primitives. ------------- #
    def _all_reduce_array(self, array: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _all_gather_array(self, array: np.ndarray, axis: int) -> np.ndarray:
        raise NotImplementedError

    def _reduce_scatter_array(self, array: np.ndarray, axis: int
                              ) -> np.ndarray:
        raise NotImplementedError

    def _broadcast_array(self, array, src: int):
        raise NotImplementedError

    def _all_to_all_array(self, array: np.ndarray, axis: int) -> np.ndarray:
        raise NotImplementedError

    def _record(self, kind: str, nbytes: int) -> None:
        events.record_comm(kind, nbytes, self.size,
                           meta={"tag": self.tag, "ranks": self.ranks})

    # Tensor-level collectives with autograd. --------------------------- #
    def all_reduce(self, value):
        """Sum across the group. Backward: identity."""
        return _collective(self, "all_reduce", value, value.shape,
                           self._all_reduce_array, value.nbytes,
                           backward=lambda grad: (grad,))

    def all_gather(self, value, axis: int = -1):
        """Concatenate shards along ``axis``. Backward: take own slice."""
        shape = list(value.shape)
        shard = shape[axis]
        shape[axis] *= self.size
        local = self.ranks.index(self.rank) if self.rank in self.ranks else 0

        def backward(grad):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(local * shard, (local + 1) * shard)
            return (grad[tuple(index)],)

        return _collective(self, "all_gather", value, shape,
                           lambda a: self._all_gather_array(a, axis),
                           value.nbytes * self.size, backward=backward)

    def reduce_scatter(self, value, axis: int = -1):
        """Sum then split along ``axis``; each rank keeps one shard."""
        shape = list(value.shape)
        shape[axis] //= self.size
        return _collective(
            self, "reduce_scatter", value, shape,
            lambda a: self._reduce_scatter_array(a, axis), value.nbytes,
            backward=lambda grad: (self._all_gather_array(grad, axis),))

    def broadcast(self, value, src: int = 0):
        """Share ``src``'s value with the group.

        ``src`` is the source's **local index** within this group (0 ≤
        src < size), not a global rank — the two differ on strided
        groups (e.g. dp groups under tp > 1).
        """
        return _collective(self, "broadcast", value, value.shape,
                           lambda a: self._broadcast_array(a, src),
                           value.nbytes)

    def all_to_all(self, value, axis: int = 0):
        """Exchange equal chunks along ``axis`` (expert-parallel dispatch).

        Chunk ``j`` of this rank's value goes to the group's ``j``-th rank
        (local group order, the same local-index discipline as
        ``broadcast``); the result concatenates the chunks received from
        every peer in group-rank order, so shapes are preserved.  Uneven
        splits are rejected.  Backward: an all-to-all is its own adjoint —
        the gradient chunk produced for output position ``j`` travels back
        to rank ``j``, which is exactly another all-to-all.
        """
        shape = tuple(value.shape)
        if not shape:
            raise ValueError("all_to_all needs at least a 1-d value")
        if shape[axis % len(shape)] % self.size != 0:
            raise ValueError(
                f"all_to_all requires an even split: dimension "
                f"{shape[axis]} (axis {axis % len(shape)}) is not divisible "
                f"by the group size {self.size}"
            )
        return _collective(self, "all_to_all", value, shape,
                           lambda a: self._all_to_all_array(a, axis),
                           value.nbytes,
                           backward=lambda grad: (self.all_to_all(grad,
                                                                  axis),))

    def copy_to_group(self, value):
        """Identity forward, all-reduce backward.

        Placed at the *input* of a tensor-parallel region (Megatron's
        ``_CopyToModelParallelRegion``).
        """
        return _collective(self, "copy_to_group", value, value.shape,
                           lambda a: a, None,
                           backward=lambda grad: (self.all_reduce(grad),),
                           aliases=True)

    def barrier(self) -> None:
        pass


class SingleGroup(BaseGroup):
    """World of one: all collectives are identities."""

    def __init__(self, tag: str = "world"):
        self.tag = tag
        self.size = 1
        self.rank = 0
        self.ranks = (0,)

    def _all_reduce_array(self, array):
        return array

    def _all_gather_array(self, array, axis):
        return array

    def _reduce_scatter_array(self, array, axis):
        return array

    def _broadcast_array(self, array, src):
        return array

    def _all_to_all_array(self, array, axis):
        return array

    def _record(self, kind, nbytes):
        pass  # no communication happens in a world of one


class ThreadGroup(BaseGroup):
    """Real rendezvous collectives between LocalCluster threads."""

    def __init__(self, rank: int, ranks: tuple[int, ...], communicator,
                 tag: str = "group"):
        self.rank = rank
        self.ranks = tuple(ranks)
        self.size = len(self.ranks)
        self.tag = tag
        self._comm = communicator

    def _all_reduce_array(self, array):
        return self._comm.all_reduce(self.rank, array)

    def _all_gather_array(self, array, axis):
        return self._comm.all_gather(self.rank, array, axis)

    def _reduce_scatter_array(self, array, axis):
        return self._comm.reduce_scatter(self.rank, array, axis)

    def _broadcast_array(self, array, src):
        # ``src`` is the *local* index within this group (the convention
        # of every caller: ZeRO owners are ``index % group.size``); the
        # communicator speaks global ranks.  Translating here keeps
        # broadcasts correct on strided groups — e.g. a data-parallel
        # group of ranks (0, 2) when tp > 1 — where the two numberings
        # no longer coincide.
        return self._comm.broadcast(self.rank, array, self.ranks[src])

    def _all_to_all_array(self, array, axis):
        return self._comm.all_to_all(self.rank, array, axis)

    def barrier(self) -> None:
        self._comm.barrier(self.rank)

    def send(self, dst: int, value) -> None:
        self._comm.send(self.rank, dst, value)

    def recv(self, src: int):
        return self._comm.recv(self.rank, src)


class SimGroup(BaseGroup):
    """Meta-device group: no data motion, only cost events.

    Acts as rank 0 of the group; tensors passing through keep (or reshape)
    their meta shapes so downstream shape inference stays correct.
    """

    def __init__(self, ranks: tuple[int, ...], tag: str = "group"):
        self.ranks = tuple(ranks)
        self.size = len(self.ranks)
        self.rank = self.ranks[0]
        self.tag = tag

    def _all_reduce_array(self, array):
        return array

    def _all_gather_array(self, array, axis):
        reps = [1] * array.ndim
        reps[axis] = self.size
        return np.tile(array, reps)

    def _reduce_scatter_array(self, array, axis):
        return np.split(array, self.size, axis=axis)[0]

    def _broadcast_array(self, array, src):
        return array

    def _all_to_all_array(self, array, axis):
        return array  # chunk sizes match, so the shape is unchanged


def _collective(group, kind, value, shape, move, nbytes, backward=None,
                aliases=False):
    """Run one tensor-level collective of ``group`` from its declaration.

    The declaration, as :func:`repro.framework.functional._op` takes one
    for an op: the output ``shape``; ``move``, the data motion from the
    input's array to the output's; ``nbytes``, what the ``kind`` comm
    event moves (None: the forward communicates nothing); ``backward``,
    the output gradient to the input's (None: no gradient); and whether
    the output ``aliases`` the input's storage (else it owns a buffer of
    its own).  On a meta tensor the output has no storage; a raw numpy
    array (a backward hook's gradient) is moved without a tape.  Every
    path records the same event.
    """
    if nbytes is not None:
        group._record(kind, nbytes)
    if isinstance(value, np.ndarray):
        return move(value)
    shape = tuple(shape)
    if value.is_meta:
        out, backward = Tensor.meta(shape, value.dtype), None
    else:
        data = move(value.data)
        if data.shape != shape:
            raise OpDeclarationError(
                kind, f"moved {data.shape}, declared {shape}")
        if data is value.data and not aliases:
            data = data.copy()
        out = Tensor(data, dtype=value.dtype)
    if aliases:
        out._base = getattr(value, "_base", value)
        out._strided = getattr(value, "_strided", False)
    if backward is not None and is_grad_enabled() \
            and (value.requires_grad or value.grad_fn is not None):
        out.grad_fn = GradNode(kind, (value,), backward)
        out.requires_grad = True
    return out
