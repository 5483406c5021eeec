"""Persistent registered halo channels: the ghost-exchange transport.

A staged point-to-point message pays, per payload and per step, a
staging segment checkout, a pickle or ``copyto`` snapshot, a
control-pipe round trip and an ack (process backend), plus a
receive-side copy.  Ghost exchange moves all of that to *setup time*,
mirroring waLBerla's preregistered communication buffers and the MPI
persistent-request idiom the paper's production code relies on: at
topology construction every rank registers one double-buffered channel
per (neighbour, axis, direction) — a shared-memory segment on the
process backend, a plain shared ndarray on the thread backend — sized
once from the ghosted field shapes and reused every step.

A steady-state exchange round then packs the slab views of *all* fields
and blocks headed to one neighbour in one axis direction into the
registered buffer (vectorized, contiguous), sends **one** tiny notify
message carrying a sequence number, and unpacks on the receiver straight
into the ghost slices: one notification per neighbour per axis
direction, with zero acks and zero segment checkouts.

Slot reuse without acks is safe because exchange rounds are lockstep —
see :class:`repro.simmpi.comm.HaloSendChannel` for the inductive
argument; the sequence number travelling in every notify turns any
violation of that discipline into a loud ``RuntimeError`` instead of a
silent stale-data unpack.

Both sides derive channel ids, capacities and pack plans
deterministically from the shared topology (block forest + ownership),
so registration needs no negotiation: every rank first announces all its
send channels (non-blocking) and then accepts all its receive channels
(blocking), which is deadlock-free in any order.

Fault injection acts on these channels as well:
:class:`repro.resilience.faults.FaultyComm` wraps the send endpoints it
registers, so dropped, corrupted and delayed ghost rounds hit the same
transport every production run uses.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["BlockHaloRegistry"]


def _slab(arr: np.ndarray, dim: int, k: int, which: str, g: int = 1):
    """Slice tuple of an exchange slab along spatial axis *k*.

    ``which`` is one of ``send_lo`` / ``send_hi`` (interior edges) or
    ``recv_lo`` / ``recv_hi`` (ghost layers).  All other axes keep their
    full ghosted extent.
    """
    ax = arr.ndim - dim + k
    sl = [slice(None)] * arr.ndim
    sl[ax] = {
        "send_lo": slice(g, 2 * g),
        "send_hi": slice(-2 * g, -g),
        "recv_lo": slice(0, g),
        "recv_hi": slice(-g, None),
    }[which]
    return tuple(sl)


def _slab_elements(n_comps: int, shape, axis: int, g: int) -> int:
    """Element count of one exchange slab of a block.

    The slab spans *g* cells along *axis* and the full ghosted extent of
    every other spatial axis (dimensional-ordering exchange), times the
    leading component axis.
    """
    n = int(n_comps) * int(g)
    for i, s in enumerate(shape):
        if i != axis:
            n *= int(s) + 2 * int(g)
    return n


def _capacity(pairs, shapes, axis: int, streams) -> int:
    """Channel capacity in elements: the largest per-round packed size
    over all field streams sharing the channel."""
    best = 0
    for n_comps, g in streams:
        total = sum(
            _slab_elements(n_comps, shapes[bid], axis, g)
            for bid, _nb in pairs
        )
        best = max(best, total)
    return best


def _pack(slot: np.ndarray, views) -> int:
    """Pack slab *views* contiguously into *slot*; returns elements used."""
    offset = 0
    for view in views:
        n = view.size
        np.copyto(slot[offset:offset + n].reshape(view.shape), view)
        offset += n
    return offset


def _unpack(slot: np.ndarray, views) -> int:
    """Scatter *slot* back into slab *views*; returns elements consumed."""
    offset = 0
    for view in views:
        n = view.size
        np.copyto(view, slot[offset:offset + n].reshape(view.shape))
        offset += n
    return offset


class BlockHaloRegistry:
    """Halo channels of a block-forest decomposition (waLBerla style).

    One send and/or receive channel per (peer rank, axis, direction),
    shared by every field stream and every block pair crossing that
    rank boundary; *streams* — ``[(n_components, ghost_width), ...]`` —
    sizes the channels once for the largest stream.  Construction is
    collective over the communicator.

    :meth:`exchange` is the body of
    :func:`repro.distributed.exchange.exchange_block_ghosts`, which
    builds a one-call registry when the caller has none.
    """

    def __init__(self, comm, forest, owner, dim: int, streams,
                 dtype=np.float64) -> None:
        self.comm = comm
        self.forest = forest
        self.owner = list(owner)
        self.dim = int(dim)
        self.streams = [(int(c), int(g)) for c, g in streams]
        if not self.streams:
            raise ValueError("halo registry needs at least one field stream")
        rank = comm.rank
        shapes = {b.id: tuple(b.shape) for b in forest.blocks}

        # Deterministic plans, derived identically on both endpoints:
        # pairs are (sender block id, receiver block id), sorted by the
        # sender's block id so packer and unpacker agree on slot layout.
        send_plans: dict[tuple, list] = {}
        recv_plans: dict[tuple, list] = {}
        self._local: dict[int, list] = {k: [] for k in range(self.dim)}
        self._edges: dict[int, list] = {k: [] for k in range(self.dim)}
        for axis in range(self.dim):
            for b in forest.blocks:
                mine = self.owner[b.id] == rank
                for side in (0, 1):
                    nb = forest.neighbor(b, axis, side)
                    if nb is None:
                        if mine:
                            self._edges[axis].append((b.id, side))
                        continue
                    nb_rank = self.owner[nb.id]
                    if mine and nb_rank == rank:
                        # Same-rank neighbour (possibly the block itself
                        # on a single-block periodic axis): direct copy,
                        # recorded once per receiving side.
                        self._local[axis].append((b.id, nb.id, side))
                        continue
                    if mine and nb_rank != rank:
                        key = (nb_rank, axis, side)
                        send_plans.setdefault(key, []).append((b.id, nb.id))
                    elif not mine and nb_rank == rank:
                        key = (self.owner[b.id], axis, side)
                        recv_plans.setdefault(key, []).append((b.id, nb.id))

        # All send endpoints announce first (non-blocking), then every
        # receive endpoint blocks on its registration message — no
        # ordering constraint between ranks, hence no deadlock.
        self._send: dict[tuple, object] = {}
        self._recv: dict[tuple, object] = {}
        self._send_plans = send_plans
        self._recv_plans = recv_plans
        for key in sorted(send_plans):
            peer, axis, side = key
            cap = _capacity(send_plans[key], shapes, axis, self.streams)
            self._send[key] = comm.register_halo(
                peer, axis * 2 + side, cap, dtype
            )
        for key in sorted(recv_plans):
            peer, axis, side = key
            self._recv[key] = comm.accept_halo(peer, axis * 2 + side)

        # Per-axis channel orderings of the steady-state loop.
        self._send_by_axis = {
            k: [(key, self._send[key]) for key in sorted(self._send)
                if key[1] == k]
            for k in range(self.dim)
        }
        self._recv_by_axis = {
            k: [(key, self._recv[key]) for key in sorted(self._recv)
                if key[1] == k]
            for k in range(self.dim)
        }

    @property
    def n_channels(self) -> int:
        """Registered channel endpoints on this rank (send + recv)."""
        return len(self._send) + len(self._recv)

    def exchange(self, arrays: dict[int, np.ndarray], spec, *,
                 ghost: int = 1, timer=None) -> None:
        """Fill every ghost layer of *arrays* through the registered
        channels; same contract as ``exchange_block_ghosts``."""
        t0 = time.perf_counter()
        g = int(ghost)
        dim = self.dim
        itemsize = next(iter(arrays.values())).itemsize if arrays else 8
        nbytes = 0
        nmsg = 0
        for k in range(dim):
            # 1) pack + notify every outgoing channel of this axis (the
            #    packed slot is the snapshot of this round's edges).
            for (peer, axis, side), ch in self._send_by_axis[k]:
                which = "send_hi" if side == 1 else "send_lo"
                used = _pack(ch.slot(), (
                    arrays[bid][_slab(arrays[bid], dim, k, which, g)]
                    for bid, _nb in self._send_plans[(peer, axis, side)]
                ))
                ch.notify(used)
                nbytes += used * itemsize
                nmsg += 1
            # 2) local copies between same-rank neighbours
            for bid, nb_id, side in self._local[k]:
                arr = arrays[bid]
                src = arrays[nb_id]
                recv_which = "recv_lo" if side == 0 else "recv_hi"
                send_which = "send_hi" if side == 0 else "send_lo"
                arr[_slab(arr, dim, k, recv_which, g)] = src[
                    _slab(src, dim, k, send_which, g)
                ]
            # 3) wait for every incoming channel, unpack straight into
            #    the ghost slices (single copy out of the slot).
            for (peer, axis, side), ch in self._recv_by_axis[k]:
                slot = ch.wait()
                # The sender's high edge fills my low ghost and vice
                # versa; *side* is the sender's.
                which = "recv_lo" if side == 1 else "recv_hi"
                _unpack(slot, (
                    arrays[nb_id][_slab(arrays[nb_id], dim, k, which, g)]
                    for _bid, nb_id in self._recv_plans[(peer, axis, side)]
                ))
            # 4) boundary handlers at non-periodic domain edges
            lo_h, hi_h = spec.handlers[k]
            for bid, side in self._edges[k]:
                (lo_h if side == 0 else hi_h).apply(arrays[bid], dim, k, side)
        if timer is not None:
            timer.add(time.perf_counter() - t0, nbytes, nmsg)
