"""Ghost-layer exchange between rank-local blocks.

The exchange proceeds axis by axis; each slab spans the *full ghosted
extent* of the previously exchanged axes, so edge and corner ghost cells
arrive without dedicated diagonal messages — the standard
dimensional-ordering trick, required because the mu sweep reads the D3C19
(edge-diagonal) neighbourhood.

At non-periodic domain edges the axis has no neighbour; the caller's
boundary handler fills those ghosts instead.

Remote slabs travel through the persistent registered halo channels of
:mod:`repro.distributed.halo`, the only ghost transport — as waLBerla's
preregistered block buffers are in the paper.  Every round first packs
and notifies all outgoing channels of an axis and only then waits on the
incoming ones; a notify does not wait for its receiver, so the ranks
need no agreed send/receive order to make progress.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.halo import BlockHaloRegistry
from repro.grid.boundary import BoundarySpec

__all__ = ["exchange_block_ghosts", "ExchangeTimer"]


class ExchangeTimer:
    """Accumulates wall time and byte counts spent in ghost exchange.

    Beyond the plain totals, per-call extrema are tracked so a timing
    report can show jitter (a late neighbour, an injected delay fault)
    rather than only the mean; an optional
    :class:`repro.telemetry.timing.TimingTree` receives the same
    measured duration under *scope*, keeping tree and timer in exact
    agreement.
    """

    def __init__(self, tree=None, scope: str = "exchange") -> None:
        self.seconds = 0.0
        self.bytes = 0
        self.messages = 0
        self.calls = 0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0
        self.tree = tree
        self.scope = scope

    def add(self, seconds: float, nbytes: int, messages: int) -> None:
        self.seconds += seconds
        self.bytes += nbytes
        self.messages += messages
        self.calls += 1
        if seconds < self.min_seconds:
            self.min_seconds = seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        if self.tree is not None:
            self.tree.record(
                self.scope, seconds,
                span_args={"bytes": nbytes, "messages": messages},
            )

    def stats(self) -> dict:
        """Structured dump (count/total/avg/min/max seconds, bytes, msgs)."""
        return {
            "calls": self.calls,
            "total": self.seconds,
            "avg": self.seconds / self.calls if self.calls else 0.0,
            "min": self.min_seconds if self.calls else 0.0,
            "max": self.max_seconds,
            "bytes": self.bytes,
            "messages": self.messages,
        }


def _validate_ghost(arr: np.ndarray, dim: int, g: int) -> None:
    """Reject ghost widths the slab geometry cannot express.

    The ``send_lo`` slab is ``slice(g, 2g)``, so every exchanged axis
    needs at least *g* interior cells — a ghosted extent below ``3g``
    would silently send ghost (or wrapped-around) cells as if they were
    interior, which is exactly the corruption this check turns into an
    error.
    """
    if g < 1:
        raise ValueError(f"ghost width must be >= 1, got {g}")
    for k in range(dim):
        extent = arr.shape[arr.ndim - dim + k]
        if extent < 3 * g:
            raise ValueError(
                f"ghost width {g} unsupported: axis {k} has ghosted "
                f"extent {extent} < 3*{g} (fewer interior cells than "
                "ghost layers)"
            )


def _streams(arrays: dict[int, np.ndarray], dim: int, g: int) -> list:
    """``(n_components, ghost)`` field streams of *arrays* (channel sizing)."""
    streams = {
        (int(np.prod(arr.shape[:arr.ndim - dim])), g)
        for arr in arrays.values()
    }
    return sorted(streams) or [(1, g)]


def exchange_block_ghosts(
    comm,
    forest,
    owner: list[int],
    arrays: dict[int, np.ndarray],
    dim: int,
    spec: BoundarySpec,
    *,
    tag_base: int = 1000,
    timer: ExchangeTimer | None = None,
    ghost: int = 1,
    halo: BlockHaloRegistry | None = None,
) -> None:
    """Ghost exchange for several blocks per rank (waLBerla style).

    *arrays* maps this rank's block ids to their ghosted field arrays.
    Neighbouring blocks on the same rank exchange by direct memory copy;
    remote neighbours through halo channels, one packed buffer and one
    notify per (peer rank, axis, direction).  Axes are processed in
    dimensional order across all local blocks, keeping edge and corner
    ghosts consistent.

    *ghost* is the fields' ghost-layer width.  *halo* is the
    :class:`~repro.distributed.halo.BlockHaloRegistry` of this
    decomposition, registered once and reused by every call — the
    solver's steady state.  Without one, a registry sized from *arrays*
    is built for this call alone, which is collective over *comm* and
    costs a channel registration per call (on the process backend also
    slot segments that live until the rank exits).  *tag_base* is
    accepted and ignored: channels derive their tags from the topology,
    and the argument stays so that callers written for per-slab
    messages keep working.
    """
    g = int(ghost)
    for arr in arrays.values():
        _validate_ghost(arr, dim, g)
    if halo is None:
        halo = BlockHaloRegistry(
            comm, forest, owner, dim, streams=_streams(arrays, dim, g),
        )
    halo.exchange(arrays, spec, ghost=g, timer=timer)
