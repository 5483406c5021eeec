"""Tests of the distributed ghost-layer exchange.

Every case runs :func:`exchange_block_ghosts` over a
:class:`BlockForest`; unless a test says otherwise, rank *r* owns block
*r* (one block per rank), so remote neighbours travel through the halo
channels the call registers.
"""

import numpy as np
import pytest

from repro.distributed.exchange import ExchangeTimer, exchange_block_ghosts
from repro.grid.blockforest import BlockForest
from repro.grid.boundary import BoundarySpec, Dirichlet, Neumann
from repro.simmpi import run_spmd


def _global_field(shape, comps=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(comps,) + shape)


def _block_ghosts(comm, field, dims, spec, *, ghost=1, timer=None,
                  periodic=(True, False)):
    """Fill this rank's block of *field* and exchange its ghosts.

    Returns the ghosted block array and the block's global offset.
    """
    shape = field.shape[1:]
    forest = BlockForest(shape, dims, periodic)
    owner = list(range(forest.n_blocks))
    block = forest.blocks[comm.rank]
    g = ghost
    loc = np.zeros((field.shape[0],) + tuple(s + 2 * g for s in block.shape))
    interior = (slice(None),) + (slice(g, -g),) * len(shape)
    loc[interior] = field[(slice(None),) + tuple(
        slice(o, o + s) for o, s in zip(block.offset, block.shape)
    )]
    exchange_block_ghosts(comm, forest, owner, {block.id: loc}, len(shape),
                          spec, ghost=g, timer=timer)
    return loc, block.offset


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (4, 1), (1, 3)])
def test_exchange_reproduces_global_ghosts(dims):
    """Each block's ghost layers must equal the global field's values
    (periodic x, Neumann/Dirichlet z)."""
    from repro.grid.boundary import apply_boundaries

    shape = (8, 12)
    global_field = _global_field(shape, 2)
    spec = BoundarySpec.directional(2, bottom=Neumann(), top=Dirichlet(1.5))
    bx, bz = shape[0] // dims[0], shape[1] // dims[1]
    full = np.zeros((2, shape[0] + 2, shape[1] + 2))
    full[:, 1:-1, 1:-1] = global_field
    apply_boundaries(full, spec)

    def fn(comm):
        timer = ExchangeTimer()
        loc, offset = _block_ghosts(comm, global_field, dims, spec,
                                    timer=timer)
        return loc, timer.bytes, offset

    results = run_spmd(dims[0] * dims[1], fn)
    for loc, nbytes, (gx, gz) in results:
        assert nbytes > 0
        exp = full[:, gx : gx + bx + 2, gz : gz + bz + 2]
        np.testing.assert_array_equal(loc[:, 1:-1, 1:-1], exp[:, 1:-1, 1:-1])
        # face ghosts along x (periodic or neighbour)
        np.testing.assert_array_equal(loc[:, 0, 1:-1], np.take(
            global_field, (gx - 1) % shape[0], axis=1)[:, gz : gz + bz])
        np.testing.assert_array_equal(loc[:, -1, 1:-1], np.take(
            global_field, (gx + bx) % shape[0], axis=1)[:, gz : gz + bz])
        # face ghosts along z: the neighbour's edge, or the boundary
        # handler at the domain bottom/top
        np.testing.assert_array_equal(loc[:, 1:-1, 0], exp[:, 1:-1, 0])
        np.testing.assert_array_equal(loc[:, 1:-1, -1], exp[:, 1:-1, -1])


def test_corner_ghosts_consistent():
    """Edge/corner ghost cells must carry the diagonal neighbour's data
    (required by the D3C19 accesses)."""
    field = _global_field((6, 6), comps=1, seed=4)
    spec = BoundarySpec.directional(2)

    def fn(comm):
        return _block_ghosts(comm, field, (2, 2), spec)

    corner = [loc for loc, offset in run_spmd(4, fn) if offset == (0, 0)]
    assert len(corner) == 1
    # its top-right corner ghost = global cell (3, 3) (diagonal neighbour)
    assert corner[0][0, -1, -1] == field[0, 3, 3]


def _large_slab_exchange(comm, shape, comps):
    """Two ranks splitting a periodic axis: every slab goes both ways."""
    field = np.empty((comps,) + shape)
    field[:, : shape[0] // 2] = 1.0
    field[:, shape[0] // 2 :] = 2.0
    spec = BoundarySpec.directional(2, bottom=Neumann(), top=Neumann())
    loc, _ = _block_ghosts(comm, field, (2, 1), spec)
    return float(loc[0, 0, 1]), float(loc[0, -1, 1])


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_large_message_exchange_both_backends(backend):
    """Slabs far beyond the inline threshold (the size staged messages
    would move through shared memory on the process backend) exchanged
    symmetrically: the channel slots are sized to them at registration.
    """
    from repro.simmpi.transport import INLINE_MAX

    comps = 4
    # slab = comps * 1 * (nz + 2) doubles; pick nz so it dwarfs INLINE_MAX
    nz = int(INLINE_MAX) // 4
    shape = (8, nz)
    out = run_spmd(2, _large_slab_exchange, shape, comps, backend=backend)
    # each rank's x-ghosts hold the peer's edge values (periodic wrap)
    assert out[0] == (2.0, 2.0)
    assert out[1] == (1.0, 1.0)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_exchange_correct_on_both_backends(backend):
    """Value-exact ghost fill on a 4-rank 2x2 topology, either backend."""
    field = _global_field((8, 8), comps=1, seed=11)
    spec = BoundarySpec.directional(2)

    def fn(comm):
        return _block_ghosts(comm, field, (2, 2), spec)

    results = run_spmd(4, fn, backend=backend)
    for loc, (x0, z0) in results:
        # x-face ghosts are the periodic neighbour's edge columns
        np.testing.assert_array_equal(
            loc[0, 0, 1:-1], field[0, (x0 - 1) % 8, z0 : z0 + 4],
        )
        np.testing.assert_array_equal(
            loc[0, -1, 1:-1], field[0, (x0 + 4) % 8, z0 : z0 + 4],
        )


def _ghost2_exchange(comm, field):
    """Two ranks on a periodic axis, ghost width 2."""
    spec = BoundarySpec.directional(2, bottom=Neumann(), top=Neumann())
    loc, (x0, _) = _block_ghosts(comm, field, (2, 1), spec, ghost=2)
    return loc, x0


def _assert_ghost2_layers(loc, field, x0, bx):
    """Both low-ghost layers equal the periodic neighbour's TOP TWO
    interior layers, in order; both high-ghost layers its bottom two."""
    nx = field.shape[1]
    for j, row in enumerate(range(-2, 0)):
        np.testing.assert_array_equal(
            loc[0, j, 2:-2], field[0, (x0 + row) % nx, :]
        )
    for j, row in enumerate(range(bx, bx + 2)):
        np.testing.assert_array_equal(
            loc[0, -2 + j, 2:-2], field[0, (x0 + row) % nx, :]
        )


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_ghost_width_two_exchange_both_backends(backend):
    """Ghost width 2 must carry TWO interior edge layers, not one.

    Regression for the hardcoded-width bug: the seed's exchange never
    accepted a ghost width, so any field with ``ghost != 1`` was
    silently corrupted (wrong slabs sent, wrong slabs filled).
    """
    field = _global_field((8, 6), comps=1, seed=7)
    for loc, x0 in run_spmd(2, _ghost2_exchange, field, backend=backend):
        _assert_ghost2_layers(loc, field, x0, bx=4)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_ghost_width_two_block_exchange(backend):
    """Ghost width 2 with two blocks per rank: same-rank neighbours copy
    directly, remote ones go through the channels."""
    g = 2
    shape = (16, 6)
    field = _global_field(shape, comps=1, seed=3)
    spec = BoundarySpec.directional(2, bottom=Neumann(), top=Neumann())
    forest = BlockForest(shape, (4, 1), (True, False))
    owner = [0, 0, 1, 1]

    def fn(comm):
        arrays = {}
        for b in forest.blocks:
            if owner[b.id] != comm.rank:
                continue
            arr = np.zeros((1, b.shape[0] + 2 * g, b.shape[1] + 2 * g))
            sl = tuple(slice(o, o + s) for o, s in zip(b.offset, b.shape))
            arr[:, g:-g, g:-g] = field[(slice(None),) + sl]
            arrays[b.id] = arr
        exchange_block_ghosts(comm, forest, owner, arrays, 2, spec, ghost=g)
        return arrays

    out = run_spmd(2, fn, backend=backend)
    for arrays in out:
        assert len(arrays) == 2
        for bid, arr in arrays.items():
            _assert_ghost2_layers(arr, field, forest.blocks[bid].offset[0],
                                  bx=forest.blocks[bid].shape[0])


def test_unsupported_ghost_width_raises():
    """Widths the slab geometry cannot express fail loudly, not silently."""
    spec = BoundarySpec.directional(2)
    forest = BlockForest((6, 6), (1, 1), (True, False))

    def fn(comm):
        ok = {0: np.zeros((1, 8, 8))}
        with pytest.raises(ValueError, match="ghost width"):
            # extent 8 < 3*3: fewer interior cells than ghost layers
            exchange_block_ghosts(comm, forest, [0], ok, 2, spec, ghost=3)
        with pytest.raises(ValueError, match="ghost width"):
            exchange_block_ghosts(comm, forest, [0], ok, 2, spec, ghost=0)
        return True

    assert run_spmd(1, fn) == [True]


def test_timer_accumulates():
    field = np.zeros((1, 8))
    field[0, 4:] = 1.0

    def fn(comm):
        timer = ExchangeTimer()
        spec = BoundarySpec(handlers=((Neumann(), Neumann()),))
        # periodic axis: neighbours exist, handlers unused
        for _ in range(2):
            _block_ghosts(comm, field, (2,), spec, timer=timer,
                          periodic=(True,))
        return timer

    timers = run_spmd(2, fn)
    # one notify per direction towards the single peer, per call
    assert timers[0].calls == 2
    assert timers[0].messages == 4
    assert timers[0].seconds > 0
