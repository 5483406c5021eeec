"""Distributed (multi-rank) solver: Algorithms 1 and 2 across blocks.

Runs the same kernels as the single-block driver, with per-rank blocks,
ghost-layer exchange over the simulated MPI runtime, and the optional
communication-hiding schedule (mu exchange hidden behind the phi sweep,
phi exchange hidden behind the split local mu sweep).
"""

from repro.distributed.exchange import exchange_block_ghosts
from repro.distributed.solver import DistributedSimulation

__all__ = ["exchange_block_ghosts", "DistributedSimulation"]
