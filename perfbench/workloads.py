"""Workload definitions of the repository benchmark.

Three paper-shaped workloads, all on the ``compiled_shortcuts`` rung:

``serial-interface40``
    One :class:`repro.Simulation` on the 40^3 ``interface`` scenario, no
    simmpi — the single-process baseline.  The kernels do nearly all the
    work; comm and I/O changes must show no change here.
``proc2-liquid20``
    :class:`repro.distributed.solver.DistributedSimulation` on 2 process
    ranks, the 40^3 ``liquid`` scenario split into (2,2,2) blocks of 20^3
    (the paper's small block, a Fig. 9 scenario), Algorithm 1 over
    registered halo channels.  The shortcut kernel is cheap on liquid, so
    exchange, per-step rank overhead and setup carry the step.
``campaign-io``
    ``run_campaign`` on 2 process ranks with Algorithm 2, a sharded store,
    ``guard=True`` and one seeded ``kill_rank`` fault (shrink 2 -> 1 and a
    resharded reload); then every rank extracts the liquid-phase surface
    (the solidification front) from its x-slab of the final phi and
    ``hierarchical_mesh_reduction`` stitches and coarsens the meshes.
    The fault plan forces the legacy exchange path.

The seed feeds ``make_scenario``, a small seeded perturbation of mu (so
that different seeds really give different inputs without changing the
work) and the fault plan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

#: Kernel rung of every workload.
RUNG = "compiled_shortcuts"

#: Amplitude of the seeded mu perturbation; small against the scenario's
#: own 0.01 profile, so every seed does the same work.
MU_NOISE = 1e-4

#: Checkpoint interval of campaign-io; the kill lands one interval-and-a-
#: half in, so every seed recomputes about the same number of steps.
CHECKPOINT_EVERY = 8
KILL_STEP = 20


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "serial" | "distributed" | "campaign"
    scenario: str
    shape: tuple
    blocks: tuple             # blocks per axis of the decomposition
    ranks: int
    steps: int
    overlap: bool
    halo: str                 # "channels" | "legacy" | "none"

    @property
    def cells(self) -> int:
        return int(np.prod(self.shape))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serial-interface40", "serial", "interface", (40, 40, 40),
            (1, 1, 1), 1, 40, False, "none",
        ),
        Workload(
            "proc2-liquid20", "distributed", "liquid", (40, 40, 40),
            (2, 2, 2), 2, 60, False, "channels",
        ),
        Workload(
            "campaign-io", "campaign", "interface", (20, 20, 40),
            (1, 1, 2), 2, 40, True, "legacy",
        ),
    )
}


#: Which per-layer metric is predicted to move which end-to-end metric on
#: each workload, and which layer metrics must move nothing there.
PREDICTIONS = {
    "serial-interface40": {
        "moves": {
            "kernels.phi_mlups": ["step_mlups", "run_s"],
            "kernels.mu_mlups": ["step_mlups", "run_s"],
            "kernels.warmup_s": ["setup_s"],
            "grid.boundary_ms": ["step_mlups"],
        },
        "no_move": [
            "distributed.exchange_ms", "distributed.register_ms",
            "simmpi.spawn_s", "simmpi.scatter_gather_ms",
            "io.shard_write_ms", "io.reshard_load_ms",
        ],
    },
    "proc2-liquid20": {
        "moves": {
            "kernels.phi_mlups": ["step_mlups (by kernels.share)"],
            "kernels.mu_mlups": ["step_mlups (by kernels.share)"],
            "kernels.warmup_s": ["setup_s"],
            "distributed.exchange_ms": ["step_mlups", "run_s"],
            "distributed.register_ms": ["setup_s"],
            "simmpi.spawn_s": ["setup_s"],
            "simmpi.scatter_gather_ms": ["setup_s"],
        },
        "no_move": [
            "io.shard_write_ms", "io.reshard_load_ms", "io.simplify_s",
            "resilience.recovery_s",
        ],
    },
    "campaign-io": {
        "moves": {
            "kernels.phi_mlups": ["run_s"],
            "kernels.mu_mlups": ["run_s"],
            "kernels.warmup_s": ["setup_s"],
            "distributed.exchange_ms": ["run_s (legacy path)"],
            "simmpi.spawn_s": ["run_s (one spawn per restart)", "setup_s"],
            "io.shard_write_ms": ["run_s"],
            "io.reshard_load_ms": ["run_s"],
            "io.extract_ms": ["run_s"],
            "io.simplify_s": ["run_s"],
            "io.reduction_s": ["run_s"],
            "resilience.recovery_s": ["run_s"],
        },
        "no_move": ["distributed.register_ms"],
    },
}


def make_inputs(wl: Workload, seed: int):
    """``(phi0, mu0, system, params)`` interior arrays for *wl* and *seed*."""
    from repro.core.scenarios import make_scenario

    phi, mu, _t, system, params = make_scenario(
        wl.scenario, wl.shape, seed=seed
    )
    inner = (slice(None),) + (slice(1, -1),) * len(wl.shape)
    phi0 = np.ascontiguousarray(phi[inner])
    mu0 = np.ascontiguousarray(mu[inner])
    rng = np.random.default_rng(seed)
    mu0 += MU_NOISE * rng.standard_normal(mu0.shape)
    return phi0, mu0, system, params


def make_fault_plan(seed: int):
    """One seeded ``kill_rank`` fault near :data:`KILL_STEP`."""
    from repro.resilience import Fault, FaultPlan

    rng = np.random.default_rng([seed, 7])
    step = KILL_STEP + int(rng.integers(-1, 2))
    rank = int(rng.integers(2))
    return FaultPlan([Fault(kind="kill_rank", step=step, rank=rank)],
                     seed=seed)


def digest(*arrays) -> str:
    """Bitwise fingerprint of float arrays (equal digest = equal bits)."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def field_check(phi: np.ndarray, mu: np.ndarray) -> list[str]:
    """Physical invariants every workload must keep: finite fields and
    the simplex constraint sum(phi) = 1."""
    problems = []
    if not (np.isfinite(phi).all() and np.isfinite(mu).all()):
        problems.append("non-finite field values")
    else:
        err = float(np.abs(phi.sum(axis=0) - 1.0).max())
        if err > 1e-9:
            problems.append(f"simplex violated: max |sum(phi)-1| = {err:.3g}")
    return problems
