"""Core budget of simulated ranks: ranks x OpenMP threads <= cores.

The paper's intranode runs (Fig. 7) place one MPI rank per core and
vectorize inside the core, so no rank oversubscribes the node.  Here the
compiled kernels are OpenMP loops, and an unconstrained rank starts a
team as wide as the machine — two ranks on two cores would run four
spinning threads.  :func:`repro.simmpi.runtime.run_spmd` therefore gives
every rank it starts (thread or process) a share of the visible cores::

    threads_per_rank = max(1, len(os.sched_getaffinity(0)) // n_ranks)

An explicit ``OMP_NUM_THREADS`` in the environment wins: it is the
standard OpenMP control, so the launcher then leaves the team size alone.

This module only *records* the share for the calling rank thread.  The
compiled kernel library applies it (``omp_set_num_threads`` sets the
calling thread's ICV) at the rank's first compiled call, so a rank on a
NumPy rung never loads the library because of its budget.

Fork guard: libgomp is not fork-safe once a process has started an
OpenMP thread pool — a forked child that opens a parallel region with
more than one thread waits forever on workers that do not exist.  A
process rank forked from a parent whose kernels already ran a team of
more than one thread is therefore capped at one thread; the cap is a
reported degradation (``openmp_fork_cap`` event, ``resources.fork_capped``
in the run report), never a silent one.
"""

from __future__ import annotations

import os
import sys
import threading

__all__ = [
    "assign_rank_threads",
    "fork_inherited_pool",
    "rank_resources",
    "take_pending_threads",
    "team_share",
    "visible_cores",
]

#: Module holding the fork-inherited "a team of >1 threads ran" flag.
_KERNEL_LIBRARY = "repro.core.kernels.compiled.cffi_backend"

_local = threading.local()


def visible_cores() -> int:
    """Cores this process may run on (its CPU affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _omp_env_threads() -> int | None:
    """Outermost team size an explicit ``OMP_NUM_THREADS`` sets, if any."""
    raw = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    try:
        n = int(raw)
    except ValueError:
        return None
    return n if n >= 1 else None


def team_share(n_ranks: int) -> tuple[int, str]:
    """``(threads_per_rank, source)`` for a world of *n_ranks* ranks.

    *source* is ``"OMP_NUM_THREADS"`` when the environment sets the team
    size explicitly, else ``"budget"`` (an even share of the visible
    cores, at least one thread).
    """
    env = _omp_env_threads()
    if env is not None:
        return env, "OMP_NUM_THREADS"
    return max(1, visible_cores() // max(1, n_ranks)), "budget"


def fork_inherited_pool() -> bool:
    """True when this process inherited a started OpenMP pool via fork.

    Reads the kernel library's flag without importing the library: a
    process that never imported it cannot have started a pool.
    """
    lib = sys.modules.get(_KERNEL_LIBRARY)
    return lib is not None and lib.parallel_started()


def assign_rank_threads(n_ranks: int, *, inherited_pool: bool = False
                        ) -> dict:
    """Give the calling rank thread its share of the cores.

    Records the team size for :func:`take_pending_threads` (the compiled
    library applies it lazily) and returns the rank's resource stamp —
    ``cores``, ``ranks``, ``threads_per_rank``, ``thread_source`` and
    ``fork_capped`` — also available later via :func:`rank_resources`.
    *inherited_pool* (see :func:`fork_inherited_pool`) caps a team of
    more than one thread at one, and the stamp says so.
    """
    threads, source = team_share(n_ranks)
    capped = inherited_pool and threads > 1
    if capped:
        threads = 1
    # OMP_NUM_THREADS already configured the runtime; only override it
    # when the fork guard demands a single thread.
    _local.pending = threads if source == "budget" or capped else None
    _local.stamp = {
        "cores": visible_cores(),
        "ranks": int(n_ranks),
        "threads_per_rank": threads,
        "thread_source": source,
        "fork_capped": capped,
    }
    return dict(_local.stamp)


def take_pending_threads() -> int | None:
    """The calling thread's unapplied team size (cleared on read)."""
    pending = getattr(_local, "pending", None)
    _local.pending = None
    return pending


def rank_resources() -> dict | None:
    """Resource stamp of the calling rank thread (``None`` outside ranks)."""
    stamp = getattr(_local, "stamp", None)
    return None if stamp is None else dict(stamp)
