"""SPMD launcher for the simulated MPI runtime.

:func:`run_spmd` plays the role of ``mpiexec``: it spawns one worker per
rank, hands each a :class:`Communicator`, runs the same function
everywhere and collects the per-rank return values.  A failure on any rank
sets a world-wide flag so peers blocked in communication abort instead of
deadlocking, and the first exception is re-raised in the caller.

Two execution backends share these semantics:

* ``"thread"`` (default) — one thread per rank, unbounded in-process
  mailboxes.  Deterministic, debuggable, zero startup cost; kernels
  serialize on the GIL, so it models but does not measure speedup.
* ``"process"`` — one OS process per rank with shared-memory payload
  transport (:mod:`repro.simmpi.transport`).  Kernels genuinely run in
  parallel; channels are bounded, so exchanges must post receives
  before sending (the repo's exchange routines do).

Either way a rank does not get the whole machine: every rank's compiled
kernels run an OpenMP team of ``max(1, cores // n_ranks)`` threads, or
``OMP_NUM_THREADS`` when that is set (:mod:`repro.simmpi.cores`).  Left
to the budget, ranks x threads never exceeds the cores.
"""

from __future__ import annotations

import logging
import os
import threading

from repro.simmpi.comm import Communicator, RankFailure, RemoteError, _World
from repro.simmpi.cores import assign_rank_threads

__all__ = ["run_spmd", "run_spmd_elastic", "run_spmd_resilient"]

logger = logging.getLogger(__name__)


def run_spmd(n_ranks: int, fn, *args, backend: str | None = None,
             **kwargs) -> list:
    """Run ``fn(comm, *args, **kwargs)`` on *n_ranks* simulated ranks.

    Returns the list of per-rank return values (rank order).  Exceptions
    raised by any rank abort the whole run and are re-raised (peers'
    secondary :class:`RemoteError` aborts are suppressed).  The re-raised
    exception carries the failing rank as a ``simmpi_rank`` attribute.

    *backend* selects the execution substrate: ``"thread"`` (default) or
    ``"process"`` (see the module docstring for the trade-off).  When
    ``None``, the ``REPRO_SIMMPI_BACKEND`` environment variable decides,
    defaulting to ``"thread"``.  On both, each rank gets its core budget
    (:func:`repro.simmpi.cores.assign_rank_threads`) before *fn* runs.
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    if backend is None:
        backend = os.environ.get("REPRO_SIMMPI_BACKEND", "thread")
    if backend == "process":
        from repro.simmpi.transport import run_spmd_processes

        return run_spmd_processes(n_ranks, fn, args, kwargs)
    if backend != "thread":
        raise ValueError(
            f"unknown simmpi backend {backend!r}; use 'thread' or 'process'"
        )
    world = _World(n_ranks)
    results: list = [None] * n_ranks
    errors: list = [None] * n_ranks

    def entry(rank: int) -> None:
        comm = Communicator(world, rank)
        assign_rank_threads(n_ranks)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - repropagated below
            exc.simmpi_rank = rank
            errors[rank] = exc
            if not isinstance(exc, RemoteError):
                logger.error("rank %d failed: %r", rank, exc)
            world.failed.set()
            world.barrier.abort()

    threads = [
        threading.Thread(target=entry, args=(r,), name=f"simmpi-rank-{r}")
        for r in range(n_ranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    primary = next(
        (e for e in errors if e is not None and not isinstance(e, RemoteError)),
        None,
    )
    if primary is not None:
        raise primary
    # Among secondary aborts, prefer a typed RankFailure (e.g. a
    # RankTimeout naming the stalled peer) over a generic RemoteError.
    failure = next((e for e in errors if isinstance(e, RankFailure)), None)
    if failure is not None:
        raise failure
    secondary = next((e for e in errors if e is not None), None)
    if secondary is not None:
        raise secondary
    return results


def run_spmd_elastic(n_ranks: int, fn, *args, **kwargs) -> tuple[list, dict]:
    """Run *fn* with ULFM-style failure containment instead of world abort.

    A rank whose function raises is marked **dead** in the world — it
    does not tear the run down.  Peers blocked in communication observe
    the death as a typed :class:`~repro.simmpi.comm.RankFailure` and may
    call :meth:`~repro.simmpi.comm.Communicator.shrink` to obtain a
    working sub-communicator of the survivors and finish their work.

    Returns ``(results, failures)``: *results* is the per-rank return
    value list (``None`` for dead ranks) and *failures* maps each dead
    rank to the exception that killed it (each annotated with a
    ``simmpi_rank`` attribute).  Nothing is re-raised — containment is
    the whole point — so callers decide how to treat partial success.
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    world = _World(n_ranks)
    results: list = [None] * n_ranks
    errors: list = [None] * n_ranks

    def entry(rank: int) -> None:
        comm = Communicator(world, rank)
        assign_rank_threads(n_ranks)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported via failures
            exc.simmpi_rank = rank
            errors[rank] = exc
            if not isinstance(exc, RemoteError):
                logger.warning("rank %d died (contained): %r", rank, exc)
            world.mark_dead(rank)

    threads = [
        threading.Thread(target=entry, args=(r,), name=f"simmpi-elastic-{r}")
        for r in range(n_ranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    failures = {r: e for r, e in enumerate(errors) if e is not None}
    if failures:
        logger.info(
            "elastic SPMD run finished with %d contained failure(s): ranks %s",
            len(failures), sorted(failures),
        )
    return results, failures


def run_spmd_resilient(
    n_ranks: int,
    fn,
    make_args,
    *,
    max_attempts: int = 3,
    retry_on: tuple = (Exception,),
) -> list:
    """Retry-with-restart wrapper around :func:`run_spmd`.

    Each attempt gets a **fresh world** (mailboxes, barrier, failure
    flag) and freshly built arguments: ``make_args(attempt, last_exc)``
    returns the ``(args, kwargs)`` pair for attempt *attempt* (0-based),
    letting the caller reload state from a checkpoint store and shrink
    the remaining work between attempts.  Exceptions matching *retry_on*
    trigger another attempt until *max_attempts* is exhausted, after
    which the last exception is re-raised.
    """
    if max_attempts < 1:
        raise ValueError("need at least one attempt")
    last_exc = None
    for attempt in range(max_attempts):
        args, kwargs = make_args(attempt, last_exc)
        try:
            return run_spmd(n_ranks, fn, *args, **kwargs)
        except retry_on as exc:  # noqa: PERF203 - retry loop
            last_exc = exc
            logger.warning(
                "SPMD attempt %d/%d failed (%r); retrying",
                attempt + 1, max_attempts, exc,
            )
    raise last_exc
