"""Functor-based time loop (the waLBerla "Timeloop" class).

"The computation kernels as well as the ghost layer exchange routines are
implemented as C++ functors, which are registered at a 'Timeloop' class to
manage the communication hiding."  This module reproduces that scheduling
layer: named functors are registered in execution order, each invocation
is timed individually, and pre-built schedules encode Algorithm 1 and the
Algorithm 2 overlap order.  The per-functor timing is what a Fig. 8-style
"time spent in communication" measurement reads out.

Timing is read through :meth:`Timeloop.timing_report` — a structured
``{name: {calls, total, avg, min, max, category}}`` dict — or, when a
:class:`repro.telemetry.timing.TimingTree` is attached, through the tree
(which then feeds the cross-rank reduction of
:mod:`repro.telemetry.reduce`).  Poking the ``Functor`` fields directly
still works but is deprecated; the report and the tree are the API.
When the attached tree carries a span tracer
(:mod:`repro.telemetry.tracing`), every functor invocation recorded into
the tree also becomes a ``timeloop/<name>`` span on the trace timeline —
the loop itself needs no extra wiring.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

__all__ = ["Functor", "FunctorError", "Timeloop"]

logger = logging.getLogger(__name__)


class FunctorError(RuntimeError):
    """A functor raised; carries its name and the step it failed in.

    Produced by :meth:`Timeloop.run` so that a failure deep inside a
    sweep or exchange routine still identifies *which* registered step of
    *which* time step broke — essential when a resilience watchdog
    triggers halfway through a long campaign.
    """

    def __init__(self, functor: str, step: int, original: BaseException):
        super().__init__(
            f"functor {functor!r} failed at step {step}: {original!r}"
        )
        self.functor = functor
        self.step = step
        self.original = original


@dataclass
class Functor:
    """One named step of the loop with accumulated timing.

    Every invocation — including one that raises — updates *all* the
    accumulators together (``calls``, ``seconds`` and the extrema), so
    ``total / calls`` read from a timing report after a crash is a true
    per-invocation average.  (An earlier version accumulated ``seconds``
    for failing invocations but bumped ``calls`` only on success, which
    silently inflated averages whenever the guard/rollback path raised.)

    The accumulator fields (``calls``, ``seconds``, ``min_seconds``,
    ``max_seconds``) are implementation details — read timings through
    :meth:`Timeloop.timing_report` instead, which is stable across
    refactors of this class.
    """

    name: str
    fn: object
    category: str = "compute"
    calls: int = field(default=0, init=False)
    seconds: float = field(default=0.0, init=False)
    min_seconds: float = field(default=float("inf"), init=False)
    max_seconds: float = field(default=0.0, init=False)

    def __call__(self) -> float:
        """Invoke and time the functor; returns the measured seconds."""
        t0 = time.perf_counter()
        try:
            self.fn()
        finally:
            # Stats update is atomic with the measurement: a raising
            # invocation is timed AND counted, keeping avg/min/max
            # consistent with the accumulated total.
            dt = time.perf_counter() - t0
            self.seconds += dt
            self.calls += 1
            if dt < self.min_seconds:
                self.min_seconds = dt
            if dt > self.max_seconds:
                self.max_seconds = dt
        return dt

    def reset(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0


class Timeloop:
    """Ordered functor executor with per-functor timing.

    Functors run in registration order each time step; categories
    (``compute`` / ``communication`` / ``boundary`` / ...) make it easy to
    report "time spent in communication" separately from kernel time.

    An optional :class:`repro.telemetry.timing.TimingTree` receives the
    *same* measured duration per completed invocation (scope
    ``timeloop/<functor-name>``), so tree totals and functor accumulators
    agree exactly, not merely to within timer resolution.
    """

    def __init__(self, tree=None) -> None:
        self._functors: list[Functor] = []
        self.steps = 0
        self.partial_steps = 0
        self.tree = tree

    def add(self, name: str, fn, category: str = "compute") -> Functor:
        """Register a functor; returns the handle (for timing queries)."""
        if any(f.name == name for f in self._functors):
            raise ValueError(f"functor {name!r} already registered")
        functor = Functor(name=name, fn=fn, category=category)
        self._functors.append(functor)
        return functor

    def insert_before(self, anchor: str, name: str, fn,
                      category: str = "compute") -> Functor:
        """Register *name* immediately before the *anchor* functor.

        This is how the overlap schedule is derived from the plain one:
        the deferred exchange functor moves ahead of the sweep it hides
        behind.
        """
        idx = self._index(anchor)
        functor = Functor(name=name, fn=fn, category=category)
        if any(f.name == name for f in self._functors):
            raise ValueError(f"functor {name!r} already registered")
        self._functors.insert(idx, functor)
        return functor

    def remove(self, name: str) -> None:
        """Unregister a functor."""
        self._functors.pop(self._index(name))

    def _index(self, name: str) -> int:
        for i, f in enumerate(self._functors):
            if f.name == name:
                return i
        raise KeyError(f"no functor named {name!r}")

    @property
    def order(self) -> list[str]:
        """Functor names in execution order."""
        return [f.name for f in self._functors]

    def run(self, steps: int = 1) -> None:
        """Execute all functors in order, *steps* times.

        A functor exception is re-raised as :class:`FunctorError`
        annotated with the functor name and the (zero-based) step number;
        the aborted step is counted in ``partial_steps``, not ``steps``.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        tree = self.tree
        for _ in range(steps):
            for f in self._functors:
                try:
                    dt = f()
                except Exception as exc:
                    self.partial_steps += 1
                    logger.error(
                        "functor %r failed at step %d: %r",
                        f.name, self.steps, exc,
                    )
                    raise FunctorError(f.name, self.steps, exc) from exc
                if tree is not None:
                    tree.record(("timeloop", f.name), dt)
            self.steps += 1

    def timing_report(self) -> dict[str, dict]:
        """Structured per-functor and per-category timing.

        Per functor: ``calls``, ``total`` / ``avg`` / ``min`` / ``max``
        seconds and the ``category``; plus per-category totals and the
        completed/aborted step counts.  This dict (not the ``Functor``
        fields) is the supported way to read timings.
        """
        per_functor = {
            f.name: {
                "category": f.category,
                "calls": f.calls,
                "total": f.seconds,
                "avg": f.seconds / f.calls if f.calls else 0.0,
                "min": f.min_seconds if f.calls else 0.0,
                "max": f.max_seconds,
            }
            for f in self._functors
        }
        per_category: dict[str, float] = {}
        for f in self._functors:
            per_category[f.category] = per_category.get(f.category, 0.0) + f.seconds
        return {"functors": per_functor, "categories": per_category,
                "steps": self.steps, "partial_steps": self.partial_steps}

    def reset_timers(self) -> None:
        """Zero all accumulated timings (keep the schedule)."""
        for f in self._functors:
            f.reset()
        self.steps = 0
        self.partial_steps = 0
