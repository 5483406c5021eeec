"""Spans recorded from outside the program, and the layer budget they give.

The benchmark does not add tracing to ``src/``: for a traced run it
replaces public functions of :mod:`repro` with wrappers that record one
span per call (name, layer, start, end, parent).  Spans stay in memory;
rank processes write theirs to a spool directory when their SPMD body
returns, and the launching span adopts them as its rank subtrees.

The budget walks the span tree along the critical path: a span's *self*
time (its duration minus its children, and minus the slowest rank under
an SPMD launch) is charged to its layer.  Spans without a layer (the run
itself, the core time loop) leave their self time unattributed, which is
what ``budget.residual_s`` reports.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("kernels", "grid", "distributed", "simmpi", "io", "resilience")

_local = threading.local()
_calls = itertools.count()


class Recorder:
    """Flat span list of one process (or one thread rank)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str, layer: str | None, **args) -> dict:
        span = {
            "id": len(self.spans), "name": name, "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "t0": time.perf_counter(), "t1": None, "args": args,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str | None, **args):
        span = self.begin(name, layer, **args)
        try:
            yield span
        finally:
            self.end(span)


def current() -> Recorder | None:
    return getattr(_local, "rec", None)


def start() -> Recorder:
    """Begin recording in this thread."""
    _local.rec = Recorder()
    return _local.rec


def stop() -> None:
    """End recording in this thread (wrapped calls pass straight through)."""
    _local.rec = None


def traced(fn, name: str, layer: str | None, note=None):
    """*fn* wrapped so every call records a span (when recording).

    *note*, if given, maps ``(return value, *call args)`` to a dict
    stored in the span's ``args``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = current()
        if rec is None:
            return fn(*args, **kwargs)
        with rec.span(name, layer) as span:
            out = fn(*args, **kwargs)
            if note is not None:
                span["args"].update(note(out, *args, **kwargs))
            return out

    return wrapper


def patch(owner, attr: str, name: str, layer: str, note=None) -> None:
    setattr(owner, attr, traced(getattr(owner, attr), name, layer, note))


def patch_factory(owner, attr: str, name: str, layer: str) -> None:
    """Wrap the callables a factory returns (kernel lookups)."""
    factory = getattr(owner, attr)

    @functools.wraps(factory)
    def wrapped_factory(*args, **kwargs):
        out = factory(*args, **kwargs)
        if out is None:
            return None
        if isinstance(out, tuple):
            return tuple(
                traced(f, f"{name}.{i}", layer) for i, f in enumerate(out)
            )
        return traced(out, name, layer)

    setattr(owner, attr, wrapped_factory)


def spmd(run_spmd, spool: Path, rank_layer: str | None):
    """A ``run_spmd`` that records the launch and each rank's spans.

    Each rank records into a fresh recorder (its root span carries
    *rank_layer*), times the communicator's scatter and gather under
    ``simmpi``, and spools its spans when the body returns or raises; the
    launching span adopts the spooled files as ``ranks``.
    """

    @functools.wraps(run_spmd)
    def launch(n_ranks, fn, *args, **kwargs):
        rec = current()
        if rec is None:
            return run_spmd(n_ranks, fn, *args, **kwargs)
        call = f"{os.getpid()}-{next(_calls)}"

        def body(comm, *a, **k):
            rec = start()
            for meth in ("scatter", "gather"):
                patch(comm, meth, meth, "simmpi")
            try:
                with rec.span("rank", rank_layer, rank=comm.rank):
                    return fn(comm, *a, **k)
            finally:
                path = spool / f"{call}-r{comm.rank}.json"
                path.write_text(json.dumps(rec.spans))
                stop()

        with rec.span("run_spmd", "simmpi", n_ranks=n_ranks) as span:
            try:
                return run_spmd(n_ranks, body, *args, **kwargs)
            finally:
                span["ranks"] = [
                    json.loads(p.read_text())
                    for p in sorted(spool.glob(f"{call}-r*.json"))
                ]

    return launch


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------

def _dur(s: dict) -> float:
    return s["t1"] - s["t0"]


def _children(spans: list[dict]) -> dict:
    kids: dict = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    return kids


def critical_rank(span: dict) -> list[dict] | None:
    """Span list of the slowest rank under an SPMD launch span."""
    ranks = [r for r in span.get("ranks", []) if r]
    if not ranks:
        return None
    return max(ranks, key=lambda spans: _dur(spans[0]))


def layer_budget(spans: list[dict]) -> dict:
    """Seconds per layer along the critical path, plus ``None`` for the
    self time of layer-less spans."""
    out = {layer: 0.0 for layer in LAYERS}
    out[None] = 0.0

    def walk(tree: list[dict]) -> None:
        kids = _children(tree)
        for s in tree:
            self_t = _dur(s) - sum(_dur(c) for c in kids[s["id"]])
            crit = critical_rank(s)
            if crit is not None:
                self_t -= _dur(crit[0])
                walk(crit)
            out[s["layer"]] = out.get(s["layer"], 0.0) + self_t

    walk(spans)
    return out


def along_critical_path(spans: list[dict]) -> list[dict]:
    """Every span on the critical path (root process + slowest ranks)."""
    found = []
    for s in spans:
        found.append(s)
        crit = critical_rank(s)
        if crit is not None:
            found.extend(along_critical_path(crit))
    return found


def find(spans: list[dict], name: str) -> list[dict]:
    """The root-process spans called *name*."""
    return [s for s in spans if s["name"] == name]


def total(spans: list[dict], name: str) -> float:
    """Summed duration of the critical-path spans called *name*."""
    return sum(_dur(s) for s in along_critical_path(spans)
               if s["name"] == name)


def longest(spans: list[dict], name: str) -> float:
    """Longest single *name* span anywhere in the tree (all ranks)."""
    best = 0.0
    for s in spans:
        if s["name"] == name:
            best = max(best, _dur(s))
        for rank in s.get("ranks", []):
            best = max(best, longest(rank, name))
    return best
