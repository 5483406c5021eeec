"""Compiled rungs of the optimization ladder (``compiled`` / ``compiled_shortcuts``).

The paper's ladder ends in compiled, explicitly vectorized kernels
(Sec. 3.3, Figs. 5-6); these rungs are that stage for the reproduction.
Two interchangeable backends compile the *same* per-cell loop algorithm
(:mod:`~repro.core.kernels.compiled.loops`):

``numba``
    ``@njit(parallel=True, fastmath=False)`` over the loop bodies —
    preferred when numba is installed.
``cffi``
    Generated C built with the system C compiler and loaded via cffi ABI
    mode (OpenMP threading) — covers environments without numba but with
    a C toolchain.  It is specialized to the alloy's (N, K) and evaluates
    each mu face flux once (staggered face buffers), and stays bitwise
    equal to the loop spec.

Selection is lazy: nothing is imported or compiled until a compiled rung
is actually requested.  ``REPRO_KERNEL_BACKEND`` picks the backend
(``auto`` | ``numba`` | ``cffi`` | ``none``; default ``auto`` = numba
first, then cffi).  When no backend is usable the registry reports the
rungs unavailable (:func:`repro.core.kernels.api.rung_available`) and
the solvers degrade to the equivalent NumPy rung with a warning instead
of erroring.

Both rungs run the per-cell loops; they differ exactly like the NumPy
``buffered``/``shortcut`` pair:

``compiled``
    tz slice-coefficient precomputation, every term on every cell.
``compiled_shortcuts``
    adds the region shortcuts as *real per-cell branches* (the paper's
    winning "cellwise with shortcuts" strategy): inactive cells copy
    through, the driving force runs on diffuse cells only, and the
    anti-trapping current on solidification-front cells only.

Tolerance policy: the equivalence suite pins both rungs to the
pure-Python reference at the same ``atol=1e-11`` as the NumPy rungs.
Bitwise identity with the reference is *not* guaranteed (the compiled
rungs use the analytic 2x2 susceptibility solve and the O(N) driving
force form, like the optimized NumPy rungs).  The numba backend compiles
the loop bodies unchanged; the C backend computes the un-jitted loop
bodies' exact bits, which its tests check with ``np.array_equal``.

The kernels keep per-cell temporaries on the per-thread stack, allocate
any per-sweep scratch per call, and never touch
``KernelContext.get_scratch`` — they are safe under ``parallel=True``
and place no thread-ownership claim on the context.
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np

from repro.core.kernels.api import (
    KernelContext,
    register,
    register_split_mu,
)

__all__ = [
    "BACKENDS",
    "CompiledBackendUnavailable",
    "available",
    "available_backends",
    "backend_name",
    "backend_module",
    "set_backend",
    "unavailable_reason",
    "warmup",
]

#: Probe order of ``REPRO_KERNEL_BACKEND=auto``.
BACKENDS = ("numba", "cffi")

_selection: tuple[str | None, str | None] | None = None  # (name, reason)
_forced: str | None = None


class CompiledBackendUnavailable(RuntimeError):
    """A compiled rung was invoked but no backend is usable."""


def _module(name: str):
    if name == "numba":
        from repro.core.kernels.compiled import numba_backend

        return numba_backend
    if name == "cffi":
        from repro.core.kernels.compiled import cffi_backend

        return cffi_backend
    raise ValueError(f"unknown compiled backend {name!r}; have {BACKENDS}")


def _resolve() -> tuple[str | None, str | None]:
    """``(backend_name, reason_if_none)`` honoring env/forced choice."""
    global _selection
    if _selection is not None:
        return _selection
    choice = (
        _forced
        if _forced is not None
        else os.environ.get("REPRO_KERNEL_BACKEND", "auto").strip().lower()
    )
    if choice in ("", "auto"):
        reasons = []
        for name in BACKENDS:
            if _module(name).available():
                _selection = (name, None)
                return _selection
            reasons.append(f"{name}: {_module(name).build_error()}")
        _selection = (None, "; ".join(reasons))
    elif choice in ("none", "off", "disabled"):
        _selection = (None, "disabled via REPRO_KERNEL_BACKEND")
    elif choice in BACKENDS:
        if _module(choice).available():
            _selection = (choice, None)
        else:
            _selection = (None, f"{choice}: {_module(choice).build_error()}")
    else:
        _selection = (
            None,
            f"unknown REPRO_KERNEL_BACKEND {choice!r} "
            f"(expected auto|none|{'|'.join(BACKENDS)})",
        )
    return _selection


def set_backend(name: str | None) -> None:
    """Force a backend choice (``None`` re-reads the environment).

    Overrides ``REPRO_KERNEL_BACKEND``; mainly for tests.  Accepts the
    same values as the environment variable.
    """
    global _forced, _selection
    _forced = name
    _selection = None


def backend_name() -> str | None:
    """Selected backend name, or ``None`` when the rungs are unavailable."""
    return _resolve()[0]


def unavailable_reason() -> str | None:
    """Why no backend is usable (None when one is)."""
    return _resolve()[1]


def available() -> bool:
    """True when a compiled backend is usable in this environment."""
    return backend_name() is not None


def available_backends() -> tuple[str, ...]:
    """All backends usable in this environment (selection-independent)."""
    return tuple(n for n in BACKENDS if _module(n).available())


def backend_module():
    """The selected backend module; raises when none is usable."""
    name, reason = _resolve()
    if name is None:
        raise CompiledBackendUnavailable(
            f"no compiled kernel backend is available ({reason}); install "
            "numba or a C toolchain, or select a NumPy rung "
            "(e.g. kernel='shortcut')"
        )
    return _module(name)


# --------------------------------------------------------------------------
# KernelContext packing and geometry
# --------------------------------------------------------------------------

def _flat64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)


def _pack(ctx: KernelContext) -> dict:
    """Flattened plain-array constants of *ctx* (cached on the context).

    ``set_dt`` and friends rebuild the context, so per-object caching is
    safe; the pack is read-only shared state and thread-safe to reuse.
    """
    pk = getattr(ctx, "_compiled_pack", None)
    if pk is None:
        if ctx.n_phases > 8 or ctx.n_solutes > 4:
            raise ValueError(
                "compiled kernels support at most 8 phases / 4 solutes "
                f"(got N={ctx.n_phases}, K={ctx.n_solutes})"
            )
        p = ctx.params
        pk = {
            "gamma": _flat64(ctx.gamma),
            "tau": _flat64(ctx.tau),
            "inv_curv": _flat64(ctx.inv_curv),
            "c_eq": _flat64(ctx.c_eq),
            "c_slope": _flat64(ctx.c_slope),
            "latent": _flat64(ctx.latent),
            "diff": _flat64(ctx.diff),
            "scal": np.array(
                [p.dx, p.dt, ctx.eps, ctx.gamma_triple, ctx.t_eut]
            ),
            "anti_trapping": 1 if p.anti_trapping else 0,
        }
        ctx._compiled_pack = pk
    return pk


def _geometry(ctx: KernelContext, ghosted_shape) -> tuple[np.ndarray, tuple]:
    """``(geom, interior_shape)`` for a ghosted spatial shape."""
    interior = tuple(s - 2 for s in ghosted_shape)
    if len(interior) == 3:
        dim3, (n0, n1, n2) = 1, interior
    else:
        dim3, n0, (n1, n2) = 0, 1, interior
    geom = np.array(
        [dim3, n0, n1, n2, ctx.n_phases, ctx.n_solutes, ctx.liquid],
        dtype=np.int64,
    )
    return geom, interior


# --------------------------------------------------------------------------
# kernel entry points
# --------------------------------------------------------------------------

def _phi_compiled(ctx, phi_src, mu_src, t_ghost, shortcuts: bool):
    be = backend_module()
    pk = _pack(ctx)
    geom, interior = _geometry(ctx, phi_src.shape[1:])
    out = np.empty(ctx.n_phases * int(np.prod(interior)))
    be.phi_step_raw(
        _flat64(phi_src), _flat64(mu_src), _flat64(t_ghost), out,
        geom, pk["scal"], pk["gamma"], pk["tau"], pk["inv_curv"],
        pk["c_eq"], pk["c_slope"], pk["latent"], pk["diff"],
        1 if shortcuts else 0,
    )
    return out.reshape((ctx.n_phases,) + interior)


def _mu_compiled(ctx, mu_src, phi_src, phi_dst, t_old, t_new,
                 shortcuts: bool, include_at: int = 1, only_at: int = 0,
                 seed: np.ndarray | None = None):
    be = backend_module()
    pk = _pack(ctx)
    geom, interior = _geometry(ctx, mu_src.shape[1:])
    if seed is None:
        out = np.empty(ctx.n_solutes * int(np.prod(interior)))
    else:
        # neighbour part: accumulate onto a copy of the local partial
        out = _flat64(seed).copy()
    be.mu_step_raw(
        _flat64(mu_src), _flat64(phi_src), _flat64(phi_dst),
        _flat64(t_old), _flat64(t_new), out,
        geom, pk["scal"], pk["inv_curv"], pk["c_eq"], pk["c_slope"],
        pk["diff"], pk["anti_trapping"], 1 if shortcuts else 0,
        int(include_at), int(only_at),
    )
    return out.reshape((ctx.n_solutes,) + interior)


@register("phi", "compiled")
def phi_step_compiled(ctx, phi_src, mu_src, t_ghost):
    """Compiled phi sweep (tz precomputation, no shortcuts)."""
    return _phi_compiled(ctx, phi_src, mu_src, t_ghost, shortcuts=False)


@register("phi", "compiled_shortcuts")
def phi_step_compiled_shortcuts(ctx, phi_src, mu_src, t_ghost):
    """Compiled phi sweep with per-cell region branches."""
    return _phi_compiled(ctx, phi_src, mu_src, t_ghost, shortcuts=True)


@register("mu", "compiled")
def mu_step_compiled(ctx, mu_src, phi_src, phi_dst, t_old, t_new):
    """Compiled mu sweep (tz precomputation, no shortcuts)."""
    return _mu_compiled(ctx, mu_src, phi_src, phi_dst, t_old, t_new,
                        shortcuts=False)


@register("mu", "compiled_shortcuts")
def mu_step_compiled_shortcuts(ctx, mu_src, phi_src, phi_dst, t_old, t_new):
    """Compiled mu sweep with per-cell region branches."""
    return _mu_compiled(ctx, mu_src, phi_src, phi_dst, t_old, t_new,
                        shortcuts=True)


# ---- split mu sweep (Algorithm 2) ----------------------------------------

def _make_split(shortcuts: bool):
    def local(ctx, mu_src, phi_src, phi_dst, t_old, t_new):
        return _mu_compiled(ctx, mu_src, phi_src, phi_dst, t_old, t_new,
                            shortcuts, include_at=0)

    def neighbor(ctx, mu_partial, mu_src, phi_src, phi_dst, t_old):
        pk = _pack(ctx)
        if not pk["anti_trapping"]:
            return mu_partial
        return _mu_compiled(ctx, mu_src, phi_src, phi_dst, t_old, t_old,
                            shortcuts, include_at=1, only_at=1,
                            seed=mu_partial)

    return local, neighbor


register_split_mu("compiled", *_make_split(False))
register_split_mu("compiled_shortcuts", *_make_split(True))


# --------------------------------------------------------------------------
# warmup
# --------------------------------------------------------------------------

def warmup(ctx: KernelContext, dim: int | None = None) -> float:
    """Compile/load the backend against *ctx* on a tiny dummy problem.

    Runs every entry point (both shortcut variants, full and split mu)
    on a one-cell domain so that JIT compilation, the shared-library
    build and the constants pack are all paid for *before* any timed
    stepping — the recorded return value (seconds) is what the
    benchmarks report as compile cost so warmup never pollutes MLUP/s.
    Raises :class:`CompiledBackendUnavailable` when no backend is usable.
    """
    t0 = time.perf_counter()
    backend_module()  # triggers import/build of the backend itself
    d = ctx.dim if dim is None else dim
    gshape = (3,) * d
    phi = np.zeros((ctx.n_phases,) + gshape)
    phi[ctx.liquid] = 1.0
    phi[(0,) + (slice(0, 1),) * d] = 0.5  # mixed corner: exercises branches
    mu = np.full((ctx.n_solutes,) + gshape, 0.01)
    tg = np.full(3, ctx.t_eut)
    for shortcuts in (False, True):
        _phi_compiled(ctx, phi, mu, tg, shortcuts)
        _mu_compiled(ctx, mu, phi, phi, tg, tg, shortcuts)
        local, neighbor = _make_split(shortcuts)
        partial = local(ctx, mu, phi, phi, tg, tg)
        neighbor(ctx, partial, mu, phi, phi, tg)
    return time.perf_counter() - t0


def maybe_fallback(kernel: str) -> str:
    """Resolve a compiled rung to its NumPy fallback when unavailable.

    The clean-degradation knob of the solvers: requesting
    ``kernel="compiled"`` without a usable backend warns and returns the
    equivalent NumPy rung instead of failing deep inside the first step.
    Non-compiled rung names pass through untouched.
    """
    from repro.core.kernels.api import COMPILED_RUNGS, FALLBACK_RUNGS

    if kernel in COMPILED_RUNGS and not available():
        fallback = FALLBACK_RUNGS[kernel]
        warnings.warn(
            f"compiled kernel backend unavailable "
            f"({unavailable_reason()}); falling back to the NumPy "
            f"{fallback!r} rung",
            RuntimeWarning,
            stacklevel=3,
        )
        return fallback
    return kernel
