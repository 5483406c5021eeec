"""Tests of the compiled kernel rungs and their backend selection.

Four layers are pinned here:

* the backend-neutral per-cell loop bodies (pure Python, always
  testable) against the reference kernel,
* the selection machinery — ``REPRO_KERNEL_BACKEND`` / ``set_backend``,
  availability reporting, the documented fallback to the NumPy twins —
  which must behave sensibly whether or not a backend exists,
* the live backend (numba or generated-C/cffi), when one is usable:
  registry-invoked equivalence, the split mu sweep of the overlap
  schedule, warmup, and end-to-end solver integration,
* the generated C library itself (when it builds), bitwise against the
  interpreted loop bodies, plus its scratch-allocation failure path.
"""

import warnings

import numpy as np
import pytest

from repro.core.kernels import (
    COMPILED_RUNGS,
    FALLBACK_RUNGS,
    available_rungs,
    get_mu_kernel,
    get_phi_kernel,
    get_split_mu_kernel,
    make_context,
    rung_available,
)
from repro.core.kernels import compiled
from repro.core.kernels.compiled import cffi_backend
from repro.core.scenarios import fill_ghosts_periodic, make_scenario

HAVE_BACKEND = compiled.available()
needs_backend = pytest.mark.skipif(
    not HAVE_BACKEND, reason="no compiled kernel backend available"
)

SHAPE = (4, 5, 7)


@pytest.fixture()
def interface3d():
    phi, mu, tg, system, params = make_scenario("interface", SHAPE, seed=2)
    ctx = make_context(system, params)
    ref_phi = get_phi_kernel("reference")(ctx, phi, mu, tg)
    phi_dst = phi.copy()
    phi_dst[(slice(None),) + (slice(1, -1),) * 3] = ref_phi
    fill_ghosts_periodic(phi_dst, 3)
    t_new = tg - 0.015
    ref_mu = get_mu_kernel("reference")(ctx, mu, phi, phi_dst, tg, t_new)
    return dict(
        ctx=ctx, phi=phi, mu=mu, tg=tg, phi_dst=phi_dst, t_new=t_new,
        ref_phi=ref_phi, ref_mu=ref_mu,
    )


@pytest.fixture()
def restore_backend():
    """Undo any set_backend() override after the test."""
    yield
    compiled.set_backend(None)


# ---------------------------------------------------------------------------
# backend-neutral loop bodies (no backend required)
# ---------------------------------------------------------------------------


class TestLoopBodies:
    """The pure-Python loop spec is the single source of the compiled
    algorithm; pin it to the reference directly (interpreted, no backend
    needed), so a backend bug can be told apart from an algorithm bug."""

    @pytest.mark.parametrize("shortcuts", [0, 1])
    def test_phi_cellwise_matches_reference(self, interface3d, shortcuts):
        from repro.core.kernels.compiled import loops

        s = interface3d
        ctx = s["ctx"]
        pk = compiled._pack(ctx)
        geom, interior = compiled._geometry(ctx, s["phi"].shape[1:])
        out = np.empty(ctx.n_phases * int(np.prod(interior)))
        loops.phi_cellwise(
            compiled._flat64(s["phi"]), compiled._flat64(s["mu"]),
            compiled._flat64(s["tg"]), out, geom, pk["scal"], pk["gamma"],
            pk["tau"], pk["inv_curv"], pk["c_eq"], pk["c_slope"],
            pk["latent"], pk["diff"], shortcuts,
        )
        np.testing.assert_allclose(
            out.reshape((ctx.n_phases,) + interior), s["ref_phi"], atol=1e-11
        )

    @pytest.mark.parametrize("shortcuts", [0, 1])
    def test_mu_cellwise_matches_reference(self, interface3d, shortcuts):
        from repro.core.kernels.compiled import loops

        s = interface3d
        ctx = s["ctx"]
        pk = compiled._pack(ctx)
        geom, interior = compiled._geometry(ctx, s["mu"].shape[1:])
        out = np.empty(ctx.n_solutes * int(np.prod(interior)))
        loops.mu_cellwise(
            compiled._flat64(s["mu"]), compiled._flat64(s["phi"]),
            compiled._flat64(s["phi_dst"]), compiled._flat64(s["tg"]),
            compiled._flat64(s["t_new"]), out, geom, pk["scal"],
            pk["inv_curv"], pk["c_eq"], pk["c_slope"], pk["diff"],
            pk["anti_trapping"], shortcuts, 1, 0,
        )
        np.testing.assert_allclose(
            out.reshape((ctx.n_solutes,) + interior), s["ref_mu"], atol=1e-11
        )


# ---------------------------------------------------------------------------
# selection and availability
# ---------------------------------------------------------------------------


class TestSelection:
    def test_disabled_backend_reports_unavailable(self, restore_backend):
        compiled.set_backend("none")
        assert not compiled.available()
        assert compiled.backend_name() is None
        assert "disabled" in compiled.unavailable_reason()
        for rung in COMPILED_RUNGS:
            assert not rung_available(rung)
        assert set(COMPILED_RUNGS).isdisjoint(available_rungs())

    def test_unknown_backend_name_reports_reason(self, restore_backend):
        compiled.set_backend("turbofan")
        assert not compiled.available()
        assert "turbofan" in compiled.unavailable_reason()

    def test_env_var_controls_selection(self, restore_backend, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "none")
        compiled.set_backend(None)  # drop cache, re-read environment
        assert not compiled.available()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
        compiled.set_backend(None)
        assert compiled.available() == bool(compiled.available_backends())

    def test_invoking_without_backend_raises(
        self, restore_backend, interface3d
    ):
        compiled.set_backend("none")
        s = interface3d
        with pytest.raises(compiled.CompiledBackendUnavailable,
                           match="no compiled kernel backend"):
            get_phi_kernel("compiled")(s["ctx"], s["phi"], s["mu"], s["tg"])

    def test_maybe_fallback_degrades_with_warning(self, restore_backend):
        compiled.set_backend("none")
        for rung, numpy_twin in FALLBACK_RUNGS.items():
            with pytest.warns(RuntimeWarning, match="falling back"):
                assert compiled.maybe_fallback(rung) == numpy_twin
        # NumPy rungs pass through untouched, warning-free
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compiled.maybe_fallback("shortcut") == "shortcut"

    @needs_backend
    def test_maybe_fallback_keeps_compiled_when_available(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rung in COMPILED_RUNGS:
                assert compiled.maybe_fallback(rung) == rung

    @needs_backend
    def test_registry_reports_compiled_rungs_available(self):
        got = available_rungs()
        for rung in COMPILED_RUNGS:
            assert rung in got


# ---------------------------------------------------------------------------
# live backend (skipped without numba or a C toolchain + cffi)
# ---------------------------------------------------------------------------


@needs_backend
class TestCompiledBackend:
    @pytest.mark.parametrize("rung", COMPILED_RUNGS)
    def test_split_mu_equals_full_sweep(self, interface3d, rung):
        """local + neighbour must compose to the full mu kernel — the
        contract the Algorithm 2 overlap schedule relies on."""
        s = interface3d
        full = get_mu_kernel(rung)(
            s["ctx"], s["mu"], s["phi"], s["phi_dst"], s["tg"], s["t_new"]
        )
        local, neighbor = get_split_mu_kernel(rung)
        partial = local(
            s["ctx"], s["mu"], s["phi"], s["phi_dst"], s["tg"], s["t_new"]
        )
        out = neighbor(
            s["ctx"], partial, s["mu"], s["phi"], s["phi_dst"], s["tg"]
        )
        np.testing.assert_allclose(out, full, atol=1e-13)
        np.testing.assert_allclose(out, s["ref_mu"], atol=1e-11)

    def test_warmup_returns_elapsed_seconds(self):
        phi, mu, tg, system, params = make_scenario(
            "interface", (2, 2, 2), seed=0
        )
        ctx = make_context(system, params)
        elapsed = compiled.warmup(ctx)
        assert isinstance(elapsed, float)
        assert elapsed >= 0.0

    def test_2d_matches_reference(self):
        phi, mu, tg, system, params = make_scenario(
            "interface", (6, 9), seed=4
        )
        ctx = make_context(system, params)
        ref = get_phi_kernel("reference")(ctx, phi, mu, tg)
        phi_dst = phi.copy()
        phi_dst[(slice(None),) + (slice(1, -1),) * 2] = ref
        fill_ghosts_periodic(phi_dst, 2)
        t_new = tg - 0.01
        ref_mu = get_mu_kernel("reference")(ctx, mu, phi, phi_dst, tg, t_new)
        for rung in COMPILED_RUNGS:
            out = get_phi_kernel(rung)(ctx, phi, mu, tg)
            np.testing.assert_allclose(out, ref, atol=1e-11, err_msg=rung)
            out_mu = get_mu_kernel(rung)(ctx, mu, phi, phi_dst, tg, t_new)
            np.testing.assert_allclose(
                out_mu, ref_mu, atol=1e-11, err_msg=rung
            )


def _flat_case(shape, seed=2):
    """Flat kernel inputs of an interface scenario, plus a phi_dst one
    explicit step ahead (so the anti-trapping current is non-zero)."""
    phi, mu, tg, system, params = make_scenario(
        "interface", shape, seed=seed
    )
    ctx = make_context(system, params)
    phi_dst = phi.copy()
    phi_dst[(slice(None),) + (slice(1, -1),) * len(shape)] = get_phi_kernel(
        "buffered"
    )(ctx, phi, mu, tg)
    fill_ghosts_periodic(phi_dst, len(shape))
    pk = compiled._pack(ctx)
    geom, interior = compiled._geometry(ctx, phi.shape[1:])
    f = compiled._flat64
    return dict(
        n_phases=ctx.n_phases, n_solutes=ctx.n_solutes, pk=pk, geom=geom,
        cells=int(np.prod(interior)),
        phi=f(phi), mu=f(mu), tg=f(tg), t_new=f(tg - 0.015),
        phi_dst=f(phi_dst),
    )


def _phi_sweep(impl, s, shortcuts):
    pk = s["pk"]
    out = np.empty(s["n_phases"] * s["cells"])
    impl(s["phi"], s["mu"], s["tg"], out, s["geom"], pk["scal"],
         pk["gamma"], pk["tau"], pk["inv_curv"], pk["c_eq"], pk["c_slope"],
         pk["latent"], pk["diff"], shortcuts)
    return out


def _mu_sweep(impl, s, shortcuts, include_at, only_at, seed=None):
    pk = s["pk"]
    if seed is None:
        out = np.empty(s["n_solutes"] * s["cells"])
    else:
        out = seed.copy()
    t_new = s["tg"] if only_at else s["t_new"]
    impl(s["mu"], s["phi"], s["phi_dst"], s["tg"], t_new, out, s["geom"],
         pk["scal"], pk["inv_curv"], pk["c_eq"], pk["c_slope"], pk["diff"],
         pk["anti_trapping"], shortcuts, include_at, only_at)
    return out


def _assert_bitwise(got, want, what):
    assert np.array_equal(got, want), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), what


@pytest.mark.skipif(
    not cffi_backend.available(), reason="C kernel library not available"
)
class TestCBackendBitwise:
    """The C sweeps are specialized to the alloy and evaluate each mu face
    flux once; neither may move a bit against the interpreted loop spec
    (a reordered face sum would hide inside an allclose tolerance)."""

    @pytest.mark.parametrize("shape", [(4, 5, 7), (4, 1, 7), (6, 9)])
    @pytest.mark.parametrize("shortcuts", [0, 1])
    def test_sweeps_equal_loop_spec(self, shape, shortcuts):
        from repro.core.kernels.compiled import loops

        s = _flat_case(shape)
        _assert_bitwise(
            _phi_sweep(cffi_backend.phi_step_raw, s, shortcuts),
            _phi_sweep(loops.phi_cellwise, s, shortcuts), "phi",
        )
        want = {}
        for name, impl in (("C", cffi_backend.mu_step_raw),
                           ("loops", loops.mu_cellwise)):
            full = _mu_sweep(impl, s, shortcuts, 1, 0)
            local = _mu_sweep(impl, s, shortcuts, 0, 0)
            split = _mu_sweep(impl, s, shortcuts, 1, 1, seed=local)
            want[name] = (full, local, split)
        assert not np.array_equal(want["loops"][0], want["loops"][1]), (
            "the case must carry an anti-trapping current"
        )
        for what, got, ref in zip(("full", "local", "split-AT"),
                                  want["C"], want["loops"]):
            _assert_bitwise(got, ref, f"mu {what}")

    def test_generic_instance_equals_loop_spec(self):
        """An alloy other than (N, K) = (4, 2) runs the unspecialized
        instance of the same C template."""
        from repro.core.kernels.compiled import loops

        n, k, shape = 3, 3, (4, 5, 6)
        rng = np.random.default_rng(7)
        ghosted = tuple(e + 2 for e in shape)
        phi = rng.random((n,) + ghosted) ** 4
        phi[..., : ghosted[-1] // 2] = 0.0  # bulk liquid on the low half
        phi[n - 1, ..., : ghosted[-1] // 2] = 1.0
        phi /= phi.sum(axis=0)
        phi_dst = np.clip(phi + 1e-3 * rng.standard_normal(phi.shape), 0, 1)
        a = rng.standard_normal((n, k, k))
        inv_curv = np.einsum("aij,akj->aik", a, a) + np.eye(k)
        gamma = rng.random((n, n))
        gamma = gamma + gamma.T
        np.fill_diagonal(gamma, 0.0)
        pk = dict(
            scal=np.array([1.0, 0.01, 4.0, 0.5, 1.0]),
            gamma=gamma.ravel(), tau=rng.random(n) + 0.5,
            inv_curv=inv_curv.ravel(), c_eq=rng.random(n * k),
            c_slope=rng.random(n * k), latent=rng.random(n),
            diff=rng.random(n), anti_trapping=1,
        )
        tg = 1.0 + 0.01 * rng.standard_normal(ghosted[-1])
        s = dict(
            n_phases=n, n_solutes=k, pk=pk,
            geom=np.array([1, *shape, n, k, n - 1], dtype=np.int64),
            cells=int(np.prod(shape)), phi=phi.ravel(),
            mu=0.1 * rng.standard_normal((k,) + ghosted).ravel(),
            tg=tg, t_new=tg - 0.01, phi_dst=phi_dst.ravel(),
        )
        for shortcuts in (0, 1):
            _assert_bitwise(
                _phi_sweep(cffi_backend.phi_step_raw, s, shortcuts),
                _phi_sweep(loops.phi_cellwise, s, shortcuts), "phi",
            )
            for include_at in (0, 1):
                _assert_bitwise(
                    _mu_sweep(cffi_backend.mu_step_raw, s, shortcuts,
                              include_at, 0),
                    _mu_sweep(loops.mu_cellwise, s, shortcuts,
                              include_at, 0),
                    f"mu include_at={include_at}",
                )

    def test_failed_scratch_allocation_raises(self):
        """A geometry whose scratch cannot be allocated raises before the
        (here far too small) input arrays are read."""
        s = _flat_case((2, 2, 2))
        s["geom"] = s["geom"].copy()
        s["geom"][1:4] = (1, 1, 1 << 50)
        with pytest.raises(MemoryError, match="phi sweep"):
            _phi_sweep(cffi_backend.phi_step_raw, s, 1)
        with pytest.raises(MemoryError, match="mu sweep"):
            _mu_sweep(cffi_backend.mu_step_raw, s, 1, 1, 0)


@needs_backend
class TestSolverIntegration:
    def test_simulation_records_compile_seconds(self):
        from repro.core.solver import Simulation

        sim = Simulation((4, 4, 8), kernel="compiled")
        assert sim.kernel_name == "compiled"
        assert isinstance(sim.compile_seconds, float)
        assert sim.compile_seconds >= 0.0
        numpy_sim = Simulation((4, 4, 8), kernel="shortcut")
        assert numpy_sim.compile_seconds == 0.0

    def test_simulation_matches_numpy_rung(self):
        from repro.core.solver import Simulation

        def run(rung):
            sim = Simulation((4, 4, 12), kernel=rung)
            sim.initialize_voronoi(seed=3)
            sim.step(5)
            return sim

        ref = run("buffered")
        got = run("compiled")
        np.testing.assert_allclose(
            got.phi.interior_src, ref.phi.interior_src, atol=1e-12
        )
        np.testing.assert_allclose(
            got.mu.interior_src, ref.mu.interior_src, atol=1e-12
        )

    def test_simulation_falls_back_when_unavailable(self, restore_backend):
        from repro.core.solver import Simulation

        compiled.set_backend("none")
        with pytest.warns(RuntimeWarning, match="falling back"):
            sim = Simulation((4, 4, 8), kernel="compiled")
        assert sim.kernel_name == "buffered"
        assert sim.compile_seconds == 0.0

    @pytest.mark.parametrize("overlap", [False, True])
    def test_distributed_matches_single_block(self, overlap):
        from repro.core.solver import Simulation
        from repro.distributed.solver import DistributedSimulation

        shape = (4, 4, 12)
        seed_sim = Simulation(shape, kernel="buffered")
        seed_sim.initialize_voronoi(seed=3)
        seed_sim.step(2)
        phi0 = seed_sim.phi.interior_src.copy()
        mu0 = seed_sim.mu.interior_src.copy()

        single = Simulation(shape, kernel="compiled_shortcuts")
        single.initialize(phi0, mu0)
        single.step(4)
        dist = DistributedSimulation(
            shape, (2, 1, 1), kernel="compiled_shortcuts", overlap=overlap
        )
        result = dist.run(4, phi0, mu0)
        np.testing.assert_allclose(
            result.phi, single.phi.interior_src, atol=1e-13
        )
        np.testing.assert_allclose(
            result.mu, single.mu.interior_src, atol=1e-13
        )
