"""Tests of the functor-based time loop."""

import pytest

from repro.grid.timeloop import Timeloop


class TestScheduling:
    def test_execution_order(self):
        log = []
        tl = Timeloop()
        tl.add("a", lambda: log.append("a"))
        tl.add("b", lambda: log.append("b"))
        tl.run(2)
        assert log == ["a", "b", "a", "b"]
        assert tl.steps == 2

    def test_duplicate_name_rejected(self):
        tl = Timeloop()
        tl.add("x", lambda: None)
        with pytest.raises(ValueError, match="already"):
            tl.add("x", lambda: None)

    def test_insert_before_builds_overlap_order(self):
        """Deriving the Algorithm 2 order from the plain schedule."""
        log = []
        tl = Timeloop()
        tl.add("phi-sweep", lambda: log.append("phi"))
        tl.add("mu-sweep", lambda: log.append("mu"))
        # hide the mu exchange behind the phi sweep: runs right after it
        tl.insert_before("mu-sweep", "mu-exchange",
                         lambda: log.append("xmu"), category="communication")
        assert tl.order == ["phi-sweep", "mu-exchange", "mu-sweep"]
        tl.run()
        assert log == ["phi", "xmu", "mu"]

    def test_insert_before_unknown_anchor(self):
        tl = Timeloop()
        with pytest.raises(KeyError):
            tl.insert_before("ghost", "x", lambda: None)

    def test_remove(self):
        tl = Timeloop()
        tl.add("a", lambda: None)
        tl.add("b", lambda: None)
        tl.remove("a")
        assert tl.order == ["b"]
        with pytest.raises(KeyError):
            tl.remove("a")

    def test_negative_steps(self):
        with pytest.raises(ValueError):
            Timeloop().run(-1)


class TestTiming:
    def test_per_functor_and_category_accounting(self):
        import time

        tl = Timeloop()
        tl.add("work", lambda: time.sleep(0.002), category="compute")
        tl.add("comm", lambda: time.sleep(0.001), category="communication")
        tl.run(3)
        rep = tl.timing_report()
        assert rep["functors"]["work"]["calls"] == 3
        assert rep["functors"]["comm"]["total"] > 0
        assert rep["categories"]["compute"] >= rep["categories"]["communication"]
        assert rep["steps"] == 3

    def test_reset(self):
        tl = Timeloop()
        tl.add("a", lambda: None)
        tl.run(5)
        tl.reset_timers()
        rep = tl.timing_report()
        assert rep["functors"]["a"]["calls"] == 0
        assert rep["steps"] == 0


class TestDrivesRealStep:
    def test_simulation_step_as_functors(self):
        """One Algorithm-1 step expressed through the Timeloop matches the
        built-in driver."""
        import numpy as np

        from repro.core.solver import Simulation
        from repro.grid.boundary import apply_boundaries
        from repro.thermo.system import TernaryEutecticSystem

        system = TernaryEutecticSystem()
        a = Simulation(shape=(5, 5, 8), system=system, kernel="buffered")
        b = Simulation(shape=(5, 5, 8), system=system, kernel="buffered",
                       params=a.params, temperature=a.temperature)
        a.initialize_voronoi(seed=1, n_seeds=3)
        b.initialize_voronoi(seed=1, n_seeds=3)

        tl = Timeloop()
        state = {}

        def phi_sweep():
            state["t_old"] = b._slice_temps(b.time)
            state["t_new"] = b._slice_temps(b.time + b.params.dt)
            b.phi.interior_dst[...] = b._phi_kernel(
                b.ctx, b.phi.src, b.mu.src, state["t_old"]
            )

        def phi_boundary():
            apply_boundaries(b.phi.dst, b.phi_bc)

        def mu_sweep():
            b.mu.interior_dst[...] = b._mu_kernel(
                b.ctx, b.mu.src, b.phi.src, b.phi.dst,
                state["t_old"], state["t_new"],
            )

        def mu_boundary():
            apply_boundaries(b.mu.dst, b.mu_bc)

        def swap():
            b.phi.swap()
            b.mu.swap()
            b.time += b.params.dt
            b.step_count += 1

        tl.add("phi-sweep", phi_sweep)
        tl.add("phi-boundary", phi_boundary, category="boundary")
        tl.add("mu-sweep", mu_sweep)
        tl.add("mu-boundary", mu_boundary, category="boundary")
        tl.add("swap", swap, category="bookkeeping")

        a.step(4)
        tl.run(4)
        np.testing.assert_array_equal(b.phi.interior_src, a.phi.interior_src)
        np.testing.assert_array_equal(b.mu.interior_src, a.mu.interior_src)


class TestFailureAnnotation:
    def test_functor_error_carries_name_and_step(self):
        from repro.grid.timeloop import FunctorError

        tl = Timeloop()
        tl.add("ok", lambda: None)
        state = {"n": 0}

        def flaky():
            state["n"] += 1
            if state["n"] == 3:
                raise RuntimeError("kaboom")

        tl.add("flaky-sweep", flaky)
        tl.run(2)
        with pytest.raises(FunctorError, match="flaky-sweep.*step 2") as info:
            tl.run(5)
        assert info.value.functor == "flaky-sweep"
        assert info.value.step == 2
        assert isinstance(info.value.original, RuntimeError)

    def test_partial_steps_in_timing_report(self):
        tl = Timeloop()
        tl.add("a", lambda: None)

        def boom():
            raise ValueError("x")

        tl.add("b", boom)
        from repro.grid.timeloop import FunctorError

        with pytest.raises(FunctorError):
            tl.run(3)
        report = tl.timing_report()
        assert report["steps"] == 0
        assert report["partial_steps"] == 1
        # the failing invocation is timed AND counted, so the reported
        # average stays a true per-invocation average
        assert report["functors"]["b"]["calls"] == 1
        assert report["functors"]["b"]["total"] >= 0.0
        assert report["functors"]["b"]["avg"] == report["functors"]["b"]["total"]
        assert report["functors"]["a"]["calls"] == 1
        tl.reset_timers()
        assert tl.timing_report()["partial_steps"] == 0

    def test_failing_invocation_updates_stats_atomically(self):
        """Regression: calls/min/max must move together with seconds.

        The old code bumped ``seconds`` in ``finally`` but ``calls`` and
        the extrema only on success, so one failure inflated every later
        average (total included the failed run, the divisor did not).
        """
        from repro.grid.timeloop import Functor

        state = {"n": 0}

        def sometimes_boom():
            state["n"] += 1
            if state["n"] == 2:
                raise ValueError("injected")

        f = Functor(name="s", fn=sometimes_boom)
        f()
        with pytest.raises(ValueError):
            f()
        f()
        assert f.calls == 3
        assert f.min_seconds <= f.max_seconds
        assert f.seconds >= 3 * f.min_seconds - 1e-12
        # the average over *all* invocations is consistent with the total
        assert abs(f.seconds / f.calls - f.seconds / 3) < 1e-15
