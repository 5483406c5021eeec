"""Core budget of simulated ranks: ranks x OpenMP threads <= cores.

Covers the budget rule and its ``OMP_NUM_THREADS`` precedence
(:mod:`repro.simmpi.cores`), the share each rank gets on both simmpi
backends, the fork guard that keeps a process rank forked after an
OpenMP kernel from hanging, bitwise invariance of the compiled kernels
across team sizes, the run report's ``resources`` section, and the
campaign's checkpoint count on the process backend.

Checks whose parent must not have run an OpenMP kernel yet (budgeted
process runs) or which could hang on a regression (the fork guard) run
in a fresh interpreter under a timeout.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.kernels import compiled
from repro.core.nucleation import smooth_phase_field, voronoi_initial_condition
from repro.distributed import DistributedSimulation
from repro.resilience import run_campaign
from repro.resilience.store import ShardedCheckpointStore
from repro.simmpi import cores, run_spmd
from repro.telemetry import RunTelemetry
from repro.telemetry.report import (
    build_run_report,
    summarize_run_report,
    validate_run_report,
)
from repro.thermo.system import TernaryEutecticSystem

SRC = Path(__file__).resolve().parents[1] / "src"

needs_compiled = pytest.mark.skipif(
    compiled.backend_name() != "cffi",
    reason="needs the generated-C compiled backend",
)


def _run_python(code: str, *, env: dict | None = None,
                timeout: float = 120.0) -> dict:
    """Run *code* in a fresh interpreter; its last stdout line is JSON."""
    full_env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
    full_env["PYTHONPATH"] = str(SRC)
    full_env.update(env or {})
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=full_env, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    finally:
        # a hung run leaves forked ranks behind: reap the whole group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode == 0, stderr
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- rule --


class TestTeamShare:
    def test_even_share_of_visible_cores(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(cores, "visible_cores", lambda: 8)
        assert cores.team_share(1) == (8, "budget")
        assert cores.team_share(2) == (4, "budget")
        assert cores.team_share(3) == (2, "budget")
        assert cores.team_share(16) == (1, "budget")

    def test_omp_num_threads_wins(self, monkeypatch):
        monkeypatch.setattr(cores, "visible_cores", lambda: 8)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        assert cores.team_share(2) == (3, "OMP_NUM_THREADS")
        monkeypatch.setenv("OMP_NUM_THREADS", "2,1")  # nested-list form
        assert cores.team_share(4) == (2, "OMP_NUM_THREADS")

    @pytest.mark.parametrize("value", ["", "0", "many"])
    def test_unusable_omp_num_threads_ignored(self, monkeypatch, value):
        monkeypatch.setattr(cores, "visible_cores", lambda: 4)
        monkeypatch.setenv("OMP_NUM_THREADS", value)
        assert cores.team_share(2) == (2, "budget")

    def test_visible_cores_is_the_affinity_mask(self):
        assert cores.visible_cores() == len(os.sched_getaffinity(0))


class TestAssignRankThreads:
    @pytest.fixture(autouse=True)
    def four_cores(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(cores, "visible_cores", lambda: 4)
        # this thread plays a rank; keep its stamp away from later tests
        monkeypatch.setattr(cores, "_local", threading.local())

    def test_stamp_and_pending_share(self):
        stamp = cores.assign_rank_threads(2)
        assert stamp == {
            "cores": 4, "ranks": 2, "threads_per_rank": 2,
            "thread_source": "budget", "fork_capped": False,
        }
        assert cores.rank_resources() == stamp
        assert cores.take_pending_threads() == 2
        assert cores.take_pending_threads() is None  # applied once

    def test_inherited_pool_caps_at_one_thread(self):
        stamp = cores.assign_rank_threads(1, inherited_pool=True)
        assert stamp["threads_per_rank"] == 1
        assert stamp["fork_capped"] is True
        assert cores.take_pending_threads() == 1

    def test_single_thread_share_is_not_a_cap(self):
        stamp = cores.assign_rank_threads(4, inherited_pool=True)
        assert stamp["threads_per_rank"] == 1
        assert stamp["fork_capped"] is False

    def test_env_team_is_left_alone(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        stamp = cores.assign_rank_threads(2)
        assert stamp["threads_per_rank"] == 3
        assert stamp["thread_source"] == "OMP_NUM_THREADS"
        assert cores.take_pending_threads() is None

    def test_fork_guard_overrides_env_team(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        stamp = cores.assign_rank_threads(2, inherited_pool=True)
        assert stamp["fork_capped"] is True
        assert cores.take_pending_threads() == 1


# ------------------------------------------------------ rank launching --


def _stamp_of_rank(comm):
    return cores.rank_resources()


class TestRanksGetTheirShare:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("n_ranks", [1, 2, 3])
    def test_every_rank_is_stamped(self, backend, n_ranks, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        stamps = run_spmd(n_ranks, _stamp_of_rank, backend=backend)
        share = max(1, cores.visible_cores() // n_ranks)
        for stamp in stamps:
            assert stamp["ranks"] == n_ranks
            assert stamp["cores"] == cores.visible_cores()
            assert stamp["thread_source"] == "budget"
            if not stamp["fork_capped"]:
                assert stamp["threads_per_rank"] == share

    def test_launching_thread_keeps_its_team(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = cores.rank_resources()
        run_spmd(2, _stamp_of_rank)
        assert cores.rank_resources() == before

    @needs_compiled
    def test_thread_rank_kernels_run_its_share(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        from repro.core.kernels.compiled import cffi_backend

        if cffi_backend.num_threads() < 2:
            pytest.skip("serial C build or single visible core")
        teams = run_spmd(
            2, lambda comm: cffi_backend.num_threads(), backend="thread"
        )
        assert teams == [max(1, cores.visible_cores() // 2)] * 2

    def test_numpy_rung_rank_never_loads_the_library(self):
        out = _run_python("""
            import json, sys
            import numpy as np
            from repro.distributed import DistributedSimulation
            from repro.core.scenarios import make_scenario
            shape = (6, 6, 8)
            phi, mu, *_ = make_scenario("interface", shape)
            inner = (slice(None),) + (slice(1, -1),) * 3
            sim = DistributedSimulation(shape, (1, 1, 2), kernel="buffered")
            res = sim.run(2, phi[inner].copy(), mu[inner].copy())
            name = "repro.core.kernels.compiled.cffi_backend"
            print(json.dumps({
                "imported": name in sys.modules,
                "resources": res.resources,
            }))
        """)
        assert out["imported"] is False
        assert out["resources"]["ranks"] == 2


# ------------------------------------------- bitwise across team sizes --


_SERIAL_RUNGS = """
    import json, zlib
    import numpy as np
    from repro.core.kernels.compiled import cffi_backend
    from repro.core.solver import Simulation
    out = {"team": cffi_backend.num_threads()}
    for rung in ("compiled", "compiled_shortcuts"):
        sim = Simulation(shape=(10, 8, 16), kernel=rung)
        sim.initialize_voronoi(seed=3, n_seeds=4)
        sim.step(4)
        out[rung] = [
            zlib.crc32(np.ascontiguousarray(f.interior_src).tobytes())
            for f in (sim.phi, sim.mu)
        ]
    print(json.dumps(out))
"""


@needs_compiled
class TestBitwiseAcrossTeamSizes:
    def test_simulation_is_team_size_invariant(self):
        one = _run_python(_SERIAL_RUNGS, env={"OMP_NUM_THREADS": "1"})
        two = _run_python(_SERIAL_RUNGS, env={"OMP_NUM_THREADS": "2"})
        assert one["team"] == 1
        if two["team"] < 2:
            pytest.skip("serial C build: one team size only")
        for rung in ("compiled", "compiled_shortcuts"):
            assert one[rung] == two[rung], rung

    def test_budgeted_process_ranks_match_one_rank(self):
        out = _run_python("""
            import json
            import numpy as np
            from repro.core.scenarios import make_scenario
            from repro.distributed import DistributedSimulation
            shape = (8, 8, 16)
            phi, mu, *_ = make_scenario("interface", shape, seed=5)
            inner = (slice(None),) + (slice(1, -1),) * 3
            phi0, mu0 = phi[inner].copy(), mu[inner].copy()
            runs = {}
            for n in (1, 2):
                sim = DistributedSimulation(
                    shape, (1, 1, 2), kernel="compiled_shortcuts",
                    n_ranks=n, backend="process")
                runs[n] = sim.run(4, phi0, mu0)
            print(json.dumps({
                "phi_equal": bool(np.array_equal(runs[1].phi, runs[2].phi)),
                "mu_equal": bool(np.array_equal(runs[1].mu, runs[2].mu)),
                "resources": {n: r.resources for n, r in runs.items()},
            }))
        """)
        assert out["phi_equal"] and out["mu_equal"]
        share = {n: max(1, cores.visible_cores() // n) for n in (1, 2)}
        for n in (1, 2):
            res = out["resources"][str(n)]
            assert res["ranks"] == n
            assert res["threads_per_rank"] == share[n]
            assert res["thread_source"] == "budget"
            assert res["fork_capped"] == 0


# --------------------------------------------------------- fork guard --


_FORK_AFTER_OPENMP = """
    import json, warnings
    import numpy as np
    from repro.core.solver import Simulation
    from repro.distributed import DistributedSimulation
    from repro.telemetry import RunTelemetry
    shape = (8, 8, 16)
    sim = Simulation(shape=shape, kernel="compiled_shortcuts")
    sim.initialize_voronoi(seed=2, n_seeds=4)
    phi0 = sim.phi.interior_src.copy()
    mu0 = sim.mu.interior_src.copy()
    sim.step(3)  # the parent starts its OpenMP pool here
    out = {}
    for n in (1, 2):
        dsim = DistributedSimulation(
            shape, (1, 1, 2), kernel="compiled_shortcuts", n_ranks=n,
            backend="process")
        tel = RunTelemetry(directory=f"{DIR}/n{n}", run_id=f"n{n}")
        with warnings.catch_warnings(record=True):
            res = dsim.run(3, phi0, mu0, telemetry=tel)
        out[n] = {
            "equal": bool(np.array_equal(res.phi, sim.phi.interior_src)
                          and np.array_equal(res.mu, sim.mu.interior_src)),
            "resources": res.report["resources"],
            "cap_events": sum(e["kind"] == "openmp_fork_cap"
                              for e in tel.merge_events()),
        }
    print(json.dumps(out))
"""


@needs_compiled
class TestForkAfterOpenMP:
    def test_forked_ranks_finish_capped_and_bitwise(self, tmp_path):
        # OMP_NUM_THREADS=2 makes the parent's pool real on any host.
        out = _run_python(
            f"DIR = {str(tmp_path)!r}\n" + textwrap.dedent(_FORK_AFTER_OPENMP),
            env={"OMP_NUM_THREADS": "2"}, timeout=90,
        )
        for n in ("1", "2"):
            run = out[n]
            assert run["equal"], n
            res = run["resources"]
            assert res["threads_per_rank"] == 1
            assert res["thread_source"] == "OMP_NUM_THREADS"
            assert res["fork_capped"] == int(n)
            assert run["cap_events"] == int(n)


# ------------------------------------------------------- run reports --


def _report(**kwargs):
    return build_run_report(
        run_id="r", config={"n_ranks": 2}, grid_shape=(4, 4, 4),
        n_ranks=2, steps=1, wall_seconds=1.0, mlups=0.1, **kwargs,
    )


class TestResourcesSection:
    STAMP = {"cores": 4, "ranks": 2, "threads_per_rank": 2,
             "thread_source": "budget", "fork_capped": 0}

    def test_section_outside_the_hashed_config(self):
        plain = _report()
        stamped = _report(resources=self.STAMP)
        assert stamped["resources"] == self.STAMP
        assert "resources" not in stamped["config"]
        assert stamped["config_hash"] == plain["config_hash"]

    @pytest.mark.parametrize("key,value", [
        ("cores", 0), ("threads_per_rank", 0), ("fork_capped", -1),
        ("ranks", True), ("thread_source", "guess"),
    ])
    def test_validator_rejects_bad_values(self, key, value):
        report = _report(resources=self.STAMP)
        report["resources"][key] = value
        with pytest.raises(ValueError, match=f"resources.{key}"):
            validate_run_report(report)

    def test_summary_shows_the_budget(self):
        lines = summarize_run_report(_report(resources=self.STAMP))
        assert any(
            line.startswith("resources: cores 4  ranks 2  threads/rank 2 "
                            "(budget)")
            for line in lines
        )

    def test_distributed_report_carries_resources(self):
        system = TernaryEutecticSystem()
        phi0, mu0 = voronoi_initial_condition(
            system, (6, 6, 8), solid_height=3, n_seeds=3
        )
        sim = DistributedSimulation((6, 6, 8), (1, 1, 2), system=system)
        res = sim.run(1, phi0, mu0, telemetry=RunTelemetry())
        assert res.report["resources"] == res.resources
        assert res.resources["ranks"] == 2
        assert res.resources["cores"] == cores.visible_cores()


# ------------------------------------- campaign checkpoint accounting --


class TestCampaignCheckpointCount:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_count_matches_the_store(self, tmp_path, backend):
        system = TernaryEutecticSystem()
        phi0, mu0 = voronoi_initial_condition(
            system, (6, 6, 8), solid_height=3, n_seeds=3
        )
        phi0 = smooth_phase_field(phi0, 1)
        dsim = DistributedSimulation(
            (6, 6, 8), (1, 1, 2), system=system, backend=backend,
        )
        store = ShardedCheckpointStore(tmp_path, keep=64)
        res = run_campaign(dsim, 12, phi0, mu0, store=store,
                           checkpoint_every=4, telemetry=RunTelemetry())
        assert len(store.manifests()) == 4  # steps 0, 4, 8, 12
        assert res.checkpoints_written == len(store.manifests())
        assert store.stats["shards_written"] == 4 * 2
        assert res.report["resources"]["ranks"] == 2


class TestStoreCountersAcrossRanks:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_no_lost_updates(self, tmp_path, backend):
        # more ranks than cores, each bumping the shared counters
        store = ShardedCheckpointStore(tmp_path, keep=1)
        n_ranks, bumps = 2 * cores.visible_cores() + 1, 300

        def bump(comm):
            for _ in range(bumps):
                store.note_skipped()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_spmd(n_ranks, bump, backend=backend)
        finally:
            sys.setswitchinterval(interval)
        assert store.stats["checkpoints_skipped"] == n_ranks * bumps
