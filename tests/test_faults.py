"""Fault-injected recovery suite (``pytest -m faults``).

Each test prints the fault plan (including its seed) so a failure report
carries everything needed to reproduce the exact schedule.
"""

import time as _time

import numpy as np
import pytest

from repro.core.nucleation import smooth_phase_field, voronoi_initial_condition
from repro.distributed import DistributedSimulation, exchange_block_ghosts
from repro.grid.blockforest import BlockForest
from repro.grid.boundary import BoundarySpec, Neumann
from repro.resilience import (
    FAULT_KINDS,
    CheckpointStore,
    DivergenceError,
    Fault,
    FaultPlan,
    FaultyComm,
    InjectedFault,
    RetryPolicy,
    ShardedCheckpointStore,
    run_campaign,
)
from repro.simmpi.runtime import run_spmd, run_spmd_resilient
from repro.thermo.system import TernaryEutecticSystem

pytestmark = pytest.mark.faults

SHAPE = (12, 20)
STEPS = 8
SEED = 20150817  # printed via FaultPlan.describe on failure


@pytest.fixture(scope="module")
def setup():
    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(system, SHAPE, solid_height=7, n_seeds=4)
    phi0 = smooth_phase_field(phi0, 2)
    dsim = DistributedSimulation(SHAPE, (2, 1), system=system, kernel="buffered")
    reference = dsim.run(STEPS, phi0, mu0)
    return dsim, phi0, mu0, reference


class TestFaultPlan:
    def test_random_plans_are_seed_deterministic(self):
        a = FaultPlan.random(SEED, steps=10, n_ranks=4, n_faults=3)
        b = FaultPlan.random(SEED, steps=10, n_ranks=4, n_faults=3)
        assert a.faults == b.faults
        c = FaultPlan.random(SEED + 1, steps=10, n_ranks=4, n_faults=3)
        assert a.faults != c.faults

    def test_faults_fire_once(self):
        plan = FaultPlan([Fault(kind="nan_inject", step=2)], seed=SEED)
        assert plan.fires("nan_inject", step=2) is not None
        assert plan.fires("nan_inject", step=2) is None
        assert plan.pending() == []
        assert len(plan.fired()) == 1

    def test_rank_matching(self):
        plan = FaultPlan([Fault(kind="rank_kill", step=1, rank=2)], seed=SEED)
        assert plan.fires("rank_kill", step=1, rank=0) is None
        assert plan.fires("rank_kill", step=1, rank=2) is not None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="meteor_strike", step=1)

    def test_describe_names_seed(self):
        plan = FaultPlan([Fault(kind="msg_drop", step=3, rank=1)], seed=SEED)
        text = plan.describe()
        assert str(SEED) in text and "msg_drop" in text

    def test_hang_fault_kinds_exist(self):
        for kind in ("rank_stall", "rank_slow", "ack_drop"):
            assert kind in FAULT_KINDS
            Fault(kind=kind, step=1)  # accepted by the validator

    def test_mark_fired_mirrors_a_remote_fire(self):
        # The process backend replays child-side fires into the parent's
        # plan copy so a campaign restart does not re-fire them.
        plan = FaultPlan([Fault(kind="rank_stall", step=5, rank=2)], seed=SEED)
        assert plan.mark_fired("rank_stall", 5, 2) is True
        assert plan.mark_fired("rank_stall", 5, 2) is False  # already spent
        assert plan.fires("rank_stall", step=5, rank=2) is None
        assert len(plan.fired()) == 1

    def test_on_fire_callback_reports_each_fire(self):
        plan = FaultPlan([Fault(kind="nan_inject", step=2)], seed=SEED)
        seen = []
        plan.on_fire = seen.append
        plan.fires("nan_inject", step=2)
        assert seen == [("nan_inject", 2, None)]


class TestRecoveryMatrix:
    """Acceptance matrix: every fault kind recovers to the unfaulted result."""

    @pytest.mark.parametrize(
        "faults",
        [
            pytest.param([Fault(kind="rank_kill", step=5, rank=1)],
                         id="rank-kill"),
            pytest.param([Fault(kind="msg_corrupt", step=4, rank=0)],
                         id="corrupted-ghost-message"),
            pytest.param([Fault(kind="ckpt_truncate", step=6),
                          Fault(kind="rank_kill", step=7, rank=0)],
                         id="truncated-checkpoint"),
            pytest.param([Fault(kind="nan_inject", step=4, rank=1)],
                         id="nan-blow-up"),
        ],
    )
    def test_campaign_recovers_and_matches(self, setup, tmp_path, faults):
        dsim, phi0, mu0, reference = setup
        plan = FaultPlan(faults, seed=SEED)
        print(plan.describe())
        store = CheckpointStore(tmp_path, keep=3, fault_plan=plan)
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=3, fault_plan=plan,
        )
        assert result.restarts >= 1
        assert result.steps == STEPS
        assert len(result.faults_fired) == len(faults)
        assert {f.kind for f, _, _ in plan.fired()} == {
            f.kind for f in faults
        }
        # recovered run matches the unfaulted one within float32
        # restart rounding
        np.testing.assert_allclose(result.phi, reference.phi, atol=1e-5)
        np.testing.assert_allclose(result.mu, reference.mu, atol=1e-5)

    def test_delayed_message_does_not_stall_the_sender(self):
        # regression (ISSUE 7): msg_delay used to sleep inline on the
        # sending rank, stalling it — the opposite of a *late delivery*.
        plan = FaultPlan([Fault(kind="msg_delay", step=0, rank=0,
                                delay=0.4)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            if comm.rank == 0:
                t0 = _time.monotonic()
                fc.send(np.arange(5.0), dest=1, tag=9)
                return _time.monotonic() - t0
            return comm.recv(0, tag=9)

        results = run_spmd(2, fn)
        assert results[0] < 0.3  # the send returned without the lag
        np.testing.assert_array_equal(results[1], np.arange(5.0))

    def test_delayed_message_is_harmless(self, setup, tmp_path):
        dsim, phi0, mu0, reference = setup
        _assert_delay_harmless(dsim, phi0, mu0, reference, tmp_path)

    def test_delayed_message_is_harmless_on_processes(self, setup,
                                                      tmp_path):
        dsim, phi0, mu0, reference = setup
        _assert_delay_harmless(_on_processes(dsim), phi0, mu0, reference,
                               tmp_path)

    def test_corrupted_ghost_recovers_on_processes(self, setup, tmp_path):
        """The corrupted-ghost case on process ranks, where production
        campaigns run: the fault fires on rank 0's first ghost notify
        of step 4, the receiver's guard trips, the campaign restarts."""
        dsim, phi0, mu0, reference = setup
        plan = FaultPlan([Fault(kind="msg_corrupt", step=4, rank=0)],
                         seed=SEED)
        print(plan.describe())
        store = CheckpointStore(tmp_path, keep=3, fault_plan=plan)
        result = run_campaign(
            _on_processes(dsim), STEPS, phi0, mu0,
            store=store, checkpoint_every=3, fault_plan=plan,
        )
        assert result.restarts >= 1
        assert [(f.kind, s, r) for f, s, r in plan.fired()] == [
            ("msg_corrupt", 4, 0)
        ]
        np.testing.assert_allclose(result.phi, reference.phi, atol=1e-5)
        np.testing.assert_allclose(result.mu, reference.mu, atol=1e-5)

    def test_fault_planned_run_registers_halo_channels(self, setup,
                                                       tmp_path):
        """A fault plan no longer switches the ghost transport: the run
        registers the same channels as an unfaulted one."""
        import json

        from repro.telemetry import RunTelemetry

        dsim, phi0, mu0, reference = setup
        res = dsim.run(
            2, phi0, mu0, fault_plan=FaultPlan([], seed=SEED),
            telemetry=RunTelemetry(directory=tmp_path, run_id="planned"),
        )
        merged = (tmp_path / "events-merged.jsonl").read_text()
        registered = [
            json.loads(line) for line in merged.splitlines()
            if json.loads(line)["kind"] == "halo_channels_registered"
        ]
        assert len(registered) == 2  # one per rank
        assert res.counters["halo_messages"] > 0

    def test_restart_budget_exhaustion_raises_structured(self, setup,
                                                          tmp_path):
        dsim, phi0, mu0, _ = setup
        # more kills than the budget allows
        plan = FaultPlan(
            [Fault(kind="rank_kill", step=2, rank=0) for _ in range(4)],
            seed=SEED,
        )
        print(plan.describe())
        store = CheckpointStore(tmp_path, keep=3)
        with pytest.raises(DivergenceError) as info:
            run_campaign(
                dsim, STEPS, phi0, mu0,
                store=store, checkpoint_every=3,
                fault_plan=plan, max_restarts=2,
            )
        assert info.value.attempts == 2


def _on_processes(dsim):
    return DistributedSimulation(
        dsim.shape, dsim.forest.blocks_per_axis, system=dsim.system,
        kernel=dsim.kernel, backend="process",
    )


def _assert_delay_harmless(dsim, phi0, mu0, reference, tmp_path):
    """A late ghost round changes nothing: no restart, bitwise result,
    and the delay really fired (on rank 0's first notify of step 4)."""
    plan = FaultPlan([Fault(kind="msg_delay", step=4, rank=0)], seed=SEED)
    print(plan.describe())
    store = CheckpointStore(tmp_path, keep=3)
    result = run_campaign(
        dsim, STEPS, phi0, mu0,
        store=store, checkpoint_every=3, fault_plan=plan,
    )
    assert result.restarts == 0
    assert [(f.kind, s, r) for f, s, r in plan.fired()] == [
        ("msg_delay", 4, 0)
    ]
    np.testing.assert_array_equal(result.phi, reference.phi)
    np.testing.assert_array_equal(result.mu, reference.mu)


class TestSpmdRetry:
    def test_run_spmd_annotates_failing_rank(self):
        def fn(comm):
            if comm.rank == 1:
                raise InjectedFault("rank_kill", rank=comm.rank)
            comm.barrier()

        with pytest.raises(InjectedFault) as info:
            run_spmd(2, fn)
        assert info.value.simmpi_rank == 1

    def test_run_spmd_resilient_retries_with_fresh_args(self):
        plan = FaultPlan([Fault(kind="rank_kill", step=0, rank=0)], seed=SEED)
        attempts_seen = []

        def fn(comm, attempt):
            fault = plan.fires("rank_kill", step=0, rank=comm.rank)
            if fault is not None:
                raise InjectedFault("rank_kill", rank=comm.rank)
            return (comm.rank, attempt)

        def make_args(attempt, last_exc):
            attempts_seen.append((attempt, type(last_exc).__name__))
            return (attempt,), {}

        results = run_spmd_resilient(2, fn, make_args, max_attempts=3)
        assert results == [(0, 1), (1, 1)]
        assert attempts_seen[0] == (0, "NoneType")
        assert attempts_seen[1][1] in ("InjectedFault", "RemoteError")

    def test_run_spmd_resilient_exhausts(self):
        def fn(comm):
            raise RuntimeError("always broken")

        with pytest.raises(RuntimeError, match="always broken"):
            run_spmd_resilient(1, fn, lambda a, e: ((), {}), max_attempts=2)


class TestFaultyComm:
    def test_drop_raises_on_sender(self):
        plan = FaultPlan([Fault(kind="msg_drop", step=0, rank=0)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            if comm.rank == 0:
                fc.send(np.ones(3), dest=1, tag=9)
            else:
                return comm.recv(0, tag=9)

        with pytest.raises(InjectedFault, match="msg_drop"):
            run_spmd(2, fn)

    def test_corrupt_poisons_payload(self):
        plan = FaultPlan([Fault(kind="msg_corrupt", step=0, rank=0)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            if comm.rank == 0:
                fc.send(np.ones(6), dest=1, tag=9)
                return None
            return comm.recv(0, tag=9)

        results = run_spmd(2, fn)
        assert np.isnan(results[1]).any()
        assert not np.isnan(results[1]).all()

    # regression: message faults must hit every outgoing path, not just
    # blocking send — the overlap schedule uses isend, collectives carry
    # checkpoint entries and reductions

    def test_isend_drop_raises_on_sender(self):
        plan = FaultPlan([Fault(kind="msg_drop", step=0, rank=0)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            if comm.rank == 0:
                req = fc.isend(np.ones(3), dest=1, tag=9)
                req.wait()
            else:
                return comm.recv(0, tag=9)

        with pytest.raises(InjectedFault, match="msg_drop"):
            run_spmd(2, fn)

    def test_sendrecv_corrupts_outgoing_payload(self):
        plan = FaultPlan([Fault(kind="msg_corrupt", step=0, rank=0)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            other = 1 - comm.rank
            return fc.sendrecv(np.ones(6), dest=other, source=other, sendtag=9)

        results = run_spmd(2, fn)
        # rank 0's outgoing payload was poisoned, so rank 1 received NaNs;
        # rank 0 received rank 1's clean payload
        assert not np.isnan(results[0]).any()
        assert np.isnan(results[1]).any()

    def test_bcast_corrupts_at_root_only(self):
        plan = FaultPlan([Fault(kind="msg_corrupt", step=0, rank=0)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            obj = np.ones(6) if comm.rank == 0 else None
            return fc.bcast(obj, root=0)

        results = run_spmd(3, fn)
        for received in results:
            assert np.isnan(received).any()

    def test_allreduce_drop_raises(self):
        plan = FaultPlan([Fault(kind="msg_drop", step=0, rank=1)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            return fc.allreduce(np.ones(3))

        with pytest.raises(InjectedFault, match="msg_drop"):
            run_spmd(2, fn)

    def test_gather_corrupts_contribution(self):
        plan = FaultPlan([Fault(kind="msg_corrupt", step=0, rank=1)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            return fc.gather(np.ones(6), root=0)

        results = run_spmd(2, fn)
        gathered = results[0]
        assert not np.isnan(gathered[0]).any()
        assert np.isnan(gathered[1]).any()


def _channel_pair(comm, plan):
    """A FaultyComm and its send/receive halo channel towards the peer."""
    fc = FaultyComm(comm, plan)
    peer = 1 - comm.rank
    return fc, fc.register_halo(peer, 0, 6), fc.accept_halo(peer, 0)


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestFaultyHaloChannel:
    """Message faults act on halo-channel notifies, the ghost transport."""

    def test_drop_raises_at_notify(self, backend):
        plan = FaultPlan([Fault(kind="msg_drop", step=0, rank=0)], seed=SEED)

        def fn(comm, plan):
            _fc, send, recv = _channel_pair(comm, plan)
            if comm.rank == 0:
                send.slot()[:] = 1.0
                send.notify(6)
                return None
            return recv.wait().copy()

        with pytest.raises(InjectedFault, match="msg_drop"):
            run_spmd(2, fn, plan, backend=backend)
        assert [f.kind for f, _, _ in plan.fired()] == ["msg_drop"]

    def test_corrupt_reaches_receiver_ghosts_only(self, backend):
        """Every third packed element of rank 0's first ghost round
        arrives as NaN in rank 1's ghost slab; rank 0's own field and
        rank 1's interior stay finite."""
        plan = FaultPlan([Fault(kind="msg_corrupt", step=0, rank=0)],
                         seed=SEED)
        forest = BlockForest((8, 6), (2, 1), (True, False))
        spec = BoundarySpec.directional(2, bottom=Neumann(), top=Neumann())

        def fn(comm, plan):
            arr = np.zeros((2, 6, 8))
            arr[:, 1:-1, 1:-1] = 1.0 + comm.rank
            exchange_block_ghosts(FaultyComm(comm, plan), forest, [0, 1],
                                  {comm.rank: arr}, 2, spec)
            return arr

        clean, hit = run_spmd(2, fn, plan, backend=backend)
        assert np.isfinite(clean).all()
        assert np.isfinite(hit[:, 1:-1, 1:-1]).all()
        # the two x-ghost slabs, packed over the full ghosted z extent
        corrupt = [s for s in (hit[:, 0, :], hit[:, -1, :])
                   if np.isnan(s).any()]
        assert len(corrupt) == 1
        pattern = (np.arange(corrupt[0].size) % 3 == 0).reshape(
            corrupt[0].shape
        )
        # the z boundary handler later rewrites the slab's two corners
        np.testing.assert_array_equal(np.isnan(corrupt[0])[:, 1:-1],
                                      pattern[:, 1:-1])
        assert [f.kind for f, _, _ in plan.fired()] == ["msg_corrupt"]

    def test_delayed_notify_stays_in_order(self, backend):
        """A late notify does not stall its sender, and a second notify
        issued right after it on the same channel does not overtake it
        (the receiver's sequence check would raise "lockstep")."""
        plan = FaultPlan([Fault(kind="msg_delay", step=0, rank=0,
                                delay=0.4)], seed=SEED)

        def fn(comm, plan):
            fc, send, recv = _channel_pair(comm, plan)
            if comm.rank == 0:
                t0 = _time.monotonic()
                send.slot()[:] = 1.0
                send.notify(6)
                returned_after = _time.monotonic() - t0
                send.slot()[:] = 2.0
                send.notify(6)
                fc.drain()
                return returned_after
            return recv.wait().copy(), recv.wait().copy()

        lag, (first, second) = run_spmd(2, fn, plan, backend=backend)
        assert lag < 0.3  # the first notify returned without the delay
        np.testing.assert_array_equal(first, np.full(6, 1.0))
        np.testing.assert_array_equal(second, np.full(6, 2.0))
        assert [f.kind for f, _, _ in plan.fired()] == ["msg_delay"]


class TestElasticCampaign:
    """kill_rank shrinks the campaign; checkpoint I/O faults are retried."""

    def _sim(self):
        system = TernaryEutecticSystem()
        phi0, mu0 = voronoi_initial_condition(
            system, SHAPE, solid_height=7, n_seeds=4
        )
        phi0 = smooth_phase_field(phi0, 2)
        dsim = DistributedSimulation(
            SHAPE, (2, 2), system=system, kernel="buffered"
        )
        return dsim, phi0, mu0

    def test_kill_rank_shrinks_and_finishes(self, tmp_path):
        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan([Fault(kind="kill_rank", step=3, rank=1)], seed=SEED)
        print(plan.describe())
        store = ShardedCheckpointStore(tmp_path, fault_plan=plan)
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
        )
        assert result.steps == STEPS
        assert result.shrinks == 1
        assert result.final_ranks == 3
        assert result.restarts == 1
        ref = dsim.run(STEPS, phi0, mu0)
        np.testing.assert_allclose(result.phi, ref.phi, atol=1e-5)

    def test_repeated_kills_shrink_to_one_rank(self, tmp_path):
        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan(
            [Fault(kind="kill_rank", step=3, rank=1),
             Fault(kind="kill_rank", step=5, rank=2),
             Fault(kind="kill_rank", step=6, rank=1)],
            seed=SEED,
        )
        print(plan.describe())
        store = ShardedCheckpointStore(tmp_path, fault_plan=plan)
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
        )
        assert result.steps == STEPS
        assert result.shrinks == 3
        assert result.final_ranks == 1
        ref = dsim.run(STEPS, phi0, mu0)
        np.testing.assert_allclose(result.phi, ref.phi, atol=1e-5)

    def test_transient_io_faults_retried_without_restart(self, tmp_path):
        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan(
            [Fault(kind="io_enospc", step=2, rank=1),
             Fault(kind="io_torn_write", step=2, rank=3)],
            seed=SEED,
        )
        print(plan.describe())
        store = ShardedCheckpointStore(
            tmp_path, fault_plan=plan,
            retry_policy=RetryPolicy(attempts=4, base_delay=1e-4),
        )
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
        )
        assert result.restarts == 0
        assert result.io_retries >= 2
        assert result.checkpoints_skipped == 0
        ref = dsim.run(STEPS, phi0, mu0)
        np.testing.assert_array_equal(result.phi, ref.phi)

    def test_persistent_io_outage_skips_checkpoint_never_crashes(
        self, tmp_path
    ):
        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan(
            [Fault(kind="io_enospc", step=2, rank=1) for _ in range(8)],
            seed=SEED,
        )
        print(plan.describe())
        store = ShardedCheckpointStore(
            tmp_path, fault_plan=plan,
            retry_policy=RetryPolicy(attempts=3, base_delay=1e-4),
        )
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
        )
        assert result.restarts == 0
        assert result.checkpoints_skipped == 1
        assert 2 not in store.steps()  # the outage generation was skipped
        assert store.steps()[-1] == STEPS
        ref = dsim.run(STEPS, phi0, mu0)
        np.testing.assert_array_equal(result.phi, ref.phi)

    def test_rank_slow_below_hang_threshold_is_harmless(self, tmp_path):
        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan([Fault(kind="rank_slow", step=3, rank=1,
                                delay=0.2)], seed=SEED)
        print(plan.describe())
        store = ShardedCheckpointStore(tmp_path, fault_plan=plan)
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
        )
        assert result.restarts == 0
        assert result.shrinks == 0
        assert len(result.faults_fired) == 1
        ref = dsim.run(STEPS, phi0, mu0)
        np.testing.assert_array_equal(result.phi, ref.phi)
        np.testing.assert_array_equal(result.mu, ref.mu)

    @pytest.mark.hangs
    @pytest.mark.timeout(120)
    def test_rank_stall_contained_by_recv_deadline(
        self, tmp_path, monkeypatch
    ):
        """A hung (not crashed) rank would deadlock the campaign forever;
        with deadlines armed the peers' recv timeout converts the hang
        into a RankFailure, the campaign shrinks 4 -> 3 and finishes."""
        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT", "2.0")
        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan([Fault(kind="rank_stall", step=3, rank=1,
                                delay=30.0)], seed=SEED)
        print(plan.describe())
        store = ShardedCheckpointStore(tmp_path, fault_plan=plan)
        t0 = _time.monotonic()
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
        )
        # contained well within the stall's 30 s safety cap
        assert _time.monotonic() - t0 < 25
        assert result.steps == STEPS
        assert result.shrinks == 1
        assert result.final_ranks == 3
        assert result.restarts == 1
        ref = dsim.run(STEPS, phi0, mu0)
        np.testing.assert_allclose(result.phi, ref.phi, atol=1e-5)

    def test_elastic_telemetry_and_report(self, tmp_path):
        import json

        from repro.telemetry import RunTelemetry
        from repro.telemetry.report import validate_run_report

        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan(
            [Fault(kind="kill_rank", step=3, rank=1),
             Fault(kind="io_enospc", step=2, rank=0)],
            seed=SEED,
        )
        print(plan.describe())
        store = ShardedCheckpointStore(
            tmp_path / "ck", fault_plan=plan,
            retry_policy=RetryPolicy(attempts=4, base_delay=1e-4),
        )
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
            telemetry=RunTelemetry(directory=tmp_path / "tel", run_id="el"),
        )
        validate_run_report(result.report)
        elastic = result.report["elastic"]
        assert elastic["rank_failures"] == 1
        assert elastic["shrinks"] == 1
        assert elastic["final_ranks"] == 3
        assert elastic["io_retries"] >= 1
        assert elastic["checkpoints_skipped"] == 0

        merged = (tmp_path / "tel" / "events-merged.jsonl").read_text()
        kinds = [json.loads(line)["kind"] for line in merged.splitlines()]
        for kind in ("rank_failed", "comm_shrunk", "reshard", "io_retry",
                     "checkpoint"):
            assert kind in kinds, f"missing {kind} event"
