"""One benchmark task in a fresh interpreter.

``run.py`` starts this script once per repetition and once per layer
probe, each under a wall-clock cap, because a process-backend run hangs
once its parent has run an OpenMP compiled kernel (see ``run.py``).  The
task writes one JSON object to ``--out``; a list ``problems`` in it
names every failed output check or silent degradation.

Tasks
-----
``prime``         load (and on first use build) the compiled kernels
``build``         cold build into the empty cache ``REPRO_COMPILED_CACHE``
``reference``     untimed reference result of the workload
``rep``           one full run of the workload (``--traced 1`` records spans)
``rep-nofault``   campaign-io without its fault (recovery baseline)
``probe-kernel``  phi/mu kernel rates, warmup and boundary fill on one block
``probe-comm``    spawn, registration, exchange round, scatter/gather and
                  sharded-checkpoint I/O on the workload's decomposition
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# Imported before any timer starts, so setup_s never pays module imports.
from repro import Simulation
from repro.distributed.solver import DistributedSimulation

import spans
from workloads import (
    CHECKPOINT_EVERY,
    RUNG,
    WORKLOADS,
    digest,
    field_check,
    make_fault_plan,
    make_inputs,
)

pc = time.perf_counter

#: campaign-io tolerances against its unfaulted run.  The restart state is
#: stored in float32 (relative rounding 6e-8), so phi, bounded by 1, keeps
#: 1e-7; mu (|mu| up to ~1.3) drifts to a few 1e-7 over the resumed steps.
PHI_ATOL = 1e-7
MU_ATOL = 1e-6

#: Each repetition sets up at least three times and for at least this
#: long; setup_s is the median (the first setup is cold).  A serial setup
#: takes milliseconds, so it gets enough samples to ride out a preemption.
SETUP_BUDGET_S = 0.25

#: Coarsening ratios of campaign-io's mesh stage (local, then per merge).
MESH_LOCAL_RATIO = 0.5
MESH_MERGE_RATIO = 0.7


def peak_rss_mb() -> float:
    """Peak RSS of the largest process among this interpreter and its rank
    processes.  A forked rank's RSS already holds the pages it shares with
    this interpreter, so the two are not added."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _bc():
    from repro.grid.boundary import BoundarySpec, Dirichlet, Neumann

    return (BoundarySpec.directional(3),
            BoundarySpec.directional(3, bottom=Neumann(), top=Dirichlet(0.0)))


def _decomposition(wl):
    from repro.grid.balance import assign_blocks
    from repro.grid.blockforest import BlockForest

    forest = BlockForest(wl.shape, wl.blocks, (True, True, False))
    return forest, assign_blocks(forest, wl.ranks, "contiguous")


def _block(arr, b):
    sl = (slice(None),) + tuple(slice(o, o + s)
                                for o, s in zip(b.offset, b.shape))
    return np.ascontiguousarray(arr[sl])


def _dsim(wl, system, params):
    return DistributedSimulation(
        wl.shape, wl.blocks, system=system, params=params, kernel=RUNG,
        overlap=wl.overlap, n_ranks=wl.ranks, backend="process",
    )


# --------------------------------------------------------------------------
# tracing hooks
# --------------------------------------------------------------------------

def install_tracing(spool: Path) -> None:
    """Wrap the public entry points of every layer (see spans.py)."""
    import repro.core.solver as core_solver
    import repro.distributed.solver as dsolver
    import repro.io.marching_cubes as mc
    import repro.io.reduction as reduction
    import repro.resilience.campaign as campaign
    import repro.resilience.store as store
    from repro.core.kernels import compiled
    from repro.simmpi import runtime

    for mod in (core_solver, dsolver):
        spans.patch_factory(mod, "get_phi_kernel", "phi_kernel", "kernels")
        spans.patch_factory(mod, "get_mu_kernel", "mu_kernel", "kernels")
    spans.patch_factory(dsolver, "get_split_mu_kernel", "mu_split",
                        "kernels")
    spans.patch(compiled, "warmup", "warmup", "kernels")
    spans.patch(core_solver, "apply_boundaries", "apply_boundaries", "grid")
    spans.patch(dsolver, "exchange_block_ghosts", "exchange", "distributed")
    spans.patch(dsolver, "BlockHaloRegistry", "register", "distributed")
    spans.patch(
        dsolver.DistributedSimulation, "run", "dsim.run", "distributed",
        note=lambda res, dsim, steps, *a, **k: {"steps": steps, "stats": [
            [s.comm_phi_seconds + s.comm_mu_seconds, s.comm_bytes,
             s.comm_messages] for s in res.stats
        ]},
    )
    dsolver.run_spmd = spans.spmd(runtime.run_spmd, spool, "distributed")
    spans.patch(campaign, "run_campaign", "run_campaign", "resilience")
    for meth in ("write_rank_shard", "publish_manifest", "save_global",
                 "load_latest"):
        spans.patch(store.ShardedCheckpointStore, meth, meth, "resilience")
    for fn in ("write_shard", "write_manifest", "load_sharded", "reshard"):
        spans.patch(store, fn, fn, "io")
    spans.patch(mc, "extract_isosurface", "extract", "io")
    spans.patch(reduction, "hierarchical_mesh_reduction", "reduction", "io")
    spans.patch(reduction, "simplify_mesh", "simplify", "io")


# --------------------------------------------------------------------------
# workload repetitions
# --------------------------------------------------------------------------

def rep_serial(wl, seed, args, measured) -> dict:
    phi0, mu0, system, params = make_inputs(wl, seed)

    def setup():
        sim = Simulation(wl.shape, system=system, params=params,
                         kernel=RUNG)
        sim.initialize(phi0, mu0)
        return sim

    setup_s = _time_calls(setup, SETUP_BUDGET_S)
    with measured:
        t0 = pc()
        sim = setup()
        step_s = []
        for _ in range(wl.steps):
            a = pc()
            sim.step(1)
            step_s.append(pc() - a)
        t2 = pc()
    phi, mu = sim.phi.interior_src, sim.mu.interior_src
    problems = field_check(phi, mu)
    if sim.kernel_name != RUNG:
        problems.append(f"compiled->NumPy fallback to {sim.kernel_name}")
    return {
        "setup_s": setup_s, "run_s": t2 - t0,
        "step_s": statistics.median(step_s),
        "digest": digest(phi, mu), "problems": problems,
    }


def rep_distributed(wl, seed, args, measured) -> dict:
    phi0, mu0, system, params = make_inputs(wl, seed)
    setups = []
    setup_s = _time_calls(
        lambda: setups.append(_dsim(wl, system, params).run(0, phi0, mu0)),
        SETUP_BUDGET_S)
    res0 = setups[-1]

    with measured:
        t1 = pc()
        dsim = _dsim(wl, system, params)
        res = dsim.run(wl.steps, phi0, mu0)
        run_s = pc() - t1

    problems = field_check(res.phi, res.mu)
    if dsim.kernel != RUNG:
        problems.append(f"compiled->NumPy fallback to {dsim.kernel}")
    stats = [(s.comm_bytes, s.comm_messages) for s in res.stats]
    stats0 = [(s.comm_bytes, s.comm_messages) for s in res0.stats]
    comm_wait = max(s.comm_phi_seconds + s.comm_mu_seconds
                    for s in res.stats)
    return {
        "setup_s": setup_s, "run_s": run_s,
        # the run's own setup is the same call as run(0)
        "step_s": (run_s - setup_s) / wl.steps,
        "digest": digest(res.phi, res.mu), "problems": problems,
        # run(steps) minus run(0): the initial exchanges cancel exactly
        "bytes_per_step": (sum(b for b, _ in stats)
                           - sum(b for b, _ in stats0)) / wl.steps,
        "msgs_per_step": (sum(m for _, m in stats)
                          - sum(m for _, m in stats0)) / wl.steps,
        "comm_wait_s": comm_wait,
    }


def mesh_rank(comm, phi, liquid, wl):
    """Liquid-phase surface of this rank's x-slab, then the reduction.

    The front spans x, so every rank meshes a share of it and the
    reduction stitches a real seam; one overlap layer past the slab keeps
    the local meshes stitchable.
    """
    import repro.io.marching_cubes as mc
    import repro.io.reduction as reduction

    nx = wl.shape[0]
    per = nx // comm.size
    lo = comm.rank * per
    hi = min(lo + per + 1, nx)
    local = mc.extract_isosurface(phi[liquid, lo:hi], 0.5,
                                  origin=(float(lo), 0.0, 0.0))
    reduced = reduction.hierarchical_mesh_reduction(
        comm, local,
        reduction.ReductionLimits(local_ratio=MESH_LOCAL_RATIO,
                                  merge_ratio=MESH_MERGE_RATIO),
    )
    if reduced is None:
        return local.n_faces, None
    finite = bool(np.isfinite(reduced.vertices).all())
    return local.n_faces, (reduced.n_faces, finite)


def rep_campaign(wl, seed, args, measured, *, fault: bool = True) -> dict:
    import repro.resilience.campaign as campaign
    from repro.resilience import FaultPlan, ShardedCheckpointStore

    phi0, mu0, system, params = make_inputs(wl, seed)
    work = Path(args.work)
    plan = (lambda: make_fault_plan(seed)) if fault else (
        lambda: FaultPlan([], seed=seed))

    # setup: the campaign's chunk call with steps=0
    setup_s = _time_calls(lambda: _dsim(wl, system, params).run(
        0, phi0, mu0, fault_plan=plan(), guard=True), SETUP_BUDGET_S)

    store_dir = work / f"store-{args.task}-{args.tag}"
    shutil.rmtree(store_dir, ignore_errors=True)
    with measured:
        t1 = pc()
        dsim = _dsim(wl, system, params)
        store = ShardedCheckpointStore(store_dir, keep=64)
        res = campaign.run_campaign(
            dsim, wl.steps, phi0, mu0, store=store,
            checkpoint_every=CHECKPOINT_EVERY, fault_plan=plan(), guard=True,
        )
        t2 = pc()
        meshes = measured.launch(wl.ranks, mesh_rank, res.phi,
                             system.liquid_index, wl, backend="process")
        t3 = pc()

    problems = field_check(res.phi, res.mu)
    if dsim.kernel != RUNG:
        problems.append(f"compiled->NumPy fallback to {dsim.kernel}")
    faces_in = sum(m[0] for m in meshes)
    faces_out, finite = meshes[0][1]
    if faces_out == 0 or not finite:
        problems.append(f"bad reduced mesh: {faces_out} faces, "
                        f"finite={finite}")
    expected_shrinks = 1 if fault else 0
    if res.shrinks != expected_shrinks:
        problems.append(f"{res.shrinks} shrinks, expected "
                        f"{expected_shrinks}")
    out = {
        "setup_s": setup_s, "run_s": t3 - t1,
        "campaign_s": t2 - t1, "mesh_s": t3 - t2,
        "step_s": (t2 - t1) / wl.steps,
        "problems": problems, "digest": digest(res.phi, res.mu),
        "restarts": res.restarts, "shrinks": res.shrinks,
        "checkpoints_reported": res.checkpoints_written,
        "checkpoints_on_disk": len(store.manifests()),
        "store_bytes": sum(p.stat().st_size for p in store.shards()),
        "faces_in": faces_in, "faces_out": faces_out,
    }
    ref = work / f"campaign-ref-{seed}.npz"
    if fault and ref.exists():
        with np.load(ref) as data:
            dphi = float(np.abs(res.phi - data["phi"]).max())
            dmu = float(np.abs(res.mu - data["mu"]).max())
        out.update(dphi=dphi, dmu=dmu)
        if not (dphi <= PHI_ATOL and dmu <= MU_ATOL):
            problems.append(
                f"faulted run differs from unfaulted: |dphi|={dphi:.3g} "
                f"(tol {PHI_ATOL}), |dmu|={dmu:.3g} (tol {MU_ATOL})"
            )
    shutil.rmtree(store_dir, ignore_errors=True)
    return out


class MeasuredRun:
    """Context of the measured run: records it under one ``run`` span
    when traced, and carries the mesh stage's ``run_spmd``."""

    def __init__(self, traced: bool, spool: Path) -> None:
        from repro.simmpi import run_spmd

        self.traced = traced
        self.launch = run_spmd
        self.spans = None
        if traced:
            spool.mkdir(parents=True, exist_ok=True)
            install_tracing(spool)
            self.launch = spans.spmd(run_spmd, spool, None)

    def __enter__(self):
        if self.traced:
            self._rec = spans.start()
            self._span = self._rec.begin("run", None)
        return self

    def __exit__(self, *exc):
        if self.traced:
            self._rec.end(self._span)
            self.spans = self._rec.spans
            spans.stop()
        return False


def task_rep(wl, args, *, fault: bool = True) -> dict:
    measured = MeasuredRun(bool(args.traced),
                           Path(args.work) / f"spool-{args.tag}")
    if wl.kind == "campaign":
        out = rep_campaign(wl, args.seed, args, measured, fault=fault)
    else:
        runner = rep_serial if wl.kind == "serial" else rep_distributed
        out = runner(wl, args.seed, args, measured)
    out["peak_rss_mb"] = peak_rss_mb()
    if measured.spans is not None:
        out["spans"] = measured.spans
    return out


# --------------------------------------------------------------------------
# references and probes
# --------------------------------------------------------------------------

def task_reference(wl, args) -> dict:
    """Bitwise digest of the single-rank ``Simulation`` (proc2-liquid20),
    or the unfaulted campaign's fields saved for campaign-io's check."""
    if wl.kind == "distributed":
        phi0, mu0, system, params = make_inputs(wl, args.seed)
        sim = Simulation(wl.shape, system=system, params=params, kernel=RUNG)
        sim.initialize(phi0, mu0)
        sim.step(wl.steps)
        problems = [] if sim.kernel_name == RUNG else [
            f"compiled->NumPy fallback to {sim.kernel_name}"]
        return {"digest": digest(sim.phi.interior_src, sim.mu.interior_src),
                "problems": problems}

    import repro.resilience.campaign as campaign
    from repro.resilience import FaultPlan, ShardedCheckpointStore

    phi0, mu0, system, params = make_inputs(wl, args.seed)
    store_dir = Path(args.work) / f"store-ref-{args.tag}"
    dsim = _dsim(wl, system, params)
    res = campaign.run_campaign(
        dsim, wl.steps, phi0, mu0,
        store=ShardedCheckpointStore(store_dir, keep=64),
        checkpoint_every=CHECKPOINT_EVERY,
        fault_plan=FaultPlan([], seed=args.seed), guard=True,
    )
    shutil.rmtree(store_dir, ignore_errors=True)
    np.savez(Path(args.work) / f"campaign-ref-{args.seed}.npz",
             phi=res.phi, mu=res.mu)
    return {"problems": field_check(res.phi, res.mu)}


def _time_calls(fn, budget_s: float) -> float:
    """Median seconds of *fn()* over *budget_s* (at least three calls)."""
    times = []
    end = pc() + budget_s
    while len(times) < 3 or pc() < end:
        a = pc()
        fn()
        times.append(pc() - a)
    return statistics.median(times)


def task_probe_kernel(wl, args) -> dict:
    from repro.core.kernels import (
        compiled,
        get_mu_kernel,
        get_phi_kernel,
        make_context,
    )
    from repro.perf.kernel_analysis import mu_kernel_cost, phi_kernel_cost

    phi0, mu0, system, params = make_inputs(wl, args.seed)
    ctx = make_context(system, params)
    t0 = pc()
    compiled.warmup(ctx, dim=3)
    warmup_s = pc() - t0

    forest, _owner = _decomposition(wl)
    b = forest.blocks[0]
    sim = Simulation(b.shape, system=system, params=params, kernel=RUNG)
    sim.initialize(_block(phi0, b), _block(mu0, b))
    nz = b.shape[-1]
    t_old = sim.temperature.at_time(0.0, nz + 2, b.offset[-1] - 1)
    t_new = sim.temperature.at_time(params.dt, nz + 2, b.offset[-1] - 1)
    phi_k, mu_k = get_phi_kernel(RUNG), get_mu_kernel(RUNG)
    sim.phi.interior_dst[...] = phi_k(sim.ctx, sim.phi.src, sim.mu.src, t_old)
    sim.apply_boundaries("dst")

    budget = max(0.5, args.seconds)
    t_phi = _time_calls(
        lambda: phi_k(sim.ctx, sim.phi.src, sim.mu.src, t_old), budget)
    t_mu = _time_calls(
        lambda: mu_k(sim.ctx, sim.mu.src, sim.phi.src, sim.phi.dst,
                     t_old, t_new), budget)
    t_bc = _time_calls(lambda: sim.apply_boundaries("src"), budget / 4)
    cells = int(np.prod(b.shape))
    flop = (phi_kernel_cost(system.n_phases, system.n_solutes, 3).flops
            + mu_kernel_cost(system.n_phases, system.n_solutes, 3).flops)
    problems = [] if sim.kernel_name == RUNG else [
        f"compiled->NumPy fallback to {sim.kernel_name}"]
    return {
        "kernels.phi_mlups": cells / t_phi / 1e6,
        "kernels.mu_mlups": cells / t_mu / 1e6,
        "kernels.flop_per_cell": flop,
        "kernels.gflops": flop * cells / (t_phi + t_mu) / 1e9,
        "kernels.warmup_s": warmup_s,
        "grid.boundary_ms": t_bc * 1e3,
        "problems": problems,
    }


def _noop(comm):
    return comm.rank


def comm_probe_rank(comm, wl, phi0, mu0, rounds: int, channels: bool):
    """Scatter/gather, registration and exchange rounds on one rank."""
    from repro.distributed.exchange import exchange_block_ghosts
    from repro.distributed.halo import BlockHaloRegistry
    from repro.grid.field import Field

    forest, owner = _decomposition(wl)
    phi_bc, mu_bc = _bc()
    owned = [b for b in forest.blocks if owner[b.id] == comm.rank]
    pieces = None
    if comm.rank == 0:
        pieces = [dict() for _ in range(comm.size)]
        for b in forest.blocks:
            pieces[owner[b.id]][b.id] = (_block(phi0, b), _block(mu0, b))

    sg = []
    for _ in range(rounds):
        comm.barrier()
        a = pc()
        mine = comm.scatter(pieces, root=0)
        comm.gather(mine, root=0)
        sg.append(pc() - a)

    alloc = comm.field_allocator()
    fields = ({}, {})  # phi and mu ghosted arrays by block id
    for b in owned:
        for i, n in enumerate((phi0.shape[0], mu0.shape[0])):
            f = Field(n, b.shape, allocator=alloc)
            f.set_interior(mine[b.id][i], "src")
            fields[i][b.id] = f.src

    # Registration is timed on every decomposition; the exchange rounds
    # use the channels only where the workload's run does.
    comm.barrier()
    a = pc()
    registry = BlockHaloRegistry(
        comm, forest, owner, 3,
        streams=[(phi0.shape[0], 1), (mu0.shape[0], 1)],
    )
    register_s = pc() - a
    halo = registry if channels else None

    def round_():
        exchange_block_ghosts(comm, forest, owner, fields[0], 3, phi_bc,
                              tag_base=5000, halo=halo)
        exchange_block_ghosts(comm, forest, owner, fields[1], 3, mu_bc,
                              tag_base=7000, halo=halo)

    for _ in range(2):
        round_()
    times, deltas = [], []
    for _ in range(rounds):
        comm.barrier()
        c0 = comm.transport_counters()
        a = pc()
        round_()
        times.append(pc() - a)
        c1 = comm.transport_counters()
        deltas.append({k: c1[k] - c0[k] for k in c0})
    return {
        "scatter_gather_s": statistics.median(sg),
        "register_s": register_s,
        "exchange_s": statistics.median(times),
        "counters": deltas[-1],
    }


def task_probe_comm(wl, args) -> dict:
    from repro.resilience import ShardedCheckpointStore
    from repro.simmpi import run_spmd

    phi0, mu0, _system, _params = make_inputs(wl, args.seed)
    spawn = []
    for _ in range(5):
        a = pc()
        run_spmd(2, _noop, backend="process")
        spawn.append(pc() - a)

    per_rank = run_spmd(wl.ranks, comm_probe_rank, wl, phi0, mu0, 20,
                        wl.halo != "legacy", backend="process")
    counters = {k: sum(r["counters"][k] for r in per_rank)
                for k in per_rank[0]["counters"]}

    # sharded checkpoint I/O on this workload's state and decomposition
    forest, owner = _decomposition(wl)
    store_dir = Path(args.work) / f"store-probe-{args.tag}"
    shutil.rmtree(store_dir, ignore_errors=True)
    store = ShardedCheckpointStore(store_dir, keep=64)
    blocks0 = {b.id: (_block(phi0, b), _block(mu0, b))
               for b in forest.blocks if owner[b.id] == 0}
    step = itertools.count(1)
    t_write = _time_calls(
        lambda: store.write_rank_shard(rank=0, step=next(step),
                                       blocks=blocks0),
        args.seconds / 2)
    shard_bytes = store.shard_for(1, 0).stat().st_size
    for p in store.shards():
        p.unlink()
    store.save_global(
        {"phi": phi0, "mu": mu0, "time": 0.0, "step_count": 1},
        forest=forest, owner=owner, n_ranks=wl.ranks,
    )
    t_load = _time_calls(
        lambda: store.load_resharded(max(1, wl.ranks - 1)),
        args.seconds / 2)
    shutil.rmtree(store_dir, ignore_errors=True)
    return {
        "simmpi.spawn_s": statistics.median(spawn),
        "simmpi.scatter_gather_ms": max(r["scatter_gather_s"]
                                        for r in per_rank) * 1e3,
        "simmpi.pipe_msgs_per_round": counters["pipe_messages"],
        "simmpi.acks_per_round": counters["acks"],
        "simmpi.segments_per_round": counters["segments_created"],
        "distributed.register_ms": max(r["register_s"]
                                       for r in per_rank) * 1e3,
        "distributed.exchange_ms": max(r["exchange_s"]
                                       for r in per_rank) * 1e3,
        "io.shard_write_ms": t_write * 1e3,
        "io.shard_mb_per_s": shard_bytes / t_write / 1e6,
        "io.reshard_load_ms": t_load * 1e3,
        "problems": [],
    }


def task_prime(wl, args) -> dict:
    from repro.core.kernels import compiled

    ok = compiled.available()
    out = {"backend": compiled.backend_name(), "problems": []}
    if not ok:
        out["problems"].append(
            f"no compiled backend: {compiled.unavailable_reason()}")
    return out


def task_build(wl, args) -> dict:
    """Cold build: the cache named by REPRO_COMPILED_CACHE is empty."""
    t0 = pc()
    from repro.core.kernels import compiled

    ok = compiled.available()
    return {"kernels.build_s": pc() - t0,
            "problems": [] if ok else ["compiled build failed"]}


TASKS = {
    "prime": task_prime,
    "build": task_build,
    "reference": task_reference,
    "rep": task_rep,
    "rep-nofault": lambda wl, args: task_rep(wl, args, fault=False),
    "probe-kernel": task_probe_kernel,
    "probe-comm": task_probe_comm,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--task", required=True, choices=sorted(TASKS))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--tag", default="0")
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = TASKS[args.task](WORKLOADS[args.workload], args)
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
