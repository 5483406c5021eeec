"""Repository benchmark: steady-state MLUP/s, setup and I/O on three
paper-shaped workloads, with a layer budget measured from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload proc2-liquid20 --seed 3 \\
        --seconds 20 --trace 0

Workloads are defined in ``workloads.py``; ``BENCHMARK.json`` gives the
reason for each and the metric names and units, which are read from it.  Every repetition of
a workload, and every layer probe, runs in its own fresh interpreter
(``worker.py``) under a wall-clock cap; a timeout counts as a failed
operation.  Known defect behind that isolation: once a parent process has
run an OpenMP compiled kernel, a later ``backend="process"`` run hangs
forever (the ranks sit at 0% CPU and outlive a killed parent); it does not
happen with ``OMP_NUM_THREADS=1`` or the ``buffered`` rung.  After every
task the leftover processes of its process group are killed and reaped and
orphaned ``/dev/shm/repro-smm-*`` segments are removed.

``--trace 0`` prints the end-to-end metrics (medians over the
repetitions that fit in ``--seconds``):

``run_s``        wall time of one full run (time to solution)
``setup_s``      fixed cost before the first step: ``Simulation``
                 construction + ``initialize``; for a distributed run
                 construction + the same ``run`` call with ``steps=0``
                 (each repetition sets up at least three times and for at
                 least 0.25 s, after its imports, and keeps the median)
``step_mlups``   steady-state cell updates per second, setup excluded (on
                 campaign-io: cells x steps / campaign wall time)
``peak_rss_mb``  peak RSS of the largest process among the worker and its
                 rank processes (a forked rank's RSS already holds the
                 pages it shares with the worker, so they are not added)

``error_rate`` (failed / attempted operations; a raise, timeout, failed
output check, compiled->NumPy fallback or inline-transport degradation is
a failure) is the ``failed``/``attempted`` pair of the result line.

``--trace 1`` runs untraced repetitions, three traced ones (spans from
``spans.py``; the budget uses the one with the median ``run_s``) and the
layer probes, then prints the budget table and the per-layer metrics.
Layer metrics a workload does not exercise read 0 (no mesh stage outside
campaign-io, no comm on serial-interface40).  The last stdout line is
always the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import PREDICTIONS, RUNG, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Everything after priming must end within this many seconds (one
#: invocation has 180 s, priming a warm checkout takes about one).
DEADLINE_S = 165.0
#: The first task in a fresh checkout compiles the kernels.
PRIME_CAP_S = 600.0
TASK_CAP_S = 45.0
MIN_REPS = 3
MAX_REPS = 40
TRACED_REPS = 3

DEGRADATIONS = {
    "falling back to the NumPy": "compiled->NumPy fallback",
    "transport degraded to inline": "transport switched to inline mode",
}

_SEGMENT = re.compile(r"^repro-smm-(\d+)-")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def sweep_segments() -> None:
    """Unlink shared-memory segments whose owning process is gone."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return
    for name in names:
        m = _SEGMENT.match(name)
        if m and not _pid_alive(int(m.group(1))):
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass


def reap_group(pgid: int) -> None:
    """Kill what is left of a task's process group and wait for it.

    The benchmark is a child subreaper, so ranks orphaned by a killed
    worker are re-parented here and can be waited for.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    end = time.monotonic() + 5.0
    while time.monotonic() < end:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def become_subreaper() -> None:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


class TaskRunner:
    """Runs worker tasks and keeps the operation tally."""

    def __init__(self, args, root: Path) -> None:
        self.args = args
        self.root = root
        self.wl = WORKLOADS[args.workload]
        self.t_start = None
        self.work = root / ".bench_work" / str(os.getpid())
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self._n = 0
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env["TMPDIR"] = str(self.work)
        self.env["PYTHONWARNINGS"] = "default::RuntimeWarning"

    def start_clock(self) -> None:
        """Start the invocation deadline (after priming)."""
        self.t_start = time.monotonic()

    def remaining(self) -> float:
        if self.t_start is None:  # still priming
            return PRIME_CAP_S
        return DEADLINE_S - (time.monotonic() - self.t_start)

    def run(self, task: str, *, cap: float = TASK_CAP_S, seconds=None,
            traced: bool = False, env=None, check=None) -> dict | None:
        """Run one task; ``None`` when it failed to produce a result."""
        self._n += 1
        self.attempted += 1
        out = self.work / f"{task}-{self._n}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--task", task,
            "--workload", self.wl.name, "--seed", str(self.args.seed),
            "--seconds", str(seconds if seconds is not None else 1.0),
            "--traced", str(int(traced)), "--tag", str(self._n),
            "--work", str(self.work), "--out", str(out),
        ]
        cap = min(cap, self.remaining())
        problems: list[str] = []
        result = None
        if cap <= 1.0:
            problems.append(f"{task}: no time left before the deadline")
        else:
            proc = subprocess.Popen(
                cmd, cwd=self.root, env={**self.env, **(env or {})},
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                start_new_session=True,
            )
            try:
                _, err = proc.communicate(timeout=cap)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                _, err = proc.communicate()
                problems.append(f"{task}: timed out after {cap:.0f} s")
            reap_group(proc.pid)
            sweep_segments()
            text = err.decode(errors="replace")
            for marker, what in DEGRADATIONS.items():
                if marker in text:
                    problems.append(f"{task}: {what}")
            if proc.returncode != 0 and not problems:
                tail = text.strip().splitlines()[-1:] or [""]
                problems.append(f"{task}: exit {proc.returncode}: {tail[0]}")
            if out.exists():
                result = json.loads(out.read_text())
                problems += [f"{task}: {p}" for p in result["problems"]]
                if check is not None:
                    problems += [f"{task}: {p}" for p in check(result)]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {p}", file=sys.stderr)
            return None
        return result

    def reps(self, budget_s: float, task: str = "rep",
             check=None) -> list[dict]:
        """Repetitions until *budget_s* is spent (at least MIN_REPS)."""
        out = []
        end = time.monotonic() + budget_s
        tries = 0
        while tries < MAX_REPS and (tries < MIN_REPS
                                    or time.monotonic() < end):
            tries += 1
            r = self.run(task, check=check)
            if r is not None:
                out.append(r)
        return out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def digest_check(what: str, expected: str | None = None):
    """Every result must carry the bitwise digest *expected* (the first
    result's, when ``None``)."""

    def check(result: dict) -> list[str]:
        nonlocal expected
        if expected is None:
            expected = result["digest"]
        if result["digest"] != expected:
            return [f"result not bitwise equal to the {what}"]
        return []

    return check


def run_reps(s: TaskRunner, budget_s: float) -> list[dict]:
    """Reference (untimed) plus measured repetitions with output checks."""
    wl = s.wl
    if wl.kind == "serial":
        return s.reps(budget_s, check=digest_check("first repetition"))
    ref = s.run("reference")
    if wl.kind == "distributed":
        return s.reps(budget_s, check=digest_check(
            "single-rank Simulation", ref["digest"] if ref else "missing"))

    same = digest_check("first repetition")

    def campaign_check(result: dict) -> list[str]:
        if "dphi" not in result:
            return ["no unfaulted reference to compare with"]
        return same(result)

    return s.reps(budget_s, check=campaign_check)


def end_to_end(wl, reps: list[dict]) -> dict:
    return {
        "run_s": median(r["run_s"] for r in reps),
        "setup_s": median(r["setup_s"] for r in reps),
        "step_mlups": median(wl.cells / r["step_s"] / 1e6 for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }


def as_metrics(kind: str, values: dict) -> dict:
    """The ``BENCHMARK.json`` metrics of *kind* with their units; a metric
    nothing measured (a failed task) is NaN."""
    return {m["name"]: {"value": values.get(m["name"], math.nan),
                        "unit": m["unit"]} for m in SPEC[kind]}


def per_layer(s: TaskRunner, budget_s: float) -> tuple[dict, dict]:
    """Per-layer metrics plus the data of the budget table."""
    wl = s.wl
    m: dict = {}
    build = s.run("build", cap=PRIME_CAP_S,
                  env={"REPRO_COMPILED_CACHE": str(s.work / "cold-cache")})
    m["kernels.build_s"] = build["kernels.build_s"] if build else 0.0

    reps = run_reps(s, budget_s / 2)
    base = reps
    nofault = []
    if wl.kind == "campaign":
        nofault = s.reps(0.0, task="rep-nofault")
    traced_reps = [r for r in (s.run("rep", traced=True)
                               for _ in range(TRACED_REPS)) if r]
    kernel = s.run("probe-kernel", seconds=budget_s / 10)
    comm = s.run("probe-comm", seconds=budget_s / 10)
    for probe in (kernel, comm):
        if probe is not None:
            m.update({k: v for k, v in probe.items() if k != "problems"})

    run_untraced = median(r["run_s"] for r in base)
    table = {"run_untraced": run_untraced, "layers": {}}
    if not traced_reps:
        return m, table
    # the budget comes from the traced repetition with the median run_s
    traced_reps.sort(key=lambda r: r["run_s"])
    traced = traced_reps[(len(traced_reps) - 1) // 2]
    tree = traced["spans"]
    run_traced = traced["run_s"]
    budget = spans.layer_budget(tree)
    layers = {layer: budget[layer] for layer in spans.LAYERS}
    for layer, sec in layers.items():
        m[f"budget.{layer}_s"] = sec
    m["budget.residual_s"] = run_traced - sum(layers.values())
    m["trace.overhead_frac"] = (
        median(r["run_s"] for r in traced_reps) / run_untraced - 1.0)
    m["kernels.share"] = layers["kernels"] / run_traced

    comm_wait, nbytes, nmsgs = 0.0, 0.0, 0.0
    if wl.kind == "distributed":
        comm_wait = traced["comm_wait_s"]
        nbytes, nmsgs = traced["bytes_per_step"], traced["msgs_per_step"]
    elif wl.kind == "campaign":
        # the chunks that finished; after the shrink that is one rank
        for span in spans.find(tree, "dsim.run"):
            stats = span["args"].get("stats")
            if stats:
                comm_wait += max(st[0] for st in stats)
                nbytes += sum(st[1] for st in stats) / span["args"]["steps"]
                nmsgs += sum(st[2] for st in stats) / span["args"]["steps"]
    m["distributed.comm_wait_s"] = comm_wait
    m["distributed.comm_share"] = comm_wait / run_traced
    m["distributed.bytes_per_step"] = nbytes
    m["distributed.msgs_per_step"] = nmsgs

    campaign = wl.kind == "campaign"
    m["io.checkpoints"] = traced.get("checkpoints_on_disk", 0)
    m["io.store_bytes"] = traced.get("store_bytes", 0)
    m["io.extract_ms"] = spans.longest(tree, "extract") * 1e3
    m["io.simplify_s"] = spans.total(tree, "simplify")
    m["io.reduction_s"] = spans.longest(tree, "reduction")
    m["io.faces_in"] = traced.get("faces_in", 0)
    m["io.faces_out"] = traced.get("faces_out", 0)
    m["io.reduction_ratio"] = (
        traced["faces_out"] / traced["faces_in"] if campaign else 0.0)
    m["io.mesh_share"] = traced["mesh_s"] / run_traced if campaign else 0.0
    m["resilience.restarts"] = traced.get("restarts", 0)
    m["resilience.shrinks"] = traced.get("shrinks", 0)
    m["resilience.recovery_s"] = (
        median(r["campaign_s"] for r in base)
        - median(r["campaign_s"] for r in nofault) if campaign else 0.0)
    table.update(
        run_traced=run_traced, layers=layers,
        residual=m["budget.residual_s"],
        overhead=m["trace.overhead_frac"],
        stages={k: traced[k] for k in ("campaign_s", "mesh_s")
                if k in traced},
        checkpoints_reported=traced.get("checkpoints_reported"),
        checkpoints_on_disk=traced.get("checkpoints_on_disk"),
    )
    return m, table


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of this machine so far (``/proc/stat``).

    Steal is time the hypervisor gave to other guests; when it is high,
    every timed metric of the run reads slower than the code is.
    """
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) == 8 else 0), sum(ticks)


def stamp(s: TaskRunner, backend: str | None) -> dict:
    """Resource budget every result is stamped with."""
    wl = s.wl
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": wl.name, "nproc": nproc, "ranks": wl.ranks,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "compiled_backend": backend or "none", "rung": RUNG,
        "halo": wl.halo,
    }


def print_budget_table(s: TaskRunner, table: dict, metrics: dict) -> None:
    wl = s.wl
    print(f"budget table: {wl.name}")
    run_traced = table.get("run_traced")
    for layer in spans.LAYERS:
        sec = table["layers"].get(layer)
        if sec is None:
            continue
        print(f"  {layer:<12} {sec:9.4f} s  {sec / run_traced:6.1%}")
    if run_traced is not None:
        print(f"  {'residual':<12} {table['residual']:9.4f} s  "
              f"{table['residual'] / run_traced:6.1%}")
        print(f"  run_s traced {run_traced:.4f} s, untraced "
              f"{table['run_untraced']:.4f} s, trace.overhead_frac "
              f"{table['overhead']:+.3f}")
    for stage, sec in table.get("stages", {}).items():
        print(f"  stage {stage[:-2]:<8} {sec:9.4f} s  {sec / run_traced:6.1%}"
              " of run_s")
    if wl.kind == "campaign":
        print(f"  checkpoints: {table.get('checkpoints_on_disk')} manifests "
              f"in the store, CampaignResult.checkpoints_written reports "
              f"{table.get('checkpoints_reported')} (known defect: the "
              f"parent never sees publishes made by rank processes)")
    print(f"  computed: kernels.flop_per_cell "
          f"{metrics.get('kernels.flop_per_cell', 0):.0f} flop from the "
          "perf.kernel_analysis cost model; kernels.gflops "
          f"{metrics.get('kernels.gflops', 0):.3f} GFLOP/s = that count "
          "times the measured kernel rates")
    pred = PREDICTIONS[wl.name]
    for metric, targets in pred["moves"].items():
        value = metrics.get(metric)
        shown = f"{value:.4g}" if isinstance(value, (int, float)) else "-"
        print(f"  predicted: {metric} ({shown}) moves {', '.join(targets)}")
    print(f"  predicted to move nothing here: {', '.join(pred['no_move'])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro missing)",
              file=sys.stderr)
        return 2

    become_subreaper()
    s = TaskRunner(args, root)
    try:
        prime = s.run("prime", cap=PRIME_CAP_S)
        s.start_clock()
        info = stamp(s, prime["backend"] if prime else None)
        print("resource budget: " + json.dumps(info))
        steal0, total0 = cpu_ticks()
        if args.trace:
            values, table = per_layer(s, args.seconds)
            metrics = as_metrics("per_layer", values)
            print_budget_table(s, table, values)
        else:
            reps = run_reps(s, args.seconds)
            metrics = as_metrics("end_to_end", end_to_end(s.wl, reps))
            print(f"repetitions: {len(reps)}")
        steal1, total1 = cpu_ticks()
        print(f"host steal: {(steal1 - steal0) / max(1, total1 - total0):.1%}"
              " of CPU time while measuring")
        error_rate = s.failed / s.attempted
        print(f"error_rate: {error_rate:.4f} ({s.failed} of {s.attempted} "
              f"operations failed)")
    finally:
        s.close()
        sweep_segments()
    for entry in metrics.values():  # a metric nothing measured is null
        if not math.isfinite(entry["value"]):
            entry["value"] = None
    print(json.dumps({
        "correct": s.failed == 0, "attempted": s.attempted,
        "failed": s.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
