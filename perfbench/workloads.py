"""The four workloads and the metrics each reports.

``paper_grid``, ``pool_grid`` and ``lockstep_training`` run one
``repro`` CLI command per operation; ``served_remote`` drives a served
stack (:mod:`served`).  Every run either measures the end-to-end
metrics (tracing off) or, with ``trace``, runs an untraced phase and a
traced phase of equal length and reports the per-layer metrics, the
tracing overhead between the two, and checks that both phases produced
the same result bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import layers
import served
from harness import Processes, Tally, summarize

PYTHON = sys.executable
#: Fewest timed operations per phase, whatever the time budget.
MIN_OPS = 3
SETUP_REPS_SERVED = 3
REFERENCE_PROCESSES = 2
OP_TIMEOUT_S = 120.0
#: Largest share of the untraced ``wall_s`` a traced ``paper_grid`` run
#: may leave to no layer: the self time of the catch-all ``cli.main``
#: span (argument parsing and whatever no layer wraps) plus
#: ``trace.install`` (wrapping itself).  About 0.01 on a 2-vCPU Xeon VM;
#: dropping the executor layer's spans pushes it past the limit.
UNATTRIBUTED_SHARE_MAX = 0.03

# Run length knobs: the problem shapes are fixed by the workload
# definitions below; these only set how much work one operation does.
GRID_CIRCUITS = 32
TRAIN_RESTARTS = 4
TRAIN_ITERATIONS = 10
PAPER_METHOD_COUNT = 6  # len(repro.initializers.registry.PAPER_METHODS)


@dataclass
class Run:
    """One benchmark run: where it works, what it owns, what it counted."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    procs: Processes
    tally: Tally = field(default_factory=Tally)
    notes: List[str] = field(default_factory=list)

    @property
    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (
            ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env

    def launcher(self, trace_dir: Optional[Path] = None) -> List[str]:
        """Command prefix that runs the ``repro`` CLI, traced into ``trace_dir``."""
        if trace_dir is None:
            return [PYTHON, "-m", "repro"]
        return [PYTHON, str(self.root / "perfbench" / "tracer.py"), str(trace_dir)]


def sha256(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


# -- CLI workloads ---------------------------------------------------------


@dataclass(frozen=True)
class CliWorkload:
    name: str
    #: seed -> ``repro`` arguments of one timed operation (no ``--output``).
    args: Callable[[int], List[str]]
    #: seed -> arguments of the reference that must give the same bytes.
    reference: Callable[[int], List[str]]
    #: Work one operation completes (gradients or trajectory steps).
    work: int
    #: Whether traced runs gate on the layers' self times adding up to the
    #: untraced wall time (``trace.unattributed_share`` is reported either way).
    self_time_gate: bool = False


def _grid_args(seed: int) -> List[str]:
    return [
        "variance", "--qubits", "2", "4", "6", "8", "10", "--layers", "30",
        "--circuits", str(GRID_CIRCUITS), "--seed", str(seed),
    ]


def _train_args(seed: int) -> List[str]:
    return [
        "train", "--qubits", "10", "--layers", "5", "--optimizer", "adam",
        "--restarts", str(TRAIN_RESTARTS), "--iterations", str(TRAIN_ITERATIONS),
        "--seed", str(seed),
    ]


GRID_GRADIENTS = 5 * GRID_CIRCUITS * PAPER_METHOD_COUNT

CLI_WORKLOADS = {
    "paper_grid": CliWorkload(
        "paper_grid",
        _grid_args,
        # Serial, one batched execution per structure: a different fold
        # of the same engine, bit-identical by contract.
        lambda seed: _grid_args(seed) + ["--fold", "structure"],
        GRID_GRADIENTS,
        self_time_gate=True,
    ),
    "pool_grid": CliWorkload(
        "pool_grid",
        lambda seed: _grid_args(seed) + ["--workers", "2"],
        _grid_args,
        GRID_GRADIENTS,
    ),
    "lockstep_training": CliWorkload(
        "lockstep_training",
        lambda seed: _train_args(seed) + ["--batch-trajectories"],
        # One trajectory at a time (two processes, to keep it short).
        lambda seed: _train_args(seed) + ["--workers", "2"],
        PAPER_METHOD_COUNT * TRAIN_RESTARTS * TRAIN_ITERATIONS,
    ),
}


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    trace: Optional[dict] = None  # merged layer totals of a traced op
    main: Optional[dict] = None  # the CLI process's own totals
    setup_s: Optional[float] = None  # the set-up probe run after this op


def _run_cli(run: Run, argv: List[str], out: Path, label: str) -> tuple:
    """Run one CLI command; return ``(Exited, wall_s, sha256 of out)``."""
    err = run.work / f"{label}.stderr"
    with err.open("wb") as stderr:
        start = time.perf_counter()
        exited = run.procs.run(
            argv + ["--output", str(out)],
            OP_TIMEOUT_S,
            env=run.env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        wall = time.perf_counter() - start
    digest = sha256(out) if exited.returncode == 0 else None
    if exited.returncode != 0:
        tail = err.read_bytes()[-2000:].decode(errors="replace")
        print(f"{label}: exit {exited.returncode}\n{tail}", file=sys.stderr)
    out.unlink(missing_ok=True)
    return exited, wall, digest


def _reference(run: Run, wl: CliWorkload) -> Optional[str]:
    exited, _, digest = _run_cli(
        run, run.launcher() + wl.reference(run.seed), run.work / "ref.json", "reference"
    )
    run.tally.record(exited.returncode == 0, "reference run failed")
    return digest


def _timed_ops(
    run: Run,
    wl: CliWorkload,
    ref: Optional[str],
    budget_s: float,
    traced: bool,
    probe_setup: bool = False,
) -> List[Op]:
    """Timed operations for ``budget_s`` seconds (at least ``MIN_OPS``).

    With ``probe_setup`` a set-up probe follows every operation, so slow
    drift over the window reaches ``setup_s`` as it reaches ``wall_s``;
    probe time does not count against the budget.
    """
    ops: List[Op] = []
    start = time.perf_counter()
    probing = 0.0
    while len(ops) < MIN_OPS or (
        time.perf_counter() - start - probing + statistics.median(o.wall_s for o in ops)
        <= budget_s
    ):
        i = len(ops)
        trace_dir = run.work / f"trace-{i}" if traced else None
        if trace_dir is not None:
            trace_dir.mkdir()
        exited, wall, digest = _run_cli(
            run, run.launcher(trace_dir) + wl.args(run.seed), run.work / f"op-{i}.json", f"op-{i}"
        )
        run.tally.record(
            digest is not None and digest == ref,
            f"{wl.name} op {i}: exit {exited.returncode}, bytes "
            f"{'match' if digest == ref else 'differ from the reference'}",
        )
        op = Op(wall, exited.cpu_s, exited.maxrss_mb)
        if trace_dir is not None:
            snapshots = layers.load_dir(trace_dir)
            op.trace = layers.merge(snapshots)
            op.main = next((s for s in snapshots if "cli.import" in s["calls"]), None)
        if probe_setup:
            probe_start = time.perf_counter()
            op.setup_s = _cli_setup(run)
            probing += time.perf_counter() - probe_start
        ops.append(op)
    return ops


def _cli_setup(run: Run) -> float:
    """Launch -> ``import repro.cli`` done, once."""
    start = time.perf_counter()
    exited = run.procs.run([PYTHON, "-c", "import repro.cli"], OP_TIMEOUT_S, env=run.env)
    wall = time.perf_counter() - start
    run.tally.record(exited.returncode == 0, "import repro.cli failed")
    return wall


def run_cli_workload(run: Run, wl: CliWorkload) -> Dict[str, float]:
    ref = _reference(run, wl)
    if not run.trace:
        first_setup = _cli_setup(run)
        ops = _timed_ops(run, wl, ref, run.seconds, traced=False, probe_setup=True)
        setups = [first_setup] + [o.setup_s for o in ops]
        setup = statistics.median(setups)
        wall = statistics.median(o.wall_s for o in ops)
        run.notes.append(f"setup_s samples: {summarize(setups).describe('s')}")
        run.notes.append(f"wall_s samples: {summarize([o.wall_s for o in ops]).describe('s')}")
        run.notes.append(f"cpu_s samples: {summarize([o.cpu_s for o in ops]).describe('s')}")
        return {
            "setup_s": setup,
            "wall_s": wall,
            "work_per_s": wl.work / (wall - setup),
            "cpu_s": statistics.median(o.cpu_s for o in ops),
            "peak_rss_mb": max(o.maxrss_mb for o in ops),
        }
    plain = _timed_ops(run, wl, ref, run.seconds / 2, traced=False)
    traced = _timed_ops(run, wl, ref, run.seconds / 2, traced=True)
    untraced_wall = statistics.median(o.wall_s for o in plain)
    overhead = statistics.median(o.wall_s for o in traced) / untraced_wall
    # The CLI process's own totals (pool workers are forked without them);
    # missing only when a traced operation failed, which is counted above.
    mained = [o.main for o in traced if o.main is not None]
    # The layers' self times on the blocking path must add up to the
    # untraced wall time: what the catch-all spans hold is the gap.
    shares = [
        (m["self"].get("cli.main", 0.0) + m["self"].get("trace.install", 0.0))
        / untraced_wall
        for m in mained
    ]
    for share in shares if wl.self_time_gate else []:
        run.tally.record(
            share <= UNATTRIBUTED_SHARE_MAX,
            f"{wl.name}: a traced run left {share:.3f} of the untraced wall_s "
            f"to no layer (limit {UNATTRIBUTED_SHARE_MAX})",
        )
    metrics = {
        name: statistics.median(values)
        for name, values in _per_op_layers([o.trace for o in traced]).items()
    }
    metrics["cli.import_s"] = statistics.median(
        [m["self"].get("cli.import", 0.0) for m in mained] or [0.0]
    )
    metrics.update(SERVED_ONLY_ZEROS)
    metrics["trace.overhead_ratio"] = overhead
    metrics["trace.unattributed_share"] = statistics.median(shares) if shares else 0.0
    return metrics


# -- per-layer metrics -----------------------------------------------------


def layer_values(m: dict, ops: int = 1) -> Dict[str, float]:
    """Per-layer metrics of merged totals ``m`` covering ``ops`` operations.

    Times are self seconds per operation; counts are per operation.
    """
    self_s, calls, counters = m["self"], m["calls"], m["counters"]

    def s(name: str) -> float:
        return self_s.get(name, 0.0) / ops

    def c(name: str) -> float:
        return calls.get(name, 0) / ops

    def k(name: str) -> float:
        return counters.get(name, 0.0) / ops

    kernel_calls = calls.get("statevector.apply_matrix", 0) + calls.get(
        "statevector.apply_diagonal", 0
    )
    kernel_rows = counters.get("statevector.apply_matrix.rows", 0) + counters.get(
        "statevector.apply_diagonal.rows", 0
    )
    units = m["samples"].get("executor.unit_s", [])
    return {
        "spec.plan_s": s("spec.plan"),
        "spec.units": k("spec.units"),
        "executor.map_units_s": s("executor.map_units"),
        "executor.unit_s": statistics.median(units) if units else 0.0,
        "executor.tail_idle_s": k("executor.tail_idle_s"),
        "executor.retries": k("executor.retries"),
        "executor.pool_rebuilds": k("executor.pool_rebuilds"),
        "ansatz.build_s": s("ansatz.build"),
        "ansatz.circuits": c("ansatz.build"),
        "initializers.sample_s": s("initializers.sample"),
        "initializers.orthogonal_sample_s": k("initializers.orthogonal_sample_s"),
        "initializers.draws": c("initializers.sample"),
        "simulator.megabatch_plan_s": s("simulator.megabatch_plan"),
        "simulator.plans": c("simulator.megabatch_plan"),
        "simulator.plan_steps": k("simulator.plan_steps"),
        "simulator.megabatch_run_s": s("simulator.megabatch_run"),
        "gradients.megabatch_shift_s": s("gradients.megabatch_shift"),
        "gradients.folded_rows": k("gradients.folded_rows"),
        "gradients.batch_adjoint_s": s("gradients.batch_adjoint")
        + s("gradients.batch_adjoint_gradient"),
        "gradients.adjoint_rows": k("gradients.adjoint_rows"),
        "statevector.apply_matrix_s": s("statevector.apply_matrix"),
        "statevector.apply_matrix_calls": c("statevector.apply_matrix"),
        "statevector.apply_diagonal_s": s("statevector.apply_diagonal"),
        "statevector.apply_diagonal_calls": c("statevector.apply_diagonal"),
        "statevector.rows_per_call": kernel_rows / kernel_calls if kernel_calls else 0.0,
        "statevector.bytes_computed": k("statevector.bytes_computed"),
        "array_api.take_rows_s": s("array_api.take_rows"),
        "array_api.take_rows_calls": c("array_api.take_rows"),
        "array_api.put_rows_s": s("array_api.put_rows"),
        "array_api.put_rows_calls": c("array_api.put_rows"),
        "array_api.rows_copied": k("array_api.rows_copied"),
        "array_api.bytes_copied_computed": k("array_api.bytes_copied_computed"),
        "variance.merge_s": s("variance.merge"),
        "experiments.outcome_s": s("experiments.outcome"),
        "cost.value_and_gradient_batch_s": s("cost.value_and_gradient_batch"),
        "optim.step_s": s("optim.step"),
        "optim.steps": c("optim.step"),
        "io.save_result_s": s("io.save_result"),
        "io.bytes_written": k("io.bytes_written"),
    }


def _per_op_layers(merged_ops: List[dict]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for m in merged_ops:
        for name, value in layer_values(m).items():
            out.setdefault(name, []).append(value)
    return out


#: Client-observed service metrics; CLI workloads have no service layer.
SERVED_ONLY_ZEROS = {
    name: 0.0
    for name in [
        *(f"served.{kind}_{m}" for kind in served.KINDS for m in ("jobs_per_s", "cpu_s")),
        "server.submit_s", "server.result_get_s", "server.status_polls",
        "server.coordinator_cpu_s", "server.sigterm_exit_ok", "jobs.queue_wait_s",
        "store.hit_s", "store.cached_units", "store.completed_units",
        "store.shard_hit_ratio", "store.bytes_total", "store.shard_reuse_job_p50_s",
        "dispatch.first_unit_s", "dispatch.unit_gap_s", "dispatch.cold_job_tail_s",
        "dispatch.leases_granted", "dispatch.results_accepted",
        "dispatch.useful_lease_ratio", "dispatch.reclaimed_leases",
        "dispatch.duplicate_results",
    ]
}


# -- served_remote ---------------------------------------------------------


def _check_served(run: Run, windows: List[served.Window]) -> None:
    """Compare every served result with ``repro run --executor serial``."""
    jobs = [job for window in windows for job in window.jobs]
    bodies = served.distinct_bodies(jobs)
    spec_dir = run.work / "specs"
    ref_dir = run.work / "refs"
    spec_dir.mkdir()
    ref_dir.mkdir()
    paths, ref_of = [], {}
    for i, body in enumerate(bodies):
        path = spec_dir / f"spec-{i}.json"
        path.write_text(json.dumps(body))
        paths.append(str(path))
        ref_of[served.canonical(body)] = ref_dir / path.name
    # ``--executor serial`` is the sequential engine: split the specs over
    # two processes so the check stays short.
    script = str(run.root / "perfbench" / "reference.py")
    children = [
        run.procs.spawn(
            [PYTHON, script, str(ref_dir)] + paths[i::REFERENCE_PROCESSES],
            env=run.env,
            stdout=subprocess.DEVNULL,
        )
        for i in range(REFERENCE_PROCESSES)
    ]
    for child in children:
        exited = run.procs.wait(child, OP_TIMEOUT_S)
        run.tally.record(exited.returncode == 0, "served reference run failed")
    for job in jobs:
        ref = sha256(ref_of[served.canonical(job.body)])
        got = hashlib.sha256(job.result).hexdigest() if job.state == "done" else None
        run.tally.record(
            got is not None and got == ref,
            f"{job.kind} job: state {job.state}, bytes "
            f"{'match' if got == ref else 'differ from repro run --executor serial'}",
        )


def _cold_latencies(window: served.Window) -> List[float]:
    return [j.latency_s for j in window.jobs if j.kind == "cold" and j.state == "done"]


def _stop(run: Run, stack: served.Stack) -> tuple:
    clean, exited = served.stop_stack(run.procs, stack)
    if not clean:
        run.notes.append(
            "known defect: repro serve did not exit within "
            f"{served.SHUTDOWN_GRACE_S} s of SIGTERM and was SIGKILLed"
        )
    return clean, exited


def run_served(run: Run) -> Dict[str, float]:
    launcher = run.launcher()
    if not run.trace:
        setups = []
        for rep in range(SETUP_REPS_SERVED):
            stack = served.start_stack(
                run.procs, launcher, run.work / f"store-{rep}", run.env
            )
            setups.append(stack.setup_s)
            if rep < SETUP_REPS_SERVED - 1:
                _stop(run, stack)
        window = served.drive(stack, run.seed, run.seconds)
        _, exited = _stop(run, stack)
        _check_served(run, [window])
        cold = summarize(_cold_latencies(window))
        run.notes.append(f"cold jobs: {cold.describe('s')}")
        run.notes.append(f"jobs: {len(window.jobs)} in {window.seconds:.3f} s")
        for name, value in served.kind_metrics(window).items():
            unit = "1/s" if name.endswith("_per_s") else "s"
            run.notes.append(f"{name}: {value:.6g} {unit}")
        return {
            "setup_s": statistics.median(setups),
            "wall_s": cold.median,
            "work_per_s": sum(j.state == "done" for j in window.jobs) / window.seconds,
            "cpu_s": window.cpu_s / len(window.jobs),
            "peak_rss_mb": max(e.maxrss_mb for e in exited),
        }

    stack = served.start_stack(run.procs, launcher, run.work / "store-plain", run.env)
    plain = served.drive(stack, run.seed, run.seconds / 2)
    clean, _ = _stop(run, stack)
    trace_dir = run.work / "trace"
    trace_dir.mkdir()
    stack = served.start_stack(
        run.procs, run.launcher(trace_dir), run.work / "store-traced", run.env
    )
    traced = served.drive(stack, run.seed, run.seconds / 2)
    served.request_dump(stack, trace_dir)
    _stop(run, stack)
    _check_served(run, [plain, traced])

    snapshots = layers.load_dir(trace_dir)
    metrics = layer_values(layers.merge(snapshots), ops=len(traced.jobs))
    metrics["cli.import_s"] = statistics.median(
        s["self"].get("cli.import", 0.0) for s in snapshots if "cli.import" in s["calls"]
    )
    metrics.update(served.client_metrics(plain))
    cold = summarize(_cold_latencies(plain))
    # Below eleven cold jobs no percentile has ten beyond it: report the max.
    metrics["dispatch.cold_job_tail_s"] = (
        cold.tail if cold.tail is not None else max(_cold_latencies(plain))
    )
    metrics["server.sigterm_exit_ok"] = 1.0 if clean else 0.0
    metrics["trace.overhead_ratio"] = (
        statistics.median(_cold_latencies(traced)) / cold.median
    )
    # Self-time accounting is checked on the CLI workloads' blocking path;
    # a served job's time is spread over three processes and the client.
    metrics["trace.unattributed_share"] = 0.0
    return metrics
