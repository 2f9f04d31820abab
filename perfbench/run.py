"""Benchmark entry point: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 15 --trace 0

Workloads: ``paper_grid``, ``pool_grid``, ``lockstep_training``,
``served_remote`` (see ``perfbench/README.md``).  With ``--trace 0`` the
run reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the per-layer metrics.  Human-readable lines (machine
context, every metric with its unit, sample notes, failures) come
first; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.

The program under test is ``src/repro`` of the same checkout, run as
subprocesses; everything the run writes goes to ``.perfbench_work/``.
Exit codes: 0 after a result line (even when ``correct`` is false),
2 when the checkout holds no ``src/repro``, 3 when the workload cannot
run here (``pool_grid`` on one core), 4 when a process started by an
earlier run is still alive.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_grid", "pool_grid", "lockstep_training", "served_remote")


def _machine_context(seed: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.utils import machine_context

    context = machine_context()
    context["nproc"] = len(os.sched_getaffinity(0))
    context["cpu_model"] = _cpu_model()
    context["workload_seed"] = seed
    context["comparable"] = context["nproc"] >= 2
    return context


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _metric_specs(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from harness import Processes

    context = _machine_context(args.seed)
    print("machine: " + json.dumps(context, sort_keys=True))
    if args.workload == "pool_grid" and context["nproc"] < 2:
        print("pool_grid skipped: it needs at least 2 cores", file=sys.stderr)
        return 3
    if not context["comparable"]:
        print("NOTE: nproc < 2; these numbers are not comparable")

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    registry = base / "live.json"
    leftovers = Processes.leftovers(registry)
    if leftovers:
        print(
            f"processes from an earlier run are still alive: {leftovers}; "
            f"stop them before benchmarking",
            file=sys.stderr,
        )
        return 4
    work = base / f"run-{os.getpid()}"
    work.mkdir()
    procs = Processes(registry)
    run = workloads.Run(ROOT, work, args.seed, args.seconds, bool(args.trace), procs)

    def on_signal(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    try:
        if args.workload == "served_remote":
            values = workloads.run_served(run)
        else:
            values = workloads.run_cli_workload(run, workloads.CLI_WORKLOADS[args.workload])
    finally:
        procs.kill_all()
        shutil.rmtree(work, ignore_errors=True)

    specs = _metric_specs(run.trace)
    missing = sorted({m["name"] for m in specs} - set(values))
    if missing:
        raise RuntimeError(f"workload did not produce metrics {missing}")
    for note in run.notes:
        print(note)
    for reason in run.tally.reasons:
        print(f"FAILED: {reason}")
    print(f"failed_fraction: {run.tally.failed_fraction:.6g} "
          f"({run.tally.failed}/{run.tally.attempted})")
    metrics = {}
    for m in specs:
        value = float(values[m["name"]])
        print(f"{m['name']}: {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
