"""Tests of the benchmark harness itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload at a tiny size through the same code
as a real run, including the byte comparison against the reference, and
check that a wrong reference is caught.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import served  # noqa: E402
import workloads  # noqa: E402
from harness import Processes, Tally, summarize  # noqa: E402


# -- percentile summary ------------------------------------------------------


def test_summary_without_enough_samples_has_no_tail():
    s = summarize([3.0, 1.0, 2.0])
    assert (s.n, s.median, s.tail, s.tail_pct) == (3, 2.0, None, None)
    q1, _, q3 = statistics.quantiles([1.0, 2.0, 3.0], n=4)
    assert (s.q1, s.q3) == (q1, q3)


def test_summary_tail_leaves_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 41)]  # 1..40
    s = summarize(list(reversed(samples)))
    assert s.n == 40
    assert s.median == 20.5
    # k = 40 - 10 = 30: the 30th smallest leaves exactly ten above it.
    assert s.tail == 30.0
    assert s.tail_pct == 75.0
    assert sum(x > s.tail for x in samples) == harness.TAIL_SAMPLES


def test_summary_eleven_samples_is_the_smallest_with_a_tail():
    s = summarize([float(i) for i in range(11)])
    assert s.tail == 0.0 and s.tail_pct == pytest.approx(100 / 11)
    assert summarize([float(i) for i in range(10)]).tail is None


def test_summary_single_sample_and_empty():
    s = summarize([0.5])
    assert (s.median, s.q1, s.q3, s.n) == (0.5, 0.5, 0.5, 1)
    with pytest.raises(ValueError):
        summarize([])


# -- failed_fraction accounting ------------------------------------------------


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    assert tally.failed_fraction == 0.0
    assert tally.record(True) is True
    assert tally.record(False, "bytes differ") is False
    tally.record(True)
    tally.record(False)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_fraction == 0.5
    assert tally.reasons == ["bytes differ", "operation failed"]


# -- process ownership ---------------------------------------------------------


def test_processes_reap_with_usage_and_bound_waits(tmp_path):
    procs = Processes(tmp_path / "live.json")
    done = procs.run([sys.executable, "-c", "pass"], 30.0)
    assert done.returncode == 0 and not done.timed_out and done.maxrss_mb > 0
    slow = procs.spawn([sys.executable, "-c", "import time; time.sleep(30)"])
    assert Processes.leftovers(tmp_path / "live.json") == [slow.pid]
    killed = procs.wait(slow, 0.2)
    assert killed.timed_out and killed.returncode is None
    assert Processes.leftovers(tmp_path / "live.json") == []
    assert procs.live == {}


# -- tiny smoke runs through the real entry points -----------------------------


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_OPS", 1)
    monkeypatch.setattr(workloads, "SETUP_REPS_SERVED", 1)
    monkeypatch.setattr(workloads, "GRID_CIRCUITS", 1)
    monkeypatch.setattr(workloads, "TRAIN_RESTARTS", 1)
    monkeypatch.setattr(workloads, "TRAIN_ITERATIONS", 2)
    monkeypatch.setattr(served, "CIRCUITS", 1)
    monkeypatch.setattr(served, "WIDTHS", [2, 3, 4, 5])


def _run(tmp_path, trace=False, seconds=0.1):
    work = tmp_path / "work"
    work.mkdir()
    return workloads.Run(
        ROOT, work, 3, seconds, trace, Processes(tmp_path / "live.json")
    )


def _end_to_end_ok(run, values):
    assert run.tally.failed == 0, run.tally.reasons
    for name in ("setup_s", "wall_s", "work_per_s", "cpu_s", "peak_rss_mb"):
        assert values[name] > 0, name


@pytest.mark.parametrize("name", sorted(workloads.CLI_WORKLOADS))
def test_cli_workload_smoke(tmp_path, tiny, name):
    run = _run(tmp_path)
    values = workloads.run_cli_workload(run, workloads.CLI_WORKLOADS[name])
    _end_to_end_ok(run, values)
    # Reference, one operation, a set-up probe before it and one after it.
    assert run.tally.attempted >= 4


def test_cli_gate_catches_a_wrong_reference(tmp_path, tiny):
    real = workloads.CLI_WORKLOADS["paper_grid"]
    wrong = workloads.CliWorkload(
        "paper_grid", real.args, lambda seed: real.reference(seed + 1), real.work
    )
    run = _run(tmp_path)
    workloads.run_cli_workload(run, wrong)
    assert run.tally.failed >= 1
    assert any("differ" in reason for reason in run.tally.reasons)


def test_traced_lockstep_matches_and_never_gathers_rows(tmp_path, tiny):
    run = _run(tmp_path, trace=True)
    values = workloads.run_cli_workload(run, workloads.CLI_WORKLOADS["lockstep_training"])
    assert run.tally.failed == 0, run.tally.reasons
    assert values["array_api.take_rows_calls"] == 0
    assert values["array_api.put_rows_calls"] == 0
    assert values["statevector.apply_matrix_calls"] > 0
    assert values["optim.steps"] > 0


def test_traced_paper_grid_records_the_grid_layers(tmp_path, tiny, monkeypatch):
    # Enough circuits that computing, not the fixed import and argument
    # parsing, fills the run, as in the real grid: the self-time gate's
    # limit is a share of the run's wall time.
    monkeypatch.setattr(workloads, "GRID_CIRCUITS", 8)
    run = _run(tmp_path, trace=True)
    values = workloads.run_cli_workload(run, workloads.CLI_WORKLOADS["paper_grid"])
    assert run.tally.failed == 0, run.tally.reasons  # includes the self-time gate
    for name in (
        "array_api.take_rows_calls",
        "initializers.draws",
        "simulator.plans",
        "io.bytes_written",
    ):
        assert values[name] > 0, name
    # Two shift terms per probed gradient: 5 widths x 8 circuits x 6 methods.
    assert values["gradients.folded_rows"] == 2 * 5 * 8 * workloads.PAPER_METHOD_COUNT
    assert 0 < values["trace.unattributed_share"] <= workloads.UNATTRIBUTED_SHARE_MAX


def test_self_time_gate_fails_a_run_that_leaves_time_to_no_layer(
    tmp_path, tiny, monkeypatch
):
    # Argument parsing alone is time no layer holds: with no allowance the
    # gate must fail every traced run.
    monkeypatch.setattr(workloads, "UNATTRIBUTED_SHARE_MAX", 0.0)
    run = _run(tmp_path, trace=True)
    workloads.run_cli_workload(run, workloads.CLI_WORKLOADS["paper_grid"])
    assert run.tally.failed >= 1
    assert all("to no layer" in reason for reason in run.tally.reasons)


_FOLDED_ROWS_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import layers
layers.install(None)
if sys.argv[3] == "chunked":
    import repro.backend.simulator as simulator
    simulator.batch_chunk_rows = lambda num_qubits, backend: 4
import repro.cli
repro.cli.main(["variance", "--qubits", "2", "3", "--layers", "3", "--circuits", "3",
                "--seed", "1", "--output", sys.argv[2]])
print(json.dumps(layers.REC.snapshot()))
"""


def test_folded_rows_count_each_row_once_however_the_pass_is_chunked(tmp_path):
    def trace(mode):
        out = subprocess.run(
            [sys.executable, "-c", _FOLDED_ROWS_SCRIPT, str(BENCH),
             str(tmp_path / f"{mode}.json"), mode],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, check=True,
        )
        return json.loads(out.stdout.splitlines()[-1])

    plain, chunked = trace("plain"), trace("chunked")
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "chunked.json").read_bytes()
    # The chunked passes really did call themselves once per chunk ...
    assert chunked["calls"]["simulator.megabatch_run"] > plain["calls"]["simulator.megabatch_run"]
    # ... and the folded rows are still 2 widths x 3 circuits x 6 methods x 2 terms.
    expected = 2 * 3 * workloads.PAPER_METHOD_COUNT * 2
    assert plain["counters"]["gradients.folded_rows"] == expected
    assert chunked["counters"]["gradients.folded_rows"] == expected


def test_served_smoke(tmp_path, tiny):
    run = _run(tmp_path, seconds=1.0)
    values = workloads.run_served(run)
    _end_to_end_ok(run, values)
    assert run.procs.live == {}


def test_served_gate_catches_wrong_bytes(tmp_path, tiny, monkeypatch):
    drive = served.drive

    def corrupt(*args, **kwargs):
        window = drive(*args, **kwargs)
        window.jobs[0].result += b" "
        return window

    monkeypatch.setattr(served, "drive", corrupt)
    run = _run(tmp_path, seconds=0.5)
    workloads.run_served(run)
    assert run.tally.failed == 1


def test_mix_reuses_only_prefixes_of_earlier_cold_specs():
    mix = served.Mix(7)
    cold = []
    for _ in range(30):
        kind, body = mix.next()
        widths = body["config"]["qubit_counts"]
        if kind == "cold":
            assert widths == served.WIDTHS
            cold.append(body["seed"])
        elif kind == "reuse":
            assert body["seed"] in cold and len(widths) >= 2
            assert widths == served.WIDTHS[: len(widths)]
    assert served.Mix(7).next()[0] == "cold"  # later kinds need an earlier job


def test_mix_is_deterministic_per_seed():
    def sequence(seed):
        mix = served.Mix(seed)
        return [mix.next() for _ in range(12)]

    assert sequence(5) == sequence(5)
    assert sequence(5) != sequence(6)
