"""The ``served_remote`` workload: ``repro serve`` + two ``repro worker``s.

A closed-loop client keeps one job outstanding: it POSTs a spec, follows
the job on the ``/events`` long-poll, then GETs the result bytes.  A seeded
generator mixes three request kinds in shuffled blocks of one each:

``cold``
    A fresh seed over the full width grid: every shard is computed by
    the workers and written to the store.
``reuse``
    A prefix of an earlier cold spec's widths (2 or 3 of them): every
    shard is already stored, so the job is shard reads plus finalize.
    Shards are keyed by position in the grid, so only prefixes share
    them.  A reuse grid always keeps >= 2 widths: a one-width variance
    spec computes its shards and then fails the decay fit (HTTP 500),
    an input-validation gap rather than a performance path.
``resubmit``
    The exact body of an earlier job: a whole-result cache hit.

The equal split is a choice, not a measurement: the repository records
no served traffic.  Its only served usage, the service step of
``examples/spec_driven_experiments.py`` and the CI service lane, submits
a spec and then resubmits it (one cold, one resubmit); shard reuse has
no usage to copy.  Equal numbers give each of the three store paths
(writes, shard reads, whole-result reads) the same sample count.  The
mix-wide end-to-end figures (jobs/s, CPU per job) move with the split,
so :func:`kind_metrics` also reports jobs/s and CPU per job of each kind.

Specs use ``"executor": "remote"``, so the coordinator dispatches units
to the workers over the lease protocol.  Every result is later compared
byte for byte with ``repro run SPEC --executor serial``.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from harness import Exited, Processes, proc_cpu_s

WIDTHS = [2, 4, 6, 8]
LAYERS = 12
CIRCUITS = 2
METHODS = ["random", "xavier_normal", "he_uniform", "orthogonal"]
#: Request kinds, issued in equal numbers (see the module docstring).
KINDS = ("cold", "reuse", "resubmit")
#: SIGTERM grace for the coordinator and workers before SIGKILL.
SHUTDOWN_GRACE_S = 1.0
READY_TIMEOUT_S = 60.0


def spec_body(seed: int, widths: List[int]) -> dict:
    return {
        "kind": "variance",
        "config": {
            "qubit_counts": list(widths),
            "num_circuits": CIRCUITS,
            "num_layers": LAYERS,
            "methods": METHODS,
            "cost_kind": "global",
        },
        "seed": seed,
        "executor": "remote",
    }


class Mix:
    """Seeded request generator: yields ``(kind, body)`` forever."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.cold_seeds: List[int] = []
        self.unused_prefixes: List[Tuple[int, int]] = []
        self.submitted: List[dict] = []
        self.block: List[str] = []

    def _next_kind(self) -> str:
        if not self.block:
            self.block = list(KINDS)
            self.rng.shuffle(self.block)
            if not self.submitted:  # reuse/resubmit need an earlier job
                self.block.remove("cold")
                self.block.insert(0, "cold")
        return self.block.pop(0)

    def next(self) -> Tuple[str, dict]:
        kind = self._next_kind()
        if kind == "cold":
            seed = self.rng.randrange(1, 2**31)
            while seed in self.cold_seeds:
                seed = self.rng.randrange(1, 2**31)
            self.cold_seeds.append(seed)
            self.unused_prefixes += [(seed, 2), (seed, 3)]
            body = spec_body(seed, WIDTHS)
        elif kind == "reuse":
            seed, width_count = self.unused_prefixes.pop(
                self.rng.randrange(len(self.unused_prefixes))
            )
            body = spec_body(seed, WIDTHS[:width_count])
        else:
            body = self.submitted[self.rng.randrange(len(self.submitted))]
        if kind != "resubmit":
            self.submitted.append(body)
        return kind, body


@dataclass
class Job:
    kind: str
    body: dict
    latency_s: float = 0.0
    submit_s: float = 0.0
    result_get_s: float = 0.0
    polls: int = 0
    state: str = ""
    result: bytes = b""
    queue_wait_s: Optional[float] = None
    first_unit_s: Optional[float] = None
    unit_gaps: List[float] = field(default_factory=list)
    cached_units: int = 0
    total_units: int = 0
    #: CPU seconds of the server and workers while this job ran.
    cpu_s: float = 0.0


class Client:
    """HTTP client with one connection per request, like ``urllib``.

    At most two connections are open at once: the long-poll on
    ``/events`` and, after it returns, the next request.  (Keep-alive
    connections are avoided on purpose: the server writes headers and
    body in two sends without ``TCP_NODELAY``, so on a reused connection
    each response waits out the client's delayed ACK, about 40 ms.)
    """

    def __init__(self, url: str):
        parts = urlsplit(url)
        self.address = (parts.hostname, parts.port)

    def _request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        status, data = self._request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def run_job(self, kind: str, body: dict) -> Job:
        job = Job(kind, body)
        start = time.perf_counter()
        status, data = self._request(
            "POST", "/experiments", json.dumps(body).encode()
        )
        job.submit_s = time.perf_counter() - start
        if status not in (200, 202):
            job.state = f"http {status}"
            job.latency_s = time.perf_counter() - start
            return job
        info = json.loads(data)
        job_id, job.state = info["job_id"], info["state"]
        since = 0
        last_unit = None
        while job.state not in ("done", "failed"):
            status, data = self._request(
                "GET", f"/experiments/{job_id}/events?since={since}&timeout=30"
            )
            seen = time.perf_counter()
            job.polls += 1
            if status != 200:
                job.state = f"http {status}"
                break
            page = json.loads(data)
            events = page["events"]
            if any(e["state"] == "running" for e in events) and job.queue_wait_s is None:
                job.queue_wait_s = seen - start
            if any(e["kind"] == "unit" and not e.get("cached") for e in events):
                # Units that land together arrive in one page: one gap.
                if last_unit is None:
                    job.first_unit_s = seen - start
                else:
                    job.unit_gaps.append(seen - last_unit)
                last_unit = seen
            for event in events:
                job.cached_units = event.get("cached_units", job.cached_units)
                job.total_units = event.get("total_units", job.total_units)
            since = page["next_since"]
            job.state = page["state"]
        if job.state == "done":
            got = time.perf_counter()
            status, job.result = self._request(
                "GET", f"/experiments/{job_id}/result"
            )
            job.result_get_s = time.perf_counter() - got
            if status != 200:
                job.state = f"result http {status}"
        job.latency_s = time.perf_counter() - start
        return job


@dataclass
class Stack:
    """One coordinator plus its workers, started and stopped together."""

    server: subprocess.Popen
    workers: List[subprocess.Popen]
    url: str
    setup_s: float

    def pids(self) -> List[int]:
        return [self.server.pid] + [w.pid for w in self.workers]


def start_stack(
    procs: Processes, launcher: List[str], store: Path, env: dict, workers: int = 2
) -> Stack:
    """Start ``repro serve`` and ``workers`` workers; return once all poll.

    ``launcher`` is the command prefix that runs the ``repro`` CLI
    (plain, or through the tracer).  Set-up time runs from the server's
    launch until ``/healthz`` lists every worker.
    """
    start = time.perf_counter()
    server = procs.spawn(
        launcher + ["serve", "--port", "0", "--store", str(store)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = server.stdout.readline()
    if "listening on" not in line:
        raise RuntimeError(f"repro serve did not start: {line!r}")
    url = line.split("listening on ", 1)[1].split()[0]
    server.stdout.close()  # the server prints nothing else unless --verbose
    worker_procs = [
        procs.spawn(
            launcher + ["worker", "--connect", url],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        for _ in range(workers)
    ]
    client = Client(url)
    deadline = time.monotonic() + READY_TIMEOUT_S
    while len(client.get_json("/healthz")["dispatch"]["workers"]) < workers:
        if time.monotonic() > deadline:
            raise RuntimeError("workers did not register with the coordinator")
        time.sleep(0.002)
    return Stack(server, worker_procs, url, time.perf_counter() - start)


def stop_stack(procs: Processes, stack: Stack) -> Tuple[bool, List[Exited]]:
    """SIGTERM workers and coordinator; True when the coordinator exited.

    A foreground ``repro serve`` currently never exits on SIGTERM (the
    signal path closes the listening socket without stopping
    ``serve_forever``, which then spins), so it is SIGKILLed after the
    grace period and reported, not hidden.
    """
    exited = procs.terminate([stack.server] + stack.workers, SHUTDOWN_GRACE_S)
    return not exited[0].timed_out, exited


def request_dump(stack: Stack, trace_dir: Path, timeout: float = 5.0) -> None:
    """Ask traced stack processes for their totals and wait for the files."""
    before = {pid: _mtime(trace_dir / f"{pid}.json") for pid in stack.pids()}
    for proc in [stack.server] + stack.workers:
        proc.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(_mtime(trace_dir / f"{pid}.json") != before[pid] for pid in before):
            return
        time.sleep(0.01)
    raise RuntimeError("traced stack processes did not write their totals")


def _mtime(path: Path) -> Optional[int]:
    try:
        return path.stat().st_mtime_ns
    except OSError:
        return None


@dataclass
class Window:
    """Everything one timed phase over a stack observed."""

    jobs: List[Job]
    seconds: float
    cpu_s: float
    server_cpu_s: float
    health_before: dict
    health_after: dict


def drive(stack: Stack, seed: int, budget_s: float) -> Window:
    """Run the seeded mix closed-loop for ``budget_s`` seconds."""
    mix = Mix(seed)
    client = Client(stack.url)
    health_before = client.get_json("/healthz")
    pids = stack.pids()
    cpu0 = [proc_cpu_s(pid) for pid in pids]
    jobs: List[Job] = []
    start = time.perf_counter()
    before = sum(cpu0)
    while time.perf_counter() - start < budget_s:
        job = client.run_job(*mix.next())
        after = sum(proc_cpu_s(pid) for pid in pids)
        job.cpu_s, before = after - before, after
        jobs.append(job)
    seconds = time.perf_counter() - start
    cpu1 = [proc_cpu_s(pid) for pid in pids]
    health_after = client.get_json("/healthz")
    return Window(
        jobs,
        seconds,
        sum(cpu1) - sum(cpu0),
        cpu1[0] - cpu0[0],
        health_before,
        health_after,
    )


def kind_metrics(window: Window) -> Dict[str, float]:
    """Jobs per second and CPU seconds per job of each request kind.

    Jobs/s of a kind is its completed jobs over the time spent on them,
    so none of these figures depends on the mix's proportions.
    (``/proc`` counts CPU in 10 ms ticks; the per-kind sums over a
    window average that out.)
    """
    out = {}
    for kind in KINDS:
        jobs = [j for j in window.jobs if j.kind == kind and j.state == "done"]
        busy = sum(j.latency_s for j in jobs)
        out[f"served.{kind}_jobs_per_s"] = len(jobs) / busy if busy else 0.0
        out[f"served.{kind}_cpu_s"] = (
            sum(j.cpu_s for j in jobs) / len(jobs) if jobs else 0.0
        )
    return out


def client_metrics(window: Window) -> Dict[str, float]:
    """Client-observed service metrics of one window (per-layer names)."""
    jobs = [j for j in window.jobs if j.state == "done"]
    by_kind = {k: [j for j in jobs if j.kind == k] for k in KINDS}
    reuse = by_kind["reuse"]

    def med(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    def delta(key: str) -> float:
        return float(
            window.health_after["dispatch"][key] - window.health_before["dispatch"][key]
        )

    granted = delta("leases_granted")
    accepted = delta("results_accepted")
    waited = [j for j in jobs if j.kind != "resubmit"]
    return {
        **kind_metrics(window),
        "server.submit_s": med([j.submit_s for j in jobs]),
        "server.result_get_s": med([j.result_get_s for j in jobs]),
        "server.status_polls": (
            sum(j.polls for j in waited) / len(waited) if waited else 0.0
        ),
        "server.coordinator_cpu_s": window.server_cpu_s / max(1, len(window.jobs)),
        "jobs.queue_wait_s": med(
            [j.queue_wait_s for j in by_kind["cold"] if j.queue_wait_s is not None]
        ),
        "store.hit_s": med([j.latency_s for j in by_kind["resubmit"]]),
        "store.cached_units": sum(j.cached_units for j in reuse) / max(1, len(reuse)),
        "store.completed_units": (
            sum(j.total_units for j in reuse) / max(1, len(reuse))
        ),
        "store.shard_hit_ratio": (
            sum(j.cached_units for j in reuse) / max(1, sum(j.total_units for j in reuse))
        ),
        "store.bytes_total": float(window.health_after["store"]["total_bytes"]),
        "store.shard_reuse_job_p50_s": med([j.latency_s for j in reuse]),
        "dispatch.first_unit_s": med(
            [j.first_unit_s for j in by_kind["cold"] if j.first_unit_s is not None]
        ),
        "dispatch.unit_gap_s": med([g for j in by_kind["cold"] for g in j.unit_gaps]),
        "dispatch.leases_granted": granted,
        "dispatch.results_accepted": accepted,
        "dispatch.useful_lease_ratio": accepted / granted if granted else 0.0,
        "dispatch.reclaimed_leases": delta("reclaimed_leases"),
        "dispatch.duplicate_results": delta("duplicate_results"),
    }


def distinct_bodies(jobs: List[Job]) -> List[dict]:
    seen: Dict[str, dict] = {}
    for job in jobs:
        seen.setdefault(canonical(job.body), job.body)
    return list(seen.values())


def canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True)

