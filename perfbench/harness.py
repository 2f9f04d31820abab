"""Measurement plumbing shared by every workload.

Three pieces, all standard library:

* :func:`summarize` — the timing summary every metric uses: median,
  quartiles, and the highest percentile that still has at least ten
  samples beyond it (``None`` below eleven samples), with the count.
* :class:`Tally` — attempted/failed operation accounting behind
  ``failed_fraction``.
* :class:`Processes` — spawns, waits for and reaps child processes with
  their resource usage (``wait4``), bounds every wait with a pidfd, and
  keeps an on-disk registry of live children so the next run can refuse
  to start while a process from an earlier run is still alive.
"""

from __future__ import annotations

import json
import os
import select
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Samples a tail percentile must leave beyond itself.
TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Summary:
    """Order statistics of one metric's samples."""

    n: int
    median: float
    q1: float
    q3: float
    #: Highest percentile with >= ``TAIL_SAMPLES`` samples above it.
    tail_pct: Optional[float]
    tail: Optional[float]

    def describe(self, unit: str) -> str:
        text = f"median {self.median:.6g} {unit} (q1 {self.q1:.6g}, q3 {self.q3:.6g}"
        if self.tail is not None:
            text += f", p{self.tail_pct:.0f} {self.tail:.6g}"
        return text + f", n={self.n})"


def summarize(samples: Sequence[float]) -> Summary:
    """Median, quartiles and the ten-beyond tail of ``samples``.

    The tail is the ``k``-th smallest sample where ``k = n - 10``: the
    largest order statistic that still leaves ten samples above it,
    reported as percentile ``100 * k / n``.  Quartiles follow
    :func:`statistics.quantiles` (exclusive method).
    """
    xs = sorted(float(x) for x in samples)
    n = len(xs)
    if n == 0:
        raise ValueError("cannot summarize zero samples")
    if n == 1:
        q1 = q3 = xs[0]
    else:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    tail_pct = tail = None
    if n > TAIL_SAMPLES:
        k = n - TAIL_SAMPLES
        tail = xs[k - 1]
        tail_pct = 100.0 * k / n
    return Summary(n, statistics.median(xs), q1, q3, tail_pct, tail)


@dataclass
class Tally:
    """Attempted/failed operations of one run.

    Every operation the benchmark issues (a CLI invocation, a served job,
    a result-byte comparison) is attempted once; a nonzero exit, a failed
    job or a byte mismatch marks it failed.
    """

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what or "operation failed")
        return ok

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Exited:
    """How a reaped child ended, with its (and its reaped children's) usage."""

    returncode: Optional[int]
    cpu_s: float
    maxrss_mb: float
    timed_out: bool = False


def _start_ticks(pid: int) -> Optional[str]:
    """Kernel start time of ``pid`` (guards the registry against pid reuse)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[19]


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live process (0.0 once it is gone)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Processes:
    """Owner of every child process a run starts.

    ``registry`` is a JSON file listing live children (pid plus kernel
    start time); :meth:`leftovers` reads the previous run's file so a
    leaked, still-running process fails the next run instead of silently
    stealing a core from it.
    """

    def __init__(self, registry: Path):
        self.registry = registry
        self.live: Dict[int, subprocess.Popen] = {}

    @staticmethod
    def leftovers(registry: Path) -> List[int]:
        """Pids from an earlier run's registry that are still alive."""
        try:
            entries = json.loads(registry.read_text())
        except (OSError, ValueError):
            return []
        return [
            int(entry["pid"])
            for entry in entries
            if _start_ticks(int(entry["pid"])) == entry["start"]
        ]

    def _save(self) -> None:
        entries = [
            {"pid": pid, "start": _start_ticks(pid)} for pid in sorted(self.live)
        ]
        self.registry.write_text(json.dumps(entries))

    def spawn(self, argv: Sequence[str], **popen_kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(list(argv), **popen_kwargs)
        self.live[proc.pid] = proc
        self._save()
        return proc

    def wait(self, proc: subprocess.Popen, timeout: float) -> Exited:
        """Reap ``proc`` within ``timeout`` seconds, killing it past that.

        ``wait4`` returns the child's usage including every descendant it
        reaped (pool workers), so ``cpu_s`` covers the process tree and
        ``maxrss_mb`` is the largest resident set in it.
        """
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(0.0, timeout))
        finally:
            os.close(fd)
        timed_out = not ready
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.pop(proc.pid, None)
        self._save()
        return Exited(
            returncode=None if timed_out else proc.returncode,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            timed_out=timed_out,
        )

    def run(self, argv: Sequence[str], timeout: float, **popen_kwargs) -> Exited:
        return self.wait(self.spawn(argv, **popen_kwargs), timeout)

    def terminate(self, procs: Sequence[subprocess.Popen], grace: float) -> List[Exited]:
        """SIGTERM ``procs``, wait up to ``grace`` s in total, SIGKILL the rest.

        A process that needed the SIGKILL comes back with ``timed_out``.
        """
        for proc in procs:
            proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + grace
        return [self.wait(proc, deadline - time.monotonic()) for proc in procs]

    def kill_all(self) -> None:
        """SIGKILL and reap every child still alive (run teardown)."""
        for proc in list(self.live.values()):
            proc.kill()
            self.wait(proc, 10.0)
