"""Lease-based remote work dispatch: coordinator board + worker loop.

This module turns the executor contract into a multi-host one.  A
coordinator-side :class:`DispatchBoard` holds the work units of one or
more running jobs and hands them to pull-based workers over three JSON
endpoints (served either by ``repro serve`` or by the embedded
standalone server of the ``remote`` executor):

``POST /work/lease``
    Body ``{"worker_id": ..., "wait": seconds}``.  Grants the next
    pending unit as a *lease* — unit id, content fingerprint, the
    attempt number its first worker-side try counts as, the lease TTL,
    any scheduled compute faults, plus the job's worker-form spec — or
    ``{"lease": null, "idle": true}`` when nothing is pending.  The
    optional ``wait`` makes the request a long-poll: an idle board holds
    it open until a unit turns pending (a job registers, a reclaimed
    unit is requeued) or ``wait`` seconds pass.  ``wait`` is clamped to
    ``[0, 25]`` — below the worker's 30 s HTTP timeout — and a
    non-numeric value is a ``400``; missing or ``0`` answers at once.

``POST /work/heartbeat``
    Body ``{"worker_id": ..., "leases": [...]}``.  Renews the named
    leases' deadlines; responds with which were still ``valid`` and
    which were already ``lost`` (expired and reclaimed).

``POST /work/<unit-fingerprint>/result``
    Uploads one unit's outcome.  **Idempotent by content fingerprint**:
    the first successful upload wins, duplicates and late arrivals are
    acknowledged and ignored — at-least-once delivery is safe because
    every placement of a unit is byte-identical (pre-reserved RNG
    children travel inside the unit, see :mod:`repro.core.spec`).

Robustness model
----------------
* **Leases expire.**  A worker that stops heartbeating (crash, kill
  fault, partition) loses its lease after ``lease_ttl`` seconds; the
  unit is *reclaimed*, the lost lease is charged as one attempt against
  the unit's retry budget, and the executor decides — through the same
  :class:`~repro.reliability.RetryPolicy` path as every other failure —
  whether to re-dispatch or quarantine.  Because a re-dispatched unit
  re-runs from its own pre-reserved RNG children, recovered runs stay
  byte-identical to single-host ones.
* **Workers reconnect** with capped exponential backoff when the
  coordinator is unreachable, and **fail fast on spec mismatch**: a
  worker whose locally re-planned unit fingerprint disagrees with the
  lease's reports ``SpecMismatch`` and exits non-zero instead of
  silently computing the wrong bytes.
* **Network chaos** is first-class: the board applies the
  :class:`~repro.reliability.FaultPlan` network kinds (``drop_lease``,
  ``drop_result``, ``partition``, ``slow_network``) coordinator-side,
  while compute kinds (``transient``/``kill``/``slow``) ship inside the
  lease and fire in the worker via the usual
  :func:`~repro.reliability.faults.call_with_faults` wrapper.

The ``remote`` executor (:class:`repro.core.executor.RemoteExecutor`)
is the scheduling half: it registers its units on a board — the
serving queue's shared one, or an embedded standalone server plus
``repro worker`` subprocesses for plain ``repro.run`` — and consumes
completion/expiry/failure events, threading retries, quarantine
reports, checkpoints and shard caching through unchanged.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.reliability.faults import (
    NETWORK_KINDS,
    FaultAction,
    call_with_faults,
)
from repro.reliability.policy import RetryPolicy

__all__ = [
    "DispatchBoard",
    "Lease",
    "RemoteExecutionError",
    "SpecMismatch",
    "handle_work_request",
    "make_dispatch_server",
    "run_worker",
    "worker_spec_payload",
]

#: Default seconds a lease stays valid without a heartbeat renewal.
DEFAULT_LEASE_TTL = 15.0

#: Longest a ``POST /work/lease`` long-poll is held open, kept below the
#: worker's 30 s HTTP timeout.
MAX_LEASE_WAIT = 25.0

#: Compute fault kinds shipped inside leases and applied worker-side.
_WORKER_FAULT_KINDS = ("transient", "kill", "slow")

#: Exit code for a worker that detected a spec/fingerprint mismatch.
SPEC_MISMATCH_EXIT = 3


class RemoteExecutionError(RuntimeError):
    """A worker exhausted a unit's retry budget (or failed terminally).

    Deliberately *not* transient: the worker already drove the unit
    through the shared :class:`~repro.reliability.RetryPolicy`, so the
    coordinator must quarantine (or raise), not grant a fresh budget.
    """


class SpecMismatch(RemoteExecutionError):
    """A worker's re-planned unit fingerprint disagreed with its lease.

    Means coordinator and worker hold different code or config for the
    same spec — computing anyway could silently produce wrong bytes, so
    both sides fail fast instead.
    """


@dataclass
class Lease:
    """One outstanding grant of a work unit to a worker."""

    lease_id: str
    job_id: str
    unit_id: str
    unit_fingerprint: str
    worker_id: str
    #: Attempt number the lease's first worker-side try counts as.
    attempt: int
    #: Monotonic deadline; heartbeats push it forward.
    deadline: float


class _RemoteUnit:
    """Board-side state of one registered work unit."""

    __slots__ = (
        "unit_id",
        "fingerprint",
        "state",
        "attempts_charged",
        "fault_actions",
        "net_actions",
        "net_touches",
    )

    def __init__(
        self,
        unit_id: str,
        fingerprint: str,
        fault_actions: Optional[List[dict]] = None,
        net_actions: Sequence[FaultAction] = (),
    ):
        self.unit_id = unit_id
        self.fingerprint = fingerprint
        #: "pending" -> "leased" -> "done" | "failed"; expiry parks the
        #: unit at "reclaiming" until the executor rules retry/quarantine.
        self.state = "pending"
        #: Attempts consumed across every lease generation.
        self.attempts_charged = 0
        self.fault_actions = list(fault_actions or [])
        self.net_actions = tuple(net_actions)
        self.net_touches: Dict[str, int] = {}

    def net_fault(self, kind: str) -> Optional[FaultAction]:
        """The scheduled network fault of ``kind`` firing on this touch.

        Each call counts as one touch of ``kind``; the action fires for
        its first ``times`` touches, mirroring attempt-scoped compute
        faults.
        """
        for action in self.net_actions:
            if action.kind != kind:
                continue
            count = self.net_touches.get(kind, 0) + 1
            self.net_touches[kind] = count
            return action if action.applies(count) else None
        return None


class _BoardJob:
    """One registered job: ordered units plus its event outbox."""

    __slots__ = ("job_id", "spec_payload", "units", "order", "outbox")

    def __init__(self, job_id: str, spec_payload: dict):
        self.job_id = job_id
        self.spec_payload = spec_payload
        self.units: Dict[str, _RemoteUnit] = {}
        self.order: List[str] = []
        self.outbox: List[dict] = []


class DispatchBoard:
    """Thread-safe lease ledger shared by the HTTP layer and executors.

    One board serves any number of concurrently registered jobs (the
    ``repro serve`` queue holds exactly one for its whole lifetime);
    workers are job-agnostic — a lease carries everything they need.
    """

    def __init__(self, lease_ttl: Optional[float] = None):
        if lease_ttl is None:
            raw = os.environ.get("REPRO_LEASE_TTL", "")
            lease_ttl = float(raw) if raw.strip() else DEFAULT_LEASE_TTL
        self.lease_ttl = float(lease_ttl)
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        self._cond = threading.Condition()
        self._jobs: Dict[str, _BoardJob] = {}
        self._job_order: List[str] = []
        self._leases: Dict[str, Lease] = {}
        self._lease_counter = itertools.count(1)
        #: unit fingerprint -> [(job_id, unit_id), ...] for result routing.
        self._by_fingerprint: Dict[str, List[Tuple[str, str]]] = {}
        #: worker_id -> wall-clock time of its last request.
        self._workers: Dict[str, float] = {}
        #: Set by :meth:`close`: lease long-polls answer idle at once.
        self._closed = False
        self._stats = {
            "leases_granted": 0,
            "reclaimed_leases": 0,
            "results_accepted": 0,
            "duplicate_results": 0,
            "late_results": 0,
            "failures_reported": 0,
            "dropped_leases": 0,
            "dropped_results": 0,
            "partitioned_requests": 0,
        }

    # -- job registration --------------------------------------------------

    def register_job(
        self,
        job_id: str,
        spec_payload: dict,
        entries: Sequence[Tuple[str, str, Optional[List[dict]]]],
        net_faults: Optional[Mapping[str, Sequence[FaultAction]]] = None,
    ) -> None:
        """Make a job's units leasable.

        ``entries`` is the ordered ``(unit_id, unit_fingerprint,
        compute_fault_payload)`` list; ``net_faults`` maps unit ids to
        their network-kind :class:`FaultAction` schedules (applied
        board-side).  ``spec_payload`` is the worker-form spec dict
        (:func:`worker_spec_payload`) shipped with every lease.
        """
        net_faults = net_faults or {}
        with self._cond:
            if job_id in self._jobs:
                raise ValueError(f"job {job_id!r} is already registered")
            job = _BoardJob(job_id, dict(spec_payload))
            for unit_id, fingerprint, actions in entries:
                if not fingerprint:
                    raise ValueError(
                        f"unit {unit_id!r} has no content fingerprint; "
                        f"remote dispatch requires serializable seeds"
                    )
                job.units[unit_id] = _RemoteUnit(
                    unit_id,
                    fingerprint,
                    fault_actions=actions,
                    net_actions=tuple(net_faults.get(unit_id, ())),
                )
                job.order.append(unit_id)
                self._by_fingerprint.setdefault(fingerprint, []).append(
                    (job_id, unit_id)
                )
            self._jobs[job_id] = job
            self._job_order.append(job_id)
            self._cond.notify_all()

    def unregister_job(self, job_id: str) -> None:
        """Drop a job; outstanding leases die, late results turn 404."""
        with self._cond:
            job = self._jobs.pop(job_id, None)
            if job is None:
                return
            self._job_order.remove(job_id)
            for unit in job.units.values():
                targets = self._by_fingerprint.get(unit.fingerprint)
                if targets:
                    targets[:] = [t for t in targets if t[0] != job_id]
                    if not targets:
                        del self._by_fingerprint[unit.fingerprint]
            for lease_id in [
                lease_id
                for lease_id, lease in self._leases.items()
                if lease.job_id == job_id
            ]:
                del self._leases[lease_id]
            self._cond.notify_all()

    # -- lease lifecycle ---------------------------------------------------

    def _reap_expired_locked(self) -> None:
        """Expire overdue leases: charge the attempt, queue an event.

        The unit parks at ``"reclaiming"`` — not leasable — until the
        owning executor rules on the charged attempt via
        :meth:`requeue` or :meth:`mark_failed`, so a unit can never be
        re-dispatched beyond its retry budget.
        """
        now = time.monotonic()
        expired = [
            lease for lease in self._leases.values() if lease.deadline <= now
        ]
        for lease in expired:
            del self._leases[lease.lease_id]
            job = self._jobs.get(lease.job_id)
            unit = job.units.get(lease.unit_id) if job else None
            if unit is None or unit.state != "leased":
                continue
            unit.state = "reclaiming"
            unit.attempts_charged += 1
            self._stats["reclaimed_leases"] += 1
            job.outbox.append(
                {
                    "kind": "expired",
                    "unit_id": unit.unit_id,
                    "worker_id": lease.worker_id,
                    "attempt": unit.attempts_charged,
                }
            )
        if expired:
            self._cond.notify_all()

    def _next_pending_locked(self) -> Optional[Tuple[_BoardJob, _RemoteUnit]]:
        for job_id in self._job_order:
            job = self._jobs[job_id]
            for unit_id in job.order:
                unit = job.units[unit_id]
                if unit.state == "pending":
                    return job, unit
        return None

    def lease(self, worker_id: str, wait: float = 0.0) -> Tuple[int, dict]:
        """Grant the next pending unit (FIFO across registration order).

        With nothing pending, block up to ``wait`` seconds (clamped to
        ``[0, MAX_LEASE_WAIT]``) for a unit to turn leasable, waking at
        least every 0.25 s to reap overdue leases like
        :meth:`wait_events`.  The worker counts as seen on arrival.
        """
        wait = min(max(0.0, float(wait)), MAX_LEASE_WAIT)
        deadline = time.monotonic() + wait
        delay = 0.0
        with self._cond:
            self._workers[worker_id] = time.time()
            while True:
                self._reap_expired_locked()
                picked = self._next_pending_locked()
                if picked is not None:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    return 200, {"lease": None, "idle": True}
                self._cond.wait(min(remaining, 0.25))
            job, unit = picked
            if unit.net_fault("partition") is not None:
                self._stats["partitioned_requests"] += 1
                return 503, {"error": "injected network partition"}
            lease = Lease(
                lease_id=f"lease-{next(self._lease_counter):06d}",
                job_id=job.job_id,
                unit_id=unit.unit_id,
                unit_fingerprint=unit.fingerprint,
                worker_id=worker_id,
                attempt=unit.attempts_charged + 1,
                deadline=time.monotonic() + self.lease_ttl,
            )
            unit.state = "leased"
            self._leases[lease.lease_id] = lease
            self._stats["leases_granted"] += 1
            if unit.net_fault("drop_lease") is not None:
                # Granted internally but the response is lost: the worker
                # never learns, nobody heartbeats, the lease expires and
                # the reclaim path re-dispatches — chaos for free.
                self._stats["dropped_leases"] += 1
                return 503, {"error": "injected lease drop"}
            slow = unit.net_fault("slow_network")
            if slow is not None:
                delay = float(slow.seconds)
            body = {
                "lease": {
                    "lease_id": lease.lease_id,
                    "job_id": lease.job_id,
                    "unit_id": lease.unit_id,
                    "unit_fingerprint": lease.unit_fingerprint,
                    "attempt": lease.attempt,
                    "prior_attempts": lease.attempt - 1,
                    "lease_ttl": self.lease_ttl,
                    "fault_actions": list(unit.fault_actions),
                },
                "spec": job.spec_payload,
            }
        if delay > 0:
            time.sleep(delay)
        return 200, body

    def heartbeat(
        self, worker_id: str, lease_ids: Sequence[str]
    ) -> Tuple[int, dict]:
        """Renew the named leases; report which were already lost."""
        with self._cond:
            self._reap_expired_locked()
            self._workers[worker_id] = time.time()
            valid: List[str] = []
            lost: List[str] = []
            deadline = time.monotonic() + self.lease_ttl
            for lease_id in lease_ids:
                lease = self._leases.get(str(lease_id))
                if lease is None:
                    lost.append(str(lease_id))
                else:
                    lease.deadline = deadline
                    valid.append(lease.lease_id)
            return 200, {"valid": valid, "lost": lost}

    def submit_result(
        self, unit_fingerprint: str, payload: Mapping[str, Any]
    ) -> Tuple[int, dict]:
        """Record one unit outcome, idempotently, keyed by fingerprint.

        Accepts results from *any* lease generation — a slow first
        worker racing the reclaim's second placement is harmless because
        both computed identical bytes.  Duplicates and post-quarantine
        stragglers are acknowledged and ignored.
        """
        worker_id = str(payload.get("worker_id") or "anonymous")
        status = str(payload.get("status") or "ok")
        delay = 0.0
        with self._cond:
            self._reap_expired_locked()
            self._workers[worker_id] = time.time()
            targets = self._by_fingerprint.get(str(unit_fingerprint), [])
            if not targets:
                self._stats["late_results"] += 1
                return 404, {
                    "error": f"no registered unit with fingerprint "
                    f"{unit_fingerprint!r} (job finished or was dropped)"
                }
            accepted_any = False
            for job_id, unit_id in list(targets):
                job = self._jobs.get(job_id)
                unit = job.units.get(unit_id) if job else None
                if unit is None:
                    continue
                if unit.state == "done":
                    self._stats["duplicate_results"] += 1
                    accepted_any = True
                    continue
                if unit.state == "failed":
                    # Quarantined meanwhile: the straggler is harmless.
                    self._stats["late_results"] += 1
                    accepted_any = True
                    continue
                if unit.net_fault("partition") is not None:
                    self._stats["partitioned_requests"] += 1
                    return 503, {"error": "injected network partition"}
                if unit.net_fault("drop_result") is not None:
                    self._stats["dropped_results"] += 1
                    return 503, {"error": "injected result drop"}
                slow = unit.net_fault("slow_network")
                if slow is not None:
                    delay = max(delay, float(slow.seconds))
                attempts = max(1, int(payload.get("attempts") or 1))
                unit.attempts_charged += attempts
                self._close_unit_leases_locked(job_id, unit_id)
                if status == "ok":
                    unit.state = "done"
                    self._stats["results_accepted"] += 1
                    job.outbox.append(
                        {
                            "kind": "done",
                            "unit_id": unit_id,
                            "output": payload.get("output"),
                            "attempts": unit.attempts_charged,
                            "worker_id": worker_id,
                        }
                    )
                else:
                    error = payload.get("error") or {}
                    unit.state = "failed"
                    self._stats["failures_reported"] += 1
                    job.outbox.append(
                        {
                            "kind": "failed",
                            "unit_id": unit_id,
                            "attempts": unit.attempts_charged,
                            "worker_id": worker_id,
                            "error_type": str(
                                error.get("type") or "RemoteExecutionError"
                            ),
                            "error_message": str(error.get("message") or ""),
                        }
                    )
                accepted_any = True
            if accepted_any:
                self._cond.notify_all()
            body = {"accepted": accepted_any}
        if delay > 0:
            time.sleep(delay)
        return (200 if accepted_any else 409), body

    def _close_unit_leases_locked(self, job_id: str, unit_id: str) -> None:
        for lease_id in [
            lease_id
            for lease_id, lease in self._leases.items()
            if lease.job_id == job_id and lease.unit_id == unit_id
        ]:
            del self._leases[lease_id]

    # -- executor-facing control ------------------------------------------

    def requeue(self, job_id: str, unit_id: str) -> None:
        """Make a reclaimed (or worker-failed) unit leasable again.

        The retry ruling: only the owning executor calls this, after the
        shared :class:`RetryPolicy` approved another attempt.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            unit = job.units.get(unit_id) if job else None
            if unit is not None and unit.state in ("reclaiming", "failed"):
                unit.state = "pending"
                self._cond.notify_all()

    def mark_failed(self, job_id: str, unit_id: str) -> None:
        """Park a unit as failed (the quarantine ruling): never re-leased."""
        with self._cond:
            job = self._jobs.get(job_id)
            unit = job.units.get(unit_id) if job else None
            if unit is not None and unit.state not in ("done",):
                unit.state = "failed"
                self._close_unit_leases_locked(job_id, unit_id)
                self._cond.notify_all()

    def close(self) -> None:
        """Release lease long-polls for shutdown: they answer idle at once."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def wait_events(self, job_id: str, timeout: float = 0.25) -> List[dict]:
        """Drain a job's event outbox, blocking up to ``timeout`` seconds.

        Expiry is time-driven, so the wait wakes at least every 0.25 s
        to reap overdue leases even without notifications.
        """
        deadline = time.monotonic() + max(0.0, float(timeout))
        with self._cond:
            while True:
                self._reap_expired_locked()
                job = self._jobs.get(job_id)
                if job is None:
                    return []
                if job.outbox:
                    events, job.outbox = job.outbox, []
                    return events
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._cond.wait(min(remaining, 0.25))

    def stats(self) -> dict:
        """Operator counters (the ``/healthz`` ``dispatch`` block)."""
        with self._cond:
            self._reap_expired_locked()
            pending = leased = 0
            for job in self._jobs.values():
                for unit in job.units.values():
                    if unit.state == "pending":
                        pending += 1
                    elif unit.state in ("leased", "reclaiming"):
                        leased += 1
            return {
                "lease_ttl": self.lease_ttl,
                "registered_jobs": len(self._jobs),
                "pending_units": pending,
                "leased_units": leased,
                "active_leases": len(self._leases),
                "workers": sorted(self._workers),
                **dict(self._stats),
            }


# -- HTTP glue -------------------------------------------------------------


def handle_work_request(
    board: DispatchBoard, path: str, payload: Mapping[str, Any]
) -> Tuple[int, dict]:
    """Route one ``POST /work/...`` request onto the board.

    Shared by the ``repro serve`` handler and the standalone dispatch
    server so both speak the identical protocol.
    """
    parts = path.strip("/").split("/")
    if not parts or parts[0] != "work":
        return 404, {"error": f"no work route for {path!r}"}
    worker_id = str(payload.get("worker_id") or "anonymous")
    if parts[1:] == ["lease"]:
        wait = payload.get("wait")
        try:
            wait = 0.0 if wait is None else float(wait)
        except (TypeError, ValueError):
            wait = float("nan")
        if wait != wait:
            return 400, {"error": "lease 'wait' must be a number of seconds"}
        return board.lease(worker_id, wait)
    if parts[1:] == ["heartbeat"]:
        leases = payload.get("leases") or []
        if not isinstance(leases, (list, tuple)):
            return 400, {"error": "heartbeat 'leases' must be a list"}
        return board.heartbeat(worker_id, [str(l) for l in leases])
    if len(parts) == 3 and parts[2] == "result":
        if not isinstance(payload, Mapping):
            return 400, {"error": "result payload must be a JSON object"}
        return board.submit_result(parts[1], payload)
    return 404, {"error": f"no work route for {path!r}"}


def make_dispatch_server(
    board: DispatchBoard, host: str = "127.0.0.1", port: int = 0
):
    """Minimal stdlib HTTP server over ``board`` (standalone mode).

    Serves only the ``/work/*`` endpoints plus ``GET /healthz`` — the
    embedded coordinator the ``remote`` executor boots when it is not
    running inside ``repro serve``.  Returns the (unstarted) server;
    drive it with ``serve_forever`` on a daemon thread.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _DispatchHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in separate writes; without this a
        # keep-alive client waits out its delayed ACK on every response.
        disable_nagle_algorithm = True

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                # The worker vanished mid-response (killed, timed out,
                # partitioned).  Its lease will expire; nothing to do.
                self.close_connection = True

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path.rstrip("/") in ("", "/healthz"):
                self._send(200, {"status": "ok", "dispatch": board.stats()})
                return
            self._send(404, {"error": f"no route for GET {self.path}"})

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            try:
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
            except (ValueError, TypeError) as error:
                self._send(400, {"error": f"invalid JSON body: {error}"})
                return
            status, body = handle_work_request(board, self.path, payload)
            self._send(status, body)

    class _DispatchServer(ThreadingHTTPServer):
        daemon_threads = True
        allow_reuse_address = True

    return _DispatchServer((host, port), _DispatchHandler)


# -- spec plumbing ---------------------------------------------------------


def worker_spec_payload(spec: Any, plan: Any, executor: Any) -> dict:
    """The spec dict a lease ships so workers re-plan identical units.

    Scheduling fields are pinned to the worker's point of view
    (``executor="remote"``, one worker, no checkpoints, no retry/fault
    plan of its own — the lease carries both), and the variance shard
    granularity is frozen to the coordinator's resolved value so the
    worker's :func:`~repro.core.spec.plan_experiment` cuts exactly the
    same units with exactly the same content fingerprints.
    """
    from dataclasses import replace

    per_shard = None
    if spec.kind == "variance":
        per_shard = spec.circuits_per_shard
        if per_shard is None:
            per_shard = executor.circuits_per_shard(plan.config.num_circuits)
    worker_spec = replace(
        spec,
        executor="remote",
        workers=1,
        checkpoint_dir=None,
        circuits_per_shard=per_shard,
        retry=None,
        fault_plan=None,
    )
    return worker_spec.to_dict()


# -- worker ----------------------------------------------------------------


def _post_json(
    url: str, payload: Mapping[str, Any], timeout: float = 30.0
) -> Tuple[int, dict]:
    """POST JSON, returning ``(status, parsed_body)``; HTTP errors are
    returned as statuses, transport errors propagate (URLError/OSError)."""
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
            status = response.status
    except urllib.error.HTTPError as error:
        raw = error.read()
        status = error.code
    try:
        body = json.loads(raw or b"{}")
    except ValueError:
        body = {"error": raw.decode("utf-8", errors="replace")}
    return status, body


def _execute_unit(
    unit: Any,
    fault_actions: Optional[Sequence[Mapping[str, Any]]],
    prior_attempts: int,
    policy: RetryPolicy,
    key: str,
    allow_exit: bool,
) -> dict:
    """Run one leased unit under the retry policy, worker-side.

    ``prior_attempts`` offsets the attempt counter by what earlier lease
    generations already consumed, so deterministic faults fire on the
    same global attempt trajectory as a single-host run (a ``kill``
    charged by a reclaimed lease does not re-fire on the re-dispatch).
    """
    local = 0
    started = time.monotonic()
    while True:
        attempt = int(prior_attempts) + local + 1
        try:
            if fault_actions:
                output = call_with_faults(
                    list(fault_actions), attempt, allow_exit, unit.fn, unit.args
                )
            else:
                output = unit.fn(*unit.args)
        except Exception as error:  # noqa: BLE001 - classified below
            local += 1
            elapsed = time.monotonic() - started
            if policy.should_retry(error, attempt, elapsed, elapsed):
                delay = policy.delay(attempt, key)
                if delay > 0:
                    time.sleep(delay)
                continue
            return {
                "status": "failed",
                "attempts": local,
                "error": {
                    "type": type(error).__name__,
                    "message": str(error),
                },
            }
        local += 1
        return {"status": "ok", "attempts": local, "output": output}


def _submit_result(
    base_url: str,
    unit_fingerprint: str,
    payload: Mapping[str, Any],
    max_tries: int = 8,
    initial_delay: float = 0.1,
) -> bool:
    """Upload one result with capped exponential backoff.

    Retries transport failures and 5xx (including injected
    ``drop_result``/``partition`` faults); gives up on 404 (the job is
    gone) or after ``max_tries`` — then the lease simply expires and the
    unit is reclaimed elsewhere, which at-least-once delivery makes
    harmless.
    """
    delay = float(initial_delay)
    for _ in range(max_tries):
        try:
            status, _body = _post_json(
                f"{base_url}/work/{unit_fingerprint}/result", payload
            )
        except (urllib.error.URLError, OSError):
            status = None
        if status is not None:
            if status < 500 and status != 404:
                return True
            if status == 404:
                return False
        time.sleep(delay)
        delay = min(delay * 2, 5.0)
    return False


class _HeartbeatThread(threading.Thread):
    """Daemon renewing the worker's outstanding leases in the background."""

    def __init__(self, base_url: str, worker_id: str):
        super().__init__(name=f"repro-worker-heartbeat-{worker_id}", daemon=True)
        self.base_url = base_url
        self.worker_id = worker_id
        self.interval = 1.0
        self._lock = threading.Lock()
        self._leases: set = set()
        self._stop = threading.Event()

    def track(self, lease_id: str, lease_ttl: float) -> None:
        with self._lock:
            self._leases.add(lease_id)
            # A third of the TTL: two renewals can be lost before expiry.
            self.interval = max(0.05, float(lease_ttl) / 3.0)

    def release(self, lease_id: str) -> None:
        with self._lock:
            self._leases.discard(lease_id)

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:
        while not self._stop.wait(self.interval):
            with self._lock:
                leases = sorted(self._leases)
            if not leases:
                continue
            try:
                _post_json(
                    f"{self.base_url}/work/heartbeat",
                    {"worker_id": self.worker_id, "leases": leases},
                    timeout=10.0,
                )
            except (urllib.error.URLError, OSError):
                # Coordinator unreachable: the lease may expire and be
                # reclaimed — by design; the main loop reconnects.
                pass


def run_worker(
    url: str,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.5,
    max_idle: Optional[float] = None,
    retry: Any = None,
    once: bool = False,
    verbose: bool = False,
    allow_exit: bool = True,
    should_stop: Optional[Callable[[], bool]] = None,
) -> int:
    """Pull-execute-push worker loop (the ``repro worker`` command).

    Connects to a coordinator at ``url``, leases one unit at a time
    (each lease request long-polls up to ``poll_interval`` seconds, so an
    idle worker picks up new work as soon as it is registered; after an
    idle answer it sleeps only what is left of ``poll_interval``, which
    keeps its cadence against a coordinator that answers at once),
    re-plans each job's spec locally (verifying the lease's content
    fingerprint — mismatch reports ``SpecMismatch`` upstream and exits
    ``3``), executes through :func:`call_with_faults` under the shared
    :class:`RetryPolicy`, and uploads the fingerprinted result with
    backoff.  Transport failures reconnect with capped exponential
    backoff.  Returns the process exit code: ``0`` on a clean exit
    (``once`` done, ``max_idle`` elapsed, or ``should_stop``), ``3`` on
    spec mismatch.

    ``allow_exit`` governs injected ``kill`` faults: real worker
    processes genuinely ``os._exit`` (their lease expires and is
    reclaimed); in-thread workers (tests) pass ``False`` to degrade to
    :class:`~repro.reliability.faults.WorkerCrash`.
    """
    from repro.core.spec import ExperimentSpec, plan_experiment

    base_url = url.rstrip("/")
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    policy = RetryPolicy.coerce(retry)
    heartbeat = _HeartbeatThread(base_url, worker_id)
    heartbeat.start()
    poll_interval = float(poll_interval)
    #: The current job's id and (units_by_id, unit fingerprints) from the
    #: local re-plan; a lease for another job replaces it.
    plan_job: Optional[str] = None
    units_by_id: Dict[str, Any] = {}
    fingerprints: Dict[str, str] = {}
    idle_since = time.monotonic()
    reconnect_delay = max(0.05, poll_interval)
    exit_code = 0
    try:
        while True:
            if should_stop is not None and should_stop():
                return exit_code
            if (
                max_idle is not None
                and time.monotonic() - idle_since >= float(max_idle)
            ):
                if verbose:
                    print(f"[worker {worker_id}] idle for {max_idle}s; exiting")
                return exit_code
            asked = time.monotonic()
            try:
                status, body = _post_json(
                    f"{base_url}/work/lease",
                    {"worker_id": worker_id, "wait": poll_interval},
                )
            except (urllib.error.URLError, OSError) as error:
                if verbose:
                    print(
                        f"[worker {worker_id}] coordinator unreachable "
                        f"({error}); retrying in {reconnect_delay:.2f}s"
                    )
                time.sleep(reconnect_delay)
                reconnect_delay = min(reconnect_delay * 2, 10.0)
                continue
            reconnect_delay = max(0.05, poll_interval)
            if status != 200:
                # 503: draining, partition, or an injected drop — poll on.
                time.sleep(poll_interval)
                continue
            lease = body.get("lease")
            if not lease:
                if once:
                    return exit_code
                time.sleep(max(0.0, poll_interval - (time.monotonic() - asked)))
                continue
            idle_since = time.monotonic()
            job_id = str(lease["job_id"])
            if job_id != plan_job:
                plan = plan_experiment(ExperimentSpec.from_dict(body["spec"]))
                plan_job = job_id
                units_by_id = {unit.unit_id: unit for unit in plan.units}
                fingerprints = dict(plan.unit_fingerprints)
            unit_id = str(lease["unit_id"])
            expected = str(lease["unit_fingerprint"])
            unit = units_by_id.get(unit_id)
            computed = fingerprints.get(unit_id)
            if unit is None or computed != expected:
                # Fail fast: different code/config would compute wrong
                # bytes under the right fingerprint.  Report upstream so
                # the coordinator quarantines instead of waiting for the
                # lease to expire, then exit non-zero.
                _submit_result(
                    base_url,
                    expected,
                    {
                        "worker_id": worker_id,
                        "lease_id": lease.get("lease_id"),
                        "unit_id": unit_id,
                        "status": "failed",
                        "attempts": 1,
                        "error": {
                            "type": "SpecMismatch",
                            "message": (
                                f"worker re-planned {unit_id!r} as "
                                f"{computed!r}, lease says {expected!r}; "
                                f"coordinator and worker disagree on the "
                                f"spec or code version"
                            ),
                        },
                    },
                    max_tries=3,
                )
                if verbose:
                    print(
                        f"[worker {worker_id}] spec mismatch on {unit_id}; "
                        f"exiting"
                    )
                return SPEC_MISMATCH_EXIT
            heartbeat.track(str(lease["lease_id"]), float(lease["lease_ttl"]))
            if verbose:
                print(
                    f"[worker {worker_id}] leased {unit_id} "
                    f"(attempt {lease['attempt']})"
                )
            try:
                result = _execute_unit(
                    unit,
                    lease.get("fault_actions"),
                    int(lease.get("prior_attempts", 0)),
                    policy,
                    key=expected,
                    allow_exit=allow_exit,
                )
            finally:
                heartbeat.release(str(lease["lease_id"]))
            result.update(
                {
                    "worker_id": worker_id,
                    "lease_id": lease.get("lease_id"),
                    "unit_id": unit_id,
                }
            )
            delivered = _submit_result(base_url, expected, result)
            if verbose:
                outcome = result["status"]
                suffix = "" if delivered else " (upload abandoned)"
                print(f"[worker {worker_id}] {unit_id}: {outcome}{suffix}")
            idle_since = time.monotonic()
            if once:
                return exit_code
    finally:
        heartbeat.stop()
