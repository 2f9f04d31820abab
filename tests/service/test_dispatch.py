"""Lease-based remote dispatch: board semantics, workers, chaos recovery.

The acceptance bar for the ``remote`` executor is byte-identity: any
placement of a work unit — first lease, reclaimed re-dispatch after a
worker death, a straggler racing its own reclaim — must produce bytes
identical to the serial executor, because every unit carries its own
pre-reserved RNG children.  These tests kill workers mid-unit, drop
result uploads, and partition the network to prove it.
"""

import json
import threading
import time
import urllib.request

import pytest

import repro
from repro.core.executor import available_executors
from repro.core.spec import ExperimentSpec
from repro.core.variance import VarianceConfig
from repro.io import save_result
from repro.reliability.faults import NETWORK_KINDS, FaultAction, FaultPlan
from repro.service import ExperimentServer
from repro.service.dispatch import (
    SPEC_MISMATCH_EXIT,
    DispatchBoard,
    handle_work_request,
    make_dispatch_server,
    run_worker,
)

_CONFIG = VarianceConfig(
    qubit_counts=(2, 3), num_circuits=4, num_layers=3, methods=("random",)
)

_FAST_RETRY = {"max_attempts": 3, "base_delay": 0.0, "jitter": 0.0}


def _spec(**extra):
    extra.setdefault("executor", "remote")
    extra.setdefault("workers", 2)
    extra.setdefault("retry", _FAST_RETRY)
    return ExperimentSpec(kind="variance", config=_CONFIG, seed=7, **extra)


def _serial_bytes(tmp_path, **extra):
    """The reference bytes: the same grid under the serial executor."""
    extra.setdefault("retry", _FAST_RETRY)
    run = repro.run(
        ExperimentSpec(
            kind="variance", config=_CONFIG, seed=7, executor="serial", **extra
        )
    )
    path = tmp_path / "serial.json"
    save_result(run, path)
    return path.read_bytes()


def _register(board, entries, job_id="job-a", net_faults=None):
    board.register_job(
        job_id,
        {"kind": "test"},
        entries,
        net_faults=net_faults,
    )


# -- board unit tests -------------------------------------------------------


class TestDispatchBoard:
    def test_rejects_non_positive_ttl(self):
        with pytest.raises(ValueError, match="positive"):
            DispatchBoard(lease_ttl=0)

    def test_lease_grant_and_idle(self):
        board = DispatchBoard(lease_ttl=5.0)
        _register(board, [("u0", "fp0", None), ("u1", "fp1", None)])
        status, body = board.lease("w1")
        assert status == 200
        lease = body["lease"]
        assert lease["unit_id"] == "u0"  # FIFO
        assert lease["unit_fingerprint"] == "fp0"
        assert lease["attempt"] == 1
        assert lease["prior_attempts"] == 0
        assert body["spec"] == {"kind": "test"}
        status, body = board.lease("w2")
        assert body["lease"]["unit_id"] == "u1"
        status, body = board.lease("w3")
        assert body == {"lease": None, "idle": True}

    def test_empty_fingerprint_rejected(self):
        board = DispatchBoard(lease_ttl=5.0)
        with pytest.raises(ValueError, match="fingerprint"):
            _register(board, [("u0", "", None)])

    def test_duplicate_job_id_rejected(self):
        board = DispatchBoard(lease_ttl=5.0)
        _register(board, [("u0", "fp0", None)])
        with pytest.raises(ValueError, match="registered"):
            _register(board, [("u1", "fp1", None)])

    def test_heartbeat_renews_and_reports_lost(self):
        board = DispatchBoard(lease_ttl=0.3)
        _register(board, [("u0", "fp0", None)])
        _, body = board.lease("w1")
        lease_id = body["lease"]["lease_id"]
        # Renewals keep the lease alive past several native TTLs.
        for _ in range(4):
            time.sleep(0.15)
            _, beat = board.heartbeat("w1", [lease_id])
            assert beat["valid"] == [lease_id]
        _, beat = board.heartbeat("w1", ["lease-999999"])
        assert beat["lost"] == ["lease-999999"]
        assert board.stats()["reclaimed_leases"] == 0

    def test_expired_lease_reclaims_and_charges_attempt(self):
        board = DispatchBoard(lease_ttl=0.15)
        _register(board, [("u0", "fp0", None)])
        _, body = board.lease("w1")
        time.sleep(0.25)
        events = board.wait_events("job-a", timeout=1.0)
        assert [e["kind"] for e in events] == ["expired"]
        assert events[0]["unit_id"] == "u0"
        assert events[0]["worker_id"] == "w1"
        assert events[0]["attempt"] == 1
        # Parked at "reclaiming": not leasable until the executor rules.
        _, body = board.lease("w2")
        assert body["lease"] is None
        board.requeue("job-a", "u0")
        _, body = board.lease("w2")
        assert body["lease"]["unit_id"] == "u0"
        assert body["lease"]["attempt"] == 2  # the lost lease was charged
        assert body["lease"]["prior_attempts"] == 1
        assert board.stats()["reclaimed_leases"] == 1

    def test_result_is_idempotent_by_fingerprint(self):
        board = DispatchBoard(lease_ttl=5.0)
        _register(board, [("u0", "fp0", None)])
        board.lease("w1")
        status, body = board.submit_result(
            "fp0", {"worker_id": "w1", "status": "ok", "output": 42}
        )
        assert status == 200 and body["accepted"]
        # Duplicate upload: acknowledged, ignored, counted.
        status, body = board.submit_result(
            "fp0", {"worker_id": "w2", "status": "ok", "output": 42}
        )
        assert status == 200 and body["accepted"]
        events = board.wait_events("job-a", timeout=0.1)
        assert [e["kind"] for e in events] == ["done"]
        assert events[0]["output"] == 42
        stats = board.stats()
        assert stats["results_accepted"] == 1
        assert stats["duplicate_results"] == 1

    def test_unknown_fingerprint_is_late_404(self):
        board = DispatchBoard(lease_ttl=5.0)
        status, body = board.submit_result("ghost", {"status": "ok"})
        assert status == 404
        assert board.stats()["late_results"] == 1

    def test_failure_report_routes_to_outbox(self):
        board = DispatchBoard(lease_ttl=5.0)
        _register(board, [("u0", "fp0", None)])
        board.lease("w1")
        status, _ = board.submit_result(
            "fp0",
            {
                "worker_id": "w1",
                "status": "failed",
                "attempts": 3,
                "error": {"type": "InjectedFault", "message": "boom"},
            },
        )
        assert status == 200
        events = board.wait_events("job-a", timeout=0.1)
        assert events[0]["kind"] == "failed"
        assert events[0]["error_type"] == "InjectedFault"
        assert events[0]["attempts"] == 3
        # Failed units may be requeued (retry ruling) or stay failed.
        _, body = board.lease("w2")
        assert body["lease"] is None
        board.requeue("job-a", "u0")
        _, body = board.lease("w2")
        assert body["lease"]["unit_id"] == "u0"

    def test_unregister_turns_results_late(self):
        board = DispatchBoard(lease_ttl=5.0)
        _register(board, [("u0", "fp0", None)])
        board.lease("w1")
        board.unregister_job("job-a")
        status, _ = board.submit_result("fp0", {"status": "ok", "output": 1})
        assert status == 404
        assert board.wait_events("job-a", timeout=0.05) == []
        assert board.stats()["active_leases"] == 0


def _lease_in_thread(board, worker_id, wait):
    """Start ``board.lease`` on a thread; the holder gets the result and
    the monotonic time it returned."""
    holder = {}

    def target():
        holder["result"] = board.lease(worker_id, wait)
        holder["returned"] = time.monotonic()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, holder


class TestLongPollLease:
    def test_waiting_lease_wakes_on_register(self):
        board = DispatchBoard(lease_ttl=5.0)
        thread, holder = _lease_in_thread(board, "w1", 5.0)
        time.sleep(0.3)
        assert thread.is_alive()  # idle board: the request is held open
        registered = time.monotonic()
        _register(board, [("u0", "fp0", None)])
        thread.join(timeout=5.0)
        status, body = holder["result"]
        assert status == 200 and body["lease"]["unit_id"] == "u0"
        assert holder["returned"] - registered < 0.2

    def test_lease_expires_while_another_request_waits(self):
        board = DispatchBoard(lease_ttl=0.2)
        _register(board, [("u0", "fp0", None)])
        board.lease("w1")  # never heartbeats
        thread, holder = _lease_in_thread(board, "w2", 5.0)
        events = board.wait_events("job-a", timeout=3.0)
        assert [e["kind"] for e in events] == ["expired"]
        assert thread.is_alive()  # a reclaiming unit is not leasable
        requeued = time.monotonic()
        board.requeue("job-a", "u0")
        thread.join(timeout=5.0)
        status, body = holder["result"]
        assert status == 200
        assert body["lease"]["unit_id"] == "u0"
        assert body["lease"]["attempt"] == 2
        assert holder["returned"] - requeued < 0.2

    @pytest.mark.parametrize("payload", [{}, {"wait": 0}, {"wait": None}])
    def test_missing_or_zero_wait_answers_at_once(self, payload):
        board = DispatchBoard(lease_ttl=5.0)
        start = time.monotonic()
        status, body = handle_work_request(
            board, "/work/lease", {"worker_id": "w1", **payload}
        )
        assert (status, body) == (200, {"lease": None, "idle": True})
        assert time.monotonic() - start < 0.1

    @pytest.mark.parametrize("wait", ["soon", [1], {"s": 1}, "nan"])
    def test_non_numeric_wait_is_rejected(self, wait):
        board = DispatchBoard(lease_ttl=5.0)
        status, body = handle_work_request(
            board, "/work/lease", {"worker_id": "w1", "wait": wait}
        )
        assert status == 400
        assert "wait" in body["error"]
        assert board.stats()["workers"] == []

    def test_negative_wait_answers_at_once(self):
        board = DispatchBoard(lease_ttl=5.0)
        start = time.monotonic()
        assert board.lease("w1", -3.0)[1] == {"lease": None, "idle": True}
        assert time.monotonic() - start < 0.1

    def test_worker_listed_while_its_lease_waits(self):
        board = DispatchBoard(lease_ttl=5.0)
        thread, _ = _lease_in_thread(board, "w1", 2.0)
        deadline = time.monotonic() + 1.0
        while "w1" not in board.stats()["workers"]:
            assert time.monotonic() < deadline, "worker not listed"
            time.sleep(0.01)
        assert thread.is_alive()
        board.close()
        thread.join(timeout=1.0)
        assert not thread.is_alive()

    def test_close_releases_waiting_leases(self):
        board = DispatchBoard(lease_ttl=5.0)
        thread, holder = _lease_in_thread(board, "w1", 5.0)
        time.sleep(0.1)
        closed = time.monotonic()
        board.close()
        thread.join(timeout=5.0)
        assert holder["result"] == (200, {"lease": None, "idle": True})
        assert holder["returned"] - closed < 0.2


class TestNetworkFaults:
    def test_drop_lease_grants_phantom_lease(self):
        board = DispatchBoard(lease_ttl=0.15)
        _register(
            board,
            [("u0", "fp0", None)],
            net_faults={"u0": (FaultAction(kind="drop_lease", times=1),)},
        )
        status, body = board.lease("w1")
        assert status == 503  # response lost; lease granted internally
        assert board.stats()["dropped_leases"] == 1
        # Nobody heartbeats the phantom: it expires and is reclaimed.
        time.sleep(0.25)
        events = board.wait_events("job-a", timeout=1.0)
        assert [e["kind"] for e in events] == ["expired"]
        board.requeue("job-a", "u0")
        status, body = board.lease("w1")
        assert status == 200 and body["lease"]["unit_id"] == "u0"

    def test_drop_result_503_then_accepts(self):
        board = DispatchBoard(lease_ttl=5.0)
        _register(
            board,
            [("u0", "fp0", None)],
            net_faults={"u0": (FaultAction(kind="drop_result", times=1),)},
        )
        board.lease("w1")
        payload = {"worker_id": "w1", "status": "ok", "output": 7}
        status, _ = board.submit_result("fp0", payload)
        assert status == 503  # first upload swallowed
        status, body = board.submit_result("fp0", payload)
        assert status == 200 and body["accepted"]  # retry lands
        stats = board.stats()
        assert stats["dropped_results"] == 1
        assert stats["results_accepted"] == 1

    def test_partition_rejects_without_side_effect(self):
        board = DispatchBoard(lease_ttl=5.0)
        _register(
            board,
            [("u0", "fp0", None)],
            net_faults={"u0": (FaultAction(kind="partition", times=1),)},
        )
        status, _ = board.lease("w1")
        assert status == 503
        assert board.stats()["partitioned_requests"] == 1
        # No phantom lease: the next request gets the unit normally.
        status, body = board.lease("w1")
        assert status == 200 and body["lease"]["unit_id"] == "u0"

    def test_network_kinds_are_valid_fault_plan_kinds(self):
        plan = FaultPlan.from_dict(
            {
                "units": {
                    "u0": [
                        {"kind": kind, "times": 1} for kind in NETWORK_KINDS
                    ]
                }
            }
        )
        actions = plan.resolve(["u0"])["u0"]
        assert sorted(a.kind for a in actions) == sorted(NETWORK_KINDS)


# -- executor registration --------------------------------------------------


class TestRemoteExecutorRegistration:
    def test_remote_is_registered(self):
        assert "remote" in available_executors()

    def test_unbound_execute_fails_fast(self):
        from repro.core.executor import get_executor

        executor = get_executor("remote", workers=2)
        with pytest.raises(RuntimeError, match="must be bound"):
            list(executor._execute([object()]))


# -- end-to-end: standalone mode (embedded server + subprocess workers) -----


@pytest.mark.slow
class TestStandaloneRemote:
    def test_remote_matches_serial_byte_identical(self, tmp_path):
        run = repro.run(_spec())
        remote = tmp_path / "remote.json"
        save_result(run, remote)
        assert remote.read_bytes() == _serial_bytes(tmp_path)

    def test_remote_under_chaos_matches_serial(self, tmp_path):
        # One worker killed mid-unit, one result upload dropped, one
        # transient compute fault: the full robustness model in one run.
        plan = {
            "units": {
                "#0": [{"kind": "kill", "times": 1}],
                "#1": [{"kind": "drop_result", "times": 1}],
                "#2": [{"kind": "transient", "times": 1}],
            }
        }
        run = repro.run(_spec(fault_plan=plan))
        remote = tmp_path / "chaos.json"
        save_result(run, remote)
        assert remote.read_bytes() == _serial_bytes(tmp_path)


# -- end-to-end: service mode (repro serve + worker threads) ----------------


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def _get(url, raw=False):
    with urllib.request.urlopen(url) as response:
        body = response.read()
        return response.status, (body if raw else json.loads(body))


def _poll_done(server, job_id, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, status = _get(f"{server.url}/experiments/{job_id}")
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.02)
    raise AssertionError("job did not finish in time")


class _WorkerPool:
    """In-thread ``run_worker`` loops against a served coordinator."""

    def __init__(self, url, count=2, **kwargs):
        self.stop_event = threading.Event()
        kwargs.setdefault("poll_interval", 0.05)
        self.threads = [
            threading.Thread(
                target=run_worker,
                args=(url,),
                kwargs={
                    "worker_id": f"t{i}",
                    "allow_exit": False,
                    "should_stop": self.stop_event.is_set,
                    **kwargs,
                },
                daemon=True,
            )
            for i in range(count)
        ]
        for thread in self.threads:
            thread.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop_event.set()
        for thread in self.threads:
            thread.join(timeout=10.0)


@pytest.mark.slow
class TestServedRemote:
    def test_served_remote_matches_serial(self, tmp_path):
        with ExperimentServer(store=tmp_path / "store") as server:
            with _WorkerPool(server.url, count=2):
                _, job = _post(
                    f"{server.url}/experiments", _spec().to_dict()
                )
                status = _poll_done(server, job["job_id"])
                assert status["state"] == "done", status.get("error")
                _, body = _get(
                    f"{server.url}/experiments/{job['job_id']}/result",
                    raw=True,
                )
        run = repro.run(
            ExperimentSpec(
                kind="variance",
                config=_CONFIG,
                seed=7,
                executor="serial",
                retry=_FAST_RETRY,
            )
        )
        path = tmp_path / "serial.json"
        save_result(run, path)
        assert body == path.read_bytes()

    def test_stale_lease_reclaim_redispatches_byte_identical(self, tmp_path):
        """A worker dies mid-unit; the lease expires; a second worker
        picks the unit up; the final bytes match the serial executor —
        including when the first result upload of another unit is
        dropped on the floor."""
        plan = {"units": {"#1": [{"kind": "drop_result", "times": 1}]}}
        with ExperimentServer(
            store=tmp_path / "store", lease_ttl=0.5
        ) as server:
            _, job = _post(
                f"{server.url}/experiments", _spec(fault_plan=plan).to_dict()
            )
            # A doomed worker takes the first lease and vanishes without
            # ever heartbeating — the thread-free way to kill a worker
            # mid-unit.  (Retry: the job may still be planning.)
            deadline = time.monotonic() + 30.0
            doomed_unit = None
            while doomed_unit is None and time.monotonic() < deadline:
                status, body = _post(
                    f"{server.url}/work/lease", {"worker_id": "doomed"}
                )
                if status == 200 and body.get("lease"):
                    doomed_unit = body["lease"]["unit_id"]
                else:
                    time.sleep(0.05)
            # Healthy workers arrive; the expired lease is reclaimed and
            # the unit re-dispatched to one of them.
            with _WorkerPool(server.url, count=2):
                done = _poll_done(server, job["job_id"])
            assert done["state"] == "done", done.get("error")
            assert done["reliability"]["reclaimed_leases"] >= 1
            _, health = _get(f"{server.url}/healthz")
            assert health["dispatch"]["reclaimed_leases"] >= 1
            assert health["dispatch"]["dropped_results"] >= 1
            _, served = _get(
                f"{server.url}/experiments/{job['job_id']}/result", raw=True
            )
        assert doomed_unit  # the stale lease really covered a unit
        envelope = json.loads(served)
        run = repro.run(
            ExperimentSpec(
                kind="variance",
                config=_CONFIG,
                seed=7,
                executor="serial",
                retry=_FAST_RETRY,
            )
        )
        path = tmp_path / "serial.json"
        save_result(run, path)
        reference = json.loads(path.read_bytes())
        assert envelope == reference

    def test_spec_mismatch_fails_fast(self, tmp_path):
        board = DispatchBoard(lease_ttl=5.0)
        spec_payload = _spec(workers=1).to_dict()
        from repro.core.spec import plan_experiment

        plan = plan_experiment(ExperimentSpec.from_dict(spec_payload))
        unit_id = plan.units[0].unit_id
        board.register_job(
            "job-a", spec_payload, [(unit_id, "wrong-fingerprint", None)]
        )
        from repro.service.dispatch import make_dispatch_server

        server = make_dispatch_server(board)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://{server.server_address[0]}:{server.server_address[1]}"
            code = run_worker(
                url, worker_id="strict", poll_interval=0.05, once=True,
                allow_exit=False,
            )
            assert code == SPEC_MISMATCH_EXIT
            events = board.wait_events("job-a", timeout=1.0)
            assert events and events[0]["kind"] == "failed"
            assert events[0]["error_type"] == "SpecMismatch"
        finally:
            server.shutdown()
            server.server_close()


class TestWorkerCLI:
    def test_worker_command_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "worker",
                "--connect",
                "http://127.0.0.1:8642",
                "--worker-id",
                "w7",
                "--once",
            ]
        )
        assert args.command == "worker"
        assert args.connect == "http://127.0.0.1:8642"
        assert args.worker_id == "w7"
        assert args.once is True

    def test_serve_lease_ttl_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--store", "x", "--lease-ttl", "3.5"]
        )
        assert args.lease_ttl == 3.5


def _keep_alive_rounds(host, port, method, path, body=None, rounds=20):
    """Seconds for ``rounds`` requests on one keep-alive connection."""
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        start = time.monotonic()
        for _ in range(rounds):
            conn.request(method, path, body=body)
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        return time.monotonic() - start
    finally:
        conn.close()


class TestLongPollServing:
    def test_idle_worker_picks_up_a_job_before_its_poll_interval(
        self, tmp_path
    ):
        """A worker long-polling with a 5 s interval starts a new job's
        units as soon as they are registered, not after its poll sleep."""
        stop = threading.Event()

        def worker():
            # once=True returns after each unit (or idle answer), so the
            # loop stops promptly after close() releases the last wait.
            while not stop.is_set():
                run_worker(
                    server.url, worker_id="patient", poll_interval=5.0,
                    once=True, allow_exit=False,
                )

        with ExperimentServer(store=tmp_path / "store") as server:
            thread = threading.Thread(target=worker, daemon=True)
            thread.start()
            deadline = time.monotonic() + 10.0
            while "patient" not in server.queue.dispatch.stats()["workers"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            start = time.monotonic()
            _, job = _post(f"{server.url}/experiments", _spec().to_dict())
            status = _poll_done(server, job["job_id"], timeout=30.0)
            elapsed = time.monotonic() - start
            stop.set()
            server.queue.dispatch.close()
            thread.join(timeout=5.0)
        assert status["state"] == "done", status.get("error")
        assert elapsed < 2.5
        assert not thread.is_alive()

    def test_dispatch_server_answers_keep_alive_requests_promptly(self):
        board = DispatchBoard(lease_ttl=5.0)
        server = make_dispatch_server(board)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            body = json.dumps({"worker_id": "w1"}).encode("utf-8")
            # Without TCP_NODELAY each response waits out the client's
            # delayed ACK (~40 ms): 20 round trips took ~0.8 s.
            assert _keep_alive_rounds(host, port, "POST", "/work/lease", body) < 0.4
            assert _keep_alive_rounds(host, port, "GET", "/healthz") < 0.4
        finally:
            server.shutdown()
            server.server_close()
