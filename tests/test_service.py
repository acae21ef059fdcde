"""Tests for the serving layer: GridService routing, admission control,
idempotent submits, drain shutdown, the ServiceClient retry loop, and
the end-to-end chaos run (SIGKILL'd worker + transient HTTP and SQLite
faults) whose merged rows must stay bit-identical to a local run_grid."""

import http.client
import json
import socket
import subprocess
import sys
import threading
import time
import urllib.parse
import urllib.request

import pytest

from repro.runner import (EngineConfig, FaultPlan, FaultSpec, GridService,
                          GridSpec, LeaseQueue, RequestError, RetryPolicy,
                          ServiceClient, ServiceUnavailable, busy_stats,
                          run_grid, work)
from repro.runner import faults, leasequeue
from repro.runner.executor import backoff_delay
from repro.runner.jobcache import connect_wal
from repro.runner.service import (MAX_BODY_BYTES, SERVICE_WORKER,
                                  ServiceError)

SMALL = GridSpec(scenarios=("diurnal",), algorithms=("lcp", "threshold"),
                 seeds=(0, 1), sizes=(16,))


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def handle_transport(service, calls=None):
    """A ServiceClient transport that talks straight to
    GridService.handle — the real routing, no sockets."""
    def transport(method, url, body, timeout):
        if calls is not None:
            calls.append((method, url))
        path = urllib.parse.urlsplit(url).path
        try:
            status, payload, _headers = service.handle(method, path, body)
        except ServiceError as exc:
            return exc.status, json.dumps(exc.envelope()).encode()
        return status, json.dumps(payload).encode()
    return transport


@pytest.fixture
def make_service():
    """Build services that are stopped (and so closed) after the test,
    served or not: a service that never served would otherwise keep its
    listening socket and queue connection until garbage collection."""
    services = []

    def make(root, **kwargs):
        service = GridService(root, **kwargs)
        services.append(service)
        return service

    yield make
    for service in services:
        service.stop()


def hit_specs(cache, n_grids):
    """``n_grids`` distinct two-job grids whose every job is already in
    the job cache at ``cache``: submitting one writes only hit
    envelopes and enqueues nothing."""
    specs = [GridSpec(scenarios=("diurnal",),
                      algorithms=("lcp", "threshold"),
                      seeds=(seed,), sizes=(16,))
             for seed in range(n_grids)]
    run_grid(GridSpec(scenarios=("diurnal",),
                      algorithms=("lcp", "threshold"),
                      seeds=tuple(range(n_grids)), sizes=(16,)),
             EngineConfig(cache_dir=cache))
    return specs


class TestRouting:
    def test_submit_enqueues_misses_and_reports_receipt(
            self, tmp_path, make_service):
        service = make_service(tmp_path / "q")
        status, payload, _ = service.handle("POST", "/grids",
                                            SMALL.to_dict())
        assert status == 202
        assert payload["grid"] == SMALL.cache_key()
        assert payload["total"] == len(SMALL)
        assert payload["cache_hits"] == 0
        assert payload["enqueued"] == len(SMALL)
        assert not payload["resubmitted"]

    def test_resubmit_known_digest_never_reenqueues(
            self, tmp_path, make_service):
        service = make_service(tmp_path / "q")
        service.handle("POST", "/grids", SMALL.to_dict())
        queue = LeaseQueue(tmp_path / "q")
        before = queue.counts(SMALL.cache_key())
        status, payload, _ = service.handle("POST", "/grids",
                                            SMALL.to_dict())
        assert status == 200
        assert payload["resubmitted"]
        assert payload["enqueued"] == 0
        assert queue.counts(SMALL.cache_key()) == before

    def test_resubmit_check_is_a_point_lookup(self, tmp_path,
                                               make_service, monkeypatch):
        """Telling a resubmit from a new grid must not list every
        queued grid (a cost that grows with the service's history)."""
        def listing(self):
            raise AssertionError("submit listed every queued grid")

        monkeypatch.setattr(LeaseQueue, "grids", listing)
        service = make_service(tmp_path / "q")
        status, payload, _ = service.handle("POST", "/grids",
                                            SMALL.to_dict())
        assert status == 202 and not payload["resubmitted"]
        status, payload, _ = service.handle("POST", "/grids",
                                            SMALL.to_dict())
        assert status == 200 and payload["resubmitted"]

    def test_client_errors_are_envelopes_never_500(
            self, tmp_path, make_service):
        service = make_service(tmp_path / "q")
        for method, path, body, code in [
                ("POST", "/grids", [1, 2], "bad_request"),
                ("POST", "/grids", {"nope": 1}, "bad_spec"),
                ("GET", "/grids/unknown-digest", None, "unknown_grid"),
                ("GET", "/grids/", None, "bad_request"),
                ("DELETE", "/grids", None, "not_found")]:
            with pytest.raises(ServiceError) as exc_info:
                service.handle(method, path, body)
            assert exc_info.value.code == code
            assert 400 <= exc_info.value.status < 500
            envelope = exc_info.value.envelope()
            assert envelope["error"]["code"] == code

    def test_healthz_and_readyz(self, tmp_path, make_service):
        service = make_service(tmp_path / "q", cache_dir=tmp_path / "c")
        assert service.handle("GET", "/healthz")[1]["ok"]
        status, payload, _ = service.handle("GET", "/readyz")
        assert status == 200 and payload["ready"]

    def test_draining_refuses_submits_and_fails_readyz(
            self, tmp_path, make_service):
        service = make_service(tmp_path / "q", drain_timeout=0.5)
        service._draining = True  # flag only; no serve loop to stop
        status, payload, _ = service.handle("GET", "/readyz")
        assert status == 503 and not payload["ready"]
        with pytest.raises(ServiceError) as exc_info:
            service.handle("POST", "/grids", SMALL.to_dict())
        assert exc_info.value.status == 503
        assert exc_info.value.code == "draining"

    def test_over_budget_submit_gets_429_with_retry_after(
            self, tmp_path, make_service):
        service = make_service(tmp_path / "q", budget=len(SMALL) - 1)
        with pytest.raises(ServiceError) as exc_info:
            service.handle("POST", "/grids", SMALL.to_dict())
        assert exc_info.value.status == 429
        assert exc_info.value.code == "over_budget"
        assert exc_info.value.headers["Retry-After"]
        # the refused grid was not partially enqueued
        assert LeaseQueue(tmp_path / "q").grids() == []

    def test_specs_the_engine_rejects_are_400_not_enqueued(
            self, tmp_path, make_service):
        """A spec every worker would refuse (``run_grid`` validates it
        up front) must not become a lease no worker can finish."""
        service = make_service(tmp_path / "q")
        for bad in (dict(SMALL.to_dict(), algorithms=["no-such-alg"]),
                    dict(SMALL.to_dict(), scenarios=["no-such-scenario"]),
                    dict(SMALL.to_dict(), lookahead=-1)):
            with pytest.raises(ServiceError) as exc_info:
                service.handle("POST", "/grids", bad)
            assert exc_info.value.status == 400
            assert exc_info.value.code == "bad_spec"
        assert LeaseQueue(tmp_path / "q").grids() == []


class TestAdmissionBudget:
    def test_concurrent_submits_cannot_overrun_the_budget(self, tmp_path):
        """Three 40-job grids submitted at once against budget=60: the
        budget is checked inside the enqueue transaction, so exactly one
        grid is admitted in every trial."""
        specs = [GridSpec(scenarios=("diurnal",), algorithms=("lcp",),
                          seeds=tuple(range(40)), sizes=(T,))
                 for T in (16, 17, 18)]
        for trial in range(20):
            root = tmp_path / f"q{trial}"
            service = GridService(root, budget=60)
            barrier = threading.Barrier(len(specs))
            statuses = []

            def submit(spec):
                barrier.wait()
                try:
                    status, _, _ = service.handle("POST", "/grids",
                                                  spec.to_dict())
                except ServiceError as exc:
                    status = exc.status
                statuses.append(status)

            threads = [threading.Thread(target=submit, args=(spec,))
                       for spec in specs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service._server.server_close()
            assert sorted(statuses) == [202, 429, 429], (trial, statuses)
            queue = LeaseQueue(root)
            assert len(queue.grids()) == 1
            assert queue.outstanding_jobs() == 40
            queue.close()

    def test_refused_submit_hits_merge_after_accepted_resubmit(
            self, tmp_path, make_service):
        """A refused submit has already written its cache-hit rows; the
        accepted resubmit writes them again, and the merge (deduped by
        sequence number) is still bit-identical to a local run."""
        cache = tmp_path / "cache"
        half = GridSpec(scenarios=("diurnal",), algorithms=("lcp",),
                        seeds=(0, 1), sizes=(16,))
        run_grid(half, EngineConfig(cache_dir=cache))
        blocker = GridSpec(scenarios=("sawtooth",), algorithms=("lcp",),
                           seeds=(0,), sizes=(16,))
        misses = len(SMALL) - len(half)
        service = make_service(tmp_path / "q", cache_dir=cache,
                               budget=misses)
        assert service.handle("POST", "/grids", blocker.to_dict())[0] == 202
        with pytest.raises(ServiceError) as exc_info:
            service.handle("POST", "/grids", SMALL.to_dict())
        assert exc_info.value.status == 429
        work(tmp_path / "q", worker="w", config=EngineConfig(cache_dir=cache))
        status, payload, _ = service.handle("POST", "/grids",
                                            SMALL.to_dict())
        assert status == 202 and payload["enqueued"] == misses
        work(tmp_path / "q", worker="w", config=EngineConfig(cache_dir=cache))
        _, done, _ = service.handle("GET", f"/grids/{payload['grid']}")
        assert done["state"] == "done"
        assert done["rows"] == run_grid(SMALL)
        hit_file = service._queue.worker_path(payload["grid"],
                                              SERVICE_WORKER)
        assert len(hit_file.read_text().splitlines()) == 2 * len(half)


class TestOwnedConnection:
    """The service's one queue connection: no request checkpoints,
    commits are durable, and close/stop release it."""

    def test_stop_returns_for_a_service_that_never_served(self, tmp_path):
        service = GridService(tmp_path / "q")
        stopper = threading.Thread(target=service.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=2.0)
        assert not stopper.is_alive()

    def test_wal_survives_requests_until_close(
            self, tmp_path, make_service):
        """No request closes the last connection to ``queue.db``, so no
        request checkpoints (and deletes) the WAL; the service's own
        close does."""
        root = tmp_path / "q"
        service = make_service(root)
        assert service.handle("POST", "/grids", SMALL.to_dict())[0] == 202
        service.handle("GET", f"/grids/{SMALL.cache_key()}")
        assert (root / "queue.db-wal").exists()
        service.close()
        assert not (root / "queue.db-wal").exists()

    def test_queue_connections_commit_with_synchronous_full(
            self, tmp_path, make_service, monkeypatch):
        service = make_service(tmp_path / "q")
        assert service._queue._conn.execute(
            "PRAGMA synchronous").fetchone()[0] == 2
        service.handle("POST", "/grids", SMALL.to_dict())
        seen = []
        claim = LeaseQueue.claim

        def spying_claim(queue, *args, **kwargs):
            seen.append(queue._conn.execute(
                "PRAGMA synchronous").fetchone()[0])
            return claim(queue, *args, **kwargs)

        monkeypatch.setattr(LeaseQueue, "claim", spying_claim)
        work(tmp_path / "q", worker="w")
        assert seen and set(seen) == {2}
        # the job cache and the sinks keep NORMAL
        conn = connect_wal(tmp_path / "other.db")
        try:
            assert conn.execute("PRAGMA synchronous").fetchone()[0] == 1
        finally:
            conn.close()

    def test_status_parses_only_its_own_grids_envelopes(
            self, tmp_path, make_service, monkeypatch):
        specs = hit_specs(tmp_path / "cache", 51)
        service = make_service(tmp_path / "q", cache_dir=tmp_path / "cache")
        for spec in specs:
            _, receipt, _ = service.handle("POST", "/grids", spec.to_dict())
            assert receipt["cache_hits"] == len(spec)
        parsed = []
        iter_envelopes = leasequeue._iter_envelopes

        def counting(path):
            for env in iter_envelopes(path):
                parsed.append(env["grid"])
                yield env

        monkeypatch.setattr(leasequeue, "_iter_envelopes", counting)
        grid_id = specs[0].cache_key()
        _, payload, _ = service.handle("GET", f"/grids/{grid_id}")
        assert payload["state"] == "done"
        assert payload["rows"] == run_grid(specs[0])
        assert parsed == [grid_id] * len(specs[0])

    def test_unknown_grid_ids_touch_no_file(self, tmp_path, make_service,
                                            monkeypatch):
        """A polled id becomes a path component only once ``queue.db``
        knows it: ``..`` and friends stay a 404 that opens nothing."""
        service = make_service(tmp_path / "q")
        service.handle("POST", "/grids", SMALL.to_dict())
        opened = []
        monkeypatch.setattr(leasequeue, "_iter_envelopes", opened.append)
        for grid_id in ("..", ".", "no-such-grid"):
            with pytest.raises(ServiceError) as exc_info:
                service.handle("GET", f"/grids/{grid_id}")
            assert exc_info.value.status == 404
            assert service._queue.envelope_paths(grid_id) == []
        assert opened == []

    def test_threaded_clients_share_the_connection_safely(
            self, tmp_path, make_service):
        """More client threads than cores submit and poll distinct
        all-hit grids at once under a tiny switch interval: no request
        fails server-side, the queue holds exactly the submitted grids,
        and every served grid's rows are the local run's."""
        n_threads, per_thread = 8, 3
        specs = hit_specs(tmp_path / "cache", n_threads * per_thread)
        expected = {spec.cache_key(): run_grid(spec) for spec in specs}
        service = make_service(tmp_path / "q",
                               cache_dir=tmp_path / "cache").start()
        statuses, served, errors = [], {}, []

        class RecordingClient(ServiceClient):
            def _exchange(self, method, url, body, timeout):
                status, raw = super()._exchange(method, url, body, timeout)
                statuses.append(status)
                return status, raw

        def client_loop(mine):
            try:
                with RecordingClient(service.url) as client:
                    for spec in mine:
                        grid_id = client.submit(spec)["grid"]
                        served[grid_id] = client.wait(
                            grid_id, timeout=30.0, poll=0.01)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=client_loop,
                                    args=(specs[i::n_threads],))
                   for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert statuses and max(statuses) < 500
        queue = LeaseQueue(tmp_path / "q")
        try:
            assert sorted(queue.grids()) == sorted(expected)
        finally:
            queue.close()
        assert {grid_id: payload["rows"]
                for grid_id, payload in served.items()} == expected


class TestCacheProbingSubmit:
    def test_warm_cache_submit_is_instantly_done_and_identical(
            self, tmp_path, make_service):
        local = run_grid(SMALL,
                         EngineConfig(cache_dir=tmp_path / "cache"))
        service = make_service(tmp_path / "q",
                               cache_dir=tmp_path / "cache")
        status, payload, _ = service.handle("POST", "/grids",
                                            SMALL.to_dict())
        assert status == 202
        assert payload["cache_hits"] == len(SMALL)
        assert payload["enqueued"] == 0
        _, done, _ = service.handle(
            "GET", f"/grids/{payload['grid']}", None)
        assert done["state"] == "done"
        assert done["rows"] == local

    def test_partial_cache_enqueues_only_misses(self, tmp_path, make_service):
        half = GridSpec(scenarios=("diurnal",), algorithms=("lcp",),
                        seeds=(0, 1), sizes=(16,))
        run_grid(half, EngineConfig(cache_dir=tmp_path / "cache"))
        service = make_service(tmp_path / "q",
                               cache_dir=tmp_path / "cache")
        _, payload, _ = service.handle("POST", "/grids", SMALL.to_dict())
        assert payload["cache_hits"] == len(half)
        assert payload["enqueued"] == len(SMALL) - len(half)
        # a worker drains the misses; the merge is bit-identical
        work(tmp_path / "q", worker="w",
             config=EngineConfig(cache_dir=tmp_path / "cache"))
        _, done, _ = service.handle(
            "GET", f"/grids/{payload['grid']}", None)
        assert done["state"] == "done"
        assert done["rows"] == run_grid(SMALL)
        # the hits came through the synthetic service worker file
        assert service._queue.worker_path(payload["grid"],
                                          SERVICE_WORKER).exists()

    def test_degraded_state_when_worker_fleet_dies(
            self, tmp_path, make_service):
        clock = FakeClock()
        service = make_service(tmp_path / "q", clock=clock)
        _, payload, _ = service.handle("POST", "/grids", SMALL.to_dict())
        queue = LeaseQueue(tmp_path / "q", clock=clock)
        assert queue.claim("doomed", ttl=10.0) is not None
        clock.now = 1000.0  # fleet dead: heartbeat deadline long past
        _, status_payload, _ = service.handle(
            "GET", f"/grids/{payload['grid']}", None)
        assert status_payload["state"] == "degraded"
        assert status_payload["stale"] >= 1
        assert "rows" not in status_payload


class TestDrainShutdown:
    def test_shutdown_waits_for_inflight_lease_then_exits(
            self, tmp_path, make_service):
        service = make_service(tmp_path / "q", drain_timeout=30.0).start()
        service.handle("POST", "/grids", SMALL.to_dict())
        queue = LeaseQueue(tmp_path / "q")
        lease = queue.claim("w")
        status, payload, _ = service.handle("POST", "/shutdown")
        assert status == 200 and payload["draining"]
        # in-flight lease: the serve loop must still be alive
        service.join(timeout=0.3)
        assert service._thread.is_alive()
        queue.complete(lease)
        service.join(timeout=10.0)
        assert not service._thread.is_alive()
        assert queue.counts()["leased"] == 0  # no orphaned leases

    def test_shutdown_is_idempotent(self, tmp_path, make_service):
        service = make_service(tmp_path / "q").start()
        for _ in range(2):
            status, payload, _ = service.handle("POST", "/shutdown")
            assert status == 200 and payload["draining"]
        service.join(timeout=10.0)
        assert not service._thread.is_alive()

    def test_shutdown_reply_arrives_on_every_cycle(
            self, tmp_path, make_service):
        for cycle in range(5):
            service = make_service(tmp_path / f"q{cycle}").start()
            with ServiceClient(service.url,
                               policy=RetryPolicy(max_retries=0)) as client:
                assert client.shutdown() == {"draining": True}
            service.join(timeout=10.0)
            assert not service._thread.is_alive()

    def test_serve_loop_waits_for_inflight_shutdown_reply(
            self, tmp_path, make_service):
        """The drain stops the accept loop while the ``POST /shutdown``
        handler may still be writing its reply; the serve loop (and,
        under ``repro serve``, the process) must outlive that handler."""
        service = make_service(tmp_path / "q")
        handled, release = threading.Event(), threading.Event()
        route = service.handle

        def slow_reply(method, path, body=None):
            out = route(method, path, body)
            if path == "/shutdown":
                handled.set()
                release.wait(10.0)
            return out

        service.handle = slow_reply
        service.start()
        replies = []

        def shutdown():
            with ServiceClient(service.url, policy=RetryPolicy(
                    max_retries=0)) as client:
                replies.append(client.shutdown())

        client = threading.Thread(target=shutdown)
        client.start()
        assert handled.wait(10.0)
        service.join(timeout=0.5)  # the drain has already stopped accepting
        assert service._thread.is_alive()
        release.set()
        client.join(timeout=10.0)
        service.join(timeout=10.0)
        assert not service._thread.is_alive()
        assert replies == [{"draining": True}]


def count_connections(service):
    """Count the connections ``service`` accepts from now on."""
    accepted = []
    process = service._server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        return process(request, client_address)

    service._server.process_request = counting
    return accepted


def raw_exchange(service, request: bytes):
    """Send ``request`` on a fresh socket and read until the server
    closes it: ``(status, headers, payload)``.  A server that kept the
    connection open fails the read with a timeout."""
    with socket.create_connection((service.host, service.port),
                                  timeout=5.0) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, json.loads(body)


def run_with_watchdog(fn, limit):
    """Run ``fn`` on a thread; seconds it took, or ``None`` when it
    is still running after ``limit`` seconds."""
    done = threading.Event()
    t0 = time.monotonic()
    thread = threading.Thread(target=lambda: (fn(), done.set()),
                              daemon=True)
    thread.start()
    if not done.wait(limit):
        return None
    thread.join(timeout=limit)
    return time.monotonic() - t0


class TestConnections:
    """One persistent HTTP/1.1 connection per client; the service
    closes connections only when it must, and never waits on an idle
    one to stop or drain."""

    def test_one_client_makes_one_connection(self, tmp_path, make_service):
        service = make_service(tmp_path / "q").start()
        accepted = count_connections(service)
        with ServiceClient(service.url) as client:
            receipt = client.submit(SMALL)
            for _ in range(5):
                assert client.status(receipt["grid"])["grid"] == \
                    receipt["grid"]
                assert client.healthz()["ok"]
            assert client.readyz()
        assert len(accepted) == 1

    def test_server_closed_idle_connection_costs_no_retry(
            self, tmp_path, make_service):
        """The service closes an idle connection after its request
        timeout; the client's next request reconnects and resends
        inside the same attempt, with no backoff sleep."""
        service = make_service(tmp_path / "q",
                               request_timeout=0.2).start()
        accepted = count_connections(service)
        sleeps = []
        with ServiceClient(service.url, sleep=sleeps.append) as client:
            assert client.healthz()["ok"]
            time.sleep(0.6)  # the server times the idle connection out
            assert client.healthz()["ok"]
            assert len(accepted) == 2
        assert sleeps == []

    def test_connection_close_reply_reconnects_without_retry(
            self, tmp_path, make_service):
        """A ``Connection: close`` reply (here: any reply while
        draining) ends the connection; the next request opens a new
        one without counting a retry."""
        service = make_service(tmp_path / "q").start()
        accepted = count_connections(service)
        sleeps = []
        with ServiceClient(service.url, sleep=sleeps.append) as client:
            service._draining = True  # flag only; the loop keeps serving
            for _ in range(3):
                assert client.healthz()["draining"]
        assert sleeps == []
        assert len(accepted) == 3

    def test_stop_does_not_wait_on_an_idle_connection(
            self, tmp_path, make_service):
        # a 5 s request timeout bounds the failure mode of this test
        service = make_service(tmp_path / "q", request_timeout=5.0).start()
        with ServiceClient(service.url) as idle:
            assert idle.healthz()["ok"]
            took = run_with_watchdog(service.stop, 4.0)
            assert took is not None and took < 1.0, took

    def test_drain_does_not_wait_on_an_idle_connection(
            self, tmp_path, make_service):
        service = make_service(tmp_path / "q", request_timeout=5.0).start()
        with ServiceClient(service.url) as idle, \
                ServiceClient(service.url,
                              policy=RetryPolicy(max_retries=0)) as other:
            assert idle.healthz()["ok"]
            replies = []
            took = run_with_watchdog(
                lambda: (replies.append(other.shutdown()),
                         service.join(timeout=4.0)), 4.0)
            assert replies == [{"draining": True}]
            assert took is not None and took < 1.0, took
            assert not service._thread.is_alive()

    def test_close_and_with_release_the_socket(self, tmp_path,
                                               make_service):
        service = make_service(tmp_path / "q").start()
        client = ServiceClient(service.url)
        assert client.healthz()["ok"]
        sock = client._conn.sock
        client.close()
        assert sock.fileno() == -1
        client.close()  # idempotent
        with ServiceClient(service.url) as client:
            assert client.healthz()["ok"]
            sock = client._conn.sock
        assert sock.fileno() == -1

    def test_http10_and_connection_close_clients_get_replies(
            self, tmp_path, make_service):
        service = make_service(tmp_path / "q").start()
        # urllib sends "Connection: close" on every request
        with urllib.request.urlopen(service.url + "/healthz",
                                    timeout=5.0) as resp:
            assert resp.status == 200
            assert resp.headers["Connection"] == "close"
            assert json.loads(resp.read())["ok"]
        for request in (b"GET /healthz HTTP/1.0\r\n\r\n",
                        b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                        b"Connection: close\r\n\r\n"):
            status, headers, payload = raw_exchange(service, request)
            assert status == 200 and payload["ok"]
            assert headers["Connection"] == "close"

    @pytest.mark.parametrize("framing,status,code", [
        (b"Content-Length: abc\r\n\r\n{}", 400, "bad_request"),
        (b"Content-Length: 1e3\r\n\r\n{}", 400, "bad_request"),
        (b"Content-Length: -2\r\n\r\n{}", 400, "bad_request"),
        (b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
         411, "length_required"),
        (b"Content-Length: %d\r\n\r\n{}" % (MAX_BODY_BYTES + 1), 413,
         "body_too_large"),
    ])
    def test_unread_body_gets_4xx_then_eof(self, tmp_path, make_service,
                                           framing, status, code):
        """A body the service does not read would be parsed as the
        next request on a kept-alive connection: the reply is a 4xx
        envelope, and the connection closes after it."""
        service = make_service(tmp_path / "q").start()
        got, headers, payload = raw_exchange(
            service, b"POST /grids HTTP/1.1\r\nHost: x\r\n" + framing)
        assert (got, payload["error"]["code"]) == (status, code)
        assert headers["Connection"] == "close"


class TestServiceClientRetry:
    POLICY = RetryPolicy(max_retries=2, backoff=0.05, backoff_max=2.0)

    def make_client(self, transport, sleeps):
        return ServiceClient("http://svc", policy=self.POLICY,
                             transport=transport, sleep=sleeps.append)

    def test_transport_failures_retry_with_deterministic_backoff(self):
        attempts = []

        def flaky(method, url, body, timeout):
            attempts.append(method)
            if len(attempts) < 3:
                raise OSError("connection refused")
            return 200, b'{"ok": true}'

        sleeps = []
        client = self.make_client(flaky, sleeps)
        assert client.request("GET", "/healthz") == {"ok": True}
        assert len(attempts) == 3
        assert sleeps == [backoff_delay(self.POLICY, 1),
                          backoff_delay(self.POLICY, 2)]

    def test_attempts_are_bounded_then_service_unavailable(self):
        attempts = []

        def dead(method, url, body, timeout):
            attempts.append(method)
            raise OSError("connection refused")

        sleeps = []
        client = self.make_client(dead, sleeps)
        with pytest.raises(ServiceUnavailable):
            client.request("GET", "/healthz")
        assert len(attempts) == self.POLICY.max_retries + 1
        assert len(sleeps) == self.POLICY.max_retries

    def test_torn_reply_is_a_transport_error(self):
        attempts = []

        def torn(method, url, body, timeout):
            attempts.append(method)
            raise http.client.IncompleteRead(b'{"draini', 9)

        sleeps = []
        client = self.make_client(torn, sleeps)
        with pytest.raises(ServiceUnavailable) as exc_info:
            client.request("POST", "/shutdown")
        assert isinstance(exc_info.value.__cause__,
                          http.client.IncompleteRead)
        assert len(attempts) == self.POLICY.max_retries + 1
        assert sleeps == [backoff_delay(self.POLICY, 1),
                          backoff_delay(self.POLICY, 2)]

    def test_429_and_5xx_retry_but_4xx_raises_immediately(self):
        responses = [(429, b'{"error": {"code": "over_budget"}}'),
                     (503, b'{"error": {"code": "draining"}}'),
                     (200, b'{"ok": true}')]
        attempts = []

        def busy(method, url, body, timeout):
            attempts.append(method)
            return responses[len(attempts) - 1]

        sleeps = []
        client = self.make_client(busy, sleeps)
        assert client.request("POST", "/grids") == {"ok": True}
        assert len(attempts) == 3

        calls = []

        def bad_request(method, url, body, timeout):
            calls.append(method)
            return 400, b'{"error": {"code": "bad_spec", "message": "no"}}'

        client = self.make_client(bad_request, sleeps=[])
        with pytest.raises(RequestError) as exc_info:
            client.request("POST", "/grids")
        assert exc_info.value.status == 400
        assert len(calls) == 1  # no retry on a client error

    def test_injected_http_faults_bounded_and_counted(
            self, tmp_path, make_service):
        service = make_service(tmp_path / "q")
        sleeps = []
        client = ServiceClient("http://svc", policy=self.POLICY,
                               transport=handle_transport(service),
                               sleep=sleeps.append)
        faults.activate(FaultPlan(specs=(
            FaultSpec(site="http_request", match="GET /healthz",
                      nth=(1, 2)),)))
        assert client.healthz()["ok"]
        assert sleeps == [backoff_delay(self.POLICY, 1),
                          backoff_delay(self.POLICY, 2)]
        # a poisoned site exhausts the bounded budget, then surfaces
        faults.reset()
        faults.activate(FaultPlan(specs=(
            FaultSpec(site="http_request", match="GET /healthz",
                      nth=None),)))
        with pytest.raises(ServiceUnavailable):
            client.healthz()

    def test_retried_submit_never_double_enqueues(
            self, tmp_path, make_service):
        service = make_service(tmp_path / "q")
        calls = []
        sleeps = []
        client = ServiceClient("http://svc", policy=self.POLICY,
                               transport=handle_transport(service, calls),
                               sleep=sleeps.append)
        # the first POST attempt dies before the wire; the retry lands
        faults.activate(FaultPlan(specs=(
            FaultSpec(site="http_request", match="POST /grids",
                      nth=(1,)),)))
        receipt = client.submit(SMALL)
        assert not receipt["resubmitted"]
        assert len(sleeps) == 1
        queue = LeaseQueue(tmp_path / "q")
        leases_after_first = sum(queue.counts(receipt["grid"]).values())
        # a full client-level duplicate (response lost, app retried)
        again = client.submit(SMALL)
        assert again["resubmitted"] and again["enqueued"] == 0
        assert sum(queue.counts(receipt["grid"]).values()) == \
            leases_after_first

    def test_wait_returns_on_degraded_instead_of_hanging(
            self, tmp_path, make_service):
        clock = FakeClock()
        service = make_service(tmp_path / "q", clock=clock)
        client = ServiceClient("http://svc",
                               transport=handle_transport(service),
                               sleep=lambda s: None, clock=clock)
        receipt = client.submit(SMALL)
        queue = LeaseQueue(tmp_path / "q", clock=clock)
        assert queue.claim("doomed", ttl=10.0) is not None
        clock.now = 1000.0
        payload = client.wait(receipt["grid"], timeout=5.0)
        assert payload["state"] == "degraded"


_DOOMED_SERVICE_WORKER = """
import os, signal, sys
from repro.runner import EngineConfig, LeaseQueue, run_grid
from repro.runner import leasequeue as lq

root, cache = sys.argv[1], sys.argv[2]
queue = LeaseQueue(root)
lease = queue.claim("doomed", ttl=0.5)
assert lease is not None

class DoomedSink(lq._LeaseSink):
    def write_many(self, rows):
        super().write_many(rows)
        os.kill(os.getpid(), signal.SIGKILL)

run_grid(queue.spec(lease.grid_id),
         EngineConfig(sink=DoomedSink(queue, lease, 0.5), batch_size=1,
                      cache_dir=cache),
         job_slice=(lease.start, lease.stop))
"""


class TestEndToEndChaos:
    def test_served_grid_survives_chaos_bit_identical(
            self, tmp_path, make_service):
        """The acceptance chaos run, over real HTTP: a SIGKILL'd
        worker, a transient http_request fault and transient lock
        faults on the queue and cache must not change a single byte of
        the merged rows, and the drain must exit with no orphans."""
        reference = run_grid(SMALL)  # fault-free local baseline
        cache = tmp_path / "cache"
        service = make_service(tmp_path / "q", cache_dir=cache,
                               lease_jobs=2, drain_timeout=30.0).start()
        client = ServiceClient(
            service.url, policy=RetryPolicy(backoff=0.01))
        faults.activate(FaultPlan(specs=(
            FaultSpec(site="http_request", match="POST /grids",
                      nth=(1,)),
            FaultSpec(site="queue_claim", nth=(1,), kind="lock"),
            FaultSpec(site="sqlite_lock", nth=(1,), kind="lock"),)))
        busy_before = busy_stats()["sqlite_busy_retries"]

        receipt = client.submit(SMALL)  # first POST attempt is injected
        assert receipt["enqueued"] == len(SMALL)
        grid_id = receipt["grid"]

        # one worker is SIGKILL'd mid-lease...
        proc = subprocess.run(
            [sys.executable, "-c", _DOOMED_SERVICE_WORKER,
             str(tmp_path / "q"), str(cache)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == -9, proc.stderr
        # ...and a survivor reclaims and finishes (its first claim
        # eats the injected queue lock; the busy retry heals it)
        survivor = threading.Thread(target=work, args=(tmp_path / "q",),
                                    kwargs=dict(worker="survivor",
                                                poll=0.05,
                                                config=EngineConfig(
                                                    cache_dir=cache)))
        survivor.start()
        # work() returns once every lease is done; a poll made while it
        # drains can land between the dead lease's deadline and the
        # survivor's reclaim, when the grid is (correctly) degraded
        survivor.join(timeout=60.0)
        assert not survivor.is_alive()
        done = client.wait(grid_id, timeout=10.0)
        assert done["state"] == "done"
        assert done["rows"] == reference
        assert busy_stats()["sqlite_busy_retries"] > busy_before

        # resubmit to a FRESH queue with the warm cache: every job is
        # a hit, nothing is re-enqueued, rows stay identical
        faults.deactivate()
        faults.reset()
        service2 = make_service(tmp_path / "q2", cache_dir=cache).start()
        client2 = ServiceClient(service2.url)
        receipt2 = client2.submit(SMALL)
        assert receipt2["cache_hits"] == len(SMALL)
        assert receipt2["enqueued"] == 0
        done2 = client2.wait(receipt2["grid"], timeout=10.0)
        assert done2["state"] == "done"
        assert done2["rows"] == reference

        # clean drain on both replicas: exit the serve loop, and no
        # lease anywhere is left orphaned
        for svc, cli in ((service, client), (service2, client2)):
            with cli:
                assert cli.shutdown()["draining"]
            svc.join(timeout=15.0)
            assert not svc._thread.is_alive()
        for root in (tmp_path / "q", tmp_path / "q2"):
            assert LeaseQueue(root).counts()["leased"] == 0
