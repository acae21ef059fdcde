"""Robust HTTP grid service: cache-probing submits on the lease queue.

The serving half of the multi-host story: a long-running ``repro
serve`` daemon (stdlib :class:`~http.server.ThreadingHTTPServer`, no
third-party dependencies) that answers cache-hit work instantly and
enqueues only the *miss* set onto the :mod:`~repro.runner.leasequeue`
for the worker fleet to drain.  One request lifecycle::

    POST /grids  {GridSpec.to_dict()}
      -> probe every job against the content-addressed JobCache
      -> one queue transaction, one durable COMMIT: the grid, leases
         covering only the misses, and the hit rows (which the
         ordinary merge reads before any worker envelope)
      -> 202 {"grid": <digest>, "cache_hits": h, "enqueued": m}
    GET /grids/<id>
      -> the shared leasequeue.grid_status() payload: lease + job
         counts, staleness, state (pending | done | degraded), and
         the merged rows once every lease drained
    GET /healthz        liveness only (the process answers)
    GET /readyz         queue database answers and the job cache's
                        directory is usable (both O(1) probes)
    POST /shutdown      drain: stop admitting, finish in-flight
                        leases, then exit the serve loop (exit 0)

Robustness model:

* **Idempotency** — a grid's id *is* its content digest
  (``GridSpec.cache_key()``), and the queue's enqueue transaction is a
  no-op for known ids, so a retried submit (client timeout, duplicate
  POST) can never double-enqueue.
* **Admission control** — submits that would push the queue's
  outstanding-job total over ``budget`` get ``429`` with a
  ``Retry-After`` header instead of growing the queue unboundedly; a
  refused submit writes nothing.
* **Error envelopes** — every failure is structured JSON
  ``{"error": {"code", "message"}}``; client mistakes (bad JSON,
  unknown grid, malformed spec, a malformed ``Content-Length`` or a
  ``Transfer-Encoding`` body) are 4xx, never 500.
* **Connections** — the handler speaks HTTP/1.1 with ``TCP_NODELAY``:
  a client keeps one connection for all its requests, served by one
  handler thread.  The service closes a connection after replying
  (``Connection: close``) when it is draining, when the request body
  was never read (413, malformed length, ``Transfer-Encoding``) or
  when the client asked to.  :meth:`GridService.close` first wakes
  every connection parked between requests, so an idle client never
  holds up a drain or a stop.
* **Graceful degradation** — a dead worker fleet surfaces as
  ``state: "degraded"`` in the status payload (with the quarantined /
  unleased remainder) rather than a request that hangs.
* **Concurrency** — the service owns one :class:`LeaseQueue`
  connection for its whole lifetime (closed by :meth:`GridService.close`)
  and every handler thread uses it under one service-owned lock.  No
  request opens or closes ``queue.db``, so no request pays the WAL
  checkpoint SQLite runs when a database's last connection closes;
  queue commits are durable at COMMIT (``synchronous=FULL``), and a
  submit makes exactly one.  Cache probes open a per-request
  :class:`JobCache` view, and the shared ``with_busy_retry`` wrapper
  absorbs SQLITE_BUSY contention with the worker fleet
  deterministically.
"""

from __future__ import annotations

import json
import pathlib
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .engine import GridSpec, _validate_pipelines, job_key
from .jobcache import JobCache
from .leasequeue import (DEFAULT_LEASE_JOBS, LeaseQueue, OverBudget,
                         grid_status)

__all__ = [
    "DEFAULT_BUDGET",
    "GridService",
    "ServiceError",
]

#: default admission-control budget: max outstanding (not-yet-done)
#: jobs the queue may hold across every grid
DEFAULT_BUDGET = 10_000

#: largest request body the service will read (a grid spec is tiny;
#: anything bigger is a client error, not a memory bill)
MAX_BODY_BYTES = 1 << 20

#: how long a drain (POST /shutdown) waits for in-flight leases
DEFAULT_DRAIN_TIMEOUT = 60.0


class ServiceError(Exception):
    """A structured request failure: HTTP ``status``, a stable machine
    ``code``, a human ``message`` and optional extra response headers
    (``Retry-After`` on 429s).  Handlers raise it for every client
    error so the HTTP layer can render one uniform envelope."""

    def __init__(self, status: int, code: str, message: str,
                 headers: dict | None = None):
        """Build the error; ``headers`` are added to the response."""
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message
        self.headers = dict(headers or {})

    def envelope(self) -> dict:
        """The JSON body every error response carries."""
        return {"error": {"code": self.code, "message": self.message}}


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its owning :class:`GridService`.

    Handler threads are not daemons, so ``server_close()`` joins every
    in-flight request (each bounded by the service's
    ``request_timeout``): a drain never ends the serve loop, and with
    it the process, before the ``POST /shutdown`` reply is written.

    Connections are kept alive, one handler thread each, and a thread
    between requests is parked on a read that only its client ends.
    The server therefore tracks the connections that wait for their
    next request line, and :meth:`wake_idle` ends those reads before
    the join instead of waiting out an idle client."""

    daemon_threads = False

    def __init__(self, address, handler, service: "GridService"):
        """Bind ``address`` and remember the owning service."""
        self.service = service
        self.closing = False
        self._idle: set[socket.socket] = set()
        self._idle_lock = threading.Lock()
        super().__init__(address, handler)

    def mark_idle(self, conn: socket.socket) -> bool:
        """Note that ``conn`` waits for its next request line; ``False``
        once the server is closing (the connection should end)."""
        with self._idle_lock:
            if self.closing:
                return False
            self._idle.add(conn)
            return True

    def mark_busy(self, conn: socket.socket) -> None:
        """Note that ``conn`` is serving a request (or has ended)."""
        with self._idle_lock:
            self._idle.discard(conn)

    def wake_idle(self) -> None:
        """Refuse further requests on kept-alive connections and end the
        read of every connection waiting for its next request line.

        Only the read side is shut down: a request whose line was read
        just before still writes its reply."""
        with self._idle_lock:
            self.closing = True
            for conn in self._idle:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the client already closed it


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP adapter: parse the request, delegate to
    :meth:`GridService.handle`, render the JSON (or error envelope).

    Speaks HTTP/1.1, so one handler serves every request of its
    connection until the client or the service ends it.  Each reply
    carries its ``Content-Length``; the socket has ``TCP_NODELAY``, so
    a reply written as two sends (headers, body) never waits on the
    client's delayed ACK."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        """Apply the service's per-request socket timeout: a stalled
        or byte-dribbling client times out instead of pinning a
        handler thread forever."""
        self.timeout = self.server.service.request_timeout
        super().setup()

    def handle_one_request(self) -> None:
        """Serve the connection's next request, parked as idle (so a
        closing server can wake it) until its request line arrives."""
        if not self.server.mark_idle(self.connection):
            self.close_connection = True
            return
        try:
            super().handle_one_request()
        finally:
            self.server.mark_busy(self.connection)

    def parse_request(self) -> bool:
        """Leave the idle set once a request line has been read."""
        self.server.mark_busy(self.connection)
        return super().parse_request()

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        """Silence the default stderr access log (the CLI reports the
        bound address once; chatty per-request logs are opt-in)."""
        if self.server.service.verbose:
            super().log_message(format, *args)

    def _unread_body(self, status: int, code: str, message: str):
        """A :class:`ServiceError` for a body this handler will not
        read; the connection closes after the reply, since the unread
        bytes would otherwise be parsed as the next request."""
        self.close_connection = True
        return ServiceError(status, code, message)

    def _read_body(self):
        """The request body parsed as JSON, or ``None`` when absent."""
        if "Transfer-Encoding" in self.headers:
            raise self._unread_body(411, "length_required",
                                    "request bodies need a "
                                    "Content-Length")
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            raise self._unread_body(400, "bad_request",
                                    f"malformed Content-Length {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            raise self._unread_body(413, "body_too_large",
                                    f"request body exceeds "
                                    f"{MAX_BODY_BYTES} bytes")
        if length == 0:
            return None
        try:
            return json.loads(self.rfile.read(length))
        except ValueError:
            raise ServiceError(400, "bad_json",
                               "request body is not valid JSON"
                               ) from None

    def _dispatch(self, method: str) -> None:
        """Route one request and always answer with a JSON body."""
        service = self.server.service
        try:
            status, payload, headers = service.handle(
                method, self.path, self._read_body())
        except ServiceError as exc:
            status, payload, headers = (exc.status, exc.envelope(),
                                        exc.headers)
        except Exception as exc:  # server-side bug: honest 500
            status, payload, headers = 500, {
                "error": {"code": "internal",
                          "message": f"{type(exc).__name__}: {exc}"}
            }, {}
        if service.draining or self.server.closing:
            self.close_connection = True
        body = json.dumps(payload, sort_keys=True).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                self.send_header(name, str(value))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            # client went away mid-response; nothing to salvage
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        """Handle a GET request."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        """Handle a POST request."""
        self._dispatch("POST")


class GridService:
    """The grid-serving daemon: routes, admission control and drain.

    ``root`` is the lease-queue directory the worker fleet shares;
    ``cache_dir`` the job cache probed on submit (``None`` disables
    probing — every job is enqueued).  ``budget`` bounds the queue's
    outstanding jobs (admission control), ``port=0`` binds an
    ephemeral port (read it back from :attr:`port`), and ``clock`` /
    ``_sleep`` are injectable for deterministic tests.

    The queue connection is opened and the HTTP socket bound at
    construction; run the accept loop with :meth:`serve_forever`
    (foreground, the CLI) or :meth:`start` / :meth:`stop` (background
    thread, tests).  Both release the socket and the connection on the
    way out; a service that never serves releases them with
    :meth:`close`.
    """

    def __init__(self, root, *, cache_dir=None, cache_backend=None,
                 host: str = "127.0.0.1", port: int = 0,
                 budget: int = DEFAULT_BUDGET,
                 lease_jobs: int = DEFAULT_LEASE_JOBS,
                 request_timeout: float = 30.0,
                 drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
                 verbose: bool = False, clock=time.time):
        """Open the queue, bind the service socket, remember the wiring."""
        self.root = pathlib.Path(root)
        self.cache_dir = cache_dir
        self.cache_backend = cache_backend
        self.budget = int(budget)
        self.lease_jobs = int(lease_jobs)
        self.request_timeout = float(request_timeout)
        self.drain_timeout = float(drain_timeout)
        self.verbose = verbose
        self._clock = clock
        self._sleep = time.sleep
        self._draining = False
        self._thread: threading.Thread | None = None
        # the one queue connection every endpoint shares, each use
        # serialized under _lock
        self._lock = threading.Lock()
        self._queue = LeaseQueue(self.root, clock=clock, _threaded=True)
        try:
            self._server = _Server((host, port), _Handler, self)
        except BaseException:
            self._queue.close()
            raise
        self.host, self.port = self._server.server_address[:2]

    # -- plumbing ------------------------------------------------------

    @property
    def url(self) -> str:
        """The service's base URL (ephemeral port already resolved)."""
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        """Whether a drain shutdown is in progress (submits refused)."""
        return self._draining

    def _open_cache(self) -> JobCache | None:
        """A fresh per-request cache view, or ``None`` (no probing)."""
        if self.cache_dir is None:
            return None
        return JobCache(self.cache_dir, backend=self.cache_backend)

    # -- routing -------------------------------------------------------

    def handle(self, method: str, path: str, body=None):
        """Route one request; returns ``(status, payload, headers)``.

        Pure routing over plain values — the unit-testable seam the
        HTTP handler (and nothing else) wraps.  Raises
        :class:`ServiceError` for every client-attributable failure.
        """
        if method == "POST" and path == "/grids":
            return self._submit(body)
        if method == "GET" and path.startswith("/grids/"):
            return self._status(path[len("/grids/"):])
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True, "draining": self._draining}, {}
        if method == "GET" and path == "/readyz":
            return self._readyz()
        if method == "POST" and path == "/shutdown":
            return self._shutdown()
        raise ServiceError(404, "not_found",
                           f"no route for {method} {path}")

    # -- endpoints -----------------------------------------------------

    def _parse_spec(self, body) -> GridSpec:
        """The submitted :class:`GridSpec`, or a 400 envelope.

        Runs the engine's own up-front validation, so a spec every
        worker would reject (unknown algorithm or scenario, a pipeline
        the scenario cannot build, unknown params) is refused here
        instead of being enqueued as a lease no worker can finish."""
        if not isinstance(body, dict):
            raise ServiceError(400, "bad_request",
                               "POST /grids expects a GridSpec JSON "
                               "object")
        try:
            spec = GridSpec.from_dict(body)
            _validate_pipelines(spec)
            return spec
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(400, "bad_spec",
                               f"not a valid grid spec: {exc}"
                               ) from None

    def _probe_cache(self, spec: GridSpec) -> dict[int, dict]:
        """``{seq: row}`` for every job already in the job cache."""
        cache = self._open_cache()
        if cache is None:
            return {}
        hits: dict[int, dict] = {}
        for seq, job in enumerate(spec.iter_jobs()):
            row = cache.get("jobs", job_key(job))
            if row is not None:
                hits[seq] = row
        return hits

    def _submit(self, body):
        """``POST /grids``: idempotent cache-probing submit."""
        if self._draining:
            raise ServiceError(503, "draining",
                               "service is draining; submit to "
                               "another replica")
        spec = self._parse_spec(body)
        grid_id = spec.cache_key()
        with self._lock:
            queue = self._queue
            if queue.has_grid(grid_id):
                # the digest is the id: a resubmit (client retry,
                # duplicate POST) never re-probes or re-enqueues
                counts = queue.counts(grid_id)
                return 200, {"grid": grid_id, "total": len(spec),
                             "resubmitted": True, "cache_hits": 0,
                             "enqueued": 0, "leases": counts}, {}
            hits = self._probe_cache(spec)
            misses = [seq for seq in range(len(spec))
                      if seq not in hits]
            try:
                queue.enqueue(spec, lease_jobs=self.lease_jobs,
                              jobs=misses, budget=self.budget, rows=hits)
            except OverBudget as exc:
                raise ServiceError(429, "over_budget", str(exc),
                                   headers={"Retry-After": "1"}
                                   ) from None
            counts = queue.counts(grid_id)
            return 202, {"grid": grid_id, "total": len(spec),
                         "resubmitted": False,
                         "cache_hits": len(hits),
                         "enqueued": len(misses),
                         "leases": counts}, {}

    def _status(self, grid_id: str):
        """``GET /grids/<id>``: the shared status payload."""
        if not grid_id or "/" in grid_id:
            raise ServiceError(400, "bad_request",
                               f"malformed grid id {grid_id!r}")
        try:
            with self._lock:
                payload = grid_status(self._queue, grid_id)
        except KeyError:
            raise ServiceError(404, "unknown_grid",
                               f"grid {grid_id} was never "
                               "submitted here") from None
        return 200, payload, {}

    def _readyz(self):
        """``GET /readyz``: can this replica actually take work?"""
        problems = []
        # both probes cost the same however long the queue's history
        # and however many records the cache holds
        try:
            with self._lock:
                self._queue.finished()
        except Exception as exc:
            problems.append(f"queue: {type(exc).__name__}: {exc}")
        try:
            cache = self._open_cache()
            if cache is not None:
                cache.check_dir()
        except Exception as exc:
            problems.append(f"cache: {type(exc).__name__}: {exc}")
        if self._draining:
            problems.append("draining")
        if problems:
            return 503, {"ready": False, "problems": problems}, {}
        return 200, {"ready": True}, {}

    def _shutdown(self):
        """``POST /shutdown``: drain — refuse new submits, wait out
        in-flight leases, then stop the accept loop."""
        already = self._draining
        self._draining = True
        if not already:
            threading.Thread(target=self._drain_and_stop,
                             daemon=True).start()
        return 200, {"draining": True}, {}

    def _drain_and_stop(self) -> None:
        """Background drain: poll until no lease is in flight (bounded
        by ``drain_timeout``), then shut the server down."""
        deadline = time.monotonic() + self.drain_timeout
        while time.monotonic() < deadline:
            try:
                with self._lock:
                    leased = self._queue.leased()
            except Exception:
                break  # queue unreachable: nothing left to wait on
            if leased == 0:
                break
            self._sleep(0.05)
        self._server.shutdown()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Wake every kept-alive connection that waits for its next
        request, close the listening socket — joining the handler
        threads, whose in-flight requests still finish and reply — and
        then the queue connection (idempotent)."""
        self._server.wake_idle()
        self._server.server_close()
        with self._lock:
            self._queue.close()

    def serve_forever(self) -> None:
        """Run the accept loop in this thread until a drain shutdown
        (or :meth:`stop`) ends it; the service is closed on the way
        out, so a clean drain means a clean exit."""
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self.close()

    def start(self) -> "GridService":
        """Run :meth:`serve_forever` on a daemon thread (tests)."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the accept loop (if :meth:`start` ran one), join its
        thread, and close the service."""
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=10.0)
            self._thread = None
        self.close()

    def join(self, timeout: float | None = None) -> None:
        """Wait for a backgrounded serve loop to finish (drain)."""
        if self._thread is not None:
            self._thread.join(timeout)
