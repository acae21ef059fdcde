"""HTTP client for the grid service with deterministic retry/backoff.

:class:`ServiceClient` is the programmatic face of ``repro serve``:
submit a :class:`~repro.runner.engine.GridSpec`, poll its status, wait
for the merged rows.  Its retry loop reuses the engine's
:class:`~repro.runner.executor.RetryPolicy` — the same capped
exponential backoff schedule (``backoff_delay``) that job retries use
— with an injectable ``sleep`` and transport so tests can replay the
exact schedule without wall-clock time or sockets.

What retries, what doesn't:

* transport failures (connection refused/reset, timeouts, a torn or
  malformed reply such as ``http.client.IncompleteRead``, and the
  injected ``http_request`` fault site) retry up to
  ``policy.max_retries`` times;
* ``429`` (admission control) and ``5xx``/``503`` responses retry the
  same way — the service is healthy but busy or briefly degraded;
* every other ``4xx`` raises :class:`RequestError` immediately — the
  request itself is wrong and resending it cannot help.

Retrying a submit is always safe: the grid's id is its content digest
and the server treats a known digest as a no-op, so a duplicated POST
(response lost, client retried) can never double-enqueue work.

Connections: a client owns one persistent HTTP/1.1
:class:`http.client.HTTPConnection`, opened on its first request and
used under a lock by every request after it, until the server answers
``Connection: close``, an exchange fails or :meth:`ServiceClient.close`
runs (use the client as a context manager).  A kept-alive connection
the server has already closed (between requests, e.g. after its idle
timeout) is reopened and the request resent once within the same
attempt — no backoff, no retry counted; the same idempotency makes
the resend safe.  Any other transport error discards the connection,
so a half-read reply is never parsed as the next one.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

from . import faults
from .executor import RetryPolicy, backoff_delay

__all__ = ["RequestError", "ServiceClient", "ServiceUnavailable"]


class RequestError(RuntimeError):
    """A non-retryable HTTP failure: carries the response ``status``
    and the decoded error ``payload`` (the service's envelope)."""

    def __init__(self, status: int, payload):
        """Record the failed response."""
        detail = ""
        if isinstance(payload, dict) and "error" in payload:
            err = payload["error"]
            detail = f": {err.get('code')}: {err.get('message')}"
        super().__init__(f"HTTP {status}{detail}")
        self.status = int(status)
        self.payload = payload


class ServiceUnavailable(RuntimeError):
    """Every attempt (initial + retries) failed transiently."""


#: what a kept-alive connection the server closed between requests
#: raises before any response byte arrives (``RemoteDisconnected`` is
#: a ``ConnectionResetError``)
_STALE = (ConnectionResetError, BrokenPipeError)


def _send(conn: http.client.HTTPConnection, method: str, target: str,
          data, headers: dict) -> http.client.HTTPResponse:
    """Send one request on ``conn`` (reconnecting if it is closed) and
    read the response head; any failure closes ``conn``."""
    try:
        conn.request(method, target, body=data, headers=headers)
        return conn.getresponse()
    except BaseException:
        conn.close()
        raise


class ServiceClient:
    """A retrying client for one grid-service base URL.

    ``policy`` is the engine's :class:`RetryPolicy` (attempts =
    ``max_retries + 1``); ``transport``, ``sleep`` and ``clock`` are
    injectable for tests.  All methods raise :class:`RequestError` for
    non-retryable client errors and :class:`ServiceUnavailable` once
    the retry budget is spent.  The client keeps one connection open
    between requests: :meth:`close` it, or use it in a ``with`` block.
    """

    def __init__(self, base_url: str, *,
                 policy: RetryPolicy | None = None,
                 timeout: float = 30.0, transport=None,
                 sleep=time.sleep, clock=time.time):
        """Remember the wiring; nothing touches the network yet."""
        self.base_url = base_url.rstrip("/")
        scheme, sep, rest = self.base_url.partition("://")
        if scheme != "http" or not sep:
            raise ValueError(f"not an http:// service URL: {base_url!r}")
        self._host = rest.partition("/")[0]
        self._origin = f"http://{self._host}"
        self.policy = RetryPolicy() if policy is None else policy
        self.timeout = float(timeout)
        self._transport = self._exchange if transport is None else transport
        self._sleep = sleep
        self._clock = clock
        self._conn: http.client.HTTPConnection | None = None
        self._conn_lock = threading.Lock()

    # -- the connection ------------------------------------------------

    def _exchange(self, method: str, url: str, body, timeout: float):
        """One HTTP exchange on the client's persistent connection (the
        default transport); returns ``(status, raw_bytes)``.  HTTP
        error statuses are returned, not raised — the retry loop
        decides what is retryable."""
        data = None if body is None else json.dumps(
            body, sort_keys=True).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        target = url[len(self._origin):] or "/"
        with self._conn_lock:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(self._host,
                                                        timeout=timeout)
            conn = self._conn
            reused = conn.sock is not None
            try:
                resp = _send(conn, method, target, data, headers)
            except _STALE:
                if not reused:
                    raise
                # the server closed the connection while it was idle:
                # resend once, on a new one
                resp = _send(conn, method, target, data, headers)
            try:
                # a Connection: close reply has already detached the
                # socket from conn, so the next request reconnects
                return resp.status, resp.read()
            except BaseException:
                conn.close()
                raise

    def close(self) -> None:
        """Close the client's connection (idempotent; a later request
        opens a new one)."""
        with self._conn_lock:
            if self._conn is not None:
                self._conn.close()

    def __enter__(self) -> "ServiceClient":
        """Use the client in a ``with`` block that closes it."""
        return self

    def __exit__(self, *exc) -> None:
        """Close the connection on the way out of the ``with`` block."""
        self.close()

    # -- the retry loop ------------------------------------------------

    def request(self, method: str, path: str, body=None) -> dict:
        """One logical request with deterministic retry/backoff.

        Fires the ``http_request`` fault site (token ``"METHOD
        path"``) before every attempt, so ``REPRO_FAULTS`` chaos plans
        reach the HTTP layer end-to-end.
        """
        attempts = self.policy.max_retries + 1
        last: Exception | None = None
        for attempt in range(1, attempts + 1):
            try:
                faults.fire("http_request", f"{method} {path}")
                status, raw = self._transport(
                    method, self.base_url + path, body, self.timeout)
            except (OSError, http.client.HTTPException,
                    faults.InjectedFault) as exc:
                last = exc
            else:
                payload = self._decode(raw)
                if status < 400:
                    return payload
                if status == 429 or status >= 500:
                    last = RequestError(status, payload)
                else:
                    raise RequestError(status, payload)
            if attempt < attempts:
                self._sleep(backoff_delay(self.policy, attempt))
        raise ServiceUnavailable(
            f"{method} {self.base_url}{path} failed after {attempts} "
            f"attempts: {last}") from last

    @staticmethod
    def _decode(raw):
        """Parse a response body, tolerating empty/non-JSON bodies."""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except ValueError:
            return {"raw": raw.decode(errors="replace")}

    # -- the service API -----------------------------------------------

    def submit(self, spec) -> dict:
        """Submit a grid (a :class:`GridSpec` or its ``to_dict``
        form); returns the submit receipt (grid id, cache hits,
        enqueued misses).  Safe to retry: submits are idempotent by
        grid digest."""
        body = spec if isinstance(spec, dict) else spec.to_dict()
        return self.request("POST", "/grids", body)

    def status(self, grid_id: str) -> dict:
        """The shared ``grid_status`` payload for one grid."""
        return self.request("GET", f"/grids/{grid_id}")

    def wait(self, grid_id: str, *, timeout: float = 60.0,
             poll: float = 0.2) -> dict:
        """Poll until the grid reaches a terminal state (``done`` or
        ``degraded`` — the latter returns instead of hanging on a dead
        fleet); raises :class:`TimeoutError` past ``timeout``."""
        deadline = self._clock() + timeout
        while True:
            payload = self.status(grid_id)
            if payload.get("state") in ("done", "degraded"):
                return payload
            if self._clock() >= deadline:
                raise TimeoutError(
                    f"grid {grid_id} still {payload.get('state')!r} "
                    f"after {timeout}s")
            self._sleep(poll)

    def healthz(self) -> dict:
        """Liveness probe payload."""
        return self.request("GET", "/healthz")

    def readyz(self) -> bool:
        """Whether the replica reports itself ready to take work."""
        try:
            return bool(self.request("GET", "/readyz").get("ready"))
        except (RequestError, ServiceUnavailable):
            return False

    def shutdown(self) -> dict:
        """Ask the service to drain and exit its serve loop."""
        return self.request("POST", "/shutdown")
