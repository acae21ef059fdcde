"""Multi-host lease-queue execution: N workers drain one grid.

The first new consumer of the shared pipelined executor
(:mod:`repro.runner.executor`): a SQLite *lease queue* splits a
:class:`~repro.runner.engine.GridSpec` into contiguous job ranges that
worker processes — on one host or many, sharing the queue directory
over a common filesystem — lease, execute and complete independently:

* :class:`LeaseQueue` — the WAL-mode queue database
  (``<root>/queue.db``, opened through the job cache's
  :func:`~repro.runner.jobcache.connect_wal`): one ``grids`` row per
  enqueued spec (idempotent by content hash), one ``leases`` row per
  contiguous job range, and one ``hits`` row per job whose result the
  submitter already had (the grid service's cache hits), all written
  by the one enqueue transaction.  Claiming is one ``BEGIN IMMEDIATE``
  transaction, so two workers can never lease the same range;
  heartbeats push a lease's deadline forward, and
  :meth:`~LeaseQueue.reclaim_expired` flips timed-out leases back to
  pending — a SIGKILL'd worker loses only its leased range.
* :func:`work` — the worker loop: reclaim expired leases, claim a
  range, replay it through :func:`~repro.runner.engine.run_grid` with
  ``job_slice=(start, stop)``, and mark it done.  Each worker appends
  ``{"seq": …, "grid": …, "row": …}`` envelopes to one JSONL file per
  grid, ``results/<grid_id>/<worker>.jsonl`` (heartbeating on every
  batch flush), and the shared per-job cache dedupes ranges that were
  partially executed before a crash — a re-run lease replays cached
  rows instead of recomputing.
* :func:`merge_results` — collects the grid's stored hit rows and
  then the envelopes of every worker, dedupes by sequence number
  (first wins; duplicates are checked for equality), asserts the grid
  is covered exactly, and writes the rows — in grid job order — to an
  ordinary result sink.  Only the grid's ``hits`` range and its own
  directory are read (plus the top-level ``results/*.jsonl`` files a
  queue written before the per-grid layout holds), so a status poll
  costs one grid's rows, not the history's.

Every :class:`LeaseQueue` connection commits with
``synchronous=FULL``: a queue commit is durable when it returns.  The
helpers below accept a queue directory or an open :class:`LeaseQueue`;
a queue they open from a path they also close, on return or raise.

Determinism invariant: because every job is seeded from its
coordinates alone and job slicing never changes a row
(``docs/ARCHITECTURE.md``), the merged result set is **bit-identical**
to a single-process ``run_grid`` of the same spec — however many
workers drained the queue, in whatever order, including after crashes
and reclaims.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import os
import pathlib
import re
import socket
import time

from . import faults
from .engine import ENGINE_VERSION, GridSpec, run_grid
from .executor import EngineConfig, RunStats, run_args
from .jobcache import connect_wal, with_busy_retry
from .sinks import JsonlSink, ListSink, MergeError

__all__ = [
    "DEFAULT_LEASE_JOBS",
    "DEFAULT_TTL",
    "Lease",
    "LeaseLost",
    "LeaseQueue",
    "MergeError",
    "OverBudget",
    "failed_jobs",
    "grid_status",
    "merge_results",
    "retry_failed",
    "work",
]

#: default contiguous jobs per lease (small enough to rebalance after
#: a crash, large enough to amortize the claim round-trip)
DEFAULT_LEASE_JOBS = 8

#: default lease time-to-live in seconds; heartbeats (one per flushed
#: batch) must arrive faster than this, so pick a TTL comfortably above
#: one batch's wall time
DEFAULT_TTL = 60.0

#: default idle poll interval while waiting for reclaimable leases
DEFAULT_POLL = 0.2


class LeaseLost(RuntimeError):
    """The worker's lease expired and was reclaimed by someone else.

    Raised by :meth:`LeaseQueue.heartbeat` / :meth:`LeaseQueue.complete`
    when the lease row no longer belongs to the caller; :func:`work`
    catches it, abandons the range (another worker owns it now — the
    job cache keeps whatever was already computed) and claims afresh.
    """


class OverBudget(RuntimeError):
    """:meth:`LeaseQueue.enqueue` refused a grid (and wrote nothing):
    admitting it would push the queue's outstanding jobs past the
    ``budget`` it was given."""


@dataclasses.dataclass(frozen=True)
class Lease:
    """One claimed contiguous job range ``[start, stop)`` of a grid."""

    grid_id: str
    start: int
    stop: int
    worker: str
    deadline: float


def default_worker_id() -> str:
    """A worker identity unique across hosts and processes."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _safe_name(worker: str) -> str:
    """Filesystem-safe form of a worker id (results file name)."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", worker) or "worker"


def _contiguous_runs(indexes, cap: int) -> list[tuple[int, int]]:
    """Group sorted job ``indexes`` into ``[start, stop)`` runs of
    consecutive indexes, each at most ``cap`` jobs long (the subset
    form of the enqueue splitter)."""
    runs: list[tuple[int, int]] = []
    start = prev = None
    for i in indexes:
        if start is not None and i == prev + 1 and i - start < cap:
            prev = i
            continue
        if start is not None:
            runs.append((start, prev + 1))
        start = prev = i
    if start is not None:
        runs.append((start, prev + 1))
    return runs


class LeaseQueue:
    """A shared SQLite work queue of contiguous grid-job leases.

    ``root`` is a directory (shared between workers — local disk for
    multi-process runs, a network filesystem for multi-host): the
    queue database (grids, leases and stored hit rows) lives at
    ``<root>/queue.db`` and worker result envelopes under
    ``<root>/results/<grid_id>/<worker>.jsonl``.  All state
    transitions are single SQLite statements or ``BEGIN IMMEDIATE``
    transactions on a WAL-mode connection, so any number of workers may
    share the queue.  Commits are fsynced before they return
    (``synchronous=FULL``), so no close-time checkpoint is needed to
    make them durable.

    ``clock`` is injectable for tests (defaults to :func:`time.time`);
    deadlines are absolute clock values.  ``_threaded`` is internal:
    the grid service opens its one long-lived queue with it, usable
    from every handler thread because the service serializes each use
    under its own lock.
    """

    DB_NAME = "queue.db"

    def __init__(self, root, clock=time.time, *, _threaded=False):
        """Open (creating if needed) the queue at directory ``root``."""
        self.root = pathlib.Path(root)
        self._clock = clock
        self._conn = connect_wal(self.root / self.DB_NAME,
                                 check_same_thread=not _threaded)
        self._conn.execute("PRAGMA synchronous=FULL")
        try:
            with_busy_retry(self._create_schema)
        except BaseException:
            self.close()
            raise

    #: the whole schema; each statement is a no-op on a queue that has
    #: it, so an older queue gains what it lacks when it is opened
    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS grids ("
        " grid_id TEXT PRIMARY KEY,"
        " spec TEXT NOT NULL,"
        " total INTEGER NOT NULL,"
        " lease_jobs INTEGER NOT NULL,"
        " created REAL NOT NULL)",
        "CREATE TABLE IF NOT EXISTS leases ("
        " grid_id TEXT NOT NULL,"
        " start INTEGER NOT NULL,"
        " stop INTEGER NOT NULL,"
        " state TEXT NOT NULL DEFAULT 'pending',"
        " worker TEXT,"
        " deadline REAL,"
        " claims INTEGER NOT NULL DEFAULT 0,"
        " reclaims INTEGER NOT NULL DEFAULT 0,"
        " PRIMARY KEY (grid_id, start))",
        # claim, reclaim and the outstanding/finished checks select
        # leases by state: without it each scans the queue's history
        "CREATE INDEX IF NOT EXISTS leases_by_state"
        " ON leases (state, grid_id, start)",
        # cache-hit rows stored by the submit that enqueued the grid
        "CREATE TABLE IF NOT EXISTS hits ("
        " grid_id TEXT NOT NULL,"
        " seq INTEGER NOT NULL,"
        " row TEXT NOT NULL,"
        " PRIMARY KEY (grid_id, seq)) WITHOUT ROWID",
    )

    def _create_schema(self) -> None:
        """Create whatever the schema lacks in one deferred transaction:
        one commit on a fresh queue, none on a complete one."""
        self._conn.execute("BEGIN")
        try:
            for statement in self._SCHEMA:
                self._conn.execute(statement)
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    # -- plumbing ------------------------------------------------------

    def close(self) -> None:
        """Close the queue's database connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _txn(self):
        """Start an immediate (write-locking) transaction."""
        self._conn.execute("BEGIN IMMEDIATE")
        return self._conn

    @property
    def results_dir(self) -> pathlib.Path:
        """Directory holding one envelope directory per grid."""
        return self.root / "results"

    def worker_path(self, grid_id: str, worker: str) -> pathlib.Path:
        """The JSONL envelope file a worker appends a grid's rows to;
        ``grid_id`` is the grid's content digest
        (:meth:`GridSpec.cache_key`), never text from a request."""
        return self.results_dir / grid_id / f"{_safe_name(worker)}.jsonl"

    def envelope_paths(self, grid_id: str) -> list[pathlib.Path]:
        """Every file that may hold the grid's envelopes: its own
        directory, then the shared top-level files of a queue written
        before envelopes were stored per grid.  ``grid_id`` becomes a
        path component only once the queue knows it: an unknown id has
        no envelope files, and no file is touched."""
        try:
            self._grid_row(grid_id)
        except KeyError:
            return []
        return (sorted((self.results_dir / grid_id).glob("*.jsonl"))
                + sorted(self.results_dir.glob("*.jsonl")))

    # -- producing work ------------------------------------------------

    def enqueue(self, spec: GridSpec, *,
                lease_jobs: int = DEFAULT_LEASE_JOBS,
                jobs=None, budget: int | None = None,
                rows: dict[int, dict] | None = None) -> str:
        """Split ``spec`` into contiguous leases; return its grid id.

        Idempotent: enqueueing a spec that is already queued (same
        content hash) changes nothing and returns the existing id.

        ``jobs`` restricts the leases to a subset of global job
        indexes (the grid service passes the cache-*miss* set):
        the indexes are grouped into contiguous runs of at most
        ``lease_jobs`` and only those ranges become leases — the
        grid's ``total`` still counts every job, so the merge's
        coverage check expects the caller to supply the skipped rows.
        ``rows`` (``{seq: row}``, the grid service's cache hits) are
        those rows: stored in the queue's ``hits`` table by the same
        transaction, so they are durable when the enqueue returns and
        the merge reads them before any worker envelope.  An empty
        subset enqueues the grid with no leases at all: immediately
        finished.

        ``budget`` (the grid service's admission control) caps the
        queue's outstanding jobs: a new grid whose leases would push
        :meth:`outstanding_jobs` past it is refused with
        :class:`OverBudget` and nothing — no grid, lease or row — is
        written.  The check runs inside the enqueue transaction, so
        concurrent submitters are admitted one at a time against the
        same total.
        """
        if lease_jobs < 1:
            raise ValueError("lease_jobs must be positive")
        grid_id = spec.cache_key()
        total = len(spec)

        def _in_range(indexes, what):
            if indexes and not (0 <= indexes[0] and indexes[-1] < total):
                raise ValueError(f"{what} out of range for a "
                                 f"{total}-job grid")
            return indexes

        if jobs is None:
            ranges = [(start, min(start + lease_jobs, total))
                      for start in range(0, total, lease_jobs)]
        else:
            indexes = _in_range(sorted(set(int(j) for j in jobs)),
                                "job indexes")
            ranges = _contiguous_runs(indexes, lease_jobs)
        hits = [(grid_id, seq, json.dumps(rows[seq], sort_keys=True))
                for seq in _in_range(sorted(rows or ()), "hit seqs")]
        requested = sum(stop - start for start, stop in ranges)

        def _attempt():
            conn = self._txn()
            try:
                row = conn.execute(
                    "SELECT total FROM grids WHERE grid_id = ?",
                    (grid_id,)).fetchone()
                if row is None:
                    if budget is not None:
                        outstanding = self.outstanding_jobs()
                        if outstanding + requested > budget:
                            raise OverBudget(
                                f"queue holds {outstanding} outstanding "
                                f"jobs; admitting {requested} more would "
                                f"exceed the budget of {budget}")
                    conn.execute(
                        "INSERT INTO grids (grid_id, spec, total,"
                        " lease_jobs, created) VALUES (?, ?, ?, ?, ?)",
                        (grid_id,
                         json.dumps(spec.to_dict(), sort_keys=True),
                         total, lease_jobs, self._clock()))
                    conn.executemany(
                        "INSERT INTO hits (grid_id, seq, row)"
                        " VALUES (?, ?, ?)", hits)
                    conn.executemany(
                        "INSERT INTO leases (grid_id, start, stop)"
                        " VALUES (?, ?, ?)",
                        [(grid_id, start, stop)
                         for start, stop in ranges])
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

        with_busy_retry(_attempt)
        return grid_id

    # -- inspecting ----------------------------------------------------

    def grids(self) -> list[str]:
        """Queued grid ids, oldest first."""
        rows = self._conn.execute(
            "SELECT grid_id FROM grids ORDER BY created, grid_id")
        return [r[0] for r in rows.fetchall()]

    def has_grid(self, grid_id: str) -> bool:
        """Whether ``grid_id`` is queued (a primary-key point lookup)."""
        return self._conn.execute(
            "SELECT 1 FROM grids WHERE grid_id = ?",
            (grid_id,)).fetchone() is not None

    def _grid_row(self, grid_id: str):
        row = self._conn.execute(
            "SELECT spec, total FROM grids WHERE grid_id = ?",
            (grid_id,)).fetchone()
        if row is None:
            raise KeyError(f"unknown grid {grid_id!r}")
        return row

    def spec_dict(self, grid_id: str) -> dict:
        """The enqueued spec's :meth:`GridSpec.to_dict` form."""
        return json.loads(self._grid_row(grid_id)[0])

    def spec(self, grid_id: str) -> GridSpec:
        """Rebuild the enqueued :class:`GridSpec`.

        Refuses specs enqueued under a different ``ENGINE_VERSION``:
        mixed-version workers would write rows the merge could not
        reconcile bit-identically.
        """
        d = self.spec_dict(grid_id)
        version = d.get("engine_version")
        if version is not None and version != ENGINE_VERSION:
            raise ValueError(
                f"grid {grid_id} was enqueued by engine version "
                f"{version}; this engine is {ENGINE_VERSION} — "
                f"re-enqueue the grid")
        return GridSpec.from_dict(d)

    def total(self, grid_id: str) -> int:
        """Number of jobs the enqueued grid expands to."""
        return int(self._grid_row(grid_id)[1])

    def counts(self, grid_id: str | None = None) -> dict:
        """Lease counts by state (one grid, or the whole queue)."""
        sql = "SELECT state, COUNT(*) FROM leases"
        args: tuple = ()
        if grid_id is not None:
            sql += " WHERE grid_id = ?"
            args = (grid_id,)
        out = {"pending": 0, "leased": 0, "done": 0}
        for state, n in self._conn.execute(
                sql + " GROUP BY state", args).fetchall():
            out[state] = n
        return out

    # The lease-state queries below name the open states outright:
    # ``state != 'done'`` would scan the queue's whole history instead
    # of searching the leases_by_state index.

    def finished(self, grid_id: str | None = None) -> bool:
        """True when no lease (of the grid / the queue) is outstanding."""
        sql = ("SELECT 1 FROM leases"
               " WHERE state IN ('pending', 'leased')")
        args: tuple = ()
        if grid_id is not None:
            sql += " AND grid_id = ?"
            args = (grid_id,)
        return self._conn.execute(sql + " LIMIT 1", args).fetchone() is None

    def leased(self) -> int:
        """Leases a worker holds right now, across the whole queue (what
        a drain waits on)."""
        return int(self._conn.execute(
            "SELECT COUNT(*) FROM leases WHERE state = 'leased'"
        ).fetchone()[0])

    def outstanding_jobs(self) -> int:
        """Total jobs inside not-yet-done leases across the whole
        queue — the grid service's admission-control pressure gauge."""
        row = self._conn.execute(
            "SELECT COALESCE(SUM(stop - start), 0) FROM leases"
            " WHERE state IN ('pending', 'leased')").fetchone()
        return int(row[0])

    def hit_rows(self, grid_id: str):
        """Yield ``(seq, row)`` for the cache-hit rows the grid was
        enqueued with, in job order (one primary-key range read)."""
        for seq, row in self._conn.execute(
                "SELECT seq, row FROM hits WHERE grid_id = ?"
                " ORDER BY seq", (grid_id,)).fetchall():
            yield seq, json.loads(row)

    # -- the lease lifecycle -------------------------------------------

    def claim(self, worker: str, *, ttl: float = DEFAULT_TTL,
              grid_id: str | None = None) -> Lease | None:
        """Atomically lease the first pending range, or return ``None``.

        The claim is one ``BEGIN IMMEDIATE`` transaction: concurrent
        workers serialize on the queue's write lock, so a range is
        leased exactly once until it expires or completes.  Transient
        SQLITE_BUSY contention — and the injected ``queue_claim``
        fault site (token: the worker id) — heal inside the shared
        busy-retry budget.
        """

        def _attempt():
            faults.fire("queue_claim", worker)
            now = self._clock()
            conn = self._txn()
            try:
                sql = ("SELECT grid_id, start, stop FROM leases"
                       " WHERE state = 'pending'")
                args: tuple = ()
                if grid_id is not None:
                    sql += " AND grid_id = ?"
                    args = (grid_id,)
                row = conn.execute(
                    sql + " ORDER BY grid_id, start LIMIT 1",
                    args).fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    return None
                gid, start, stop = row
                deadline = now + ttl
                conn.execute(
                    "UPDATE leases SET state = 'leased', worker = ?,"
                    " deadline = ?, claims = claims + 1"
                    " WHERE grid_id = ? AND start = ?",
                    (worker, deadline, gid, start))
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            return Lease(gid, start, stop, worker, deadline)

        return with_busy_retry(_attempt)

    def heartbeat(self, lease: Lease, ttl: float = DEFAULT_TTL) -> None:
        """Push the lease's deadline ``ttl`` seconds into the future.

        Raises :class:`LeaseLost` when the lease no longer belongs to
        the worker (it expired and was reclaimed, or completed by a
        reclaiming worker).
        """
        cur = self._conn.execute(
            "UPDATE leases SET deadline = ? WHERE grid_id = ?"
            " AND start = ? AND worker = ? AND state = 'leased'",
            (self._clock() + ttl, lease.grid_id, lease.start,
             lease.worker))
        if cur.rowcount == 0:
            raise LeaseLost(f"lease {lease.grid_id}[{lease.start}:"
                            f"{lease.stop}) lost by {lease.worker}")

    def complete(self, lease: Lease) -> None:
        """Mark the lease done; raises :class:`LeaseLost` if it was
        reclaimed first (the range's rows still merge — the job cache
        and seq dedupe make re-runs harmless)."""
        cur = self._conn.execute(
            "UPDATE leases SET state = 'done', deadline = NULL"
            " WHERE grid_id = ? AND start = ? AND worker = ?"
            " AND state = 'leased'",
            (lease.grid_id, lease.start, lease.worker))
        if cur.rowcount == 0:
            raise LeaseLost(f"lease {lease.grid_id}[{lease.start}:"
                            f"{lease.stop}) lost by {lease.worker}")

    def reclaim_expired(self, grid_id: str | None = None) -> int:
        """Flip expired leases back to pending; return how many.

        One atomic ``UPDATE``: a lease whose deadline passed (its
        worker crashed, hung, or lost its heartbeat) becomes claimable
        again, with its ``reclaims`` audit counter bumped.
        """
        sql = ("UPDATE leases SET state = 'pending', worker = NULL,"
               " deadline = NULL, reclaims = reclaims + 1"
               " WHERE state = 'leased' AND deadline < ?")
        args: list = [self._clock()]
        if grid_id is not None:
            sql += " AND grid_id = ?"
            args.append(grid_id)
        return with_busy_retry(
            lambda: self._conn.execute(sql, args).rowcount)

    def stale(self, grid_id: str | None = None) -> int:
        """Leased ranges whose heartbeat deadline has already passed —
        workers presumed dead but not yet reclaimed (``repro work
        status`` surfaces this; :meth:`reclaim_expired` clears it)."""
        sql = ("SELECT COUNT(*) FROM leases WHERE state = 'leased'"
               " AND deadline < ?")
        args: list = [self._clock()]
        if grid_id is not None:
            sql += " AND grid_id = ?"
            args.append(grid_id)
        return int(self._conn.execute(sql, args).fetchone()[0])

    def reset_covering(self, grid_id: str, seqs) -> int:
        """Flip the *done* leases covering the job indexes ``seqs``
        back to pending (the ``repro work retry-failed`` seam); return
        how many leases were re-opened.

        Lease granularity means sibling jobs in a re-opened range run
        again too — harmlessly: their rows come straight from the job
        cache and the merge dedupes the duplicate envelopes.
        """
        seqs = sorted(set(seqs))
        if not seqs:
            return 0
        conn = self._txn()
        try:
            starts = {
                row[0] for seq in seqs
                for row in conn.execute(
                    "SELECT start FROM leases WHERE grid_id = ?"
                    " AND start <= ? AND stop > ?",
                    (grid_id, seq, seq)).fetchall()}
            cur = conn.executemany(
                "UPDATE leases SET state = 'pending', worker = NULL,"
                " deadline = NULL WHERE grid_id = ? AND start = ?"
                " AND state = 'done'",
                [(grid_id, start) for start in sorted(starts)])
            reopened = cur.rowcount
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return reopened


class _LeaseSink(JsonlSink):
    """Per-worker results sink: envelope rows, heartbeat per flush.

    Each row is wrapped as ``{"seq": global_job_index, "grid": id,
    "row": row}`` and appended to the worker's JSONL file for the
    lease's grid (the worker's leases of one grid share it).  Every
    batch flush first renews the worker's lease — so a worker that lost
    its lease stops writing at the next flush — and fsyncs afterwards,
    so ``complete`` is only reported for durably written rows.
    """

    def __init__(self, queue: LeaseQueue, lease: Lease, ttl: float):
        """Append to the lease's worker file under the queue root."""
        super().__init__(queue.worker_path(lease.grid_id, lease.worker),
                         append=True)
        self.queue = queue
        self.lease = lease
        self.ttl = ttl

    def write(self, row: dict) -> None:
        """Wrap one row in its ``seq``/``grid`` envelope and append."""
        seq = self.lease.start + self.rows_written
        super().write({"seq": seq, "grid": self.lease.grid_id,
                       "row": row})

    def write_many(self, rows) -> None:
        """Heartbeat, write the batch's envelopes, then fsync."""
        self.queue.heartbeat(self.lease, self.ttl)
        super().write_many(rows)
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())


@contextlib.contextmanager
def _opened(root):
    """``root`` as a :class:`LeaseQueue`: a caller's open queue as is
    (it stays open), or one opened from a directory here and closed on
    the way out — also when the body raises, so a held traceback never
    keeps a connection alive."""
    if isinstance(root, LeaseQueue):
        yield root
        return
    queue = LeaseQueue(root)
    try:
        yield queue
    finally:
        queue.close()


def work(root, *, worker: str | None = None,
         config: EngineConfig | None = None, ttl: float = DEFAULT_TTL,
         poll: float = DEFAULT_POLL, grid_id: str | None = None,
         stats: RunStats | None = None,
         max_leases: int | None = None) -> RunStats:
    """Drain a lease queue: claim ranges and run them until finished.

    ``root`` is the queue directory (or an open :class:`LeaseQueue`).
    The loop: reclaim expired leases, claim the next pending range,
    replay it through :func:`~repro.runner.engine.run_grid` with
    ``job_slice=(start, stop)`` under ``config`` (sharing the config's
    job cache with every other worker dedupes partially executed
    ranges), append the rows to this worker's envelope file, and mark
    the lease done.  When nothing is claimable the worker sleeps
    ``poll`` seconds — another worker may still crash and its lease
    become reclaimable — and exits once every lease is done (or after
    ``max_leases``, for tests and bounded drains).

    A lost lease (:class:`LeaseLost` — e.g. the range outlived ``ttl``
    and was reclaimed) abandons the range and keeps claiming; pick a
    ``ttl`` comfortably above one batch's wall time, since heartbeats
    ride the per-batch flush.  Returns the accumulated
    :class:`~repro.runner.executor.RunStats` (pass ``stats`` to
    accumulate across calls): ``leases_claimed`` / ``leases_completed``
    / ``leases_reclaimed`` / ``leases_lost`` plus the ordinary engine
    counters summed over every lease this worker ran.  A ``config``
    or ``stats`` that is not an :class:`EngineConfig` /
    :class:`RunStats` raises :class:`TypeError` before the queue is
    opened.
    """
    config, run_stats = run_args(config, stats)
    worker = default_worker_id() if worker is None else worker
    claimed = 0
    with _opened(root) as queue:
        while max_leases is None or claimed < max_leases:
            run_stats.leases_reclaimed += queue.reclaim_expired(grid_id)
            lease = queue.claim(worker, ttl=ttl, grid_id=grid_id)
            if lease is None:
                if queue.finished(grid_id):
                    break
                time.sleep(poll)
                continue
            claimed += 1
            run_stats.leases_claimed += 1
            spec = queue.spec(lease.grid_id)
            sink = _LeaseSink(queue, lease, ttl)
            try:
                run_grid(spec,
                         dataclasses.replace(config, sink=sink),
                         stats=run_stats,
                         job_slice=(lease.start, lease.stop))
                queue.complete(lease)
                run_stats.leases_completed += 1
            except LeaseLost:
                run_stats.leases_lost += 1
    return run_stats


def _iter_envelopes(path: pathlib.Path):
    """Yield well-formed result envelopes from one worker file.

    A SIGKILL mid-write leaves at most one torn **final** line, which
    is tolerated (the merge's coverage check catches anything that
    actually went missing), and well-formed JSON that is not a result
    envelope is skipped.  Unparseable lines in the *middle* of the file
    are a different beast — appends are sequential, so mid-file damage
    means the log itself is corrupt — and raise :class:`MergeError`
    naming the worker file and line rather than silently dropping rows.
    """
    try:
        fh = path.open()
    except OSError:
        return
    with fh:
        torn: int | None = None
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if torn is not None:
                raise MergeError(
                    f"worker log {path.name}: corrupt JSON on line "
                    f"{torn} (not a torn tail — line {lineno} follows "
                    f"it); refusing to merge a damaged result stream")
            try:
                env = json.loads(line)
            except ValueError:
                torn = lineno
                continue
            if (isinstance(env, dict) and "row" in env
                    and isinstance(env.get("seq"), int)):
                yield env


def _is_failed(row) -> bool:
    """Whether a merged row is a quarantine (``status="failed"``) row."""
    return isinstance(row, dict) and row.get("status") == "failed"


def _envelope_rows(queue: LeaseQueue, grid_id: str):
    """Yield ``(seq, row)`` from the grid's envelope files, in
    :meth:`LeaseQueue.envelope_paths` order."""
    for path in queue.envelope_paths(grid_id):
        for env in _iter_envelopes(path):
            if env.get("grid") == grid_id:
                yield env["seq"], env["row"]


def _collect_rows(queue: LeaseQueue, grid_id: str) -> dict[int, dict]:
    """First-wins merge of one grid's rows: the cache-hit rows stored
    with the grid (:meth:`LeaseQueue.hit_rows`), then every worker's
    envelopes.

    Reads only the grid's ``hits`` range and
    :meth:`LeaseQueue.envelope_paths` — the grid's own directory (where
    an older service also wrote its hit rows, as ``service.jsonl``) and
    any pre-per-grid top-level files.  Duplicates (re-run ranges) must
    agree — determinism means an ok/ok mismatch is a real bug — with
    one deliberate asymmetry: a successful row always replaces a
    quarantined one for the same job (a retried worker healed it; the
    stale failure envelope stays in the old worker log), and two
    quarantine rows never conflict (their attempt counts and messages
    legitimately differ across workers).
    """
    rows: dict[int, dict] = {}
    for seq, row in itertools.chain(queue.hit_rows(grid_id),
                                    _envelope_rows(queue, grid_id)):
        prev = rows.get(seq)
        if prev is None:
            rows[seq] = row
        elif prev == row:
            continue
        elif _is_failed(prev) and not _is_failed(row):
            rows[seq] = row       # a retry healed the job
        elif _is_failed(row) or _is_failed(prev):
            continue              # keep the healthier / first row
        else:
            raise MergeError(
                f"conflicting results for job {seq} of grid "
                f"{grid_id}: determinism violated (were the "
                f"workers running different code versions?)")
    return rows


def _in_job_order(grid_id: str, total: int,
                  rows: dict[int, dict]) -> list[dict]:
    """The merged ``rows`` in grid job order, once they cover the grid
    *exactly* (every job present, nothing out of range)."""
    missing = [seq for seq in range(total) if seq not in rows]
    stray = sorted(seq for seq in rows if not 0 <= seq < total)
    if missing or stray:
        raise ValueError(
            f"grid {grid_id} results incomplete: {len(missing)} of "
            f"{total} jobs missing"
            + (f" (first missing: {missing[:5]})" if missing else "")
            + (f", {len(stray)} out of range" if stray else ""))
    return [rows[seq] for seq in range(total)]


def _resolve_grid(queue: LeaseQueue, grid_id: str | None) -> str:
    """Default ``grid_id`` to the queue's only grid, or fail clearly."""
    if grid_id is not None:
        return grid_id
    grids = queue.grids()
    if len(grids) != 1:
        raise ValueError(f"queue holds {len(grids)} grids; "
                         f"pass grid_id to pick one")
    return grids[0]


def merge_results(root, grid_id: str | None = None, sink=None):
    """Merge every worker's envelopes into one in-order result set.

    Reads the grid's stored hit rows, then its envelope files
    (``<root>/results/<grid_id>/``, plus top-level
    ``<root>/results/*.jsonl`` from a queue written before the
    per-grid layout), keeps the first row per sequence
    number (re-run ranges produce duplicates; they are checked to be
    identical — determinism means any mismatch is a real bug, not a
    race), verifies the grid is covered *exactly*
    (every job present, nothing out of range), and writes the rows in
    grid job order to ``sink`` (default: collect and return the
    ``list[dict]``).  The result is bit-identical to a single-process
    ``run_grid`` of the same spec.

    ``grid_id`` may be omitted when the queue holds exactly one grid.
    """
    with _opened(root) as queue:
        grid_id = _resolve_grid(queue, grid_id)
        if not queue.finished(grid_id):
            counts = queue.counts(grid_id)
            raise ValueError(
                f"grid {grid_id} is not drained yet ({counts['pending']} "
                f"pending, {counts['leased']} leased leases) — run more "
                f"workers (repro work run) before merging")
        total = queue.total(grid_id)
        rows = _in_job_order(grid_id, total, _collect_rows(queue, grid_id))
        meta = queue.spec_dict(grid_id)
    sink = ListSink() if sink is None else sink
    sink.open(meta)
    try:
        sink.write_many(rows)
    finally:
        sink.close()
    return sink.result()


def failed_jobs(root, grid_id: str | None = None) -> dict[int, dict]:
    """The quarantined jobs of a grid after the prefer-ok merge:
    ``{seq: quarantine_row}`` for every job whose best merged row is
    still ``status="failed"`` (a job healed by a retried lease does not
    appear).  Works on partially drained queues — ``repro work
    status`` calls this while workers are still running."""
    with _opened(root) as queue:
        grid_id = _resolve_grid(queue, grid_id)
        return {seq: row
                for seq, row in _collect_rows(queue, grid_id).items()
                if _is_failed(row)}


def retry_failed(root, grid_id: str | None = None) -> tuple[int, int]:
    """Re-enqueue only the quarantined jobs of a drained grid.

    Finds every job whose merged result is still ``status="failed"``
    and flips the done leases covering them back to pending — the
    ``repro work retry-failed`` subcommand.  Returns
    ``(failed_jobs, reopened_leases)``.  The next ``work`` loop re-runs
    those ranges: healthy sibling jobs replay from the job cache,
    quarantined ones execute for real, and the merge's prefer-ok rule
    lets fresh successes supersede the stale failure envelopes.
    """
    with _opened(root) as queue:
        grid_id = _resolve_grid(queue, grid_id)
        failed = failed_jobs(queue, grid_id)
        if not failed:
            return 0, 0
        return len(failed), queue.reset_covering(grid_id, failed)


def grid_status(root, grid_id: str | None = None, *,
                include_rows: bool = True) -> dict:
    """One grid's machine-readable status — the single source of truth
    behind both ``repro work status --json`` and the grid service's
    ``GET /grids/<id>``.

    The payload::

        {"grid": id, "total": n_jobs,
         "state": "pending" | "done" | "degraded",
         "leases": {"pending": p, "leased": l, "done": d},
         "stale": stale_leases,
         "jobs": {"done": ok, "quarantined": failed,
                  "pending": not_yet_merged},
         "rows": [...]}          # only once every lease is drained

    ``state`` semantics: ``done`` means every lease drained and every
    job produced a healthy row; ``degraded`` means the grid cannot
    currently make progress toward ``done`` on its own — quarantined
    jobs remain after the drain, or leased ranges have outlived their
    heartbeat deadline (the worker fleet is presumed dead) — so the
    caller sees the unfinished remainder instead of waiting forever;
    ``pending`` means live workers are (or may still start) draining.
    Merged ``rows`` (in grid job order, quarantine rows included) are
    attached only when the drain is complete and ``include_rows`` is
    true; they come from the same single merge the counts do, with
    :func:`merge_results`' exact-coverage check.
    """
    with _opened(root) as queue:
        grid_id = _resolve_grid(queue, grid_id)
        total = queue.total(grid_id)
        counts = queue.counts(grid_id)
        stale = queue.stale(grid_id)
        merged = _collect_rows(queue, grid_id)
    quarantined = sorted(seq for seq, row in merged.items()
                         if _is_failed(row))
    drained = counts["pending"] == 0 and counts["leased"] == 0
    covered = len(merged) == total
    if drained:
        state = "done" if covered and not quarantined else "degraded"
    else:
        state = "degraded" if stale else "pending"
    status = {
        "grid": grid_id,
        "total": total,
        "state": state,
        "leases": counts,
        "stale": stale,
        "jobs": {"done": len(merged) - len(quarantined),
                 "quarantined": len(quarantined),
                 "pending": total - len(merged)},
        "quarantined_seqs": quarantined,
    }
    if drained and covered and include_rows:
        status["rows"] = _in_job_order(grid_id, total, merged)
    return status
