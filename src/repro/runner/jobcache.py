"""Per-job content-addressed result cache with pluggable backends.

The engine's unit of caching is one *record* — the result row of one
grid job, the offline optimum of one instance, or one sweep-point
measurement — addressed by the SHA-256 of the record's coordinates.
Because keys depend only on content (plus the engine version baked into
the payload by the caller), overlapping grids share work automatically:
re-running a grid extended by one seed pays exactly the new seed's jobs,
and two different grids that touch the same (scenario, T, seed) instance
solve its optimum once between them.

Two storage backends implement the same ``get``/``put`` contract:

* ``json`` — one small JSON file per record under
  ``root/<kind>/<key[:2]>/<key>.json`` (sharded by the first key byte so
  no directory grows unboundedly).  Writes go through a per-process temp
  file and an atomic rename, so concurrent writers of the same key are
  safe — last writer wins with identical content.  A file that fails to
  parse, or whose embedded key does not match its name, is treated as a
  miss and silently overwritten on the next put.
* ``sqlite`` — a single ``root/cache.db`` in WAL mode holding every
  record in one ``records`` table.  100k-job sweeps cost one inode
  instead of 100k, reads need no directory walks, and WAL plus a busy
  timeout make concurrent writers (the engine's worker processes, or two
  overlapping sweeps) safe.  An unreadable database or record is a miss;
  a corrupt database file is moved aside and recreated on the next put.

``JobCache(root)`` auto-detects: an existing ``cache.db`` (or a ``.db``
path) selects sqlite, anything else the JSON directory layout — so
migrated caches keep working with no caller changes.  ``repro cache
migrate`` converts a JSON directory in place.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sqlite3
import time

import numpy as np

from . import faults

__all__ = ["JobCache", "busy_stats", "connect_wal", "content_key",
           "jsonify", "migrate_cache", "with_busy_retry"]

#: filename of the sqlite backend inside a cache directory
DB_NAME = "cache.db"

BACKENDS = ("json", "sqlite")

#: default SQLITE_BUSY retry budget and backoff schedule
BUSY_RETRIES = 4
BUSY_BACKOFF = 0.02
BUSY_BACKOFF_MAX = 0.5

#: injectable sleep (tests patch this to capture the schedule)
_BUSY_SLEEP = time.sleep

# Monotonic per-process counter; consumers (run_grid) take
# before/after deltas, mirroring the kernels sweep-memo pattern.
_BUSY_STATS = {"sqlite_busy_retries": 0}


def busy_stats() -> dict:
    """Snapshot of the monotonic per-process ``sqlite_busy_retries``
    counter (one increment per retried ``database is locked`` error)."""
    return dict(_BUSY_STATS)


def with_busy_retry(fn, *, retries: int = BUSY_RETRIES,
                    backoff: float = BUSY_BACKOFF,
                    backoff_max: float = BUSY_BACKOFF_MAX):
    """Call ``fn()``, absorbing transient SQLITE_BUSY contention.

    A ``sqlite3.OperationalError`` whose message mentions ``locked``
    (the SQLITE_BUSY / SQLITE_LOCKED family — what a concurrent
    ``BEGIN IMMEDIATE`` or a saturated busy timeout surfaces) is
    retried up to ``retries`` times with capped exponential backoff
    (``min(backoff * 2**(attempt-1), backoff_max)``), each retry
    counted in :func:`busy_stats`.  Any other error — and a lock that
    outlives the budget — propagates to the caller unchanged.  Shared
    by the sqlite cache backend, the lease queue and the grid service.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or attempt >= retries:
                raise
            attempt += 1
            _BUSY_STATS["sqlite_busy_retries"] += 1
            _BUSY_SLEEP(min(backoff * 2 ** (attempt - 1), backoff_max))


def connect_wal(db_path: pathlib.Path, *,
                check_same_thread: bool = True) -> sqlite3.Connection:
    """Open ``db_path`` with the cache's WAL machinery: autocommit,
    WAL journal, NORMAL sync and a generous busy timeout, so concurrent
    writers (engine workers, overlapping sweeps, result sinks) are safe.
    Switching a fresh file to WAL takes an exclusive lock the busy
    timeout does not cover, so processes opening one new database at
    the same moment go through :func:`with_busy_retry`.  Shared by the
    cache backend, the lease queue and :mod:`repro.runner.sinks`;
    ``check_same_thread`` is passed to :func:`sqlite3.connect` (only a
    connection its owner serializes under a lock may turn it off)."""
    db_path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(db_path, timeout=30.0, isolation_level=None,
                           check_same_thread=check_same_thread)
    with_busy_retry(lambda: conn.execute("PRAGMA journal_mode=WAL"))
    conn.execute("PRAGMA synchronous=NORMAL")
    return conn


def jsonify(value):
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def _plain(value):
    """``json.dumps`` fallback: a numpy scalar or array as the plain
    Python value :func:`jsonify` would give it."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def content_key(payload: dict) -> str:
    """Stable hash of a JSON-serializable coordinate payload.

    Callers must include their own version token (e.g. the engine
    version) in the payload so format changes invalidate old records.
    The encoder meets numpy values only where they occur (it hands
    them to :func:`_plain`), so the key is that of the
    :func:`jsonify`-ed payload without walking it first.
    """
    blob = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


class _JsonBackend:
    """One JSON file per record, sharded dirs, atomic writes."""

    name = "json"

    def __init__(self, root: pathlib.Path):
        self.root = root

    def path(self, kind: str, key: str) -> pathlib.Path:
        """Where the record of ``key`` lives (whether or not it exists)."""
        return self.root / kind / key[:2] / f"{key}.json"

    def get(self, kind: str, key: str):
        # one descriptor serves the read, the mtime and the access stamp
        try:
            fd = os.open(os.path.join(self.root, kind, key[:2],
                                      key + ".json"), os.O_RDONLY)
        except OSError:
            return None
        try:
            try:
                st = os.fstat(fd)
                payload = json.loads(os.read(fd, st.st_size))
            except (OSError, ValueError):
                return None
            if not isinstance(payload, dict) or payload.get("key") != key:
                return None  # foreign or corrupted content: recompute
            try:
                # record the access in atime (explicitly, so relatime
                # mounts don't matter) and keep mtime = written time:
                # prune-by-age keys on mtime, the LRU size bound on atime
                os.utime(fd, ns=(time.time_ns(), st.st_mtime_ns))
            except OSError:
                pass
        finally:
            os.close(fd)
        return payload.get("record")

    def put(self, kind: str, key: str, record, created=None) -> None:
        path = self.path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"key": key, "record": jsonify(record)},
                                  sort_keys=True))
        tmp.replace(path)
        if created is not None:
            os.utime(path, (created, created))

    def _files(self):
        if not self.root.is_dir():
            return
        for kind_dir in sorted(self.root.iterdir()):
            if kind_dir.is_dir():
                yield from ((kind_dir.name, p)
                            for p in sorted(kind_dir.glob("*/*.json")))

    def iter_records(self):
        for kind, path in self._files():
            key = path.stem
            record = self.get(kind, key)
            if record is not None:
                yield kind, key, record, path.stat().st_mtime

    def stats(self) -> dict:
        entries: dict[str, int] = {}
        size = 0
        for kind, path in self._files():
            entries[kind] = entries.get(kind, 0) + 1
            size += path.stat().st_size
        return {"backend": self.name, "entries": entries,
                "total": sum(entries.values()), "bytes": size}

    def prune(self, cutoff: float) -> int:
        """Remove records last written before ``cutoff`` (epoch seconds)."""
        removed = 0
        for _kind, path in list(self._files()):
            if path.stat().st_mtime < cutoff:
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def prune_bytes(self, max_bytes: int) -> int:
        """Evict least-recently-accessed records until the cache holds at
        most ``max_bytes``; returns the number of records removed."""
        entries = []
        for _kind, path in self._files():
            st = path.stat()
            entries.append((max(st.st_atime, st.st_mtime), st.st_size,
                            path))
        total = sum(size for _, size, _ in entries)
        removed = 0
        for _mtime, size, path in sorted(entries):
            if total <= max_bytes:
                break
            path.unlink(missing_ok=True)
            total -= size
            removed += 1
        return removed

    def clear(self) -> int:
        removed = 0
        for _kind, path in list(self._files()):
            path.unlink(missing_ok=True)
            removed += 1
        return removed


class _SqliteBackend:
    """All records in one WAL-mode SQLite database."""

    name = "sqlite"

    def __init__(self, db_path: pathlib.Path):
        self.db_path = db_path
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None

    def _connection(self, create: bool = True) -> sqlite3.Connection | None:
        """This process's connection; ``create=False`` returns ``None``
        instead of creating an empty database — read paths must not
        flip a JSON cache dir's auto-detection by materializing a
        ``cache.db`` as a side effect."""
        # one connection per process: connections must not cross a fork
        if self._conn is None or self._pid != os.getpid():
            fresh = not self.db_path.exists()
            if not create and fresh:
                return None
            conn = connect_wal(self.db_path)
            if fresh:
                # new caches keep a free-page map so pruning can
                # reclaim space with PRAGMA incremental_vacuum instead
                # of a full table-rewriting VACUUM per eviction round;
                # the mode only takes hold through a VACUUM, which is
                # free here — the database is still empty
                conn.execute("PRAGMA auto_vacuum=INCREMENTAL")
                conn.execute("VACUUM")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS records ("
                " kind TEXT NOT NULL, key TEXT NOT NULL,"
                " record TEXT NOT NULL, created REAL NOT NULL,"
                " accessed REAL, PRIMARY KEY (kind, key))")
            # databases written before the LRU column existed
            columns = {row[1] for row in
                       conn.execute("PRAGMA table_info(records)")}
            if "accessed" not in columns:
                conn.execute("ALTER TABLE records ADD COLUMN accessed REAL")
            self._conn, self._pid = conn, os.getpid()
        return self._conn

    def _discard(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
        self._conn = None

    def _heal(self) -> None:
        """Move a corrupt database aside so the next write starts fresh.

        The WAL companions (``-wal``/``-shm``) go with it — left behind,
        SQLite would replay the stale WAL frames into the fresh file."""
        self._discard()
        quarantine = self.db_path.with_name(
            f"{self.db_path.name}.corrupt.{os.getpid()}")
        try:
            self.db_path.replace(quarantine)
        except OSError:
            pass
        for suffix in ("-wal", "-shm"):
            companion = self.db_path.with_name(self.db_path.name + suffix)
            try:
                companion.replace(quarantine.with_name(
                    quarantine.name + suffix))
            except OSError:
                pass

    def get(self, kind: str, key: str):
        try:
            conn = self._connection(create=False)
            if conn is None:
                return None
            row = conn.execute(
                "SELECT record FROM records WHERE kind = ? AND key = ?",
                (kind, key)).fetchone()
        except sqlite3.Error:
            self._discard()
            return None
        if row is not None:
            try:
                conn.execute(  # last-access drives the LRU prune;
                    # best-effort: a lost stamp must not mask the hit
                    "UPDATE records SET accessed = ? WHERE kind = ? "
                    "AND key = ?", (time.time(), kind, key))
            except sqlite3.Error:
                self._discard()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except ValueError:
            return None  # corrupted record: recompute

    _INSERT = ("INSERT OR REPLACE INTO records "
               "(kind, key, record, created, accessed)"
               " VALUES (?, ?, ?, ?, ?)")

    def put(self, kind: str, key: str, record, created=None) -> None:
        blob = json.dumps(jsonify(record), sort_keys=True)
        created = time.time() if created is None else float(created)
        values = (kind, key, blob, created, created)
        def _attempt():
            faults.fire("sqlite_lock", key)
            self._connection().execute(self._INSERT, values)

        try:
            # transient lock contention heals inside the busy-retry
            # budget; the fault site sits inside the retried closure so
            # an injected nth=(1,) lock exercises exactly that path
            with_busy_retry(_attempt)
        except sqlite3.OperationalError:
            # still failing (persistent lock, disk full, ...): the
            # database is healthy — surface the error, never
            # quarantine the cache
            self._discard()
            raise
        except sqlite3.DatabaseError:
            # actual corruption ("file is not a database", malformed
            # image): quarantine the file, retry on a fresh one
            self._heal()
            self._connection().execute(self._INSERT, values)

    def iter_records(self):
        try:
            conn = self._connection(create=False)
            if conn is None:
                return
            rows = conn.execute(
                "SELECT kind, key, record, created FROM records"
                " ORDER BY kind, key").fetchall()
        except sqlite3.Error:
            self._discard()
            return
        for kind, key, blob, created in rows:
            try:
                yield kind, key, json.loads(blob), created
            except ValueError:
                continue

    _VACUUM_MODES = {0: "none", 1: "full", 2: "incremental"}

    def _auto_vacuum(self, conn: sqlite3.Connection) -> int:
        """The database's ``auto_vacuum`` mode (0 on older caches)."""
        try:
            return int(conn.execute("PRAGMA auto_vacuum").fetchone()[0])
        except sqlite3.Error:
            return 0

    def stats(self) -> dict:
        entries: dict[str, int] = {}
        vacuum = "none"
        try:
            conn = self._connection(create=False)
            if conn is not None:
                for kind, n in conn.execute(
                        "SELECT kind, COUNT(*) FROM records GROUP BY kind"):
                    entries[kind] = n
                vacuum = self._VACUUM_MODES.get(self._auto_vacuum(conn),
                                                "none")
        except sqlite3.Error:
            self._discard()
        return {"backend": self.name, "entries": entries,
                "total": sum(entries.values()), "bytes": self._size(),
                "auto_vacuum": vacuum}

    def prune(self, cutoff: float) -> int:
        try:
            conn = self._connection(create=False)
            if conn is None:
                return 0
            cur = conn.execute(
                "DELETE FROM records WHERE created < ?", (cutoff,))
            return cur.rowcount
        except sqlite3.Error:
            self._discard()
            return 0

    def _size(self) -> int:
        """Database bytes on disk: main file plus unflushed WAL (the
        ``-shm`` index is transient shared memory, not persisted)."""
        total = 0
        for path in (self.db_path,
                     self.db_path.with_name(self.db_path.name + "-wal")):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def prune_bytes(self, max_bytes: int) -> int:
        """Evict least-recently-accessed records until the database
        holds at most ``max_bytes``.

        Space is reclaimed after each eviction round with ``PRAGMA
        incremental_vacuum`` when the database was created with
        ``auto_vacuum=INCREMENTAL`` (every cache.db this backend
        creates) — returning the freed pages without rewriting the
        whole file.  Databases from before the mode existed fall back
        to a full ``VACUUM`` per round, which on a multi-GB cache costs
        a complete table rewrite each time.
        """
        removed = 0
        try:
            conn = self._connection(create=False)
            if conn is None:
                return 0
            incremental = self._auto_vacuum(conn) == 2
            # drain the WAL first so size estimates see the real file
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            while self._size() > max_bytes:
                count = conn.execute(
                    "SELECT COUNT(*) FROM records").fetchone()[0]
                if count == 0:
                    break
                # estimate how many evictions close the gap, floor 1 so
                # the loop always progresses even on bad estimates
                overshoot = self._size() - max_bytes
                batch = max(1, min(count,
                                   count * overshoot // self._size()))
                conn.execute(
                    "DELETE FROM records WHERE rowid IN (SELECT rowid "
                    "FROM records ORDER BY COALESCE(accessed, created) "
                    "LIMIT ?)", (batch,))
                removed += batch
                # reclaim the space: both paths rebuild through the
                # WAL, so the checkpoint must come after them.  The
                # incremental pragma frees one page per statement step,
                # and sqlite3.execute only steps a rowless PRAGMA once
                # — executescript drives it to completion
                if incremental:
                    conn.executescript("PRAGMA incremental_vacuum")
                else:
                    conn.execute("VACUUM")
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.Error:
            self._discard()
        return removed

    def clear(self) -> int:
        try:
            conn = self._connection(create=False)
            if conn is None:
                return 0
            cur = conn.execute("DELETE FROM records")
            return cur.rowcount
        except sqlite3.Error:
            self._discard()
            return 0


class JobCache:
    """Content-addressed store of JSON records under one root.

    ``backend`` is ``"json"``, ``"sqlite"`` or ``None`` to auto-detect:
    a root ending in ``.db`` or containing ``cache.db`` opens the sqlite
    backend, anything else the JSON directory layout (the historical
    default, so existing caches keep working).
    """

    def __init__(self, root, backend: str | None = None):
        """Open (or create) the cache at ``root`` with ``backend``."""
        self.root = pathlib.Path(root)
        if backend is None:
            backend = ("sqlite" if self.root.suffix == ".db"
                       or (self.root / DB_NAME).exists() else "json")
        if backend not in BACKENDS:
            raise ValueError(f"unknown cache backend {backend!r}; "
                             f"choose from {BACKENDS}")
        if backend == "sqlite":
            db = (self.root if self.root.suffix == ".db"
                  else self.root / DB_NAME)
            self._backend = _SqliteBackend(db)
        else:
            self._backend = _JsonBackend(self.root)

    @property
    def backend(self) -> str:
        """Name of the active storage backend."""
        return self._backend.name

    def path(self, kind: str, key: str) -> pathlib.Path:
        """JSON backend only: where the record of ``key`` lives."""
        if not isinstance(self._backend, _JsonBackend):
            raise ValueError("path() is only meaningful for the json "
                             "backend; sqlite stores records in "
                             f"{self._backend.db_path}")
        return self._backend.path(kind, key)

    def get(self, kind: str, key: str):
        """The stored record, or ``None`` on miss/corruption."""
        return self._backend.get(kind, key)

    def put(self, kind: str, key: str, record, created=None) -> None:
        """Persist a record atomically; ``created`` (epoch seconds)
        overrides the write timestamp used by ``prune`` (migration)."""
        self._backend.put(kind, key, record, created=created)

    def iter_records(self):
        """Yield ``(kind, key, record, created)`` for every readable
        record (unreadable ones are skipped, as in ``get``)."""
        return self._backend.iter_records()

    def stats(self) -> dict:
        """``{"backend", "entries": {kind: n}, "total", "bytes"}``."""
        return self._backend.stats()

    def check_dir(self) -> None:
        """Raise :class:`NotADirectoryError` unless the directory that
        holds the records (the root, or the SQLite database's
        directory) is one or can still be created.  Reads no record,
        so its cost does not grow with the cache."""
        path = (self._backend.db_path.parent
                if isinstance(self._backend, _SqliteBackend) else self.root)
        while not path.exists() and path != path.parent:
            path = path.parent
        if not path.is_dir():
            raise NotADirectoryError(f"{path} is not a directory")

    def prune(self, older_than: float) -> int:
        """Remove records written more than ``older_than`` seconds ago;
        returns the number removed."""
        return self._backend.prune(time.time() - float(older_than))

    def prune_bytes(self, max_bytes: int) -> int:
        """Size-bounded LRU eviction: drop least-recently-accessed
        records until the cache occupies at most ``max_bytes`` on disk;
        returns the number removed.  Keeps long-lived caches bounded
        without cron jobs (CLI: ``repro cache prune --max-bytes``)."""
        return self._backend.prune_bytes(int(max_bytes))

    def clear(self) -> int:
        """Remove every record; returns the number removed."""
        return self._backend.clear()


def migrate_cache(src: JobCache, dst: JobCache) -> int:
    """Copy every record of ``src`` into ``dst`` (timestamps preserved);
    returns the number of records copied."""
    copied = 0
    for kind, key, record, created in src.iter_records():
        dst.put(kind, key, record, created=created)
        copied += 1
    return copied
