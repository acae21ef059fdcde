"""Tests for the JobCache backends (JSON dir vs SQLite), the `repro
cache` admin CLI, and the nightly benchmark comparator."""

import hashlib
import json
import multiprocessing
import os
import sqlite3
import time

import numpy as np
import pytest

from repro.runner import (EngineConfig, GridSpec, JobCache, RunStats,
                          migrate_cache, run_grid)
from repro.runner.jobcache import DB_NAME, connect_wal, content_key, jsonify

SMALL = GridSpec(scenarios=("diurnal",), algorithms=("lcp", "threshold"),
                 seeds=(0, 1), sizes=(16,))


def _cache_stats(stats):
    return {k: getattr(stats, k) for k in ("job_hits", "job_misses",
                                           "opt_hits", "opt_solved")}


class TestSqliteBackend:
    def test_hit_miss_parity_with_json(self, tmp_path):
        json_cache = JobCache(tmp_path / "json", backend="json")
        sq_cache = JobCache(tmp_path / "sq", backend="sqlite")
        stats = {j: RunStats() for j in ("json1", "json2", "sq1", "sq2")}
        rows_j1 = run_grid(SMALL, EngineConfig(cache_dir=json_cache),
                           stats=stats["json1"])
        rows_j2 = run_grid(SMALL, EngineConfig(cache_dir=json_cache),
                           stats=stats["json2"])
        rows_s1 = run_grid(SMALL, EngineConfig(cache_dir=sq_cache),
                           stats=stats["sq1"])
        rows_s2 = run_grid(SMALL, EngineConfig(cache_dir=sq_cache),
                           stats=stats["sq2"])
        assert rows_j1 == rows_j2 == rows_s1 == rows_s2
        assert _cache_stats(stats["json1"]) == _cache_stats(stats["sq1"])
        assert _cache_stats(stats["json2"]) == _cache_stats(stats["sq2"])
        assert stats["sq2"].job_hits == len(SMALL)

    def test_parallel_rows_bit_identical_under_both_backends(self,
                                                            tmp_path):
        # Hermetic by construction (the PR 7 full-suite-only flake):
        # every combo forks its pool from an identical parent state —
        # no inherited pool, no warm sweep/instance memos — so a state
        # leak from an earlier test cannot skew one combo against the
        # in-process reference.  The status check turns a silent
        # wrong-row mismatch into a diagnosable quarantine report.
        from repro import kernels
        from repro.runner import instancestore, shutdown_pool
        rows = {}
        for backend in ("json", "sqlite"):
            for n_jobs in (1, 4):
                shutdown_pool()
                kernels.clear_sweep_cache()
                instancestore.clear_memo()
                cache = JobCache(tmp_path / f"{backend}-{n_jobs}",
                                 backend=backend)
                rows[(backend, n_jobs)] = run_grid(
                    SMALL, EngineConfig(n_jobs=n_jobs, cache_dir=cache))
        shutdown_pool()
        for combo, combo_rows in rows.items():
            failed = [r for r in combo_rows
                      if r.get("status") == "failed"]
            assert not failed, (combo, failed)
        reference = rows[("json", 1)]
        assert all(r == reference for r in rows.values())

    def test_get_put_roundtrip_and_miss(self, tmp_path):
        cache = JobCache(tmp_path, backend="sqlite")
        assert cache.get("jobs", "k1") is None
        cache.put("jobs", "k1", {"cost": 1.5, "n": 2})
        assert cache.get("jobs", "k1") == {"cost": 1.5, "n": 2}
        cache.put("jobs", "k1", {"cost": 2.5})  # overwrite: last wins
        assert cache.get("jobs", "k1") == {"cost": 2.5}
        assert cache.get("instances", "k1") is None  # kind-scoped

    def test_corrupt_database_is_miss_then_heals(self, tmp_path):
        cache = JobCache(tmp_path, backend="sqlite")
        cache.put("jobs", "k1", {"cost": 1.0})
        del cache
        db = tmp_path / DB_NAME
        db.write_bytes(b"this is not a sqlite database at all")
        for wal in (tmp_path / f"{DB_NAME}-wal", tmp_path / f"{DB_NAME}-shm"):
            wal.unlink(missing_ok=True)
        reopened = JobCache(tmp_path)  # auto-detects sqlite by filename
        assert reopened.backend == "sqlite"
        assert reopened.get("jobs", "k1") is None  # corruption = miss
        reopened.put("jobs", "k2", {"cost": 2.0})  # heals: fresh db
        assert reopened.get("jobs", "k2") == {"cost": 2.0}
        assert list(tmp_path.glob(f"{DB_NAME}.corrupt.*"))

    def test_corrupt_record_is_miss(self, tmp_path):
        import sqlite3
        cache = JobCache(tmp_path, backend="sqlite")
        cache.put("jobs", "k1", {"cost": 1.0})
        with sqlite3.connect(tmp_path / DB_NAME) as conn:
            conn.execute("UPDATE records SET record = '{broken'")
        assert cache.get("jobs", "k1") is None

    def test_concurrent_writers_same_key(self, tmp_path):
        a = JobCache(tmp_path, backend="sqlite")
        b = JobCache(tmp_path, backend="sqlite")
        for i in range(20):
            a.put("jobs", "shared", {"writer": "a", "i": i})
            b.put("jobs", "shared", {"writer": "b", "i": i})
        assert a.get("jobs", "shared") == {"writer": "b", "i": 19}
        assert b.get("jobs", "shared") == {"writer": "b", "i": 19}

    def test_stats_prune_clear(self, tmp_path):
        cache = JobCache(tmp_path, backend="sqlite")
        now = time.time()
        cache.put("jobs", "old", {"v": 1}, created=now - 100 * 86400)
        cache.put("jobs", "new", {"v": 2})
        cache.put("instances", "i1", {"v": 3})
        info = cache.stats()
        assert info["backend"] == "sqlite"
        assert info["entries"] == {"jobs": 2, "instances": 1}
        assert info["total"] == 3 and info["bytes"] > 0
        assert cache.prune(30 * 86400) == 1  # only 'old' goes
        assert cache.get("jobs", "old") is None
        assert cache.get("jobs", "new") == {"v": 2}
        assert cache.clear() == 2
        assert cache.stats()["total"] == 0

    def test_json_stats_prune_clear(self, tmp_path):
        cache = JobCache(tmp_path, backend="json")
        now = time.time()
        cache.put("jobs", "old", {"v": 1}, created=now - 100 * 86400)
        cache.put("jobs", "new", {"v": 2})
        info = cache.stats()
        assert info["backend"] == "json"
        assert info["entries"] == {"jobs": 2} and info["bytes"] > 0
        assert cache.prune(30 * 86400) == 1
        assert cache.get("jobs", "old") is None
        assert cache.clear() == 1
        assert cache.stats()["total"] == 0

    def test_read_operations_do_not_create_database(self, tmp_path):
        """A read-only op on the sqlite backend must not materialize an
        empty cache.db — that would flip a JSON dir's auto-detection
        and hide its records."""
        json_cache = JobCache(tmp_path, backend="json")
        json_cache.put("jobs", "k1", {"v": 1})
        sq_view = JobCache(tmp_path, backend="sqlite")
        assert sq_view.get("jobs", "k1") is None
        assert sq_view.stats()["total"] == 0
        assert sq_view.prune(0) == 0 and sq_view.clear() == 0
        assert list(sq_view.iter_records()) == []
        assert not (tmp_path / DB_NAME).exists()
        assert JobCache(tmp_path).backend == "json"  # detection intact
        assert JobCache(tmp_path).get("jobs", "k1") == {"v": 1}

    def test_path_only_for_json(self, tmp_path):
        assert JobCache(tmp_path, backend="json").path("jobs", "ab12")
        with pytest.raises(ValueError, match="json backend"):
            JobCache(tmp_path, backend="sqlite").path("jobs", "ab12")

    def test_old_database_without_accessed_column_still_opens(self,
                                                              tmp_path):
        """Databases written before the LRU column existed migrate in
        place (ALTER TABLE) on first open."""
        import sqlite3
        db = tmp_path / DB_NAME
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE records (kind TEXT NOT NULL, key TEXT "
                     "NOT NULL, record TEXT NOT NULL, created REAL NOT "
                     "NULL, PRIMARY KEY (kind, key))")
        conn.execute("INSERT INTO records VALUES ('jobs', 'k1', "
                     "'{\"v\": 1}', 1.0)")
        conn.commit()
        conn.close()
        cache = JobCache(tmp_path, backend="sqlite")
        assert cache.get("jobs", "k1") == {"v": 1}
        cache.put("jobs", "k2", {"v": 2})
        assert cache.prune_bytes(10 ** 9) == 0  # under bound: no-op

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cache backend"):
            JobCache(tmp_path, backend="mongodb")


def _open_each_at_barrier(paths, barrier, failures):
    for path in paths:
        barrier.wait(timeout=60)
        try:
            connect_wal(path).close()
        except sqlite3.OperationalError:
            with failures.get_lock():
                failures.value += 1


def _jsonify_key(payload) -> str:
    """The reference key: walk the payload with ``jsonify``, then hash
    its canonical JSON (how every existing cache record was keyed)."""
    blob = json.dumps(jsonify(payload), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _random_value(rng, depth=0):
    """A random key-payload value: Python and NumPy scalars, arrays,
    and nested dicts, lists and tuples of them."""
    kind = int(rng.integers(0, 12 if depth < 3 else 8))
    if kind == 0:
        return int(rng.integers(-10**6, 10**6))
    if kind == 1:
        return float(rng.normal()) * 10.0 ** int(rng.integers(-8, 9))
    if kind == 2:
        return np.int64(rng.integers(-10**12, 10**12))
    if kind == 3:
        return np.float32(rng.normal() * 100)
    if kind == 4:
        return np.float64(rng.normal()) * 10.0 ** int(rng.integers(-8, 9))
    if kind == 5:
        return np.bool_(rng.integers(0, 2))
    if kind == 6:
        return [None, True, "diurnal", "{}"][int(rng.integers(0, 4))]
    if kind == 7:
        return np.int32(rng.integers(-1000, 1000))
    if kind == 8:
        dtype = [np.int64, np.float32, np.float64, np.bool_][
            int(rng.integers(0, 4))]
        shape = tuple(int(n) for n in rng.integers(0, 4, size=int(
            rng.integers(1, 3))))
        return (rng.normal(size=shape) * 50).astype(dtype)
    if kind == 9:
        return tuple(_random_value(rng, depth + 1)
                     for _ in range(int(rng.integers(0, 4))))
    if kind == 10:
        return [_random_value(rng, depth + 1)
                for _ in range(int(rng.integers(0, 4)))]
    return {f"k{i}": _random_value(rng, depth + 1)
            for i in range(int(rng.integers(0, 4)))}


class TestContentKey:
    """``content_key`` hashes numpy values where the encoder meets them
    instead of walking the payload first; every key must stay what it
    was, so existing caches keep hitting."""

    def test_golden_keys(self):
        """Keys of a job, an instance, an instance payload and a sweep
        point — NumPy scalars and arrays included — as the cache has
        always stored them."""
        from repro.analysis.sweep import _point_key
        from repro.runner.engine import instance_key, job_key
        from repro.runner.instancestore import store_key
        job = ("diurnal", "lcp", np.int64(200), np.int32(3), np.int64(0),
               np.int8(0), '{"beta": 2.0}')
        assert job_key(job) == "a47a51af46fbf5e9e0e13aef"
        assert job_key(("diurnal", "threshold", 200, 3, 0, 0, "{}")) == \
            "d620cc3f95b6e84483929c2a"
        coords = ("bursty", "general", np.int64(1000), np.uint16(7), "{}")
        assert instance_key(coords) == "a456bef63e2bf12b6e1eb9eb"
        assert store_key(coords) == "1a5703e50b803ed71bd6265f"
        point = {"beta": np.float64(2.5), "m": np.int64(12),
                 "ratio": np.float32(0.1), "flag": np.bool_(True),
                 "grid": np.arange(4, dtype=np.int32),
                 "table": np.linspace(0.0, 1.0, 6).reshape(2, 3),
                 "nested": {"pair": (np.float32(1.5), [np.int16(-3), 2.0]),
                            "none": None, "s": "x"}}
        assert _point_key(run_grid, point) == "18b3fe55fdeed1ccdb1f2ad8"

    def test_matches_the_jsonify_reference(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            payload = {f"f{i}": _random_value(rng)
                       for i in range(int(rng.integers(1, 6)))}
            assert content_key(payload) == _jsonify_key(payload), payload

    def test_unserializable_values_still_raise(self):
        with pytest.raises(TypeError):
            content_key({"fn": object()})


class TestJsonGet:
    """The JSON backend reads each record through one descriptor; its
    miss rules and access stamps are the historical ones."""

    def test_missing_corrupt_foreign_and_unreadable_records_miss(
            self, tmp_path):
        cache = JobCache(tmp_path, backend="json")
        assert cache.get("jobs", "ab01") is None          # missing
        cache.put("jobs", "ab02", {"v": 2})
        cache.path("jobs", "ab02").write_text('{"key": "ab02", "rec')
        assert cache.get("jobs", "ab02") is None          # corrupt
        cache.path("jobs", "ab02").write_bytes(b"")
        assert cache.get("jobs", "ab02") is None          # empty
        cache.path("jobs", "ab02").write_bytes(b"\xff\xfe{")
        assert cache.get("jobs", "ab02") is None          # not UTF-8
        cache.put("jobs", "ab03", {"v": 3})
        cache.path("jobs", "ab03").write_text(
            json.dumps({"key": "ab99", "record": {"v": 3}}))
        assert cache.get("jobs", "ab03") is None          # foreign key
        cache.path("jobs", "ab04").mkdir(parents=True)
        assert cache.get("jobs", "ab04") is None          # unreadable
        cache.put("jobs", "ab05", [1, 2])
        cache.path("jobs", "ab05").write_text(json.dumps([1, 2]))
        assert cache.get("jobs", "ab05") is None          # not a record

    def test_hit_advances_atime_and_keeps_mtime(self, tmp_path):
        cache = JobCache(tmp_path, backend="json")
        cache.put("jobs", "ab10", {"v": 10}, created=1_000_000_000.25)
        path = cache.path("jobs", "ab10")
        os.utime(path, ns=(1_000_000_000_000_000_000,
                           1_000_000_000_250_000_123))
        before = time.time_ns()
        assert cache.get("jobs", "ab10") == {"v": 10}
        st = os.stat(path)
        assert st.st_mtime_ns == 1_000_000_000_250_000_123
        assert st.st_atime_ns >= before - 2 * 10**9  # coarse clocks

    def test_failed_access_stamp_still_hits(self, tmp_path, monkeypatch):
        cache = JobCache(tmp_path, backend="json")
        cache.put("jobs", "ab20", {"v": 20})

        def refused(*args, **kwargs):
            raise PermissionError("read-only cache")

        monkeypatch.setattr(os, "utime", refused)
        assert cache.get("jobs", "ab20") == {"v": 20}


class TestConcurrentOpen:
    def test_processes_opening_one_fresh_database_all_succeed(
            self, tmp_path):
        """Switching a fresh file to WAL takes an exclusive lock the
        busy timeout does not cover; processes released together onto
        one new path must all open it (the busy retry absorbs it)."""
        ctx = multiprocessing.get_context("spawn")
        paths = [tmp_path / f"fresh{i}" / DB_NAME for i in range(20)]
        barrier, failures = ctx.Barrier(4), ctx.Value("i", 0)
        procs = [ctx.Process(target=_open_each_at_barrier,
                             args=(paths, barrier, failures))
                 for _ in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0] * 4
        assert failures.value == 0


class TestPruneBytes:
    """Size-bounded LRU eviction (`repro cache prune --max-bytes`)."""

    def _fill(self, cache, n=24):
        for i in range(n):
            cache.put("jobs", f"k{i:02d}", {"v": i, "pad": "x" * 4000})

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_prune_bytes_bounds_the_cache(self, tmp_path, backend):
        cache = JobCache(tmp_path, backend=backend)
        self._fill(cache)
        cache.prune_bytes(10 ** 18)  # no-op bound, drains the WAL
        before = cache.stats()
        bound = before["bytes"] // 3
        removed = cache.prune_bytes(bound)
        after = cache.stats()
        assert removed > 0
        assert after["total"] == before["total"] - removed
        assert after["total"] > 0  # bound keeps part of the cache
        assert after["bytes"] <= bound

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_prune_bytes_noop_under_bound(self, tmp_path, backend):
        cache = JobCache(tmp_path, backend=backend)
        self._fill(cache, n=3)
        assert cache.prune_bytes(10 ** 9) == 0
        assert cache.stats()["total"] == 3

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_prune_bytes_evicts_least_recently_accessed(self, tmp_path,
                                                        backend):
        cache = JobCache(tmp_path, backend=backend)
        now = time.time()
        # k0 written longest ago but *read* recently; k1 written later
        # but never read since -> k1 is the LRU victim
        cache.put("jobs", "k0", {"v": 0, "pad": "x" * 300},
                  created=now - 1000)
        cache.put("jobs", "k1", {"v": 1, "pad": "x" * 300},
                  created=now - 500)
        if backend == "json":
            # file timestamps need a visible gap on coarse filesystems
            import os
            p0 = cache.path("jobs", "k0")
            p1 = cache.path("jobs", "k1")
            os.utime(p0, (now - 1000, now - 1000))
            os.utime(p1, (now - 500, now - 500))
        assert cache.get("jobs", "k0") == {"v": 0, "pad": "x" * 300}
        removed = cache.prune_bytes(1)  # evict down toward empty
        assert removed >= 1
        victims = {key for _kind, key, _rec, _c in cache.iter_records()}
        # eviction order followed last-access: k1 left before k0
        if cache.stats()["total"] == 1:
            assert victims == {"k0"}

    def test_new_databases_use_incremental_vacuum(self, tmp_path):
        """Satellite acceptance: caches created by this backend keep a
        free-page map, so eviction rounds reclaim space with
        ``PRAGMA incremental_vacuum`` instead of a full VACUUM."""
        import sqlite3
        cache = JobCache(tmp_path, backend="sqlite")
        self._fill(cache)
        assert cache.stats()["auto_vacuum"] == "incremental"
        mode = sqlite3.connect(tmp_path / DB_NAME).execute(
            "PRAGMA auto_vacuum").fetchone()[0]
        assert mode == 2  # INCREMENTAL
        cache.prune_bytes(10 ** 18)  # no-op bound, drains the WAL
        before = cache.stats()
        bound = before["bytes"] // 3
        removed = cache.prune_bytes(bound)
        after = cache.stats()
        assert removed > 0
        assert after["bytes"] <= bound  # pages actually came back

    def test_legacy_database_falls_back_to_full_vacuum(self, tmp_path):
        """A cache.db from before the incremental mode still prunes
        (full VACUUM per round) and reports its vacuum mode."""
        conn = connect_wal(tmp_path / DB_NAME)  # auto_vacuum=NONE
        conn.execute("CREATE TABLE records (kind TEXT NOT NULL, key "
                     "TEXT NOT NULL, record TEXT NOT NULL, created "
                     "REAL NOT NULL, accessed REAL, "
                     "PRIMARY KEY (kind, key))")
        conn.close()
        cache = JobCache(tmp_path)
        self._fill(cache)
        assert cache.stats()["auto_vacuum"] == "none"
        cache.prune_bytes(10 ** 18)  # no-op bound, drains the WAL
        bound = cache.stats()["bytes"] // 3
        assert cache.prune_bytes(bound) > 0
        assert cache.stats()["bytes"] <= bound

    def test_json_backend_reports_no_vacuum_mode(self, tmp_path):
        cache = JobCache(tmp_path, backend="json")
        self._fill(cache, n=2)
        assert "auto_vacuum" not in cache.stats()

    def test_stats_cli_reports_vacuum_mode(self, tmp_path, capsys):
        from repro.cli import main
        cache = JobCache(tmp_path, backend="sqlite")
        cache.put("jobs", "k", {"v": 1})
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "vacuum:  incremental" in capsys.readouterr().out

    def test_prune_bytes_cli(self, tmp_path, capsys):
        from repro.cli import main
        cache = JobCache(tmp_path, backend="json")
        self._fill(cache)
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-bytes", "1k"]) == 0
        out = capsys.readouterr().out
        assert "least-recently-used" in out
        assert JobCache(tmp_path).stats()["bytes"] <= 1024
        with pytest.raises(SystemExit, match="older-than"):
            main(["cache", "prune", "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit, match="could not parse size"):
            main(["cache", "prune", "--cache-dir", str(tmp_path),
                  "--max-bytes", "huge"])

    def test_prune_age_and_bytes_compose(self, tmp_path, capsys):
        from repro.cli import main
        cache = JobCache(tmp_path, backend="sqlite")
        cache.put("jobs", "old", {"v": 1},
                  created=time.time() - 100 * 86400)
        self._fill(cache, n=6)
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--older-than", "30d", "--max-bytes", "1g"]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 records" in out
        assert "evicted 0" in out


class TestMigration:
    def test_migrate_preserves_records_and_timestamps(self, tmp_path):
        src = JobCache(tmp_path, backend="json")
        old = time.time() - 50 * 86400
        src.put("jobs", "k1", {"cost": 1.0}, created=old)
        src.put("instances", "k2", {"opt": 3.5})
        dst = JobCache(tmp_path, backend="sqlite")
        assert migrate_cache(src, dst) == 2
        assert dst.get("jobs", "k1") == {"cost": 1.0}
        assert dst.get("instances", "k2") == {"opt": 3.5}
        assert dst.prune(30 * 86400) == 1  # old timestamp survived
        # auto-detect now prefers the migrated cache.db
        assert JobCache(tmp_path).backend == "sqlite"

    def test_analysis_sweep_accepts_sqlite_cache(self, tmp_path):
        from repro.analysis import sweep
        from tests.test_runner import _measure
        cache = JobCache(tmp_path, backend="sqlite")
        stats1, stats2 = RunStats(), RunStats()
        grid = {"T": [2, 3], "m": [4, 5]}
        rows = sweep(_measure, grid, EngineConfig(cache_dir=cache),
                     stats=stats1)
        again = sweep(_measure, grid, EngineConfig(cache_dir=cache),
                      stats=stats2)
        assert rows == again
        assert (stats1.hits, stats1.misses) == (0, 4)
        assert (stats2.hits, stats2.misses) == (4, 0)
        assert (tmp_path / DB_NAME).exists()

    def test_engine_reads_migrated_cache(self, tmp_path):
        rows = run_grid(SMALL, EngineConfig(
            cache_dir=JobCache(tmp_path, backend="json")))
        migrate_cache(JobCache(tmp_path, backend="json"),
                      JobCache(tmp_path, backend="sqlite"))
        stats = RunStats()
        again = run_grid(SMALL, EngineConfig(cache_dir=JobCache(tmp_path)),
                         stats=stats)
        assert again == rows
        assert stats.job_hits == len(SMALL)


class TestCacheCLI:
    def _populate(self, tmp_path):
        run_grid(SMALL, EngineConfig(cache_dir=tmp_path))

    def test_stats(self, tmp_path, capsys):
        from repro.cli import main
        self._populate(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "backend: json" in out and "jobs" in out
        assert "instances" in out

    def test_migrate_then_stats(self, tmp_path, capsys):
        from repro.cli import main
        self._populate(tmp_path)
        assert main(["cache", "migrate", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "migrated 6 records" in out  # 4 jobs + 2 instance optima
        assert (tmp_path / DB_NAME).exists()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "backend: sqlite" in capsys.readouterr().out
        # second migrate refuses (already sqlite)
        with pytest.raises(SystemExit, match="already holds"):
            main(["cache", "migrate", "--cache-dir", str(tmp_path)])

    def test_prune_and_clear(self, tmp_path, capsys):
        from repro.cli import main
        self._populate(tmp_path)
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--older-than", "30d"]) == 0
        assert "pruned 0 records" in capsys.readouterr().out
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--older-than", "0s"]) == 0
        assert "pruned 6 records" in capsys.readouterr().out
        self._populate(tmp_path)
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 6 records" in capsys.readouterr().out

    def test_bad_age_rejected(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit, match="could not parse age"):
            main(["cache", "prune", "--cache-dir", str(tmp_path),
                  "--older-than", "soon"])

    def test_sweep_accepts_backend_and_store(self, tmp_path, capsys):
        from repro.cli import main
        args = ["sweep", "--scenarios", "diurnal", "--algorithms",
                "lcp,threshold", "--seeds", "0", "-T", "16",
                "--cache-dir", str(tmp_path / "c"),
                "--cache-backend", "sqlite",
                "--store-dir", str(tmp_path / "s")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hits, 2 misses" in out and "store:" in out
        assert (tmp_path / "c" / DB_NAME).exists()
        assert main(args) == 0
        assert "cache: 2 hits, 0 misses" in capsys.readouterr().out


class TestComparator:
    def _write(self, root, name, doc):
        root.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(json.dumps(doc))

    def _doc(self, ratio=1.1, jps=100.0):
        return {"results": [{"T": 1000, "variant": "rebuild",
                             "jobs_per_sec": jps, "seconds": 1.0,
                             "mean_ratio": {"lcp": ratio}}]}

    def test_no_previous_dir_passes(self, tmp_path, capsys):
        import benchmarks.compare_results as cr
        cur = tmp_path / "cur"
        self._write(cur, "BENCH_engine.json", self._doc())
        assert cr.main([str(tmp_path / "missing"), str(cur)]) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_identical_passes(self, tmp_path):
        import benchmarks.compare_results as cr
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        self._write(prev, "BENCH_engine.json", self._doc())
        self._write(cur, "BENCH_engine.json", self._doc())
        assert cr.main([str(prev), str(cur)]) == 0

    def test_ratio_drift_fails(self, tmp_path, capsys):
        import benchmarks.compare_results as cr
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        self._write(prev, "BENCH_engine.json", self._doc(ratio=1.1))
        self._write(cur, "BENCH_engine.json", self._doc(ratio=1.3))
        assert cr.main([str(prev), str(cur)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_runtime_noise_within_tolerance_passes(self, tmp_path):
        import benchmarks.compare_results as cr
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        self._write(prev, "BENCH_engine.json", self._doc(jps=100.0))
        self._write(cur, "BENCH_engine.json", self._doc(jps=80.0))
        assert cr.main([str(prev), str(cur)]) == 0  # 20% < 50% time tol

    def test_runtime_collapse_fails(self, tmp_path):
        import benchmarks.compare_results as cr
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        self._write(prev, "BENCH_engine.json", self._doc(jps=100.0))
        self._write(cur, "BENCH_engine.json", self._doc(jps=20.0))
        assert cr.main([str(prev), str(cur)]) == 1

    def test_added_rows_do_not_misalign(self, tmp_path):
        import benchmarks.compare_results as cr
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        self._write(prev, "BENCH_engine.json", self._doc())
        extended = self._doc()
        extended["results"].insert(0, {"T": 500, "variant": "rebuild",
                                       "jobs_per_sec": 9999.0,
                                       "mean_ratio": {"lcp": 9.9}})
        self._write(cur, "BENCH_engine.json", extended)
        assert cr.main([str(prev), str(cur)]) == 0  # keyed by (T, variant)
