"""Tests for the multi-host lease queue: claim/heartbeat/expiry/reclaim
lifecycle, concurrent workers draining one grid without executing any
job twice, crash recovery after a SIGKILL'd worker, and the merge step's
bit-identity with a single-process run_grid."""

import json
import sqlite3
import subprocess
import sys
import threading

import pytest

from repro.runner import (EngineConfig, GridSpec, LeaseLost, LeaseQueue,
                          failed_jobs, leasequeue, merge_results,
                          retry_failed, run_grid, work)

SMALL = GridSpec(scenarios=("diurnal", "bursty"),
                 algorithms=("lcp", "threshold"),
                 seeds=(0, 1), sizes=(16,))


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestLeaseQueue:
    def test_enqueue_partitions_grid_and_is_idempotent(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL, lease_jobs=3)
        assert queue.enqueue(SMALL, lease_jobs=3) == grid_id
        assert queue.grids() == [grid_id]
        assert queue.total(grid_id) == len(SMALL)
        # the ranges tile [0, total) exactly, in order
        ranges = []
        worker = "w"
        while (lease := queue.claim(worker)) is not None:
            ranges.append((lease.start, lease.stop))
        assert ranges[0][0] == 0 and ranges[-1][1] == len(SMALL)
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert queue.counts(grid_id)["leased"] == len(ranges)
        # idempotent enqueue did not add leases
        assert sum(queue.counts(grid_id).values()) == len(ranges)

    def test_enqueue_rejects_nonpositive_lease_jobs(self, tmp_path):
        with pytest.raises(ValueError, match="lease_jobs"):
            LeaseQueue(tmp_path).enqueue(SMALL, lease_jobs=0)

    def test_spec_roundtrips(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL)
        assert queue.spec(grid_id) == SMALL
        with pytest.raises(KeyError):
            queue.spec("no-such-grid")

    def test_spec_rejects_engine_version_mismatch(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL)
        d = queue.spec_dict(grid_id)
        d["engine_version"] = 999
        queue._conn.execute(
            "UPDATE grids SET spec = ? WHERE grid_id = ?",
            (json.dumps(d, sort_keys=True), grid_id))
        with pytest.raises(ValueError, match="engine version"):
            queue.spec(grid_id)

    def test_two_claims_never_share_a_range(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        queue.enqueue(SMALL, lease_jobs=4)
        a = queue.claim("alice")
        b = queue.claim("bob")
        assert a.start != b.start
        assert (a.start, a.stop) != (b.start, b.stop)

    def test_heartbeat_renews_and_reclaim_expires(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        grid_id = queue.enqueue(SMALL, lease_jobs=4)
        lease = queue.claim("w1", ttl=10.0)
        assert lease.deadline == 10.0
        clock.now = 8.0
        assert queue.reclaim_expired() == 0   # still alive
        queue.heartbeat(lease, ttl=10.0)      # deadline -> 18.0
        clock.now = 15.0
        assert queue.reclaim_expired() == 0   # renewal held it
        clock.now = 19.0
        assert queue.reclaim_expired() == 1   # now it lapsed
        assert queue.counts(grid_id)["leased"] == 0

    def test_lost_lease_raises_on_heartbeat_and_complete(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        queue.enqueue(SMALL, lease_jobs=4)
        lease = queue.claim("w1", ttl=5.0)
        clock.now = 6.0
        assert queue.reclaim_expired() == 1
        with pytest.raises(LeaseLost):
            queue.heartbeat(lease)
        with pytest.raises(LeaseLost):
            queue.complete(lease)
        # the range is claimable again — by anyone
        again = queue.claim("w2", ttl=5.0)
        assert (again.start, again.stop) == (lease.start, lease.stop)

    def test_complete_marks_done_and_finished(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL, lease_jobs=len(SMALL))
        lease = queue.claim("w1")
        assert not queue.finished(grid_id)
        queue.complete(lease)
        assert queue.finished(grid_id)
        assert queue.counts(grid_id) == {"pending": 0, "leased": 0,
                                         "done": 1}


class TestWorkAndMerge:
    def test_single_worker_drains_and_merge_is_bit_identical(
            self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(SMALL, lease_jobs=3)
        stats = work(tmp_path / "q", worker="solo",
                     config=EngineConfig(batch_size=2))
        assert queue.finished(grid_id)
        n_leases = -(-len(SMALL) // 3)
        assert stats.leases_claimed == n_leases
        assert stats.leases_completed == n_leases
        assert stats.leases_lost == 0
        assert stats.rows_written == len(SMALL)
        assert merge_results(tmp_path / "q") == run_grid(SMALL)

    @pytest.mark.parametrize("field", ["batch_size", "pipeline_depth",
                                       "chunk_jobs"])
    def test_bad_config_claims_no_lease(self, tmp_path, field):
        """A config every lease would fail on raises before the worker
        claims one, so no lease sits ``leased`` until its TTL."""
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(SMALL, lease_jobs=3)
        with pytest.raises(ValueError, match=field):
            work(tmp_path / "q", worker="w",
                 config=EngineConfig(**{field: 0}))
        counts = queue.counts(grid_id)
        assert counts["leased"] == counts["done"] == 0
        assert counts["pending"] == -(-len(SMALL) // 3)
        queue.close()

    def test_max_leases_bounds_the_drain(self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(SMALL, lease_jobs=3)
        stats = work(tmp_path / "q", worker="w1", max_leases=1)
        assert stats.leases_claimed == 1
        assert not queue.finished(grid_id)

    def test_merge_refuses_an_undrained_grid(self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        queue.enqueue(SMALL, lease_jobs=3)
        with pytest.raises(ValueError, match="not drained"):
            merge_results(tmp_path / "q")

    def test_merge_detects_missing_rows(self, tmp_path):
        # leases completed without rows: coverage check must fire
        queue = LeaseQueue(tmp_path / "q")
        queue.enqueue(SMALL, lease_jobs=len(SMALL))
        queue.complete(queue.claim("cheater"))
        with pytest.raises(ValueError, match="missing"):
            merge_results(tmp_path / "q")

    def test_merge_detects_conflicting_duplicates(self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(SMALL, lease_jobs=len(SMALL))
        work(tmp_path / "q", worker="honest")
        evil = queue.worker_path(grid_id, "evil")
        evil.write_text(json.dumps(
            {"seq": 0, "grid": grid_id, "row": {"bogus": 1}}) + "\n")
        with pytest.raises(ValueError, match="determinism"):
            merge_results(tmp_path / "q")

    def test_merge_ignores_torn_tails_and_foreign_grids(self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(SMALL, lease_jobs=4)
        work(tmp_path / "q", worker="w1")
        extra = queue.worker_path(grid_id, "crashed")
        extra.write_text(
            json.dumps({"seq": 0, "grid": "other-grid",
                        "row": {"x": 1}}) + "\n"
            + '{"seq": 1, "grid": "' + grid_id + '", "ro')  # torn tail
        assert merge_results(tmp_path / "q") == run_grid(SMALL)

    def test_pre_per_grid_layout_merges_bit_identically(self, tmp_path):
        """A queue written before envelopes were stored per grid keeps
        every worker's envelopes, for all grids, in one top-level
        ``results/<worker>.jsonl``; it still merges bit-identically."""
        from repro.runner import grid_status
        other = GridSpec(scenarios=("sawtooth",), algorithms=("lcp",),
                         seeds=(0, 1, 2), sizes=(16,))
        queue = LeaseQueue(tmp_path / "q")
        grids = {queue.enqueue(spec, lease_jobs=3): spec
                 for spec in (SMALL, other)}
        work(tmp_path / "q", worker="w1", max_leases=2)
        work(tmp_path / "q", worker="w2")
        for grid_id in grids:
            for path in sorted((queue.results_dir / grid_id).iterdir()):
                with (queue.results_dir / path.name).open("a") as fh:
                    fh.write(path.read_text())
                path.unlink()
            (queue.results_dir / grid_id).rmdir()
        assert sorted(p.name for p in queue.results_dir.iterdir()) == \
            ["w1.jsonl", "w2.jsonl"]
        for grid_id, spec in grids.items():
            assert merge_results(tmp_path / "q", grid_id) == run_grid(spec)
            assert grid_status(queue, grid_id)["rows"] == run_grid(spec)

    def test_two_workers_drain_one_grid_without_running_a_job_twice(
            self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(SMALL, lease_jobs=2)
        config = EngineConfig(cache_dir=tmp_path / "cache", batch_size=2)
        results = {}

        def drain(name):
            results[name] = work(tmp_path / "q", worker=name,
                                 config=config, poll=0.01)

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert queue.finished(grid_id)
        total_claimed = sum(s.leases_claimed for s in results.values())
        assert total_claimed == -(-len(SMALL) // 2)
        # shared cache proves no job executed twice: every job was a
        # miss exactly once across both workers
        assert sum(s.job_misses for s in results.values()) == len(SMALL)
        assert sum(s.job_hits for s in results.values()) == 0
        assert merge_results(tmp_path / "q") == run_grid(SMALL)


class TestQueueLifetime:
    def test_helpers_close_the_queue_they_opened(self, tmp_path,
                                                 monkeypatch):
        """Given a path, every helper closes the queue it opened — on
        return and on raise, even while the caller still holds the
        exception; given an open queue, it leaves it open."""
        from repro.runner import grid_status
        root = tmp_path / "q"
        queue = LeaseQueue(root)
        grid_id = queue.enqueue(SMALL, lease_jobs=4)
        opened = []
        connect_wal = leasequeue.connect_wal

        def recording(*args, **kwargs):
            opened.append(connect_wal(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(leasequeue, "connect_wal", recording)

        def assert_closed():
            assert opened
            for conn in opened:
                with pytest.raises(sqlite3.ProgrammingError):
                    conn.execute("SELECT 1")
            opened.clear()

        with pytest.raises(ValueError, match="not drained") as held:
            merge_results(root)
        assert_closed()
        with pytest.raises(KeyError) as held:
            grid_status(root, "no-such-grid")
        assert_closed()

        def broken_run_grid(*args, **kwargs):
            raise RuntimeError("engine down")

        with monkeypatch.context() as patch:
            patch.setattr(leasequeue, "run_grid", broken_run_grid)
            with pytest.raises(RuntimeError, match="engine down") as held:
                work(root, worker="w")
        assert_closed()
        assert held.type is RuntimeError  # the traceback is still held
        # hand the broken worker's lease back, then drain for real
        queue._conn.execute("UPDATE leases SET state = 'pending',"
                            " worker = NULL, deadline = NULL")
        assert work(root, worker="w").leases_completed > 0
        assert_closed()
        for helper in (merge_results, failed_jobs, retry_failed,
                       grid_status):
            helper(root)
            assert_closed()
        # a caller's queue is used as is and stays open
        for helper in (merge_results, failed_jobs, retry_failed,
                       grid_status):
            helper(queue, grid_id)
        work(queue, worker="w")
        assert queue._conn.execute("SELECT 1").fetchone() == (1,)
        queue.close()


_DOOMED_WORKER = """
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
        # leave a torn tail, then die without warning
        self._fh.write('{"seq": %d, "grid": "' % self.lease.start)
        self._fh.flush()
        os.kill(os.getpid(), signal.SIGKILL)

run_grid(queue.spec(lease.grid_id),
         EngineConfig(sink=DoomedSink(queue, lease, 0.5), batch_size=2,
                      cache_dir=cache),
         job_slice=(lease.start, lease.stop))
"""


class TestCrashRecovery:
    def test_sigkilled_worker_lease_is_reclaimed_and_merge_matches(
            self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(SMALL, lease_jobs=4)
        cache = tmp_path / "cache"
        proc = subprocess.run(
            [sys.executable, "-c", _DOOMED_WORKER,
             str(tmp_path / "q"), str(cache)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == -9, proc.stderr
        assert queue.counts(grid_id)["leased"] == 1
        with pytest.raises(ValueError, match="not drained"):
            merge_results(tmp_path / "q")
        # the survivor polls until the doomed lease's TTL lapses,
        # reclaims it, and finishes the grid
        stats = work(tmp_path / "q", worker="survivor", poll=0.05,
                     config=EngineConfig(cache_dir=cache, batch_size=2))
        assert queue.finished(grid_id)
        assert stats.leases_reclaimed == 1
        assert stats.leases_lost == 0
        # the doomed worker cached its first batch before dying, so the
        # survivor replays those jobs from cache instead of recomputing
        assert stats.job_hits >= 2
        # duplicate seqs (doomed's flushed batch + survivor's re-run)
        # and the torn tail are both absorbed; rows are bit-identical
        # to a single-process run
        assert merge_results(tmp_path / "q") == run_grid(SMALL)


class TestSubsetEnqueueAndStatus:
    """Partial enqueue (cache-aware submits) and the shared
    ``grid_status`` payload the CLI and the grid service both serve."""

    def test_contiguous_runs_groups_and_caps(self):
        from repro.runner.leasequeue import _contiguous_runs
        assert _contiguous_runs([0, 1, 2, 5, 6, 9], 2) == \
            [(0, 2), (2, 3), (5, 7), (9, 10)]
        assert _contiguous_runs([], 4) == []
        assert _contiguous_runs([3], 4) == [(3, 4)]

    def test_enqueue_subset_leases_only_those_jobs(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL, lease_jobs=4, jobs=[0, 1, 2, 5])
        # grid total is still the full spec; only the subset is leased
        assert queue.total(grid_id) == len(SMALL)
        assert queue.outstanding_jobs() == 4
        ranges = []
        while (lease := queue.claim("w")) is not None:
            ranges.append((lease.start, lease.stop))
        assert ranges == [(0, 3), (5, 6)] or ranges == [(0, 4), (5, 6)]

    def test_enqueue_subset_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="out of range"):
            LeaseQueue(tmp_path).enqueue(SMALL, jobs=[0, len(SMALL)])

    def test_enqueue_empty_subset_is_immediately_drained(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL, jobs=[])
        assert queue.claim("w") is None
        assert queue.finished(grid_id)
        assert queue.outstanding_jobs() == 0

    def test_grid_status_transitions(self, tmp_path):
        from repro.runner import grid_status
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL, lease_jobs=4)
        status = grid_status(tmp_path)
        assert status["grid"] == grid_id
        assert status["state"] == "pending"
        assert status["jobs"]["pending"] == len(SMALL)
        assert "rows" not in status
        work(tmp_path, worker="w", config=EngineConfig(batch_size=4))
        done = grid_status(tmp_path, grid_id)
        assert done["state"] == "done"
        assert done["jobs"]["done"] == len(SMALL)
        assert done["jobs"]["pending"] == 0
        assert done["rows"] == run_grid(SMALL)
        assert grid_status(tmp_path, grid_id,
                           include_rows=False).get("rows") is None

    def test_grid_status_degraded_on_stale_heartbeat(self, tmp_path):
        from repro.runner import grid_status
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        queue.enqueue(SMALL, lease_jobs=len(SMALL))
        assert queue.claim("doomed", ttl=10.0) is not None
        clock.now = 1000.0  # the worker never heartbeats again
        status = grid_status(queue)
        assert status["state"] == "degraded"
        assert status["stale"] >= 1

    def test_queue_claim_lock_fault_heals_via_busy_retry(self, tmp_path):
        from repro.runner import FaultPlan, FaultSpec, busy_stats
        from repro.runner import faults as faults_mod
        queue = LeaseQueue(tmp_path)
        queue.enqueue(SMALL, lease_jobs=4)
        faults_mod.activate(FaultPlan(specs=(
            FaultSpec(site="queue_claim", nth=(1,), kind="lock"),)))
        before = busy_stats()["sqlite_busy_retries"]
        lease = queue.claim("w")
        assert lease is not None  # the transient lock healed in-place
        assert busy_stats()["sqlite_busy_retries"] > before


class TestSchemaAndIndexes:
    """The queue's schema: one transaction to create it, an index for
    every lease-state query, and older queues upgraded on open."""

    def test_lease_state_queries_search_the_state_index(self, tmp_path):
        """claim (with and without a grid), reclaim, the outstanding-job
        gauge and the open-lease checks read leases by state through
        ``leases_by_state``: none scans the queue's history."""
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL, lease_jobs=2)
        statements = []
        queue._conn.set_trace_callback(statements.append)
        queue.claim("w")
        queue.claim("w", grid_id=grid_id)
        queue.reclaim_expired()
        queue.reclaim_expired(grid_id)
        queue.outstanding_jobs()
        queue.finished()
        queue.finished(grid_id)
        queue.leased()
        queue._conn.set_trace_callback(None)
        by_state = [sql for sql in statements if " WHERE state" in sql]
        assert len(by_state) == 8
        for sql in by_state:
            plan = " | ".join(row[-1] for row in queue._conn.execute(
                "EXPLAIN QUERY PLAN " + sql,
                (None,) * sql.count("?")).fetchall())
            assert "INDEX leases_by_state" in plan, (sql, plan)
            assert "SCAN" not in plan and "TEMP B-TREE" not in plan, \
                (sql, plan)

    def test_fresh_queue_creates_its_schema_in_one_commit(
            self, tmp_path, monkeypatch):
        statements = []
        connect_wal = leasequeue.connect_wal

        def tracing(*args, **kwargs):
            conn = connect_wal(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(leasequeue, "connect_wal", tracing)
        LeaseQueue(tmp_path / "fresh").close()
        writes = [sql for sql in statements
                  if not sql.startswith("PRAGMA")]
        assert writes[0] == "BEGIN" and writes[-1] == "COMMIT"
        assert writes.count("COMMIT") == 1
        assert sum(sql.startswith("CREATE") for sql in writes) == 4

    def test_older_queue_gains_hits_table_and_index_on_open(
            self, tmp_path):
        """A queue created before the ``hits`` table and the state
        index existed gets both when it is opened, and keeps its
        grids."""
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL, lease_jobs=4)
        queue._conn.execute("DROP INDEX leases_by_state")
        queue._conn.execute("DROP TABLE hits")
        queue.close()
        queue = LeaseQueue(tmp_path)
        names = {row[0] for row in queue._conn.execute(
            "SELECT name FROM sqlite_master")}
        assert {"hits", "leases_by_state"} <= names
        assert queue.grids() == [grid_id]
        work(queue, worker="w")
        assert merge_results(queue) == run_grid(SMALL)
        queue.close()


class _CrashAfterHitInsert:
    """A queue connection that raises right after the enqueue
    transaction inserted its hit rows (noting how many it saw)."""

    def __init__(self, conn):
        self.conn = conn
        self.seen_hits = None

    def execute(self, *args):
        return self.conn.execute(*args)

    def executemany(self, sql, rows):
        cur = self.conn.executemany(sql, rows)
        if sql.startswith("INSERT INTO hits"):
            self.seen_hits = self.conn.execute(
                "SELECT COUNT(*) FROM hits").fetchone()[0]
            raise RuntimeError("crash inside the enqueue transaction")
        return cur


class TestStoredHits:
    """Cache-hit rows ride the enqueue transaction into ``hits``."""

    def _hits(self, keep):
        """``{seq: row}`` of the local run's rows for seqs in ``keep``."""
        rows = run_grid(SMALL)
        return {seq: rows[seq] for seq in keep}

    def test_hit_rows_are_stored_with_the_grid_and_merge_first(
            self, tmp_path):
        queue = LeaseQueue(tmp_path)
        hits = self._hits(range(0, len(SMALL), 2))
        grid_id = queue.enqueue(SMALL, lease_jobs=3, jobs=[
            seq for seq in range(len(SMALL)) if seq not in hits],
            rows=hits)
        assert dict(queue.hit_rows(grid_id)) == hits
        stored = queue._conn.execute(
            "SELECT seq, row FROM hits WHERE grid_id = ?",
            (grid_id,)).fetchall()
        assert {seq: json.dumps(hits[seq], sort_keys=True)
                for seq in hits} == dict(stored)
        assert queue.outstanding_jobs() == len(SMALL) - len(hits)
        work(queue, worker="w")
        assert merge_results(queue) == run_grid(SMALL)
        queue.close()

    def test_all_hit_grid_needs_no_worker_and_no_directory(self, tmp_path):
        from repro.runner import grid_status
        queue = LeaseQueue(tmp_path)
        hits = self._hits(range(len(SMALL)))
        grid_id = queue.enqueue(SMALL, jobs=[], rows=hits)
        assert queue.finished(grid_id)
        assert grid_status(queue, grid_id)["rows"] == run_grid(SMALL)
        assert merge_results(queue, grid_id) == run_grid(SMALL)
        assert not (queue.results_dir / grid_id).exists()
        queue.close()

    def test_resubmit_writes_no_rows(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        hits = self._hits([0, 1])
        grid_id = queue.enqueue(SMALL, jobs=range(2, len(SMALL)),
                                rows=hits)
        assert queue.enqueue(SMALL, jobs=[],
                             rows=self._hits(range(len(SMALL)))) == grid_id
        assert dict(queue.hit_rows(grid_id)) == hits
        queue.close()

    def test_refused_enqueue_writes_no_grid_and_no_rows(self, tmp_path):
        from repro.runner.leasequeue import OverBudget
        queue = LeaseQueue(tmp_path)
        with pytest.raises(OverBudget):
            queue.enqueue(SMALL, jobs=range(2, len(SMALL)),
                          rows=self._hits([0, 1]), budget=1)
        assert queue.grids() == []
        assert queue._conn.execute(
            "SELECT COUNT(*) FROM hits").fetchone() == (0,)
        queue.close()

    def test_out_of_range_hit_seqs_raise(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        row = run_grid(SMALL)[0]
        for seq in (-1, len(SMALL)):
            with pytest.raises(ValueError, match="out of range"):
                queue.enqueue(SMALL, jobs=[], rows={seq: row})
        assert queue.grids() == []
        queue.close()

    def test_crash_after_hit_insert_leaves_no_grid_and_no_rows(
            self, tmp_path):
        queue = LeaseQueue(tmp_path)
        hits = self._hits([0, 1, 2])
        conn = queue._conn
        queue._conn = crashing = _CrashAfterHitInsert(conn)
        try:
            with pytest.raises(RuntimeError, match="enqueue transaction"):
                queue.enqueue(SMALL, jobs=range(3, len(SMALL)), rows=hits)
        finally:
            queue._conn = conn
        assert crashing.seen_hits == len(hits)
        assert not conn.in_transaction
        assert queue.grids() == []
        assert conn.execute("SELECT COUNT(*) FROM hits").fetchone() == (0,)
        assert conn.execute("SELECT COUNT(*) FROM leases").fetchone() == (0,)
        queue.close()

    def test_merge_rules_span_hits_and_envelopes(self, tmp_path):
        """First-wins, equal duplicates and prefer-ok hold across the
        two sources, with the stored hits read first."""
        expected = run_grid(SMALL)
        failed = {"status": "failed", "error": "boom"}
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL, jobs=[], rows={
            seq: (failed if seq == 0 else row)
            for seq, row in enumerate(expected)})
        extra = queue.worker_path(grid_id, "rerun")
        extra.parent.mkdir(parents=True)
        extra.write_text("".join(
            json.dumps({"seq": seq, "grid": grid_id, "row": row}) + "\n"
            for seq, row in ((0, expected[0]), (1, expected[1]),
                             (2, dict(failed, attempts=3)))))
        assert merge_results(queue, grid_id) == expected
        extra.write_text(json.dumps(
            {"seq": 1, "grid": grid_id, "row": {"bogus": 1}}) + "\n")
        with pytest.raises(ValueError, match="determinism"):
            merge_results(queue, grid_id)
        queue.close()
