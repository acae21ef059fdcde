"""Tests for the streaming engine core: bounded batches, result sinks,
mid-grid kill + resume, the params axis and the game pipeline."""

import json

import numpy as np
import pytest

from repro.runner import (EngineConfig, GridSpec, JobCache, JsonlSink,
                          ListSink, RunStats, SqliteSink, aggregate_rows,
                          make_sink, read_jsonl_rows, read_sqlite_rows,
                          run_grid)
from repro.runner import engine as engine_mod

GRID = GridSpec(scenarios=("diurnal", "sawtooth"),
                algorithms=("lcp", "threshold", "randomized"),
                seeds=(0, 1), sizes=(20,))


class TestStreaming:
    def test_batched_rows_identical_to_monolithic(self):
        rows = run_grid(GRID)
        for batch_size in (1, 2, 5, 7, 100):
            assert run_grid(GRID,
                            EngineConfig(batch_size=batch_size)) == rows

    def test_batched_parallel_identical_to_serial(self):
        assert (run_grid(GRID, EngineConfig(batch_size=3, n_jobs=4))
                == run_grid(GRID, EngineConfig(batch_size=3, n_jobs=1)))

    def test_max_pending_bounded_by_batch_size(self):
        """The acceptance property: a grid with batch_size set holds at
        most O(batch_size) pending rows in the parent."""
        stats = RunStats()
        run_grid(GRID, EngineConfig(batch_size=4), stats=stats)
        assert stats.max_pending <= 4
        assert stats.batches == 3  # ceil(12 / 4)
        assert stats.rows_written == len(GRID) == 12

    def test_opt_still_solved_once_per_instance_when_batched(self,
                                                             monkeypatch):
        """The record window spans batch boundaries: batching must not
        re-solve an optimum the previous batch already solved."""
        calls = []
        real = engine_mod._solve_instance
        monkeypatch.setattr(engine_mod, "_solve_instance",
                            lambda t: calls.append(t) or real(t))
        # algorithms split across batches
        run_grid(GRID, EngineConfig(batch_size=2))
        assert len(calls) == 4        # 2 scenarios x 2 seeds, once each

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            run_grid(GRID, EngineConfig(batch_size=0))

    def test_sink_parity_list_jsonl_sqlite(self, tmp_path):
        """The tentpole parity property: every sink sees the same rows,
        row for row, in the same order."""
        rows = run_grid(GRID, EngineConfig(sink=ListSink(), batch_size=5))
        jsonl_path = run_grid(GRID, EngineConfig(
            sink=JsonlSink(tmp_path / "r.jsonl"), batch_size=5))
        sqlite_path = run_grid(GRID, EngineConfig(
            sink=SqliteSink(tmp_path / "r.db"), batch_size=5))
        assert read_jsonl_rows(jsonl_path) == rows
        assert read_sqlite_rows(sqlite_path) == rows

    def test_file_sinks_round_trip_cached_rows(self, tmp_path):
        """Rows served from the job cache and rows computed live are
        indistinguishable through a file sink."""
        live = run_grid(GRID,
                        EngineConfig(cache_dir=tmp_path / "cache",
                                     sink=JsonlSink(tmp_path / "live.jsonl")))
        cached = run_grid(GRID, EngineConfig(
            cache_dir=tmp_path / "cache",
            sink=JsonlSink(tmp_path / "cached.jsonl")))
        assert read_jsonl_rows(live) == read_jsonl_rows(cached)

    def test_file_sinks_truncate_by_default_append_on_request(self,
                                                              tmp_path):
        path = tmp_path / "rows.jsonl"
        run_grid(GRID, EngineConfig(sink=JsonlSink(path)))
        run_grid(GRID, EngineConfig(sink=JsonlSink(path)))
        assert len(read_jsonl_rows(path)) == len(GRID)
        run_grid(GRID, EngineConfig(sink=JsonlSink(path, append=True)))
        assert len(read_jsonl_rows(path)) == 2 * len(GRID)
        db = tmp_path / "rows.db"
        run_grid(GRID, EngineConfig(sink=SqliteSink(db)))
        run_grid(GRID, EngineConfig(sink=SqliteSink(db)))
        assert len(read_sqlite_rows(db)) == len(GRID)

    def test_make_sink(self, tmp_path):
        assert isinstance(make_sink("list"), ListSink)
        assert isinstance(make_sink("jsonl", tmp_path / "a.jsonl"),
                          JsonlSink)
        assert isinstance(make_sink("sqlite", tmp_path / "a.db"),
                          SqliteSink)
        with pytest.raises(ValueError, match="needs a path"):
            make_sink("jsonl")
        with pytest.raises(ValueError, match="unknown sink"):
            make_sink("parquet")

    def test_aggregates_identical_through_file_sink(self, tmp_path):
        rows = run_grid(GRID)
        path = run_grid(GRID,
                        EngineConfig(sink=JsonlSink(tmp_path / "r.jsonl"),
                                     batch_size=3))
        assert (aggregate_rows(read_jsonl_rows(path))
                == aggregate_rows(rows))


class _KillSink(ListSink):
    """Sink that dies after ``n`` rows — a mid-grid kill stand-in."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def write(self, row):
        if len(self.rows) >= self.n:
            raise KeyboardInterrupt("killed mid-grid")
        super().write(row)


class TestKillResume:
    def test_mid_grid_kill_resumes_with_only_missing_jobs(self, tmp_path,
                                                          monkeypatch):
        """A grid killed mid-run resumes from the per-job cache and
        executes only the jobs whose rows were never flushed."""
        cache = JobCache(tmp_path)
        killed = _KillSink(5)
        with pytest.raises(KeyboardInterrupt):
            run_grid(GRID,
                     EngineConfig(cache_dir=cache, batch_size=2, sink=killed))
        survivors = len(killed.rows)
        assert 0 < survivors < len(GRID)
        runs = []
        real = engine_mod._run_job
        monkeypatch.setattr(engine_mod, "_run_job",
                            lambda t: runs.append(t) or real(t))
        stats = RunStats()
        rows = run_grid(GRID, EngineConfig(cache_dir=cache, batch_size=2),
                        stats=stats)
        assert len(rows) == len(GRID)
        # the kill happened on the sink, after the batch's cache puts:
        # at least every flushed row (and at most one extra batch) hit
        assert stats.job_hits >= survivors
        assert stats.job_hits + stats.job_misses == len(GRID)
        assert len(runs) == stats.job_misses < len(GRID)
        # and the resumed table equals an uninterrupted run's
        assert rows == run_grid(GRID)

    def test_killed_jsonl_sink_leaves_resumable_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_grid(GRID,
                     EngineConfig(cache_dir=tmp_path / "c", batch_size=2,
                                  sink=_JsonlKill(path, 5)))
        partial = read_jsonl_rows(path)
        assert 0 < len(partial) < len(GRID)
        # resume: fresh sink on the same path rewrites the full table
        full = run_grid(GRID,
                        EngineConfig(cache_dir=tmp_path / "c",
                                     sink=JsonlSink(path)))
        rows = read_jsonl_rows(full)
        assert len(rows) == len(GRID)
        assert rows[:len(partial)] == partial  # prefix unchanged


class _JsonlKill(JsonlSink):
    def __init__(self, path, n):
        super().__init__(path)
        self.n = n

    def write(self, row):
        if self.rows_written >= self.n:
            raise KeyboardInterrupt("killed mid-grid")
        super().write(row)


class TestParamsAxis:
    def test_params_cross_the_grid(self):
        spec = GridSpec(scenarios=("case-msr",), algorithms=("static",),
                        seeds=(0,), sizes=(16,),
                        params=({"beta": 1.0}, {"beta": 8.0}))
        rows = run_grid(spec)
        assert len(rows) == len(spec) == 2
        assert rows[0]["beta"] == 1.0 and rows[1]["beta"] == 8.0
        assert rows[0]["opt"] != rows[1]["opt"]

    def test_params_canonicalized_for_caching(self, tmp_path):
        """Key-order of a params dict must not change job identity."""
        a = GridSpec(scenarios=("case-msr",), algorithms=("static",),
                     seeds=(0,), sizes=(16,),
                     params=('{"beta": 2.0}',))
        b = GridSpec(scenarios=("case-msr",), algorithms=("static",),
                     seeds=(0,), sizes=(16,), params=({"beta": 2.0},))
        assert a.jobs() == b.jobs()
        run_grid(a, EngineConfig(cache_dir=tmp_path))
        stats = RunStats()
        run_grid(b, EngineConfig(cache_dir=tmp_path), stats=stats)
        assert stats.job_hits == 1 and stats.job_misses == 0

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError, match="params entries"):
            GridSpec(scenarios=("diurnal",), algorithms=("lcp",),
                     params=([1, 2],))
        spec = GridSpec(scenarios=("diurnal",), algorithms=("lcp",),
                        sizes=(12,), params=({"no_such_knob": 1},))
        with pytest.raises(ValueError, match="rejected params"):
            run_grid(spec)

    def test_unparameterized_grids_unchanged(self):
        spec = GridSpec(scenarios=("diurnal",), algorithms=("lcp",),
                        sizes=(12,))
        assert spec.params == ("{}",)
        assert len(spec) == 1
        (job,) = spec.jobs()
        assert job[-1] == "{}"


GAME_GRID = GridSpec(scenarios=("lb-deterministic",),
                     algorithms=("game-lcp",), seeds=(0,), sizes=(2000,),
                     params=({"eps": 0.2}, {"eps": 0.1}))


class TestGamePipeline:
    def test_lowerbound_rows_match_direct_play(self):
        from repro.lower_bounds import (DeterministicDiscreteAdversary,
                                        play_game)
        from repro.online import LCP
        rows = run_grid(GAME_GRID)
        assert [r["eps"] for r in rows] == [0.2, 0.1]
        for row in rows:
            adv = DeterministicDiscreteAdversary(row["eps"])
            res = play_game(adv, LCP(), min(adv.horizon(), 2000))
            assert row["ratio"] == res.ratio
            assert row["game_T"] == res.instance.T
            assert row["cost"] == res.algorithm_cost
            assert row["opt"] == res.opt_cost
            assert row["limit"] == 3.0
            assert row["pipeline"] == "game"

    def test_game_determinism_under_parallel_jobs(self):
        """Satellite acceptance: game-pipeline grids are bit-identical
        between n_jobs=1 and n_jobs>1."""
        spec = GridSpec(
            scenarios=("lb-deterministic", "lb-continuous"),
            algorithms=("game-lcp", "game-algorithm-b", "game-rounded",
                        "game-threshold"),
            seeds=(0,), sizes=(1500,),
            params=({"eps": 0.2}, {"eps": 0.1}))
        serial = run_grid(spec, EngineConfig(batch_size=3))
        parallel = run_grid(spec, EngineConfig(n_jobs=4, batch_size=3))
        assert serial == parallel

    def test_sim_determinism_under_parallel_jobs(self, tmp_path):
        spec = GridSpec(scenarios=("sim-diurnal",),
                        algorithms=("sim-opt", "sim-lcp", "sim-static"),
                        seeds=(0, 1), sizes=(48,))
        serial = run_grid(spec, EngineConfig(store_dir=tmp_path))
        parallel = run_grid(spec, EngineConfig(store_dir=tmp_path, n_jobs=4))
        assert serial == parallel
        by_alg = {r["algorithm"]: r for r in serial}
        assert by_alg["sim-opt"]["ratio"] == pytest.approx(1.0)
        assert by_alg["sim-static"]["ratio"] > 1.0
        assert all("schedule_changes" in r for r in serial)

    def test_game_jobs_cache_like_any_other(self, tmp_path,
                                            monkeypatch):
        run_grid(GAME_GRID, EngineConfig(cache_dir=tmp_path))
        runs = []
        monkeypatch.setattr(engine_mod, "_run_job",
                            lambda t: runs.append(t) or None)
        stats = RunStats()
        rows = run_grid(GAME_GRID, EngineConfig(cache_dir=tmp_path),
                        stats=stats)
        assert not runs and stats.job_hits == 2
        assert [r["eps"] for r in rows] == [0.2, 0.1]

    def test_adaptive_games_not_materialized(self, tmp_path):
        """lb-* scenarios have no dense payload: a store_dir grid must
        not try (and fail) to materialize them."""
        stats = RunStats()
        rows = run_grid(GAME_GRID, EngineConfig(store_dir=tmp_path),
                        stats=stats)
        assert len(rows) == 2
        assert stats.inst_materialized == 0

    def test_sim_games_materialize_and_reload(self, tmp_path):
        spec = GridSpec(scenarios=("sim-diurnal",),
                        algorithms=("sim-lcp",), seeds=(0,), sizes=(48,))
        stats1 = RunStats()
        rows1 = run_grid(spec, EngineConfig(store_dir=tmp_path), stats=stats1)
        assert stats1.inst_materialized == 1
        from repro.runner.instancestore import clear_memo
        clear_memo()
        stats2 = RunStats()
        rows2 = run_grid(spec, EngineConfig(store_dir=tmp_path), stats=stats2)
        assert stats2.inst_materialized == 0
        assert stats2.inst_builds == 0  # reloaded via mmap, not rebuilt
        assert rows1 == rows2

    def test_lowerbound_cli_via_game_pipeline(self, capsys):
        from repro.cli import main
        assert main(["lowerbound", "--kind", "deterministic",
                     "--eps", "0.2,0.1", "--max-steps", "2000"]) == 0
        out = capsys.readouterr().out
        assert "deterministic lower-bound game" in out
        assert "eps" in out and "limit" in out

    def test_mismatched_game_pairing_fails_fast(self):
        with pytest.raises(ValueError, match="needs the 'game'"):
            run_grid(GridSpec(scenarios=("diurnal",),
                              algorithms=("game-lcp",), sizes=(12,)))
        with pytest.raises(ValueError, match="only builds"):
            run_grid(GridSpec(scenarios=("lb-deterministic",),
                              algorithms=("lcp",), sizes=(12,)))


class TestSinkCLI:
    def test_sweep_sink_jsonl_with_batches(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "rows.jsonl"
        rc = main(["sweep", "--scenarios", "diurnal", "--algorithms",
                   "lcp,threshold", "--seeds", "0,1", "-T", "16",
                   "--sink", "jsonl", "--sink-path", str(path),
                   "--batch-size", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 rows" in out and "2 batches" in out
        assert "max 2 pending" in out
        rows = read_jsonl_rows(path)
        assert len(rows) == 4
        assert {r["algorithm"] for r in rows} == {"lcp", "threshold"}

    def test_bench_sink_sqlite(self, tmp_path, capsys):
        from repro.cli import main
        db = tmp_path / "rows.db"
        rc = main(["bench", "--grid", "smoke", "--sink", "sqlite",
                   "--sink-path", str(db), "--batch-size", "4"])
        assert rc == 0
        assert "jobs/s" in capsys.readouterr().out
        assert len(read_sqlite_rows(db)) == 9


class TestSweepStreaming:
    def test_sweep_sink_and_batches(self, tmp_path):
        from repro.analysis import sweep
        from tests.test_runner import _measure
        grid = {"T": [2, 3], "m": [4, 5, 6]}
        rows = sweep(_measure, grid)
        path = sweep(_measure, grid,
                     EngineConfig(sink=JsonlSink(tmp_path / "s.jsonl"),
                                  batch_size=2))
        assert read_jsonl_rows(path) == rows

    def test_sweep_batched_cache_counts(self, tmp_path):
        from repro.analysis import sweep
        from tests.test_runner import _measure
        grid = {"T": [2, 3], "m": [4, 5]}
        stats1, stats2 = RunStats(), RunStats()
        sweep(_measure, grid, EngineConfig(cache_dir=tmp_path, batch_size=3),
              stats=stats1)
        sweep(_measure, grid, EngineConfig(cache_dir=tmp_path, batch_size=1),
              stats=stats2)
        assert (stats1.hits, stats1.misses) == (0, 4)
        assert (stats2.hits, stats2.misses) == (4, 0)


def test_jsonify_round_trip_through_sinks(tmp_path):
    """Numpy payloads written by a sink read back as plain JSON types."""
    sink = JsonlSink(tmp_path / "x.jsonl")
    sink.open()
    sink.write({"a": np.float64(1.5), "b": np.arange(3)})
    sink.close()
    assert read_jsonl_rows(sink.result()) == [{"a": 1.5, "b": [0, 1, 2]}]
    db = SqliteSink(tmp_path / "x.db")
    db.open()
    db.write({"a": np.int64(7)})
    db.close()
    assert read_sqlite_rows(db.result()) == [{"a": 7}]


def test_sqlite_sink_shares_wal_machinery(tmp_path):
    sink = SqliteSink(tmp_path / "rows.db")
    sink.open()
    sink.write({"x": 1})
    import sqlite3
    mode = sqlite3.connect(sink.path).execute(
        "PRAGMA journal_mode").fetchone()[0]
    sink.close()
    assert mode.lower() == "wal"


def test_engine_version_bumped_for_job_shape_change():
    assert engine_mod.ENGINE_VERSION >= 3
    assert engine_mod._JOB_FIELDS[-1] == "params"
    blob = json.dumps(GRID.to_dict())
    assert "params" in blob
