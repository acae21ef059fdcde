"""Tests for the shared pipelined executor: the run_pipeline contract
(in-order flush, overlap counters, abort drain), the one run API
(EngineConfig in, RunStats out, TypeError for anything else), and
job_slice."""

import dataclasses
import threading
from concurrent.futures import Future

import pytest

from repro.analysis import sweep
from repro.runner import (EngineConfig, GridSpec, ListSink, RunStats,
                          run_grid, work)
from repro.runner.executor import (PipelineBatch, chunk_list, iter_batches,
                                   run_args, run_pipeline)

SMALL = GridSpec(scenarios=("diurnal",), algorithms=("lcp", "threshold"),
                 seeds=(0, 1), sizes=(16,))


def _measure(x):
    return {"y": x * x}


# ----------------------------------------------------------------------
# run_pipeline contract, driven by stub batches.
# ----------------------------------------------------------------------

class _FutureBatch(PipelineBatch):
    """Stub batch backed by real futures the test completes on timers."""

    def __init__(self, name, futures, log, rows=1):
        self.name = name
        self.futures = list(futures)
        self._all = list(futures)
        self.log = log
        self.size = rows
        self.salvaged = False

    def advance(self):
        progressed = False
        remaining = []
        for f in self.futures:
            if f.done():
                f.result()  # propagate worker exceptions
                progressed = True
            else:
                remaining.append(f)
        self.futures = remaining
        return progressed

    def done(self):
        return not self.futures

    def unfinished_futures(self):
        return [f for f in self.futures if not f.done()]

    def all_futures(self):
        return self._all

    def flush(self):
        self.log.append(self.name)
        return self.size

    def salvage(self):
        self.salvaged = True


def _timed_future(delay, value=None):
    f = Future()
    threading.Timer(delay, f.set_result, args=(value,)).start()
    return f


class TestRunPipeline:
    def test_heads_flush_in_admission_order(self):
        # batch 1 finishes long before batch 0; the sink must still see
        # batch 0 first
        log = []
        delays = {0: 0.25, 1: 0.01}

        def plan(i):
            return _FutureBatch(i, [_timed_future(delays[i])], log,
                                rows=i + 1)

        stats = run_pipeline(iter([0, 1]), plan, pipeline_depth=2)
        assert log == [0, 1]
        assert stats.batches == 2
        assert stats.rows_written == 3
        assert stats.overlapped_batches == 1
        assert stats.inflight_max == 2
        assert stats.max_pending == 3

    def test_depth_one_is_a_barrier(self):
        log = []

        def plan(i):
            return _FutureBatch(i, [_timed_future(0.01)], log)

        stats = run_pipeline(iter([0, 1, 2]), plan, pipeline_depth=1)
        assert log == [0, 1, 2]
        assert stats.overlapped_batches == 0
        assert stats.inflight_max == 1

    def test_empty_iterable_is_a_no_op(self):
        stats = run_pipeline(iter([]), lambda b: None, pipeline_depth=2)
        assert stats.batches == 0 and stats.rows_written == 0

    def test_depth_validated(self):
        with pytest.raises(ValueError, match="pipeline_depth"):
            run_pipeline(iter([]), lambda b: None, pipeline_depth=0)

    def test_stall_without_outstanding_work_raises(self):
        class Stuck(PipelineBatch):
            def done(self):
                return False

        with pytest.raises(RuntimeError, match="stalled"):
            run_pipeline(iter([0]), lambda b: Stuck(), pipeline_depth=1)

    def test_abort_salvages_all_and_flushes_completed_heads(self):
        # batch 0 completes during the same pump in which batch 1's
        # advance raises: the drain must salvage both, then still flush
        # batch 0 (a killed run keeps a clean in-order row prefix)
        log = []

        class Slow(PipelineBatch):
            size = 1
            calls = 0

            def advance(self):
                Slow.calls += 1
                return Slow.calls == 2

            def done(self):
                return Slow.calls >= 2

            def flush(self):
                log.append("flush-b0")
                return 1

            def salvage(self):
                log.append("salvage-b0")

        class Boom(PipelineBatch):
            size = 1

            def advance(self):
                raise RuntimeError("boom")

            def done(self):
                return False

            def salvage(self):
                log.append("salvage-b1")

        batches = [Slow(), Boom()]
        with pytest.raises(RuntimeError, match="boom"):
            run_pipeline(iter([0, 1]), lambda i: batches[i],
                         pipeline_depth=2)
        assert log == ["salvage-b0", "salvage-b1", "flush-b0"]

    def test_abort_cancels_outstanding_futures(self):
        log = []
        pending = Future()  # never completes; must be cancelled
        b0 = _FutureBatch(0, [pending], log)

        class Boom(PipelineBatch):
            def advance(self):
                raise RuntimeError("boom")

            def done(self):
                return False

        batches = {0: b0, 1: Boom()}
        with pytest.raises(RuntimeError, match="boom"):
            run_pipeline(iter([0, 1]), lambda i: batches[i],
                         pipeline_depth=2)
        assert pending.cancelled()
        assert b0.salvaged
        assert log == []  # b0 never completed, so it must not flush

    def test_failing_sink_stops_all_flushing(self):
        # once a flush itself raises, the drain must not write later
        # batches (kill+resume relies on an untorn row prefix)
        log = []

        class BadFlush(_FutureBatch):
            def flush(self):
                raise IOError("sink refused")

        done = Future()
        done.set_result(None)
        done2 = Future()
        done2.set_result(None)
        batches = {0: BadFlush(0, [done], log),
                   1: _FutureBatch(1, [done2], log)}
        with pytest.raises(IOError, match="sink refused"):
            run_pipeline(iter([0, 1]), lambda i: batches[i],
                         pipeline_depth=2)
        assert log == []


class TestBatchingHelpers:
    def test_iter_batches_validates_eagerly(self):
        def explode():
            raise AssertionError("iterable must not be consumed")
            yield  # pragma: no cover

        with pytest.raises(ValueError, match="batch_size"):
            iter_batches(explode(), 0)

    def test_iter_batches_splits(self):
        assert list(iter_batches(range(5), 2)) == [[0, 1], [2, 3], [4]]
        assert list(iter_batches(range(3), None)) == [[0, 1, 2]]
        assert list(iter_batches([], None)) == []

    def test_chunk_list_in_process_fuses_everything(self):
        assert chunk_list([1, 2, 3], n_jobs=1, chunk_jobs=None) == \
            [[1, 2, 3]]
        assert chunk_list([1, 2, 3], n_jobs=1, chunk_jobs=1) == \
            [[1], [2], [3]]
        assert chunk_list([], n_jobs=4, chunk_jobs=None) == []


# ----------------------------------------------------------------------
# EngineConfig in, RunStats out: the one run API and its type check.
# ----------------------------------------------------------------------

class _OpenSpy(ListSink):
    """List sink that records whether an entry point ever opened it."""

    def __init__(self):
        super().__init__()
        self.opened = False

    def open(self, meta=None):
        self.opened = True
        super().open(meta)


class TestEngineConfig:
    def test_resolve_none_gives_defaults(self):
        config, stats = run_args(None, None)
        assert config == EngineConfig()
        assert config.n_jobs == 1 and config.pipeline_depth == 2
        assert stats == RunStats()

    def test_resolve_passes_config_through_unchanged(self):
        config, stats = EngineConfig(n_jobs=3), RunStats(batches=2)
        out_config, out_stats = run_args(config, stats)
        assert out_config is config
        assert out_stats is stats    # counters accumulate in place

    def test_unknown_kwarg_raises_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="bogus"):
            sweep(_measure, {"x": [1]}, bogus=1)
        with pytest.raises(TypeError, match="bogus"):
            work(tmp_path / "queue", bogus=1)

    def test_disallowed_kwarg_raises_type_error(self):
        """No EngineConfig field is accepted as a keyword argument: the
        pre-EngineConfig spellings (``n_jobs=2``, ``batch_size=3``, ...)
        are plain TypeErrors, not deprecation warnings."""
        for field in dataclasses.fields(EngineConfig):
            kwargs = {field.name: field.default}
            with pytest.raises(TypeError, match=field.name):
                run_grid(SMALL, **kwargs)
            with pytest.raises(TypeError, match=field.name):
                sweep(_measure, {"x": [1]}, **kwargs)

    def test_non_config_positional_raises(self):
        with pytest.raises(TypeError, match="EngineConfig"):
            run_args({"n_jobs": 2}, None)
        with pytest.raises(TypeError, match="EngineConfig"):
            run_grid(SMALL, {"n_jobs": 2})
        with pytest.raises(TypeError, match="EngineConfig"):
            sweep(_measure, {"x": [1]}, {"n_jobs": 2})

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EngineConfig().n_jobs = 2

    def test_run_grid_unknown_kwarg(self):
        with pytest.raises(TypeError, match="bogus"):
            run_grid(SMALL, bogus=1)

    def test_run_grid_legacy_kwargs_raise_and_config_matches(self):
        """The keyword spelling ``batch_size=3`` raises; the EngineConfig
        spelling runs and gives the rows of the default run."""
        sink = _OpenSpy()
        with pytest.raises(TypeError, match="batch_size"):
            run_grid(SMALL, EngineConfig(sink=sink), batch_size=3)
        assert not sink.opened
        assert run_grid(SMALL, EngineConfig(batch_size=3)) == run_grid(SMALL)

    def test_sweep_legacy_kwargs_raise_and_config_matches(self):
        grid = {"x": [1, 2, 3]}
        sink = _OpenSpy()
        with pytest.raises(TypeError, match="batch_size"):
            sweep(_measure, grid, EngineConfig(sink=sink), batch_size=2)
        assert not sink.opened
        assert (sweep(_measure, grid, EngineConfig(batch_size=2))
                == sweep(_measure, grid))

    def test_sweep_rejects_engine_only_kwargs(self):
        with pytest.raises(TypeError, match="store_dir"):
            sweep(_measure, {"x": [1]}, store_dir="/tmp")


# ----------------------------------------------------------------------
# RunStats: typed counters, accumulation, no dict stand-in.
# ----------------------------------------------------------------------

class TestRunStats:
    def test_merge_max(self):
        stats = RunStats(max_pending=4)
        stats.merge_max("max_pending", 2)
        assert stats.max_pending == 4
        stats.merge_max("max_pending", 9)
        assert stats.max_pending == 9

    def test_run_grid_accepts_and_accumulates_run_stats(self):
        stats = RunStats()
        run_grid(SMALL, EngineConfig(batch_size=2), stats=stats)
        first_batches = stats.batches
        assert first_batches == 2 and stats.rows_written == len(SMALL)
        run_grid(SMALL, EngineConfig(batch_size=2), stats=stats)
        assert stats.batches == 2 * first_batches   # counts accumulate
        assert stats.rows_written == 2 * len(SMALL)

    def test_run_grid_rejects_dict_stats_before_sink_opens(self):
        sink = _OpenSpy()
        config = EngineConfig(sink=sink)
        with pytest.raises(TypeError, match="RunStats"):
            run_grid(SMALL, config, stats={})
        assert not sink.opened

    def test_sweep_rejects_dict_stats_before_sink_opens(self):
        sink = _OpenSpy()
        config = EngineConfig(sink=sink)
        with pytest.raises(TypeError, match="RunStats"):
            sweep(_measure, {"x": [1, 2]}, config, stats={})
        assert not sink.opened

    def test_work_rejects_dict_stats_before_queue_opens(self, tmp_path):
        with pytest.raises(TypeError, match="RunStats"):
            work(tmp_path / "queue", stats={})
        with pytest.raises(TypeError, match="EngineConfig"):
            work(tmp_path / "queue", config={"n_jobs": 2})
        assert not (tmp_path / "queue").exists()


# ----------------------------------------------------------------------
# job_slice: the lease seam on run_grid.
# ----------------------------------------------------------------------

class TestJobSlice:
    def test_full_slice_matches_unsliced(self):
        assert run_grid(SMALL, job_slice=(0, len(SMALL))) == run_grid(SMALL)

    def test_slices_concatenate_bit_identically(self):
        full = run_grid(SMALL)
        parts = (run_grid(SMALL, job_slice=(0, 3))
                 + run_grid(SMALL, job_slice=(3, len(SMALL))))
        assert parts == full

    def test_empty_slice_is_empty(self):
        assert run_grid(SMALL, job_slice=(2, 2)) == []

    def test_out_of_range_slice_raises(self):
        with pytest.raises(ValueError):
            run_grid(SMALL, job_slice=(0, len(SMALL) + 1))
        with pytest.raises(ValueError):
            run_grid(SMALL, job_slice=(-1, 2))
        with pytest.raises(ValueError):
            run_grid(SMALL, job_slice=(3, 2))
