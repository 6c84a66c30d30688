"""Out-of-core telemetry reader: exactness, index behaviour, bounded memory.

The streaming aggregations must reproduce the in-memory
``fleet_metrics``/:class:`LogCollection` results **bit-for-bit** — same
accumulation order, same float operations — while holding one session block
at a time.  The sidecar index must skip chunks correctly, survive round-trips,
and rebuild itself when the telemetry file changes underneath it.  Peak
memory must stay flat as the file grows 10x.
"""

from __future__ import annotations

import json
import os
import tracemalloc

import numpy as np
import pytest

from repro.fleet import (
    FleetConfig,
    FleetOrchestrator,
    fleet_metrics,
    replay_log_collection,
    replay_run_summary,
)
from repro.obs.telemetry_reader import (
    TelemetryIndex,
    default_index_path,
    iter_events,
    iter_session_logs,
    last_event,
    load_or_build_index,
    read_run_summary,
    stream_exit_rate_by_stall_time,
    stream_fleet_metrics,
    stream_segment_exit_rate,
)
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation

STALL_BINS = [0.0, 1.0, 2.0, 4.0, 8.0]


@pytest.fixture(scope="module")
def telemetry(tmp_path_factory):
    """One profiled fleet run's telemetry file plus its live result."""
    from repro import obs

    population = UserPopulation.generate(16, seed=5, bandwidth_median_kbps=2500.0)
    library = VideoLibrary(num_videos=3, mean_duration=30.0, std_duration=8.0, seed=2)
    path = tmp_path_factory.mktemp("telemetry") / "telemetry.jsonl"
    obs.enable()
    try:
        result = FleetOrchestrator(
            FleetConfig(
                num_shards=2,
                num_workers=0,
                sessions_per_user=2,
                trace_length=40,
                seed=9,
                backend="vector",
                network="dual_isp",
            )
        ).run(population, library, telemetry_path=path)
    finally:
        obs.disable()
    return path, result


class TestStreamingExactness:
    def test_fleet_metrics_match_in_memory_exactly(self, telemetry):
        path, result = telemetry
        replayed = fleet_metrics(replay_log_collection(path))
        streamed = stream_fleet_metrics(path)
        assert streamed.as_dict() == replayed.as_dict()
        assert streamed.as_dict() == result.metrics.as_dict()

    def test_fleet_metrics_with_index_identical(self, telemetry):
        path, _ = telemetry
        index = TelemetryIndex.build(path, events_per_chunk=7)
        assert stream_fleet_metrics(path, index=index).as_dict() == (
            stream_fleet_metrics(path).as_dict()
        )

    def test_segment_exit_rate_matches(self, telemetry):
        path, _ = telemetry
        collection = replay_log_collection(path)
        assert stream_segment_exit_rate(path) == collection.segment_exit_rate()

    def test_exit_rate_by_stall_time_bit_exact(self, telemetry):
        path, _ = telemetry
        collection = replay_log_collection(path)
        streamed = stream_exit_rate_by_stall_time(path, STALL_BINS, min_samples=5)
        in_memory = collection.exit_rate_by_stall_time(STALL_BINS, min_samples=5)
        np.testing.assert_array_equal(streamed, in_memory)

    def test_session_stream_order_matches_replay(self, telemetry):
        path, _ = telemetry
        collection = replay_log_collection(path)
        streamed_ids = [
            (log.user_id, log.session_index) for log in iter_session_logs(path)
        ]
        replayed_ids = [(log.user_id, log.session_index) for log in collection]
        assert streamed_ids == replayed_ids

    def test_run_summary_matches_replay(self, telemetry):
        path, _ = telemetry
        index = load_or_build_index(path, save=False)
        assert read_run_summary(path, index=index) == replay_run_summary(path)
        assert read_run_summary(path) == replay_run_summary(path)

    def test_old_session_events_are_rejected_by_name(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(
            json.dumps({"run_id": "r", "shard": 0, "user_id": "u", "event": "session",
                        "payload": {"columns": {}}}) + "\n"
        )
        with pytest.raises(ValueError, match="'columns' schema"):
            stream_fleet_metrics(path)
        index = TelemetryIndex.build(path)
        with pytest.raises(ValueError, match="'columns' schema"):
            stream_fleet_metrics(path, index=index)

    def test_empty_file_aggregates(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        metrics = stream_fleet_metrics(path)
        assert metrics.num_sessions == 0
        assert metrics.mean_bitrate_kbps == 0.0
        assert np.isnan(stream_segment_exit_rate(path))
        with pytest.raises(ValueError, match="no run_end event"):
            read_run_summary(path)


class TestIndex:
    def test_chunks_cover_file_and_counts_sum(self, telemetry):
        path, _ = telemetry
        index = TelemetryIndex.build(path, events_per_chunk=5)
        assert index.num_events == sum(c.num_events for c in index.chunks)
        assert all(c.num_events <= 5 for c in index.chunks)
        for event, total in index.event_counts.items():
            assert total == sum(c.counts.get(event, 0) for c in index.chunks)
        # every event is reachable through its chunks
        assert index.count("session_block") == sum(
            1 for _ in iter_events(path, event="session_block")
        )
        assert index.count("run_end") == 1

    def test_chunk_skipping_filter_equals_full_scan(self, telemetry):
        path, _ = telemetry
        index = TelemetryIndex.build(path, events_per_chunk=4)
        for event in index.event_counts:
            with_index = [e.payload for e in iter_events(path, event=event, index=index)]
            without = [e.payload for e in iter_events(path, event=event)]
            assert with_index == without
        # the rare event's filter reads only the chunks that contain it
        rare_chunks = list(index.chunks_with("run_end"))
        assert len(rare_chunks) < len(index.chunks)

    def test_last_event_uses_index(self, telemetry):
        path, _ = telemetry
        index = TelemetryIndex.build(path, events_per_chunk=4)
        plain = last_event(path, "session_block")
        indexed = last_event(path, "session_block", index=index)
        assert plain is not None and indexed is not None
        assert plain.payload == indexed.payload
        assert last_event(path, "no_such_event", index=index) is None

    def test_save_load_roundtrip(self, telemetry, tmp_path):
        path, _ = telemetry
        index = TelemetryIndex.build(path, events_per_chunk=8)
        saved = index.save(tmp_path / "t.idx.json")
        loaded = TelemetryIndex.load(saved)
        assert loaded == index

    def test_load_rejects_foreign_documents(self, tmp_path):
        bogus = tmp_path / "x.idx.json"
        bogus.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not a telemetry index"):
            TelemetryIndex.load(bogus)
        bogus.write_text(json.dumps({"kind": "repro-telemetry-index", "version": 99}))
        with pytest.raises(ValueError, match="version 99"):
            TelemetryIndex.load(bogus)

    def test_load_or_build_rebuilds_on_staleness(self, telemetry, tmp_path):
        path, _ = telemetry
        copy = tmp_path / "telemetry.jsonl"
        copy.write_bytes(path.read_bytes())
        first = load_or_build_index(copy)
        assert default_index_path(copy).exists()
        # fresh index: loading hits the sidecar, no rebuild
        assert load_or_build_index(copy) == first
        # the file grows: the sidecar is stale and must be rebuilt
        with copy.open("a") as handle:
            handle.write(json.dumps({"event": "extra", "payload": {}}) + "\n")
        rebuilt = load_or_build_index(copy)
        assert rebuilt != first
        assert rebuilt.count("extra") == 1
        # corrupt sidecar: silently rebuilt too
        default_index_path(copy).write_text("not json")
        assert load_or_build_index(copy).count("extra") == 1

    def test_same_length_rewrite_triggers_rebuild(self, tmp_path):
        """A same-byte-count rewrite must not serve the stale sidecar.

        Size-only freshness misses in-place rewrites (same byte count,
        different content) — the index must also key on mtime_ns.
        """
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            "".join(
                json.dumps({"event": "aaa", "payload": {"i": i}}) + "\n"
                for i in range(5)
            )
        )
        first = load_or_build_index(path)
        assert first.count("aaa") == 5
        # rewrite every event name in place: identical st_size, new content
        rewritten = path.read_bytes().replace(b'"aaa"', b'"bbb"')
        assert len(rewritten) == path.stat().st_size
        path.write_bytes(rewritten)
        # force a distinct mtime_ns: coarse filesystem timestamp granularity
        # could otherwise make the rewrite look instantaneous
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        rebuilt = load_or_build_index(path)
        assert rebuilt.file_mtime_ns != first.file_mtime_ns
        assert rebuilt.count("aaa") == 0
        assert rebuilt.count("bbb") == 5


class TestBoundedMemory:
    def _enlarge(self, path, out, factor):
        """Repeat the session blocks ``factor`` times, keeping run events."""
        lines = path.read_bytes().splitlines(keepends=True)
        sessions = [l for l in lines if b'"event": "session_block"' in l]
        others = [l for l in lines if l not in sessions]
        assert sessions, "telemetry corpus has no session blocks"
        with out.open("wb") as handle:
            for line in others[:1]:
                handle.write(line)
            for _ in range(factor):
                for line in sessions:
                    handle.write(line)
            for line in others[1:]:
                handle.write(line)
        return out

    @staticmethod
    def _session_bytes(path):
        return sum(
            len(line)
            for line in path.read_bytes().splitlines(keepends=True)
            if b'"event": "session_block"' in line
        )

    def _peak_bytes(self, path):
        tracemalloc.start()
        try:
            stream_fleet_metrics(path)
            stream_exit_rate_by_stall_time(path, STALL_BINS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_memory_flat_as_file_grows_10x(self, telemetry, tmp_path):
        path, _ = telemetry
        small = self._enlarge(path, tmp_path / "small.jsonl", 1)
        large = self._enlarge(path, tmp_path / "large.jsonl", 10)
        # The session blocks grow tenfold; the run, link-utilization and
        # report events around them are a fixed cost.
        growth = large.stat().st_size - small.stat().st_size
        assert growth == 9 * self._session_bytes(small)
        assert self._session_bytes(small) > 0.8 * small.stat().st_size

        # warm-up pass so imports/caches don't count against either side
        self._peak_bytes(small)
        peak_small = self._peak_bytes(small)
        peak_large = self._peak_bytes(large)
        # allow generous slack for allocator noise; the point is that peak
        # does not scale with file size (a materialising reader would be ~10x)
        assert peak_large < max(2.0 * peak_small, peak_small + 512 * 1024)

    def test_enlarged_file_still_aggregates_exactly(self, telemetry, tmp_path):
        path, _ = telemetry
        large = self._enlarge(path, tmp_path / "large.jsonl", 3)
        streamed = stream_fleet_metrics(large)
        replayed = fleet_metrics(replay_log_collection(large))
        assert streamed.as_dict() == replayed.as_dict()
