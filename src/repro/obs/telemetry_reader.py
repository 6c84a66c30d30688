"""Out-of-core telemetry: chunked index + bounded-memory streaming aggregates.

Telemetry JSONL files are the replayable source of truth for fleet runs, but
:func:`repro.fleet.telemetry.replay_log_collection` materialises every
session in memory — a dead end at million-user scale.  This module reads the
same files out-of-core:

* :class:`TelemetryIndex` — a sidecar index (``<file>.idx.json``) of fixed
  event-count chunks with byte offsets and per-chunk event-type counts, so
  readers seek past chunks that cannot contain the event type they want;
* :func:`iter_events` / :func:`iter_session_logs` — streaming iterators that
  hold one event (one ``session_block`` of at most
  :data:`~repro.fleet.telemetry.SESSIONS_PER_BLOCK` sessions) at a time;
* :func:`stream_fleet_metrics`, :func:`stream_exit_rate_by_stall_time`,
  :func:`stream_segment_exit_rate` — bounded-memory aggregations that
  reproduce the in-memory ``fleet_metrics``/:class:`LogCollection` results
  **exactly** (same per-session accumulation, in the same file order, with
  the same float operations — pinned bit-for-bit by
  tests/test_telemetry_reader.py).

Peak memory is O(one block) regardless of file size: a 10x-larger telemetry
file aggregates in the same footprint (also pinned by tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

# contract: OBS-NEUTRAL-004 exempt(read-only telemetry codec; decodes events without touching sim state)
from repro.fleet.telemetry import (
    TelemetryEvent,
    event_sessions,
    iter_event_lines,
)

# v2: adds file_mtime_ns to the freshness fingerprint (a rewritten file with
# identical byte length used to keep serving the stale sidecar).  Bumping the
# version makes v1 sidecars fail ``load`` and rebuild transparently.
INDEX_VERSION = 2
DEFAULT_EVENTS_PER_CHUNK = 1024

__all__ = [
    "ChunkEntry",
    "TelemetryIndex",
    "default_index_path",
    "load_or_build_index",
    "iter_events",
    "iter_session_logs",
    "stream_fleet_metrics",
    "stream_segment_exit_rate",
    "stream_exit_rate_by_stall_time",
    "last_event",
    "read_run_summary",
]


@dataclass(frozen=True)
class ChunkEntry:
    """One chunk of consecutive telemetry events."""

    offset: int  # byte offset of the chunk's first line
    length: int  # total bytes covered by the chunk
    num_events: int
    counts: dict = field(default_factory=dict)  # event type -> count

    def as_payload(self) -> dict:
        return {
            "offset": self.offset,
            "length": self.length,
            "num_events": self.num_events,
            "counts": dict(self.counts),
        }

    @classmethod
    def from_payload(cls, raw: dict) -> "ChunkEntry":
        return cls(
            offset=int(raw["offset"]),
            length=int(raw["length"]),
            num_events=int(raw["num_events"]),
            counts={str(k): int(v) for k, v in raw.get("counts", {}).items()},
        )


@dataclass(frozen=True)
class TelemetryIndex:
    """Sidecar index of a telemetry JSONL file.

    The index stores the indexed file's size *and* mtime so staleness is
    detectable: :func:`load_or_build_index` silently rebuilds when the file
    grew, shrank, or was rewritten in place with the same byte length.
    """

    path: str
    file_bytes: int
    num_events: int
    events_per_chunk: int
    event_counts: dict
    chunks: tuple
    file_mtime_ns: int = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls, path: str | Path, events_per_chunk: int = DEFAULT_EVENTS_PER_CHUNK
    ) -> "TelemetryIndex":
        """Scan ``path`` once, building chunk entries of ``events_per_chunk``."""
        events_per_chunk = max(int(events_per_chunk), 1)
        chunks: list[ChunkEntry] = []
        totals: dict[str, int] = {}
        chunk_start = 0
        chunk_counts: dict[str, int] = {}
        chunk_events = 0
        end = 0
        for offset, raw in iter_event_lines(path):
            end = offset + len(raw)
            line = raw.strip()
            if not line:
                continue
            if chunk_events == 0:
                chunk_start = offset
            event = str(json.loads(line).get("event", ""))
            chunk_counts[event] = chunk_counts.get(event, 0) + 1
            totals[event] = totals.get(event, 0) + 1
            chunk_events += 1
            if chunk_events >= events_per_chunk:
                chunks.append(
                    ChunkEntry(chunk_start, end - chunk_start, chunk_events, chunk_counts)
                )
                chunk_counts = {}
                chunk_events = 0
        if chunk_events:
            chunks.append(
                ChunkEntry(chunk_start, end - chunk_start, chunk_events, chunk_counts)
            )
        stat = Path(path).stat()
        return cls(
            path=str(path),
            file_bytes=stat.st_size,
            num_events=sum(totals.values()),
            events_per_chunk=events_per_chunk,
            event_counts=totals,
            chunks=tuple(chunks),
            file_mtime_ns=stat.st_mtime_ns,
        )

    # -- persistence -------------------------------------------------------

    def save(self, index_path: str | Path | None = None) -> Path:
        target = Path(index_path) if index_path else default_index_path(self.path)
        doc = {
            "kind": "repro-telemetry-index",
            "version": INDEX_VERSION,
            "path": str(self.path),
            "file_bytes": self.file_bytes,
            "file_mtime_ns": self.file_mtime_ns,
            "num_events": self.num_events,
            "events_per_chunk": self.events_per_chunk,
            "event_counts": dict(self.event_counts),
            "chunks": [chunk.as_payload() for chunk in self.chunks],
        }
        target.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, index_path: str | Path) -> "TelemetryIndex":
        doc = json.loads(Path(index_path).read_text(encoding="utf-8"))
        if doc.get("kind") != "repro-telemetry-index":
            raise ValueError(f"{index_path}: not a telemetry index")
        if int(doc.get("version", -1)) != INDEX_VERSION:
            raise ValueError(
                f"{index_path}: index version {doc.get('version')} != {INDEX_VERSION}"
            )
        return cls(
            path=str(doc["path"]),
            file_bytes=int(doc["file_bytes"]),
            num_events=int(doc["num_events"]),
            events_per_chunk=int(doc["events_per_chunk"]),
            event_counts={str(k): int(v) for k, v in doc.get("event_counts", {}).items()},
            chunks=tuple(ChunkEntry.from_payload(raw) for raw in doc.get("chunks", [])),
            file_mtime_ns=int(doc.get("file_mtime_ns", 0)),
        )

    # -- queries -----------------------------------------------------------

    def count(self, event: str) -> int:
        return self.event_counts.get(event, 0)

    def chunks_with(self, event: str) -> Iterator[ChunkEntry]:
        """Only the chunks that contain at least one ``event``."""
        for chunk in self.chunks:
            if chunk.counts.get(event, 0):
                yield chunk


def default_index_path(path: str | Path) -> Path:
    return Path(str(path) + ".idx.json")


def load_or_build_index(
    path: str | Path,
    *,
    events_per_chunk: int = DEFAULT_EVENTS_PER_CHUNK,
    save: bool = True,
) -> TelemetryIndex:
    """Load the sidecar index if present and fresh; otherwise (re)build it."""
    index_path = default_index_path(path)
    if index_path.exists():
        try:
            index = TelemetryIndex.load(index_path)
            stat = Path(path).stat()
            # Size alone misses an in-place rewrite of identical length, so
            # freshness is (size, mtime_ns) — both must match.
            if (
                index.file_bytes == stat.st_size
                and index.file_mtime_ns == stat.st_mtime_ns
            ):
                return index
        except (ValueError, KeyError, json.JSONDecodeError):
            pass  # corrupt or stale: rebuild below
    index = TelemetryIndex.build(path, events_per_chunk)
    if save:
        index.save(index_path)
    return index


# ---------------------------------------------------------------------------
# Streaming iterators
# ---------------------------------------------------------------------------


def _iter_chunk_events(path: str | Path, chunk: ChunkEntry) -> Iterator[TelemetryEvent]:
    # Read line-by-line within the chunk's byte range rather than slurping
    # the chunk: peak memory stays O(longest line), not O(chunk bytes).
    with Path(path).open("rb") as handle:
        handle.seek(chunk.offset)
        remaining = chunk.length
        while remaining > 0:
            raw = handle.readline()
            if not raw:
                break
            remaining -= len(raw)
            line = raw.strip()
            if line:
                yield TelemetryEvent.from_json(line.decode("utf-8"))


def iter_events(
    path: str | Path,
    *,
    event: str | None = None,
    index: TelemetryIndex | None = None,
) -> Iterator[TelemetryEvent]:
    """Stream events in file order, optionally filtered by event type.

    With an index and an ``event`` filter, chunks containing none of that
    event type are skipped entirely (seek, don't scan) — on a fleet
    telemetry file, asking for the single ``run_end`` event reads a few
    chunks instead of gigabytes of ``session_block`` payloads.
    """
    if index is not None and event is not None:
        for chunk in index.chunks_with(event):
            for parsed in _iter_chunk_events(path, chunk):
                if parsed.event == event:
                    yield parsed
        return
    for _offset, raw in iter_event_lines(path):
        line = raw.strip()
        if not line:
            continue
        parsed = TelemetryEvent.from_json(line.decode("utf-8"))
        if event is None or parsed.event == event:
            yield parsed


def iter_session_logs(
    path: str | Path, *, index: TelemetryIndex | None = None
) -> Iterator:
    """Stream :class:`~repro.analytics.logs.SessionLog` objects in file order.

    Decodes one ``session_block`` at a time, so memory is bounded by one
    block.  Old one-event-per-session ``session`` events raise
    ``ValueError``, as in :func:`repro.fleet.telemetry.replay_log_collection`;
    with an index, only chunks holding blocks (or old events) are read.
    """
    if index is None:
        events = iter_events(path)
    elif index.count("session"):
        events = iter_events(path, event="session", index=index)
    else:
        events = iter_events(path, event="session_block", index=index)
    for parsed in events:
        yield from event_sessions(parsed)


def last_event(
    path: str | Path, event: str, *, index: TelemetryIndex | None = None
) -> TelemetryEvent | None:
    """The last event of a given type, using the index to skip chunks."""
    found: TelemetryEvent | None = None
    for parsed in iter_events(path, event=event, index=index):
        found = parsed
    return found


def read_run_summary(
    path: str | Path, *, index: TelemetryIndex | None = None
) -> dict:
    """Index-accelerated equivalent of ``replay_run_summary`` (last run_end)."""
    event = last_event(path, "run_end", index=index)
    if event is None:
        raise ValueError(f"no run_end event found in {path}")
    return event.payload


# ---------------------------------------------------------------------------
# Bounded-memory aggregations (bit-exact vs the in-memory LogCollection)
# ---------------------------------------------------------------------------


def stream_fleet_metrics(path: str | Path, *, index: TelemetryIndex | None = None):
    """``fleet_metrics(replay_log_collection(path))`` without materialising.

    Accumulates the exact per-session terms of
    :func:`repro.fleet.orchestrator.fleet_metrics`, in the same file order,
    so every float matches the in-memory result bit-for-bit.
    """
    from repro.fleet.orchestrator import FleetMetrics  # heavy import, deferred  # contract: OBS-NEUTRAL-004 exempt(result dataclass only; aggregates replayed read-only)

    num_sessions = 0
    num_segments = 0
    segment_exits = 0
    exited_sessions = 0
    watch_time = 0.0
    stall_time = 0.0
    bitrate_sum = 0.0
    for session in iter_session_logs(path, index=index):
        trace = session.trace
        num_sessions += 1
        num_segments += len(trace)
        segment_exits += int(trace.exited_flags.sum())
        exited_sessions += int(trace.exited_early)
        watch_time += trace.watch_time
        stall_time += trace.total_stall_time
        bitrate_sum += float(trace.bitrates_kbps.sum())
    return FleetMetrics(
        num_sessions=num_sessions,
        num_segments=num_segments,
        exited_sessions=exited_sessions,
        segment_exits=segment_exits,
        total_watch_time_s=watch_time,
        total_stall_time_s=stall_time,
        mean_bitrate_kbps=bitrate_sum / num_segments if num_segments else 0.0,
    )


def stream_segment_exit_rate(
    path: str | Path, *, index: TelemetryIndex | None = None
) -> float:
    """Streaming twin of ``LogCollection.segment_exit_rate()`` (no predicate)."""
    watched = 0
    exited = 0
    for session in iter_session_logs(path, index=index):
        exited_flags = session.trace.exited_flags
        watched += exited_flags.size
        exited += int(exited_flags.sum())
    if watched == 0:
        return float("nan")
    return exited / watched


def stream_exit_rate_by_stall_time(
    path: str | Path,
    bins: Sequence[float],
    *,
    min_samples: int = 20,
    index: TelemetryIndex | None = None,
) -> np.ndarray:
    """Streaming twin of ``LogCollection.exit_rate_by_stall_time``.

    Identical per-session binning (`np.searchsorted` + `np.add.at`) over the
    same session order makes the result equal to the in-memory fast path,
    NaN placement included.
    """
    edges = np.asarray(bins, dtype=float)
    watched = np.zeros(edges.size)
    exited = np.zeros(edges.size)
    for session in iter_session_logs(path, index=index):
        cumulative = session.trace.cumulative_stall_times
        if cumulative.size == 0:
            continue
        indices = np.maximum(np.searchsorted(edges, cumulative, side="right") - 1, 0)
        np.add.at(watched, indices, 1.0)
        np.add.at(exited, indices, session.trace.exited_flags)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(watched >= min_samples, exited / watched, np.nan)
