"""Structured JSONL telemetry for fleet runs.

Every line of a telemetry file is one event record::

    {"run_id": ..., "shard": ..., "user_id": ..., "event": ..., "payload": {...}}

following the structured-trace-log convention of large-scale simulators: one
event per line, self-describing and replayable.  A writer owns one run's file
(opening a path truncates it), and events are only ever appended during the
run.  Event types emitted by the orchestrator:

``run_start``
    One per run; payload carries the fleet configuration summary.
``session_block``
    Up to :data:`SESSIONS_PER_BLOCK` consecutive sessions of one shard in
    columnar form (:class:`SessionColumns`): short JSON lists of per-session
    metadata (user and trace-name indexes into the block's string tables,
    ``day``, ``session_index``, ``mean_bandwidth_kbps``, ``video_duration``,
    ``segment_duration``, ``exited_early``) plus ``offsets`` delimiting each
    trace, and every segment-record column as one base64 string of raw
    little-endian bytes with its dtype.  Replay rebuilds a
    :class:`~repro.analytics.logs.LogCollection` *exactly* equal to the
    in-memory one: the column bytes are the live arrays' bytes, and the
    metadata floats survive the JSON roundtrip bit-for-bit.  The older
    one-event-per-session ``session`` form (``"columns"`` lists, or the
    earlier per-segment ``"records"``) is rejected by name.
``shard_summary``
    One per shard; payload carries the shard's session/segment counters.
``link_utilization``
    Networked runs only: one per edge link per simulation slot, carrying the
    link's usable capacity, the number of sessions actively downloading, and
    their total demand and allocation — the raw material for congestion
    analytics (:class:`~repro.analytics.logs.LinkUtilizationLog`).
``run_report``
    Profiled runs only (observability enabled): one per run, carrying the
    run health report of :func:`repro.obs.build_run_report` — merged span
    tree, metrics snapshot, throughput and peak RSS.
``run_end``
    One per run; payload carries the fleet-level metrics plus the backend
    fallback counters (``last/total_fallback_sessions``,
    ``total_batch_sessions``).

The replay/loader API (:func:`read_events`, :func:`replay_log_collection`,
:func:`replay_link_utilization`) feeds the existing analytics layer, so
every §2-style aggregation works on a telemetry file exactly as it does on
live simulation output.
"""

from __future__ import annotations

import base64
import binascii
import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro import obs
from repro.analytics.logs import LinkUtilizationLog, LogCollection, SessionLog
from repro.net.allocator import LinkUsageSample
from repro.sim.session import TRACE_RECORD_COLUMNS, PlaybackTrace

#: Most sessions one ``session_block`` event carries.  Bounds the memory of
#: a streaming reader (one block at a time) and the length of one line.
SESSIONS_PER_BLOCK = 1024

#: Per-session metadata columns of a :class:`SessionColumns`, in payload
#: order.  ``user`` and ``trace_name`` index the block's string tables.
SESSION_META_COLUMNS: tuple[tuple[str, np.dtype], ...] = (
    ("user", np.dtype(np.int32)),
    ("trace_name", np.dtype(np.int32)),
    ("day", np.dtype(np.int64)),
    ("session_index", np.dtype(np.int64)),
    ("mean_bandwidth_kbps", np.dtype(np.float64)),
    ("video_duration", np.dtype(np.float64)),
    ("segment_duration", np.dtype(np.float64)),
    ("exited_early", np.dtype(np.bool_)),
)

#: One trace's record columns, in :data:`TRACE_RECORD_COLUMNS` order.
_record_columns = operator.itemgetter(*(name for name, _ in TRACE_RECORD_COLUMNS))

#: Wire dtype (little-endian ``dtype.str``) of every segment-record column.
_WIRE_DTYPES = {
    name: dtype.newbyteorder("<").str for name, dtype in TRACE_RECORD_COLUMNS
}


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured telemetry record."""

    run_id: str
    shard: int
    user_id: str
    event: str
    payload: dict

    def to_json(self) -> str:
        """Single-line JSON form of the event."""
        return json.dumps(
            {
                "run_id": self.run_id,
                "shard": self.shard,
                "user_id": self.user_id,
                "event": self.event,
                "payload": self.payload,
            },
            default=_to_builtin,
        )

    @classmethod
    def from_json(cls, line: str) -> "TelemetryEvent":
        """Parse one JSONL line."""
        raw = json.loads(line)
        return cls(
            run_id=str(raw["run_id"]),
            shard=int(raw["shard"]),
            user_id=str(raw["user_id"]),
            event=str(raw["event"]),
            payload=dict(raw.get("payload", {})),
        )


def _to_builtin(value):
    """JSON fallback for numpy scalars/arrays."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serialisable: {type(value)!r}")


class TelemetryWriter:
    """JSONL event writer for one run (usable as a context manager).

    Opening a path truncates it — one telemetry file describes exactly one
    run, which is what keeps :func:`replay_log_collection` equal to the live
    run's collection.  ``append=True`` keeps existing events instead: that is
    how a *resumed* longitudinal campaign continues its ``campaign.jsonl``
    without destroying the pre-crash decision history.
    """

    def __init__(self, path: str | Path, append: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a" if append else "w")
        self.events_written = 0

    def emit(self, event: TelemetryEvent) -> None:
        """Write one event as a JSON line."""
        self._handle.write(event.to_json())
        self._handle.write("\n")
        self.events_written += 1

    def emit_many(self, events: Iterable[TelemetryEvent]) -> None:
        """Write several events in order."""
        for event in events:
            self.emit(event)

    def close(self) -> None:
        """Flush and close the file."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def iter_event_lines(path: str | Path) -> Iterator[tuple[int, bytes]]:
    """Stream ``(byte_offset, raw_line)`` pairs of a telemetry JSONL file.

    The low-level iteration primitive shared by :func:`read_events` and the
    out-of-core reader (:mod:`repro.obs.telemetry_reader`): byte offsets are
    what make a chunked index seekable, and lines are yielded one at a time
    so memory stays bounded regardless of file size.  Blank lines are
    yielded too (with their offsets) — callers decide how to treat them —
    so offsets always add up to the file size.
    """
    offset = 0
    with Path(path).open("rb") as handle:
        for line in handle:
            yield offset, line
            offset += len(line)


def read_events(path: str | Path) -> Iterator[TelemetryEvent]:
    """Stream the events of a telemetry JSONL file in order."""
    for _offset, raw in iter_event_lines(path):
        line = raw.strip()
        if line:
            yield TelemetryEvent.from_json(line.decode("utf-8"))


# --------------------------------------------------------------------------- #
# Session columns: the one columnar form of a run of session logs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True, eq=False)
class SessionColumns:
    """Consecutive session logs as columns plus offsets.

    ``meta`` holds one array per :data:`SESSION_META_COLUMNS` entry (one
    value per session), ``records`` one array per segment-record field,
    concatenated over the sessions in order, and ``offsets`` (one more entry
    than sessions) delimits each session's trace in them.  ``users`` and
    ``trace_names`` are the string tables ``meta["user"]`` and
    ``meta["trace_name"]`` index.

    Both the pool's shared-memory result and the telemetry ``session_block``
    event are this layout, built by :meth:`from_sessions` and turned back
    into logs by :meth:`sessions`.  Construction validates the layout, so a
    malformed block fails with a ``ValueError`` before any log is built.
    """

    users: tuple[str, ...]
    trace_names: tuple[str, ...]
    meta: Mapping[str, np.ndarray]
    offsets: np.ndarray
    records: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        count = self.offsets.size - 1
        lengths = {name: np.shape(self.meta[name]) for name, _ in SESSION_META_COLUMNS}
        if self.offsets.ndim != 1 or set(lengths.values()) != {(count,)}:
            raise ValueError(
                "session block per-session lists have unequal lengths: "
                f"{lengths} against {self.offsets.size} offsets"
            )
        if self.offsets[0] != 0 or np.any(np.diff(self.offsets) < 0):
            raise ValueError("session block offsets must start at 0 and be monotone")
        if set(self.records) != set(_WIRE_DTYPES):
            raise ValueError(
                "session block columns must be exactly the SegmentRecord "
                f"fields, got {sorted(self.records)}"
            )
        total = int(self.offsets[-1])
        for name, dtype in TRACE_RECORD_COLUMNS:
            column = self.records[name]
            if column.dtype != dtype:
                raise ValueError(
                    f"session block column {name!r} has dtype {column.dtype}, "
                    f"expected {dtype}"
                )
            if column.shape != (total,):
                raise ValueError(
                    f"session block column {name!r} holds {column.size} "
                    f"values, offsets[-1] is {total}"
                )
        for name, table in (("user", self.users), ("trace_name", self.trace_names)):
            indexes = self.meta[name]
            if count and (indexes.min() < 0 or indexes.max() >= len(table)):
                raise ValueError(
                    f"session block {name} index outside its {len(table)}-entry table"
                )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @classmethod
    def from_sessions(cls, sessions: Sequence[SessionLog]) -> "SessionColumns":
        """The columnar form of ``sessions`` (trace columns concatenated)."""
        users: dict[str, int] = {}
        trace_names: dict[str, int] = {}
        traces = [log.trace for log in sessions]
        values = {
            "user": [users.setdefault(log.user_id, len(users)) for log in sessions],
            "trace_name": [
                trace_names.setdefault(trace.trace_name, len(trace_names))
                for trace in traces
            ],
            "day": [log.day for log in sessions],
            "session_index": [log.session_index for log in sessions],
            "mean_bandwidth_kbps": [log.mean_bandwidth_kbps for log in sessions],
            "video_duration": [trace.video_duration for trace in traces],
            "segment_duration": [trace.segment_duration for trace in traces],
            "exited_early": [trace.exited_early for trace in traces],
        }
        # Each record field's arrays across the traces, in field order.
        per_field = (
            list(zip(*(_record_columns(trace.columns) for trace in traces)))
            if traces
            else [()] * len(TRACE_RECORD_COLUMNS)
        )
        return cls(
            users=tuple(users),
            trace_names=tuple(trace_names),
            meta={
                name: np.asarray(values[name], dtype=dtype)
                for name, dtype in SESSION_META_COLUMNS
            },
            offsets=np.cumsum([0] + [len(trace) for trace in traces], dtype=np.int64),
            records={
                name: np.concatenate([np.empty(0, dtype), *pieces])
                for (name, dtype), pieces in zip(TRACE_RECORD_COLUMNS, per_field)
            },
        )

    def sessions(self) -> list[SessionLog]:
        """The session logs; every trace gets read-only slices of ``records``.

        The layout was checked at construction, so the traces adopt their
        slices without per-trace checks.
        """
        users = [self.users[i] for i in self.meta["user"].tolist()]
        names = [self.trace_names[i] for i in self.meta["trace_name"].tolist()]
        bounds = self.offsets.tolist()
        records = self.records.items()
        for _, column in records:
            column.setflags(write=False)
        rows = zip(
            *(
                self.meta[name].tolist()
                for name in (
                    "day", "session_index", "mean_bandwidth_kbps",
                    "video_duration", "segment_duration", "exited_early",
                )
            )
        )
        return [
            SessionLog(
                user_id=users[i],
                day=day,
                session_index=session_index,
                trace=PlaybackTrace.from_checked_columns(
                    user_id=users[i],
                    video_duration=video_duration,
                    segment_duration=segment_duration,
                    trace_name=names[i],
                    columns={
                        name: column[bounds[i] : bounds[i + 1]]
                        for name, column in records
                    },
                    exited_early=exited_early,
                ),
                mean_bandwidth_kbps=mean_bw,
            )
            for i, (
                day, session_index, mean_bw, video_duration, segment_duration,
                exited_early,
            ) in enumerate(rows)
        ]

    def as_payload(self) -> dict:
        """The ``session_block`` event payload (JSON-ready)."""
        payload: dict = {
            "users": list(self.users),
            "trace_names": list(self.trace_names),
        }
        for name, _ in SESSION_META_COLUMNS:
            payload[name] = self.meta[name].tolist()
        payload["offsets"] = self.offsets.tolist()
        payload["columns"] = {
            name: {
                "dtype": wire,
                "data": base64.b64encode(
                    self.records[name].astype(wire, copy=False).tobytes()
                ).decode("ascii"),
            }
            for name, wire in _WIRE_DTYPES.items()
        }
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SessionColumns":
        """Inverse of :meth:`as_payload`; raises ``ValueError`` on a bad block."""
        missing = [
            key
            for key in (
                "users", "trace_names", *(n for n, _ in SESSION_META_COLUMNS),
                "offsets", "columns",
            )
            if key not in payload
        ]
        if missing:
            raise ValueError(f"session_block payload lacks {missing}")
        columns = payload["columns"]
        if set(columns) != set(_WIRE_DTYPES):
            raise ValueError(
                "session_block columns must be exactly the SegmentRecord "
                f"fields, got {sorted(columns)}"
            )
        records = {}
        for name, dtype in TRACE_RECORD_COLUMNS:
            wire = _WIRE_DTYPES[name]
            if columns[name].get("dtype") != wire:
                raise ValueError(
                    f"session_block column {name!r} has dtype "
                    f"{columns[name].get('dtype')!r}, expected {wire!r}"
                )
            try:
                raw = base64.b64decode(columns[name]["data"], validate=True)
            except (KeyError, binascii.Error) as error:
                raise ValueError(
                    f"session_block column {name!r} has no valid base64 data"
                ) from error
            if len(raw) % dtype.itemsize:
                raise ValueError(
                    f"session_block column {name!r} is {len(raw)} bytes, "
                    f"not a whole number of {wire} values"
                )
            records[name] = np.frombuffer(raw, dtype=wire).astype(dtype, copy=False)
        try:
            meta = {
                name: np.asarray(payload[name], dtype=dtype)
                for name, dtype in SESSION_META_COLUMNS
            }
            offsets = np.asarray(payload["offsets"], dtype=np.int64)
        except (TypeError, ValueError) as error:
            raise ValueError(f"session_block metadata is malformed: {error}") from error
        return cls(
            users=tuple(map(str, payload["users"])),
            trace_names=tuple(map(str, payload["trace_names"])),
            meta=meta,
            offsets=offsets,
            records=records,
        )


def session_block_events(
    run_id: str, shard: int, sessions: Sequence[SessionLog]
) -> Iterator[TelemetryEvent]:
    """``session_block`` events of ``sessions``, at most
    :data:`SESSIONS_PER_BLOCK` per event, in order (none for no sessions)."""
    for start in range(0, len(sessions), SESSIONS_PER_BLOCK):
        block = SessionColumns.from_sessions(sessions[start : start + SESSIONS_PER_BLOCK])
        yield TelemetryEvent(
            run_id=run_id,
            shard=shard,
            user_id="",
            event="session_block",
            payload=block.as_payload(),
        )


def event_sessions(event: TelemetryEvent) -> list[SessionLog]:
    """The session logs an event carries: a block's, or none.

    A ``session`` event is the pre-block one-event-per-session form; it is
    rejected by name rather than skipped, so an old file never replays into
    a silently empty collection.
    """
    if event.event == "session_block":
        return SessionColumns.from_payload(event.payload).sessions()
    if event.event == "session":
        if "columns" in event.payload:
            schema = "per-session 'columns' schema"
        elif "records" in event.payload:
            schema = "per-segment 'records' schema"
        else:
            schema = "'session' event schema"
        raise ValueError(
            f"telemetry uses the old {schema}; this reader only understands "
            "'session_block' events"
        )
    return []


def link_utilization_event(
    run_id: str, shard: int, sample: LinkUsageSample
) -> TelemetryEvent:
    """Build the ``link_utilization`` event for one per-slot link sample."""
    return TelemetryEvent(
        run_id=run_id,
        shard=shard,
        user_id="",
        event="link_utilization",
        payload=sample.as_payload(),
    )


def shard_summary_event(run_id: str, output) -> TelemetryEvent:
    """Build the ``shard_summary`` event for one shard output."""
    return TelemetryEvent(
        run_id=run_id,
        shard=output.shard_index,
        user_id="",
        event="shard_summary",
        payload={
            "num_sessions": len(output.sessions),
            "num_segments": output.num_segments,
            "wall_time_s": output.wall_time_s,
            "fallback_sessions": output.fallback_sessions,
            "batch_sessions": len(output.sessions),
        },
    )


def iter_shard_events(run_id: str, output) -> Iterator[TelemetryEvent]:
    """All telemetry events of one shard output, in canonical order.

    ``output`` is a :class:`~repro.fleet.orchestrator.ShardOutput` (duck
    typed to avoid a module cycle).  Inline and pooled shard outputs hold
    equal sessions, and both are encoded here, in the parent — which is
    what makes pooled telemetry byte-identical to inline telemetry.
    """
    yield from session_block_events(run_id, output.shard_index, output.sessions)
    for sample in output.link_usage:
        yield link_utilization_event(run_id, output.shard_index, sample)
    yield shard_summary_event(run_id, output)


def replay_link_usage(events: Iterable[TelemetryEvent]) -> list[LinkUsageSample]:
    """Reconstruct the link-usage samples recorded in a stream of events."""
    return [
        LinkUsageSample.from_payload(event.payload)
        for event in events
        if event.event == "link_utilization"
    ]


def replay_link_utilization(path: str | Path) -> LinkUtilizationLog:
    """Load a networked run's telemetry back into a link-utilization log.

    Like :func:`replay_log_collection`, the result is value-equal to the
    live run's ``FleetResult.link_utilization()``: every float survives the
    JSON roundtrip exactly.  Profiled callers see it as the
    ``telemetry.replay_links`` span.
    """
    with obs.span("telemetry.replay_links"):
        samples = replay_link_usage(read_events(path))
    if not samples:
        raise ValueError(f"no link_utilization events found in {path}")
    return LinkUtilizationLog(samples)


def replay_sessions(events: Iterable[TelemetryEvent]) -> list[SessionLog]:
    """Reconstruct the session logs recorded in a stream of events."""
    return [log for event in events for log in event_sessions(event)]


def replay_log_collection(path: str | Path) -> LogCollection:
    """Load a telemetry file back into a :class:`LogCollection`.

    The result is value-equal to the live run's collection: every segment
    record column is the live column's bytes and every metadata float
    survives the JSON roundtrip, so all aggregations (exit rate by stall
    bin, watch time by QoS, …) match the in-memory ones bit-for-bit.
    Profiled callers see the replay as the ``telemetry.replay`` span.

    A telemetry file with events but **no** ``session_block`` events
    replays into an empty collection — that is what a zero-arrival day of a
    longitudinal campaign writes (``run_start``/``run_end`` only).  A file
    with no events at all is rejected: it is not fleet telemetry.
    """
    sessions: list[SessionLog] = []
    saw_event = False
    with obs.span("telemetry.replay"):
        for event in read_events(path):
            saw_event = True
            sessions.extend(event_sessions(event))
    if not saw_event:
        raise ValueError(f"no telemetry events found in {path}")
    return LogCollection(sessions)


def replay_run_summary(path: str | Path, run_id: str | None = None) -> dict:
    """The ``run_end`` payload of a run recorded in a telemetry file.

    This is where the fleet-level metrics *and* the backend fallback
    counters surface on replay.  ``run_id`` selects one run of a
    multi-run file (a longitudinal campaign's day stream); by default the
    last ``run_end`` wins.
    """
    summary: dict | None = None
    for event in read_events(path):
        if event.event == "run_end" and (run_id is None or event.run_id == run_id):
            summary = event.payload
    if summary is None:
        raise ValueError(f"no run_end event found in {path}")
    return summary


def replay_run_report(path: str | Path, run_id: str | None = None) -> dict | None:
    """The ``run_report`` payload recorded in a telemetry file, if any.

    Returns ``None`` for unprofiled runs — absence of a health report is
    normal, unlike absence of a ``run_end``.
    """
    report: dict | None = None
    for event in read_events(path):
        if event.event == "run_report" and (
            run_id is None or event.run_id == run_id
        ):
            report = event.payload
    return report
