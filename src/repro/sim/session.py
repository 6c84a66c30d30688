"""Playback session engine.

A :class:`PlaybackSession` joins three pieces around a
:class:`~repro.sim.player.PlayerEnvironment`:

* an **ABR algorithm** (anything implementing :class:`ABRPolicy`) that picks
  the quality level for each segment from an :class:`ABRContext` snapshot;
* a **bandwidth source** (a :class:`~repro.sim.bandwidth.BandwidthTrace`);
* an optional **user exit model** (anything implementing :class:`ExitModel`)
  that, after every segment, decides whether the simulated user abandons the
  video — this is the per-segment exit behaviour the paper's Monte-Carlo
  evaluator and pre-deployment simulation build on.

The session produces a :class:`PlaybackTrace` carrying everything later
stages need (analytics, exit-rate predictor features, production-log
synthesis).  A trace owns one read-only numpy column per
:class:`SegmentRecord` field; the engines, the worker pool and the telemetry
codec all hand these columns along as-is, and per-segment
:class:`SegmentRecord` objects are only materialised (lazily, as plain
Python scalars) for callers that index :attr:`PlaybackTrace.records`.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.sim.bandwidth import BandwidthTrace
from repro.sim.player import PlayerEnvironment, SegmentResult
from repro.sim.video import BitrateLadder, Video


@dataclass(frozen=True)
class ABRContext:
    """Snapshot handed to an ABR algorithm before each segment download."""

    segment_index: int
    buffer: float
    buffer_cap: float
    last_level: int | None
    throughput_history_kbps: tuple[float, ...]
    next_segment_sizes_kbit: tuple[float, ...]
    ladder: BitrateLadder
    segment_duration: float
    bandwidth_mean_kbps: float
    bandwidth_std_kbps: float

    @property
    def estimated_bandwidth_kbps(self) -> float:
        """Plain mean-of-window bandwidth estimate (kbps)."""
        return self.bandwidth_mean_kbps


class ABRPolicy(Protocol):
    """Minimal interface an ABR algorithm must expose to the session engine."""

    def select_level(self, context: ABRContext) -> int:
        """Return the ladder level to download next."""
        ...

    def reset(self) -> None:
        """Clear any per-session internal state."""
        ...


@dataclass(frozen=True)
class ExitObservation:
    """What a user exit model sees after each segment has played."""

    segment_index: int
    level: int
    previous_level: int | None
    bitrate_kbps: float
    stall_time: float
    cumulative_stall_time: float
    stall_count: int
    watch_time: float
    buffer: float
    segments_since_last_stall: int
    throughput_kbps: float

    @property
    def switch_magnitude(self) -> int:
        """Signed level change relative to the previous segment (0 if first)."""
        if self.previous_level is None:
            return 0
        return self.level - self.previous_level


class ExitModel(Protocol):
    """Minimal interface of a user exit/engagement model."""

    def exit_probability(self, observation: ExitObservation) -> float:
        """Probability of abandoning the video after this segment."""
        ...

    def reset(self) -> None:
        """Clear any per-session internal state."""
        ...


@dataclass(frozen=True)
class SegmentRecord:
    """Per-segment entry of a :class:`PlaybackTrace`."""

    segment_index: int
    level: int
    bitrate_kbps: float
    size_kbit: float
    bandwidth_kbps: float
    download_time: float
    stall_time: float
    wait_time: float
    buffer_before: float
    buffer_after: float
    watch_time: float
    cumulative_stall_time: float
    stall_count: int
    exit_probability: float
    exited: bool


_FIELD_DTYPES = {"int": np.int64, "float": np.float64, "bool": np.bool_}

#: ``(field_name, dtype)`` per :class:`SegmentRecord` field, in declaration
#: order (which is also the record's positional-constructor order): the
#: columns a :class:`PlaybackTrace` owns.
TRACE_RECORD_COLUMNS: tuple[tuple[str, np.dtype], ...] = tuple(
    (f.name, np.dtype(_FIELD_DTYPES[f.type])) for f in dataclasses.fields(SegmentRecord)
)
_COLUMN_NAMES = tuple(name for name, _ in TRACE_RECORD_COLUMNS)
_COLUMN_SET = frozenset(_COLUMN_NAMES)
_record_values = operator.attrgetter(*_COLUMN_NAMES)
_EMPTY_COLUMNS = {name: np.empty(0, dtype=dtype) for name, dtype in TRACE_RECORD_COLUMNS}


@dataclass(frozen=True, eq=False, slots=True)
class PlaybackTrace:
    """Full record of one playback session, held as per-field columns.

    ``columns`` maps every :class:`SegmentRecord` field to a read-only 1-D
    numpy array (int64, float64 or bool; see :data:`TRACE_RECORD_COLUMNS`),
    one entry per played segment; omitted, the trace is empty.  The arrays
    passed in are adopted, not copied, and marked read-only; producers hand
    over arrays nothing else writes.  :attr:`records` materialises the
    per-segment view lazily (plain Python scalars), and every aggregate
    reads the columns directly.

    A trace is immutable once built; equality compares the metadata and the
    columns bit for bit.
    """

    user_id: str = "user"
    video_duration: float = 0.0
    segment_duration: float = 0.0
    trace_name: str = ""
    columns: Mapping[str, np.ndarray] | None = field(default=None, repr=False)
    exited_early: bool = False
    _records: tuple[SegmentRecord, ...] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        columns = _EMPTY_COLUMNS if self.columns is None else self.columns
        if columns.keys() != _COLUMN_SET:
            raise ValueError(
                f"trace columns must be exactly the SegmentRecord fields, "
                f"got {sorted(columns)}"
            )
        owned = {
            name: np.asarray(columns[name], dtype=dtype)
            for name, dtype in TRACE_RECORD_COLUMNS
        }
        shapes = {array.shape for array in owned.values()}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ValueError("trace columns must be 1-D and of equal length")
        for array in owned.values():
            array.setflags(write=False)
        object.__setattr__(self, "columns", MappingProxyType(owned))

    @classmethod
    def from_records(
        cls, records: Sequence[SegmentRecord], **metadata
    ) -> "PlaybackTrace":
        """Build a trace from a list of records (the one record-list constructor)."""
        values = list(zip(*map(_record_values, records)))
        if not values:
            return cls(**metadata)
        return cls(columns=dict(zip(_COLUMN_NAMES, values)), **metadata)

    @classmethod
    def from_checked_columns(
        cls,
        columns: dict[str, np.ndarray],
        *,
        user_id: str,
        video_duration: float,
        segment_duration: float,
        trace_name: str,
        exited_early: bool,
    ) -> "PlaybackTrace":
        """Adopt ``columns`` without the per-trace checks of the constructor.

        For decoders that check a whole batch of traces at once (see
        :class:`repro.fleet.telemetry.SessionColumns`): the columns must
        already be exactly the :class:`SegmentRecord` fields, of the
        :data:`TRACE_RECORD_COLUMNS` dtypes, 1-D, of equal length and
        read-only.
        """
        trace = object.__new__(cls)
        for name, value in (
            ("user_id", user_id),
            ("video_duration", video_duration),
            ("segment_duration", segment_duration),
            ("trace_name", trace_name),
            ("columns", MappingProxyType(columns)),
            ("exited_early", exited_early),
            ("_records", None),
        ):
            object.__setattr__(trace, name, value)
        return trace

    def __reduce__(self):
        return PlaybackTrace, (
            self.user_id, self.video_duration, self.segment_duration,
            self.trace_name, dict(self.columns), self.exited_early,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlaybackTrace):
            return NotImplemented
        return (
            self.user_id == other.user_id
            and self.video_duration == other.video_duration
            and self.segment_duration == other.segment_duration
            and self.trace_name == other.trace_name
            and self.exited_early == other.exited_early
            and all(
                self.columns[name].tobytes() == other.columns[name].tobytes()
                for name in _COLUMN_NAMES
            )
        )

    def __len__(self) -> int:
        return self.columns["segment_index"].size

    @property
    def records(self) -> tuple[SegmentRecord, ...]:
        """Per-segment records, built once from the columns on first access."""
        records = self._records
        if records is None:
            records = tuple(
                map(
                    SegmentRecord,
                    *(self.columns[name].tolist() for name in _COLUMN_NAMES),
                )
            )
            object.__setattr__(self, "_records", records)
        return records

    @property
    def watch_time(self) -> float:
        """Seconds of video actually played."""
        return len(self) * self.segment_duration

    @property
    def completed(self) -> bool:
        """True when the full video was watched without an early exit."""
        return not self.exited_early and self.watch_time >= self.video_duration - 1e-9

    @property
    def completion_ratio(self) -> float:
        """Fraction of the video watched (0 for an empty trace)."""
        if self.video_duration <= 0:
            return 0.0
        return min(self.watch_time / self.video_duration, 1.0)

    @property
    def total_stall_time(self) -> float:
        """Total stall time (seconds)."""
        return float(np.sum(self.columns["stall_time"]))

    @property
    def stall_count(self) -> int:
        """Number of stall events."""
        return int(np.count_nonzero(self.columns["stall_time"] > 1e-12))

    @property
    def mean_bitrate_kbps(self) -> float:
        """Mean selected bitrate (kbps), 0 for an empty trace."""
        if not len(self):
            return 0.0
        return float(np.mean(self.columns["bitrate_kbps"]))

    @property
    def bitrates_kbps(self) -> np.ndarray:
        """Vector of selected bitrates (read-only)."""
        return self.columns["bitrate_kbps"]

    @property
    def levels(self) -> np.ndarray:
        """Vector of selected ladder levels (read-only)."""
        return self.columns["level"]

    @property
    def num_switches(self) -> int:
        """Number of quality switches."""
        return int(np.count_nonzero(np.diff(self.columns["level"])))

    @property
    def stall_times(self) -> np.ndarray:
        """Per-segment stall time vector (read-only)."""
        return self.columns["stall_time"]

    @property
    def cumulative_stall_times(self) -> np.ndarray:
        """Per-segment cumulative stall time vector (read-only)."""
        return self.columns["cumulative_stall_time"]

    @property
    def exited_flags(self) -> np.ndarray:
        """Per-segment exit indicator vector (0/1 floats)."""
        return self.columns["exited"].astype(np.float64)


@dataclass(frozen=True)
class SessionConfig:
    """Knobs of a playback session."""

    start_level: int = 0
    initial_buffer: float = 0.0
    rtt: float = 0.08
    base_buffer_cap: float = 12.0
    max_segments: int | None = None


class PlaybackSession:
    """Run ABR + player + (optional) user exit model over a bandwidth trace."""

    def __init__(self, config: SessionConfig | None = None) -> None:
        self.config = config or SessionConfig()

    def run(
        self,
        abr: ABRPolicy,
        video: Video,
        trace: BandwidthTrace,
        exit_model: ExitModel | None = None,
        rng: np.random.Generator | None = None,
        user_id: str = "user",
    ) -> PlaybackTrace:
        """Play ``video`` over ``trace`` with ``abr`` deciding quality levels.

        When ``exit_model`` is given, the session may terminate early with an
        exit event; exit decisions are drawn with ``rng`` (a fresh default RNG
        is created when omitted, which makes deterministic rule-based exit
        models reproducible regardless).
        """
        rng = rng or np.random.default_rng(0)
        abr.reset()
        if exit_model is not None:
            exit_model.reset()

        player = PlayerEnvironment(
            video=video,
            rtt=self.config.rtt,
            initial_buffer=self.config.initial_buffer,
            base_buffer_cap=self.config.base_buffer_cap,
        )
        # Records accumulate in a local list (the ``observe`` hook reads them
        # one at a time) and become the trace's columns once, at the end.
        records: list[SegmentRecord] = []
        exited_early = False

        max_segments = video.num_segments
        if self.config.max_segments is not None:
            max_segments = min(max_segments, self.config.max_segments)

        throughput_history: list[float] = []
        last_level: int | None = None
        cumulative_stall = 0.0
        stall_count = 0
        segments_since_stall = 0
        # Hoisted per-video constants: the ladder, level count and segment
        # duration are invariant across the loop, and the per-segment size
        # tuples are cached on the video itself.
        ladder = video.ladder
        num_levels = ladder.num_levels
        segment_duration = video.segment_duration
        bandwidth_model = player.bandwidth_model

        for k in range(max_segments):
            context = ABRContext(
                segment_index=k,
                buffer=player.buffer,
                buffer_cap=player.buffer_cap,
                last_level=last_level,
                throughput_history_kbps=tuple(throughput_history[-8:]),
                next_segment_sizes_kbit=video.sizes_tuple(k),
                ladder=ladder,
                segment_duration=segment_duration,
                bandwidth_mean_kbps=bandwidth_model.mean,
                bandwidth_std_kbps=bandwidth_model.std,
            )
            level = int(abr.select_level(context))
            if not 0 <= level < num_levels:
                raise ValueError(
                    f"ABR returned invalid level {level} for a "
                    f"{num_levels}-level ladder"
                )
            bandwidth = trace.bandwidth_at(k)
            result: SegmentResult = player.step(level, bandwidth)

            cumulative_stall += result.stall_time
            if result.stall_time > 1e-12:
                stall_count += 1
                segments_since_stall = 0
            else:
                segments_since_stall += 1
            throughput_history.append(result.throughput_kbps)

            watch_time = (k + 1) * segment_duration
            exit_probability = 0.0
            exited = False
            if exit_model is not None:
                observation = ExitObservation(
                    segment_index=k,
                    level=level,
                    previous_level=last_level,
                    bitrate_kbps=result.bitrate_kbps,
                    stall_time=result.stall_time,
                    cumulative_stall_time=cumulative_stall,
                    stall_count=stall_count,
                    watch_time=watch_time,
                    buffer=result.buffer_after,
                    segments_since_last_stall=segments_since_stall,
                    throughput_kbps=result.throughput_kbps,
                )
                exit_probability = float(exit_model.exit_probability(observation))
                if not 0.0 <= exit_probability <= 1.0:
                    raise ValueError("exit probability must be in [0, 1]")
                exited = bool(rng.random() < exit_probability)

            records.append(
                SegmentRecord(
                    segment_index=k,
                    level=level,
                    bitrate_kbps=result.bitrate_kbps,
                    size_kbit=result.size_kbit,
                    bandwidth_kbps=result.bandwidth_kbps,
                    download_time=result.download_time,
                    stall_time=result.stall_time,
                    wait_time=result.wait_time,
                    buffer_before=result.buffer_before,
                    buffer_after=result.buffer_after,
                    watch_time=watch_time,
                    cumulative_stall_time=cumulative_stall,
                    stall_count=stall_count,
                    exit_probability=exit_probability,
                    exited=exited,
                )
            )
            observe = getattr(abr, "observe", None)
            if observe is not None:
                # Feedback hook used by LingXi-style wrappers that track
                # per-segment outcomes (stalls, exits) during live playback.
                observe(records[-1])
            last_level = level
            if exited:
                exited_early = True
                break

        return PlaybackTrace.from_records(
            records,
            user_id=user_id,
            video_duration=video.duration,
            segment_duration=video.segment_duration,
            trace_name=trace.name,
            exited_early=exited_early,
        )

    def run_many(
        self,
        abr: ABRPolicy,
        videos: Sequence[Video],
        traces: Sequence[BandwidthTrace],
        exit_model: ExitModel | None = None,
        rng: np.random.Generator | None = None,
        user_id: str = "user",
    ) -> list[PlaybackTrace]:
        """Run one session per (video, trace) pair, zipped and cycled."""
        rng = rng or np.random.default_rng(0)
        n = max(len(videos), len(traces))
        results = []
        for i in range(n):
            results.append(
                self.run(
                    abr,
                    videos[i % len(videos)],
                    traces[i % len(traces)],
                    exit_model=exit_model,
                    rng=rng,
                    user_id=user_id,
                )
            )
        return results
