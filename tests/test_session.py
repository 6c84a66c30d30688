"""Tests for the playback session engine and trace records."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.abr.bba import BBA
from repro.abr.hyb import HYB
from repro.analytics.logs import SessionLog
from repro.fleet.telemetry import SessionColumns
from repro.sim.session import (
    TRACE_RECORD_COLUMNS,
    ABRContext,
    ExitObservation,
    PlaybackSession,
    PlaybackTrace,
    SegmentRecord,
    SessionConfig,
)
from repro.users.engagement import RuleBasedUser


class AlwaysLowest:
    """Minimal ABR stub returning the lowest rung."""

    def select_level(self, context: ABRContext) -> int:
        return 0

    def reset(self) -> None:
        pass


class RecordingABR(AlwaysLowest):
    """Stub that records observe() callbacks."""

    def __init__(self):
        self.observed = []

    def observe(self, record) -> None:
        self.observed.append(record)


class ConstantExit:
    """Exit model with a fixed per-segment exit probability."""

    def __init__(self, probability: float):
        self.probability = probability

    def exit_probability(self, observation: ExitObservation) -> float:
        return self.probability

    def reset(self) -> None:
        pass


class TestPlaybackSession:
    def test_full_video_watched_without_exit_model(self, video, high_bandwidth_trace, rng):
        trace = PlaybackSession().run(AlwaysLowest(), video, high_bandwidth_trace, rng=rng)
        assert len(trace) == video.num_segments
        assert trace.completed
        assert trace.completion_ratio == pytest.approx(1.0)
        assert not trace.exited_early

    def test_certain_exit_stops_after_first_segment(self, video, high_bandwidth_trace, rng):
        trace = PlaybackSession().run(
            AlwaysLowest(), video, high_bandwidth_trace, exit_model=ConstantExit(1.0), rng=rng
        )
        assert len(trace) == 1
        assert trace.exited_early
        assert not trace.completed

    def test_invalid_exit_probability_raises(self, video, high_bandwidth_trace, rng):
        with pytest.raises(ValueError):
            PlaybackSession().run(
                AlwaysLowest(),
                video,
                high_bandwidth_trace,
                exit_model=ConstantExit(1.5),
                rng=rng,
            )

    def test_invalid_level_raises(self, video, high_bandwidth_trace, rng):
        class Broken(AlwaysLowest):
            def select_level(self, context):
                return 99

        with pytest.raises(ValueError):
            PlaybackSession().run(Broken(), video, high_bandwidth_trace, rng=rng)

    def test_observe_hook_called_per_segment(self, video, high_bandwidth_trace, rng):
        abr = RecordingABR()
        trace = PlaybackSession().run(abr, video, high_bandwidth_trace, rng=rng)
        assert len(abr.observed) == len(trace)

    def test_max_segments_caps_session(self, video, high_bandwidth_trace, rng):
        session = PlaybackSession(SessionConfig(max_segments=5))
        trace = session.run(AlwaysLowest(), video, high_bandwidth_trace, rng=rng)
        assert len(trace) == 5

    def test_rule_based_user_exits_on_low_bandwidth(self, video, low_bandwidth_trace, rng):
        user = RuleBasedUser(stall_time_threshold_s=1.0, stall_count_threshold=2)
        trace = PlaybackSession().run(
            HYB(), video, low_bandwidth_trace, exit_model=user, rng=rng
        )
        # HYB at beta=0.9 over a 1.2 Mbps link stalls quickly; the strict rule exits.
        assert trace.exited_early or trace.total_stall_time < 1.0

    def test_trace_metrics_consistent(self, video, low_bandwidth_trace, rng):
        trace = PlaybackSession().run(BBA(), video, low_bandwidth_trace, rng=rng)
        assert trace.watch_time == pytest.approx(len(trace) * video.segment_duration)
        assert trace.total_stall_time == pytest.approx(float(trace.stall_times.sum()))
        assert trace.stall_count == int(np.count_nonzero(trace.stall_times > 1e-12))
        assert trace.mean_bitrate_kbps == pytest.approx(float(trace.bitrates_kbps.mean()))
        assert trace.num_switches == int(np.count_nonzero(np.diff(trace.levels)))

    def test_records_monotone_cumulative_stall(self, video, low_bandwidth_trace, rng):
        trace = PlaybackSession().run(HYB(), video, low_bandwidth_trace, rng=rng)
        cumulative = [r.cumulative_stall_time for r in trace.records]
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))

    def test_run_many_zips_and_cycles(self, library, high_bandwidth_trace, rng):
        traces = PlaybackSession().run_many(
            AlwaysLowest(), list(library.videos), [high_bandwidth_trace], rng=rng
        )
        assert len(traces) == len(library)

    def test_empty_trace_properties(self):
        empty = PlaybackTrace(video_duration=10.0, segment_duration=2.0)
        assert empty.mean_bitrate_kbps == 0.0
        assert empty.completion_ratio == 0.0
        assert empty.num_switches == 0


# --------------------------------------------------------------------------- #
# Columnar representation: records <-> columns <-> telemetry, exactly
# --------------------------------------------------------------------------- #
_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
#: Finite floats with the edge cases spelled out: signed zeros, the smallest
#: subnormal, the largest finite value.
_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308]),
)
_FIELD_STRATEGIES = {"int64": _INT64, "float64": _FLOAT, "bool": st.booleans()}
_RECORDS = st.lists(
    st.builds(
        SegmentRecord,
        **{name: _FIELD_STRATEGIES[dtype.name] for name, dtype in TRACE_RECORD_COLUMNS},
    ),
    max_size=12,
)
_PYTHON_TYPES = {"int64": int, "float64": float, "bool": bool}
#: Every float a trace can hold, NaN and the infinities included.
_ANY_FLOAT = st.one_of(_FLOAT, st.sampled_from([math.nan, math.inf, -math.inf]))
_ANY_RECORDS = st.lists(
    st.builds(
        SegmentRecord,
        **{
            name: _ANY_FLOAT if dtype.name == "float64" else _FIELD_STRATEGIES[dtype.name]
            for name, dtype in TRACE_RECORD_COLUMNS
        },
    ),
    max_size=6,
)


def _block_payload(logs):
    return SessionColumns.from_sessions(logs).as_payload()


def _from_block_payload(payload):
    return SessionColumns.from_payload(payload).sessions()


def _bits(value):
    """Exact identity of a scalar: floats by their IEEE bits (signs of zero too)."""
    return value.hex() if isinstance(value, float) else value


def _assert_records_exact(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        for name, dtype in TRACE_RECORD_COLUMNS:
            value = getattr(got, name)
            assert type(value) is _PYTHON_TYPES[dtype.name], (name, type(value))
            assert _bits(value) == _bits(getattr(want, name)), name


class TestColumnarTrace:
    @settings(max_examples=60, deadline=None)
    @given(records=_RECORDS, exited=st.booleans())
    def test_records_columns_telemetry_roundtrip_is_exact(self, records, exited):
        trace = PlaybackTrace.from_records(
            records, user_id="u7", video_duration=30.0, segment_duration=2.0,
            trace_name="t", exited_early=exited,
        )
        assert len(trace) == len(records)
        for name, dtype in TRACE_RECORD_COLUMNS:
            assert trace.columns[name].dtype == dtype
        _assert_records_exact(trace.records, records)
        assert pickle.loads(pickle.dumps(trace)) == trace

        log = SessionLog(user_id="u7", day=2, session_index=1, trace=trace,
                         mean_bandwidth_kbps=1234.5)
        line = json.dumps(_block_payload([log]))
        back = _from_block_payload(json.loads(line))[0].trace
        assert back == trace
        for name, _ in TRACE_RECORD_COLUMNS:
            assert back.columns[name].tobytes() == trace.columns[name].tobytes()
        _assert_records_exact(back.records, records)
        # Re-encoding the replayed trace gives the same bytes.
        assert json.dumps(_block_payload(
            [SessionLog(user_id="u7", day=2, session_index=1, trace=back,
                        mean_bandwidth_kbps=1234.5)]
        )) == line

    @settings(max_examples=60, deadline=None)
    @given(sessions=st.lists(
        st.tuples(_ANY_RECORDS, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, st.booleans()),
        min_size=1, max_size=5,
    ))
    @example(sessions=[
        ([], math.nan, math.inf, -0.0, True),
        ([SegmentRecord(0, 1, math.nan, math.inf, -math.inf, -0.0, 5e-324,
                        -5e-324, 0.0, 1.0, 2.0, math.nan, 3, -math.inf, True)],
         5e-324, -math.inf, math.nan, False),
    ])
    def test_session_block_roundtrip_is_bit_exact(self, sessions):
        """Several sessions (empty traces included) through one block."""
        logs = [
            SessionLog(
                user_id=f"u{i % 2}", day=i, session_index=i,
                trace=PlaybackTrace.from_records(
                    records, user_id=f"u{i % 2}", video_duration=video,
                    segment_duration=segment, trace_name=f"t{i % 3}",
                    exited_early=exited,
                ),
                mean_bandwidth_kbps=mean_bw,
            )
            for i, (records, mean_bw, video, segment, exited) in enumerate(sessions)
        ]
        line = json.dumps(_block_payload(logs))
        back = _from_block_payload(json.loads(line))
        assert len(back) == len(logs)
        for got, want in zip(back, logs):
            assert (got.user_id, got.day, got.session_index) == (
                want.user_id, want.day, want.session_index
            )
            assert _bits(got.mean_bandwidth_kbps) == _bits(want.mean_bandwidth_kbps)
            for name in ("video_duration", "segment_duration"):
                assert _bits(getattr(got.trace, name)) == _bits(getattr(want.trace, name))
            assert got.trace.trace_name == want.trace.trace_name
            assert got.trace.exited_early is want.trace.exited_early
            for column, _ in TRACE_RECORD_COLUMNS:
                assert got.trace.columns[column].tobytes() == (
                    want.trace.columns[column].tobytes()
                )
        assert json.dumps(_block_payload(back)) == line

    def test_equality_is_bitwise(self):
        record = SegmentRecord(0, 1, 300.0, 600.0, 900.0, 0.5, 0.0, 0.0,
                               1.0, 2.0, 2.0, 0.0, 0, 0.0, False)
        negative = SegmentRecord(*(
            -0.0 if isinstance(v, float) and v == 0.0 else v
            for v in record.__dict__.values()
        ))
        a = PlaybackTrace.from_records([record])
        assert a == PlaybackTrace.from_records([record])
        assert a.records == PlaybackTrace.from_records([negative]).records
        assert a != PlaybackTrace.from_records([negative])
        assert math.copysign(1.0, PlaybackTrace.from_records([negative]).records[0].stall_time) < 0

    def test_rejects_ragged_or_incomplete_columns(self):
        columns = {name: np.zeros(3, dtype=dtype) for name, dtype in TRACE_RECORD_COLUMNS}
        with pytest.raises(ValueError, match="equal length"):
            PlaybackTrace(columns={**columns, "level": np.zeros(2, dtype=np.int64)})
        del columns["exited"]
        with pytest.raises(ValueError, match="SegmentRecord fields"):
            PlaybackTrace(columns=columns)

