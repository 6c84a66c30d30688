"""Event-ordered scalar reference engine for networked session batches.

This is the ground truth for what a *networked* batch means.  Time is
slotted: during slot ``k`` every started, unfinished session downloads one
segment, and the sessions sharing an edge link split its capacity through
the weighted max-min allocator (:func:`repro.net.allocator.allocate_step`).
A session's **demand** is its pre-drawn trace value — the most its access
link could carry — so an uncongested topology reproduces the un-networked
traces exactly, and congestion emerges only when concurrent demand exceeds a
link's capacity.

Execution is event-ordered: the engine walks a queue of
``(slot, batch-index)`` download events in order, advancing each session
with per-session *scalar* math — its own
:class:`~repro.sim.player.PlayerEnvironment`, its own ABR calls, its own
`Philox` exit stream — exactly like :class:`~repro.sim.session.PlaybackSession`
would.  The only cross-session computation is the per-slot allocation, and
that subroutine is shared verbatim with the vector engine, which is what
lets ``tests/test_network.py`` pin the two networked backends to
segment-for-segment identical traces.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.net.allocator import LinkUsageSample, allocate_step
from repro.obs import live as obs_live
from repro.net.topology import NetworkTopology
from repro.sim.backend import SessionSpec, resolve_session_seeds, session_rng
from repro.sim.player import PlayerEnvironment
from repro.sim.session import (
    ABRContext,
    ExitObservation,
    PlaybackTrace,
    SegmentRecord,
    SessionConfig,
)


def resolve_link_indices(
    network: NetworkTopology, specs: Sequence[SessionSpec]
) -> np.ndarray:
    """Per-spec link index: explicit ``spec.link`` wins, else attach by user id."""
    return np.asarray(
        [
            network.index_of(spec.link)
            if spec.link is not None
            else network.link_index_for(spec.user_id)
            for spec in specs
        ],
        dtype=int,
    )


class _LiveSession:
    """One session's mutable state while its slots interleave with others."""

    def __init__(
        self, spec: SessionSpec, seed, config: SessionConfig
    ) -> None:
        self.spec = spec
        self.rng = session_rng(seed)
        self.player = PlayerEnvironment(
            video=spec.video,
            rtt=config.rtt,
            initial_buffer=config.initial_buffer,
            base_buffer_cap=config.base_buffer_cap,
        )
        self.limit = spec.video.num_segments
        if config.max_segments is not None:
            self.limit = min(self.limit, config.max_segments)
        self.start = spec.start_step
        self.records: list[SegmentRecord] = []
        self.exited_early = False
        self.throughput_history: list[float] = []
        self.last_level: int | None = None
        self.cumulative_stall = 0.0
        self.stall_count = 0
        self.segments_since_stall = 0

    def demand_at(self, slot: int) -> float:
        """Access-link bandwidth for this slot's segment download."""
        return self.spec.trace.bandwidth_at(slot - self.start)

    def step(self, slot: int, allocated_kbps: float) -> bool:
        """Download one segment at the allocated rate; False once exited.

        The body mirrors :meth:`repro.sim.session.PlaybackSession.run` one
        iteration at a time, with the allocator's answer in place of the
        trace value.
        """
        spec = self.spec
        video = spec.video
        k = slot - self.start
        player = self.player
        bandwidth_model = player.bandwidth_model
        context = ABRContext(
            segment_index=k,
            buffer=player.buffer,
            buffer_cap=player.buffer_cap,
            last_level=self.last_level,
            throughput_history_kbps=tuple(self.throughput_history[-8:]),
            next_segment_sizes_kbit=video.sizes_tuple(k),
            ladder=video.ladder,
            segment_duration=video.segment_duration,
            bandwidth_mean_kbps=bandwidth_model.mean,
            bandwidth_std_kbps=bandwidth_model.std,
        )
        level = int(spec.abr.select_level(context))
        if not 0 <= level < video.ladder.num_levels:
            raise ValueError(
                f"ABR returned invalid level {level} for a "
                f"{video.ladder.num_levels}-level ladder"
            )
        result = player.step(level, allocated_kbps)

        self.cumulative_stall += result.stall_time
        if result.stall_time > 1e-12:
            self.stall_count += 1
            self.segments_since_stall = 0
        else:
            self.segments_since_stall += 1
        self.throughput_history.append(result.throughput_kbps)

        watch_time = (k + 1) * video.segment_duration
        exit_probability = 0.0
        exited = False
        if spec.exit_model is not None:
            observation = ExitObservation(
                segment_index=k,
                level=level,
                previous_level=self.last_level,
                bitrate_kbps=result.bitrate_kbps,
                stall_time=result.stall_time,
                cumulative_stall_time=self.cumulative_stall,
                stall_count=self.stall_count,
                watch_time=watch_time,
                buffer=result.buffer_after,
                segments_since_last_stall=self.segments_since_stall,
                throughput_kbps=result.throughput_kbps,
            )
            exit_probability = float(spec.exit_model.exit_probability(observation))
            if not 0.0 <= exit_probability <= 1.0:
                raise ValueError("exit probability must be in [0, 1]")
            exited = bool(self.rng.random() < exit_probability)

        self.records.append(
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
                cumulative_stall_time=self.cumulative_stall,
                stall_count=self.stall_count,
                exit_probability=exit_probability,
                exited=exited,
            )
        )
        observe = getattr(spec.abr, "observe", None)
        if observe is not None:
            observe(self.records[-1])
        self.last_level = level
        if exited:
            self.exited_early = True
            return False
        return True

    def playback(self) -> PlaybackTrace:
        """The finished session's trace (its records converted to columns)."""
        spec = self.spec
        return PlaybackTrace.from_records(
            self.records,
            user_id=spec.user_id,
            video_duration=spec.video.duration,
            segment_duration=spec.video.segment_duration,
            trace_name=spec.trace.name,
            exited_early=self.exited_early,
        )


def run_networked_scalar(
    specs: Sequence[SessionSpec],
    network: NetworkTopology,
    config: SessionConfig | None = None,
    link_usage: list[LinkUsageSample] | None = None,
) -> list[PlaybackTrace]:
    """Run a coupled batch through the event-ordered scalar reference engine."""
    config = config or SessionConfig()
    if not specs:
        return []
    seeds = resolve_session_seeds(specs)
    sessions = [_LiveSession(spec, seed, config) for spec, seed in zip(specs, seeds)]
    # Reset every distinct ABR / exit-model instance once, before any session
    # runs (the vector engine does the same per cohort).  Sessions of a batch
    # interleave, so a per-session reset at its first slot would wipe the
    # in-flight state of another session sharing the instance; with the
    # up-front reset, specs sharing a *stateful* ABR deterministically share
    # its state across their concurrent sessions (one user, one ABR brain) —
    # give each spec its own instance when that is not what you want.
    for policy in {id(spec.abr): spec.abr for spec in specs}.values():
        policy.reset()
    for model in {
        id(spec.exit_model): spec.exit_model
        for spec in specs
        if spec.exit_model is not None
    }.values():
        model.reset()
    link_index = resolve_link_indices(network, specs)
    weights = np.asarray([spec.weight for spec in specs], dtype=float)
    starts = np.asarray([session.start for session in sessions], dtype=int)
    limits = np.asarray([session.limit for session in sessions], dtype=int)
    ends = starts + limits

    num_sessions = len(specs)
    alive = np.ones(num_sessions, dtype=bool)
    demand = np.zeros(num_sessions)
    horizon = int(ends.max())

    # Multi-tier topologies: precompute each session's deterministic
    # per-segment cache-miss profile (identity-keyed, so both engines and
    # every shard agree).  No cache model on a tiered topology means every
    # download traverses the full path.
    tiered = network.has_tiers
    full_path: np.ndarray | None = None
    miss_profiles: list[np.ndarray] = []
    if tiered:
        full_path = np.zeros(num_sessions, dtype=bool)
        if network.cache is not None:
            miss_profiles = [
                network.cache.miss_profile(spec.user_id, session.limit)
                for spec, session in zip(specs, sessions)
            ]
        else:
            miss_profiles = [
                np.ones(session.limit, dtype=bool) for session in sessions
            ]

    with obs.span("networked.run_scalar"):
        for slot in range(horizon):
            obs_live.pulse()  # wall-clock heartbeat; no-op without a live run
            runnable = alive & (slot < ends)
            if not runnable.any():
                break
            active = runnable & (starts <= slot)
            obs.counter_add("networked.slots")
            demand[:] = 0.0
            if tiered:
                full_path[:] = False
            for index in np.flatnonzero(active):
                demand[index] = sessions[index].demand_at(slot)
                if tiered:
                    full_path[index] = miss_profiles[index][slot - starts[index]]
            allocations = allocate_step(
                network,
                slot,
                link_index,
                demand,
                active,
                weights,
                usage_out=link_usage,
                full_path=full_path,
            )
            # Event order: (slot, batch index) ascending.
            with obs.span("networked.session_step"):
                for index in np.flatnonzero(active):
                    if not sessions[index].step(slot, float(allocations[index])):
                        alive[index] = False

    return [session.playback() for session in sessions]
