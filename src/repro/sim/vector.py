"""Struct-of-arrays vectorized simulation backend.

:class:`VectorBackend` advances N playback sessions in lockstep, one segment
per step, with all per-session state held in NumPy arrays: buffers, selected
levels, throughput windows, stall counters, and per-session `Philox` RNG
substreams (pre-generated uniform draws).  Equation 3 — download time, stall,
dynamic ``B_max``, waiting time — becomes pure array math over the whole
batch, ABR decisions come from the policies' ``vector_kernel`` classmethods
(throughput rule, HYB, BBA), and exit decisions from the engagement models'
``vector_exit_kernel`` classmethods.

Equivalence gate
----------------
For the same :class:`~repro.sim.backend.SessionSpec` batch, this backend
reproduces :class:`~repro.sim.backend.ScalarBackend` traces **segment for
segment** (exact equality of every trace column, enforced by
``tests/test_vector_backend.py``).  Three design rules make that possible:

* every session draws exit uniforms from its own `Philox` substream
  (:func:`~repro.sim.backend.session_rng`), so lockstep reordering cannot
  shift anyone's randomness — a pre-generated ``rng.random(n)`` row equals
  ``n`` sequential ``rng.random()`` calls on the same stream;
* all array expressions mirror the scalar code's floating-point operation
  order (including the bandwidth-window mean/std reductions, which NumPy
  evaluates with the same pairwise summation row-wise as it does for the
  scalar model's 1-D window);
* the rare, profile-specific stall response of
  :class:`~repro.users.engagement.QoSAwareExitModel` is evaluated by calling
  the *scalar* profile method on the masked stalled rows, not by a parallel
  reimplementation.

ABR decisions come from the policies' ``vector_kernel`` classmethods
(throughput rule, HYB, BBA, BOLA, and RobustMPC with per-row prediction-error
state), and LingXi-wrapped sessions run their whole per-user control loop
through a :class:`~repro.core.vector_host.VectorControllerHost` — trigger
checks over struct-of-arrays controller state, Monte-Carlo optimization
batched across every concurrently-optimizing session.  Sessions whose ABR or
exit model still has no vector kernel (Pensieve, custom classes) fall back
to the scalar engine behind the same ``run_batch`` interface, in spec order;
the backend counts them (``last_fallback_sessions`` /
``total_fallback_sessions``) so fleets can assert they stayed on the fast
path.  In networked mode the same split is cohort-level: lockstep cohorts
and event-ordered reference sessions share one ``allocate_step`` per slot.

One lockstep unit
-----------------
Both modes run on the same :class:`_Cohort`: one builder
(:meth:`VectorBackend._build_cohort`), one step that evaluates Equation 3
(:meth:`VectorBackend._step_cohort`) and one hand-off
(:func:`_cohort_traces`).  They differ only in the driver.  An uncoupled
batch runs its cohorts one after another, each to completion, and feeds
every step its trace values; a networked batch advances all cohorts slot by
slot and feeds each step the shared allocator's throughputs.

Traces leave the engine as columns: every cohort records its per-step
values in padded ``(sessions, max_steps)`` matrices, and each session's
:class:`~repro.sim.session.PlaybackTrace` receives its own trimmed copy of
every row (:func:`_cohort_traces`) — no per-segment objects are built.  The
worker pool and the telemetry codec pass those columns on as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.net.allocator import allocate_step
from repro.obs import live as obs_live
from repro.sim.backend import (
    ScalarBackend,
    SessionSpec,
    SimBackend,
    register_backend,
    resolve_session_seeds,
    session_rng,
)
from repro.sim.bandwidth import BandwidthModel
from repro.sim.networked import _LiveSession, resolve_link_indices, run_networked_scalar
from repro.sim.player import dynamic_buffer_cap
from repro.sim.session import PlaybackTrace, SessionConfig

#: Sliding-window length of the player's bandwidth model (and of the
#: throughput history handed to ABR contexts) — both are 8 in the scalar
#: engine, which is what lets one window array serve both consumers.
_WINDOW = BandwidthModel().window
_PRIOR_MEAN = BandwidthModel().prior_mean_kbps
_PRIOR_STD = BandwidthModel().prior_std_kbps


@dataclass
class VectorStepContext:
    """Struct-of-arrays ABR context for one lockstep step (one row per session).

    The vector twin of :class:`~repro.sim.session.ABRContext`: same
    quantities, arrays instead of scalars.  ``last_level`` uses ``-1`` where
    the scalar context would carry ``None`` (before the first segment).
    """

    k: int
    buffer: np.ndarray
    buffer_cap: np.ndarray
    last_level: np.ndarray
    segment_sizes: np.ndarray  # (N, num_levels) sizes of this step's segment
    throughput_window: np.ndarray  # (N, min(k, 8)) recent throughputs, oldest first
    bandwidth_mean: np.ndarray
    bandwidth_std: np.ndarray
    bitrates: np.ndarray  # (num_levels,) shared ladder
    segment_duration: float

    def harmonic_throughput(self, windows: np.ndarray) -> np.ndarray:
        """Per-session harmonic-mean throughput over the last ``windows[i]`` samples.

        Mirrors :meth:`repro.abr.base.ABRAlgorithm.estimate_throughput`
        (falling back to the bandwidth-model mean when no history exists yet).
        Sessions are grouped by window length so each group reduces over the
        same slice shape the scalar estimator sees.
        """
        available = self.throughput_window.shape[1]
        unique = np.unique(windows)
        if unique.size == 1:
            effective = min(int(unique[0]), available)
            if effective == 0:
                return self.bandwidth_mean.copy()
            values = self.throughput_window[:, available - effective :]
            return effective / np.sum(1.0 / values, axis=1)
        out = np.empty(windows.shape[0])
        for window in unique:
            rows = windows == window
            effective = min(int(window), available)
            if effective == 0:
                out[rows] = self.bandwidth_mean[rows]
            else:
                values = self.throughput_window[rows][:, available - effective :]
                out[rows] = effective / np.sum(1.0 / values, axis=1)
        return out


@dataclass
class ExitStepView:
    """Struct-of-arrays exit-model view for one lockstep step.

    The vector twin of :class:`~repro.sim.session.ExitObservation` (plus the
    ``active``/``stalled`` masks kernels need for masked scalar fallbacks).
    ``watch_time`` is a scalar: in lockstep every session is at the same
    segment index.  ``previous_level`` uses ``-1`` for ``None``.
    """

    k: int
    level: np.ndarray
    previous_level: np.ndarray
    stall_time: np.ndarray
    cumulative_stall_time: np.ndarray
    stall_count: np.ndarray
    watch_time: float
    buffer: np.ndarray
    throughput: np.ndarray
    active: np.ndarray
    stalled: np.ndarray


@dataclass
class _Cohort:
    """One internally-lockstep group of sessions: the engine's lockstep unit.

    Every session of a cohort shares the ABR and exit-model types, the ladder
    and the segment duration, and sits at the same *local* segment index at
    every step, so the vector kernels and window reductions apply unchanged.
    Networked cohorts are further keyed by ``start_step``; coupling across
    them flows exclusively through the shared per-slot allocator.
    """

    indices: np.ndarray  # batch positions of the cohort's sessions
    specs: list
    start: int  # first global slot (networked batches only)
    max_seg: np.ndarray
    max_steps: int
    segment_duration: float
    bitrates: np.ndarray
    bandwidth: np.ndarray  # (n, max_steps) trace rows: throughput, or link demand
    sizes: np.ndarray  # (n, max_steps, L)
    abr_kernel: object
    exit_kernel: object | None
    uniforms: np.ndarray | None
    host: object | None = None
    miss: np.ndarray | None = None  # (n, max_steps) cache-miss mask (tiered)
    # mutable lockstep state
    buffer: np.ndarray = field(init=False)
    last_level: np.ndarray = field(init=False)
    cumulative_stall: np.ndarray = field(init=False)
    stall_count: np.ndarray = field(init=False)
    alive: np.ndarray = field(init=False)
    exited_early: np.ndarray = field(init=False)
    steps_taken: np.ndarray = field(init=False)
    observed: np.ndarray = field(init=False)  # throughput each local step ran at

    def __post_init__(self) -> None:
        n = len(self.specs)
        self.buffer = np.empty(n)  # filled by the engine (initial_buffer)
        self.last_level = np.full(n, -1, dtype=int)
        self.cumulative_stall = np.zeros(n)
        self.stall_count = np.zeros(n, dtype=int)
        self.alive = np.ones(n, dtype=bool)
        self.exited_early = np.zeros(n, dtype=bool)
        self.steps_taken = np.zeros(n, dtype=int)
        self.observed = np.zeros((n, self.max_steps))
        self.level_rec = np.zeros((n, self.max_steps), dtype=int)
        self.size_rec = np.empty((n, self.max_steps))
        self.download_rec = np.empty((n, self.max_steps))
        self.stall_rec = np.empty((n, self.max_steps))
        self.wait_rec = np.empty((n, self.max_steps))
        self.buffer_before_rec = np.empty((n, self.max_steps))
        self.buffer_after_rec = np.empty((n, self.max_steps))
        self.cumulative_rec = np.empty((n, self.max_steps))
        self.stall_count_rec = np.zeros((n, self.max_steps), dtype=int)
        self.probability_rec = np.zeros((n, self.max_steps))


class VectorBackend(SimBackend):
    """Lockstep struct-of-arrays execution of a batch of session specs.

    Fallback accounting
    -------------------
    Every ``run_batch`` call reports how many of its sessions were routed to
    the scalar engine instead of the lockstep fast path:
    ``last_fallback_sessions`` / ``last_batch_sessions`` describe the most
    recent call, ``total_fallback_sessions`` accumulates across the
    backend's lifetime.  The test sweeps assert these stay at zero for every
    ABR family that ships a vector kernel.
    """

    name = "vector"

    def __init__(self) -> None:
        self.last_fallback_sessions = 0
        self.last_batch_sessions = 0
        self.total_fallback_sessions = 0

    def _record_fallback(self, fallback_sessions: int, batch_sessions: int) -> None:
        self.last_fallback_sessions = fallback_sessions
        self.last_batch_sessions = batch_sessions
        self.total_fallback_sessions += fallback_sessions
        obs.counter_add("vector.fallback_sessions", fallback_sessions)
        obs.counter_add("vector.batch_sessions", batch_sessions)

    def run_batch(
        self,
        specs,
        config: SessionConfig | None = None,
        *,
        network=None,
        link_usage=None,
    ) -> list[PlaybackTrace]:
        config = config or SessionConfig()
        # Pin every spec's seed against the *original* batch order before
        # regrouping, so unseeded specs get the same position-derived
        # substream the scalar backend would assign them.
        specs = [
            spec if isinstance(spec.seed, np.random.SeedSequence) else replace(spec, seed=seed)
            for spec, seed in zip(specs, resolve_session_seeds(specs))
        ]
        if network is not None:
            # Allocation couples every session at every slot, so a networked
            # batch cannot split into per-session fallbacks the way an
            # independent batch can — but it *can* split into cohorts:
            # vectorizable cohorts stay lockstep, truly scalar cohorts run as
            # event-ordered reference sessions, and both sides meet at the
            # same shared per-slot ``allocate_step`` call.
            shared_stateful = self._shared_stateful_abr_ids(specs)
            scalar_indices = [
                index
                for index, spec in enumerate(specs)
                if not self._vectorizable(spec) or id(spec.abr) in shared_stateful
            ]
            self._record_fallback(len(scalar_indices), len(specs))
            if len(scalar_indices) == len(specs):
                return run_networked_scalar(
                    specs, network, config, link_usage=link_usage
                )
            return self._run_networked(
                specs, config, network, link_usage, scalar_indices
            )
        results: list[PlaybackTrace | None] = [None] * len(specs)

        groups: dict[tuple, list[int]] = {}
        fallback: list[int] = []
        # Controller-wrapped specs sharing one ABR instance (one user, several
        # sessions) carry controller state *across* sessions, which the scalar
        # loop plays out sequentially.  Splitting them into waves by
        # occurrence index — every instance's first session in wave 0, its
        # second in wave 1, ... — and running the waves in order preserves
        # that sequencing exactly: un-networked sessions are independent
        # across users, so a user's n-th session only needs their first n-1
        # sessions (earlier waves) to have completed.
        occurrence: dict[int, int] = {}
        for index, spec in enumerate(specs):
            if self._vectorizable(spec):
                if self._controller_wrapped(spec.abr):
                    wave = occurrence.get(id(spec.abr), 0)
                    occurrence[id(spec.abr)] = wave + 1
                    abr_key: tuple = (type(spec.abr), type(spec.abr.inner))
                else:
                    wave = 0
                    abr_key = (type(spec.abr), None)
                key = (
                    wave,
                    abr_key,
                    None if spec.exit_model is None else type(spec.exit_model),
                    spec.video.ladder.bitrates_kbps,
                    spec.video.segment_duration,
                )
                groups.setdefault(key, []).append(index)
            else:
                fallback.append(index)
        self._record_fallback(len(fallback), len(specs))

        for key, indices in sorted(groups.items(), key=lambda item: item[0][0]):  # contract: DET-ITER-003
            traces = self._run_group([specs[i] for i in indices], indices, config)
            for index, trace in zip(indices, traces):
                results[index] = trace
            obs_live.add_sessions(len(indices))

        if fallback:
            fallback_traces = ScalarBackend().run_batch(
                [specs[index] for index in fallback], config
            )
            for index, trace in zip(fallback, fallback_traces):
                results[index] = trace
        return results

    @staticmethod
    def _shared_stateful_abr_ids(specs) -> set[int]:
        """Ids of stateful ABR instances shared by several specs of a batch.

        In the event-ordered reference engine concurrent sessions sharing one
        *stateful* ABR instance deterministically share its internal state
        ("one user, one ABR brain"); lockstep cohorts keep per-row state and
        cannot reproduce that interleaving, so those specs must route to the
        scalar side of a networked batch.  A class is stateful when it
        overrides :meth:`~repro.abr.base.ABRAlgorithm.reset` (detected by the
        resolved method's qualname to avoid importing :mod:`repro.abr` from
        this lower layer; duck-typed policies outside the base hierarchy are
        conservatively treated as stateful).
        """
        counts: dict[int, int] = {}
        for spec in specs:
            reset = getattr(type(spec.abr), "reset", None)
            qualname = getattr(reset, "__qualname__", "")
            if qualname != "ABRAlgorithm.reset":
                counts[id(spec.abr)] = counts.get(id(spec.abr), 0) + 1
        return {abr_id for abr_id, count in counts.items() if count > 1}

    @staticmethod
    def _controller_wrapped(abr) -> bool:
        """True for LingXi-style wrappers (``.inner`` + ``.controller``)."""
        return (
            getattr(abr, "controller", None) is not None
            and getattr(abr, "inner", None) is not None
        )

    @staticmethod
    def _vectorizable(spec: SessionSpec) -> bool:
        """True when both the ABR and the exit model ship vector kernels.

        The kernel must be defined by the spec's *exact* class (``__dict__``
        lookup, not inheritance): a subclass that overrides ``select_level``
        without providing its own kernel must fall back to the scalar engine
        rather than silently run the parent's vectorized decision rule.

        LingXi-style wrappers (``.inner`` + ``.controller`` + ``observe``
        hook) are vectorizable when their *inner* algorithm ships a kernel:
        the per-segment feedback loop then runs through a
        :class:`~repro.core.vector_host.VectorControllerHost` instead of the
        scalar engine.  Other ABRs with an ``observe`` hook stay on the
        scalar path.
        """
        abr = spec.abr
        if VectorBackend._controller_wrapped(abr):
            inner = abr.inner
            if "vector_kernel" not in type(inner).__dict__:
                return False
            if getattr(inner, "observe", None) is not None:
                return False
        else:
            if "vector_kernel" not in type(abr).__dict__:
                return False
            if getattr(abr, "observe", None) is not None:
                return False
        if spec.exit_model is not None:
            if "vector_exit_kernel" not in type(spec.exit_model).__dict__:
                return False
        return True

    @classmethod
    def _build_abr_kernel(cls, specs, ladder):
        """ABR kernel + optional controller host for one cohort.

        Plain policies supply their own ``vector_kernel``; controller-wrapped
        policies (LingXi) build the kernel over their *inner* algorithms and
        attach a :class:`~repro.core.vector_host.VectorControllerHost` that
        replays the per-segment feedback loop after every lockstep step.
        Either way every spec's ABR is reset exactly like the scalar engine
        would at session start.
        """
        first = specs[0].abr
        if cls._controller_wrapped(first):
            from repro.core.vector_host import VectorControllerHost

            policies = [spec.abr.inner for spec in specs]
            host = VectorControllerHost(
                [spec.abr for spec in specs],
                ladder=ladder,
                segment_duration=float(specs[0].video.segment_duration),
            )
        else:
            policies = [spec.abr for spec in specs]
            host = None
        kernel = type(policies[0]).vector_kernel(policies)
        for spec in specs:
            spec.abr.reset()
        return kernel, host

    def _run_group(
        self, members: list[SessionSpec], indices: list[int], config: SessionConfig
    ) -> list[PlaybackTrace]:
        """Run one uncoupled cohort to completion at its trace values.

        The cohort is built here, right before it runs, so LingXi wrappers
        shared across waves are reset in the scalar engine's order.
        """
        with obs.span("vector.run_group"):
            cohort = self._build_cohort(members, indices, config)
            for j in range(cohort.max_steps):
                active = cohort.alive & (j < cohort.max_seg)
                if not active.any():
                    break
                obs_live.pulse()  # wall-clock heartbeat; no-op without a live run
                with obs.span("vector.step"):
                    self._step_cohort(cohort, j, active, cohort.bandwidth[:, j], config)
            return _cohort_traces(cohort)

    def _run_networked(
        self, specs, config: SessionConfig, network, link_usage, scalar_indices
    ) -> list[PlaybackTrace]:
        """Coupled lockstep execution: cohorts advance, links fair-share.

        The batch is partitioned into cohorts (:class:`_Cohort`: same ABR /
        exit types, ladder, segment duration and ``start_step``) that each
        stay internally lockstep; every slot gathers all cohorts' access-link
        demands into one batch-order vector, fair-shares each link through
        the same :func:`~repro.net.allocator.allocate_step` the scalar
        reference engine calls, and feeds the allocations back as the step's
        observed throughput — Equation 3, the ABR kernels' windows and the
        exit kernels all see congestion, which is what closes the feedback
        loop between load and quality.

        ``scalar_indices`` names the batch positions whose specs cannot run
        lockstep (no vector kernels, or a stateful ABR instance shared across
        concurrent sessions).  Those run as event-ordered
        :class:`~repro.sim.networked._LiveSession` reference sessions *inside
        the same slot loop*: their demands join the cohort demands in the one
        ``allocate_step`` call per slot, so coupling between the fast and
        slow cohorts still flows solely through the shared allocator and the
        combined result is identical to the all-scalar reference engine.
        """
        num_sessions = len(specs)
        link_index = resolve_link_indices(network, specs)
        weights = np.asarray([spec.weight for spec in specs], dtype=float)
        scalar_set = set(scalar_indices)
        vector_indices = [i for i in range(num_sessions) if i not in scalar_set]
        cohorts = self._build_net_groups(specs, config, vector_indices)

        # Scalar cohort: reference sessions, reset up front exactly like
        # run_networked_scalar (shared instances keep "one brain" semantics).
        scalar_order = sorted(scalar_set)  # contract: DET-ITER-003
        live: dict[int, _LiveSession] = {
            index: _LiveSession(specs[index], specs[index].seed, config)
            for index in scalar_order
        }
        for policy in {id(specs[i].abr): specs[i].abr for i in scalar_order}.values():
            policy.reset()
        for model in {
            id(specs[i].exit_model): specs[i].exit_model
            for i in scalar_order
            if specs[i].exit_model is not None
        }.values():
            model.reset()
        live_alive = {index: True for index in scalar_order}
        live_ends = {
            index: live[index].start + live[index].limit for index in scalar_order
        }

        horizon = max(
            [cohort.start + cohort.max_steps for cohort in cohorts]
            + [live_ends[index] for index in scalar_order],
        )
        demand = np.zeros(num_sessions)
        active_global = np.zeros(num_sessions, dtype=bool)

        # Multi-tier topologies: identity-keyed per-segment cache-miss masks,
        # computed exactly like the scalar reference (same ``CacheModel``
        # draws, keyed by (user_id, local segment index)).
        tiered = network.has_tiers
        full_path: np.ndarray | None = None
        live_miss: dict[int, np.ndarray] = {}
        if tiered:
            full_path = np.zeros(num_sessions, dtype=bool)
            profile_rows: dict[tuple[str, int], np.ndarray] = {}

            def _miss_row(user_id: str, length: int) -> np.ndarray:
                if network.cache is None:
                    return np.ones(length, dtype=bool)
                row = profile_rows.get((user_id, length))
                if row is None:
                    row = network.cache.miss_profile(user_id, length)
                    profile_rows[(user_id, length)] = row
                return row

            for cohort in cohorts:
                cohort.miss = np.stack(
                    [
                        _miss_row(spec.user_id, cohort.max_steps)
                        for spec in cohort.specs
                    ]
                )
            live_miss = {
                index: _miss_row(specs[index].user_id, live[index].limit)
                for index in scalar_order
            }

        for k in range(horizon):
            obs_live.pulse()  # wall-clock heartbeat; no-op without a live run
            demand[:] = 0.0
            active_global[:] = False
            if tiered:
                full_path[:] = False
            stepping: list[tuple[_Cohort, int, np.ndarray]] = []
            runnable_any = False
            for cohort in cohorts:
                j = k - cohort.start
                if j < 0:
                    # Not started: the cohort still counts as runnable (the
                    # scalar engine keeps emitting idle-slot usage samples
                    # while any future session exists), but takes no capacity.
                    runnable_any = runnable_any or bool(cohort.alive.any())
                    continue
                if j >= cohort.max_steps:
                    continue
                active = cohort.alive & (j < cohort.max_seg)
                if active.any():
                    runnable_any = True
                    stepping.append((cohort, j, active))
                    demand[cohort.indices] = np.where(
                        active, cohort.bandwidth[:, j], 0.0
                    )
                    active_global[cohort.indices] = active
                    if tiered:
                        full_path[cohort.indices] = active & cohort.miss[:, j]
            live_stepping: list[int] = []
            for index in scalar_order:
                if not live_alive[index] or k >= live_ends[index]:
                    continue
                runnable_any = True
                if live[index].start <= k:
                    live_stepping.append(index)
                    demand[index] = live[index].demand_at(k)
                    active_global[index] = True
                    if tiered:
                        full_path[index] = live_miss[index][k - live[index].start]
            if not runnable_any:
                break
            obs.counter_add("vector.net_slots")
            allocations = allocate_step(
                network,
                k,
                link_index,
                demand,
                active_global,
                weights,
                usage_out=link_usage,
                full_path=full_path,
            )
            if stepping:
                with obs.span("vector.step"):
                    for cohort, j, active in stepping:
                        self._step_cohort(
                            cohort, j, active, allocations[cohort.indices], config
                        )
            if live_stepping:
                with obs.span("networked.session_step"):
                    for index in live_stepping:
                        if not live[index].step(k, float(allocations[index])):
                            live_alive[index] = False

        results: list[PlaybackTrace | None] = [None] * num_sessions
        for index in scalar_order:
            results[index] = live[index].playback()
        for cohort in cohorts:
            for index, trace in zip(cohort.indices, _cohort_traces(cohort)):
                results[int(index)] = trace
        return results

    def _build_net_groups(
        self, specs, config: SessionConfig, vector_indices
    ) -> list[_Cohort]:
        """Partition a networked batch's lockstep sessions into cohorts."""
        grouped: dict[tuple, list[int]] = {}
        for index in vector_indices:
            spec = specs[index]
            key = (
                type(spec.abr),
                type(spec.abr.inner) if self._controller_wrapped(spec.abr) else None,
                None if spec.exit_model is None else type(spec.exit_model),
                spec.video.ladder.bitrates_kbps,
                spec.video.segment_duration,
                spec.start_step,
            )
            grouped.setdefault(key, []).append(index)
        return [
            self._build_cohort([specs[i] for i in indices], indices, config)
            for indices in grouped.values()
        ]

    def _build_cohort(
        self, members: list[SessionSpec], indices: list[int], config: SessionConfig
    ) -> _Cohort:
        """Prepare one cohort: inputs, kernels, resets and exit uniforms.

        ``indices`` are the members' batch positions.  Every member's ABR and
        exit model is reset here, exactly like the scalar engine would at
        session start.
        """
        n = len(members)
        obs.counter_add("vector.cohorts")
        obs.observe("vector.cohort_sessions", n)
        first_video = members[0].video
        bitrates = np.asarray(first_video.ladder.bitrates_kbps, dtype=float)

        max_seg = np.empty(n, dtype=int)
        for i, spec in enumerate(members):
            limit = spec.video.num_segments
            if config.max_segments is not None:
                limit = min(limit, config.max_segments)
            max_seg[i] = limit
        max_steps = int(max_seg.max())

        # Cyclic bandwidth rows and the (n, max_steps, L) segment-size tensor
        # (videos and traces repeat across sessions of the same user, so both
        # are cached by identity).
        bandwidth = np.empty((n, max_steps))
        trace_rows: dict[int, np.ndarray] = {}
        for i, spec in enumerate(members):
            row = trace_rows.get(id(spec.trace))
            if row is None:
                row = np.resize(
                    np.asarray(spec.trace.values_kbps, dtype=float), max_steps
                )
                trace_rows[id(spec.trace)] = row
            bandwidth[i] = row
        sizes = np.empty((n, max_steps, bitrates.size))
        video_rows: dict[int, np.ndarray] = {}
        step_index = np.arange(max_steps)
        for i, spec in enumerate(members):
            block = video_rows.get(id(spec.video))
            if block is None:
                block = spec.video.segment_sizes_kbit[
                    step_index % spec.video.num_segments
                ]
                video_rows[id(spec.video)] = block
            sizes[i] = block

        abr_kernel, host = self._build_abr_kernel(members, first_video.ladder)
        if members[0].exit_model is not None:
            models = [spec.exit_model for spec in members]
            exit_kernel = type(models[0]).vector_exit_kernel(models)
            for model in models:
                model.reset()
            # One Philox substream per session, pre-drawn: row i's uniforms
            # equal the sequence the scalar engine would draw step by step.
            uniforms = np.empty((n, max_steps))
            for i, spec in enumerate(members):
                uniforms[i] = session_rng(spec.seed).random(max_steps)
        else:
            exit_kernel = None
            uniforms = None

        cohort = _Cohort(
            indices=np.asarray(indices, dtype=int),
            specs=members,
            start=members[0].start_step,
            max_seg=max_seg,
            max_steps=max_steps,
            segment_duration=float(first_video.segment_duration),
            bitrates=bitrates,
            bandwidth=bandwidth,
            sizes=sizes,
            abr_kernel=abr_kernel,
            exit_kernel=exit_kernel,
            uniforms=uniforms,
            host=host,
        )
        cohort.buffer[:] = float(config.initial_buffer)
        return cohort

    @staticmethod
    def _step_cohort(
        cohort: _Cohort,
        j: int,
        active: np.ndarray,
        allocated: np.ndarray,
        config: SessionConfig,
    ) -> None:
        """Advance one cohort one local step: Equation 3 over the active rows.

        ``allocated`` is the step's throughput per row: the trace value in an
        uncoupled batch, the allocator's share in a networked one.  The
        bandwidth-window statistics read the cohort's *observed* throughput
        history (the previous steps' ``allocated``) — exactly what the scalar
        player's :class:`~repro.sim.bandwidth.BandwidthModel` accumulates.
        Only ``active`` rows are checked and advanced, and only their entries
        reach a trace; the others are masked to finite placeholders, as the
        scalar engine never asks a finished session for a decision.
        """
        n = len(cohort.specs)
        row_index = np.arange(n)
        # Rows that are done or exited must stay finite through the shared
        # array expressions; their values are never recorded.
        alloc = np.where(active, allocated, 1.0)

        # Window mean and sample std in one pass: the ufunc sequence of
        # ``BandwidthModel._window_statistics`` (that of np.mean / np.std),
        # reduced row-wise.
        window = cohort.observed[:, max(0, j - _WINDOW) : j]
        width = window.shape[1]
        if width == 0:
            mean = np.full(n, _PRIOR_MEAN)
        else:
            mean = np.add.reduce(window, axis=1) / width
        if width < 2:
            std = np.full(n, _PRIOR_STD)
        else:
            deviations = window - mean[:, None]
            variance = np.add.reduce(deviations * deviations, axis=1) / (width - 1)
            std = np.maximum(np.sqrt(variance), 1e-6)
        buffer_cap = dynamic_buffer_cap(mean, std, base_cap=config.base_buffer_cap)

        context = VectorStepContext(
            k=j,
            buffer=cohort.buffer,
            buffer_cap=buffer_cap,
            last_level=cohort.last_level,
            segment_sizes=cohort.sizes[:, j, :],
            throughput_window=window,
            bandwidth_mean=mean,
            bandwidth_std=std,
            bitrates=cohort.bitrates,
            segment_duration=cohort.segment_duration,
        )
        # Finished rows are masked to level 0 before the range check.
        levels = np.where(active, np.asarray(cohort.abr_kernel(context), dtype=int), 0)
        num_levels = cohort.bitrates.size
        if levels.min() < 0 or levels.max() >= num_levels:
            raise ValueError(
                f"vector ABR kernel returned levels outside "
                f"[0, {num_levels}) at step {j}"
            )

        size = cohort.sizes[:, j, :][row_index, levels]
        download = size / alloc
        if j == 0:
            stall = np.where(
                cohort.buffer == 0.0, 0.0, np.maximum(download - cohort.buffer, 0.0)
            )
        else:
            stall = np.maximum(download - cohort.buffer, 0.0)
        drained = np.maximum(cohort.buffer - download, 0.0)
        unclipped = drained + cohort.segment_duration
        overflow = np.maximum(unclipped - buffer_cap, 0.0)
        wait = overflow + config.rtt
        buffer_after = np.maximum(unclipped - overflow, 0.0)
        buffer_after = np.minimum(buffer_after, buffer_cap)

        stalled = stall > 1e-12
        cohort.cumulative_stall = np.where(
            active, cohort.cumulative_stall + stall, cohort.cumulative_stall
        )
        cohort.stall_count = cohort.stall_count + (active & stalled)

        if cohort.exit_kernel is not None:
            view = ExitStepView(
                k=j,
                level=levels,
                previous_level=cohort.last_level,
                stall_time=stall,
                cumulative_stall_time=cohort.cumulative_stall,
                stall_count=cohort.stall_count,
                watch_time=(j + 1) * cohort.segment_duration,
                buffer=buffer_after,
                throughput=alloc,
                active=active,
                stalled=stalled,
            )
            probabilities = np.asarray(cohort.exit_kernel(view), dtype=float)
            if np.any(
                active & ~((probabilities >= 0.0) & (probabilities <= 1.0))
            ):
                raise ValueError("exit probability must be in [0, 1]")
            exits = active & (cohort.uniforms[:, j] < probabilities)
            cohort.probability_rec[:, j] = probabilities
        else:
            exits = np.zeros(n, dtype=bool)

        cohort.level_rec[:, j] = levels
        cohort.size_rec[:, j] = size
        cohort.download_rec[:, j] = download
        cohort.stall_rec[:, j] = stall
        cohort.wait_rec[:, j] = wait
        cohort.buffer_before_rec[:, j] = cohort.buffer
        cohort.buffer_after_rec[:, j] = buffer_after
        cohort.cumulative_rec[:, j] = cohort.cumulative_stall
        cohort.stall_count_rec[:, j] = cohort.stall_count
        cohort.observed[:, j] = alloc

        if cohort.host is not None:
            cohort.host.observe_step(
                active=active,
                levels=levels,
                stall=stall,
                throughput=alloc,
                buffer_after=buffer_after,
                exits=exits,
                bitrates=cohort.bitrates,
            )

        cohort.steps_taken[active] = j + 1
        cohort.exited_early |= exits
        cohort.alive &= ~exits
        cohort.buffer = np.where(active, buffer_after, cohort.buffer)
        cohort.last_level = np.where(active, levels, cohort.last_level)


def _cohort_traces(cohort: _Cohort) -> list[PlaybackTrace]:
    """One trace per session of a finished cohort, straight from its columns.

    Writes the controller host's final state back first (checkpoints and a
    user's next wave read it).  The recorded ``(sessions, max_steps)``
    matrices supply the per-step fields; segment index, bitrate, watch time
    and the exit flag are derived here.  Each trace receives its own trimmed
    copy of every row, so no trace keeps a padded cohort matrix alive.
    """
    with obs.span("vector.traces"):
        if cohort.host is not None:
            cohort.host.finalize()
        steps_taken = cohort.steps_taken
        exited_early = cohort.exited_early
        num_sessions, max_steps = cohort.level_rec.shape
        steps = np.arange(max_steps)
        exited = np.zeros((num_sessions, max_steps), dtype=bool)
        last = np.flatnonzero(exited_early & (steps_taken > 0))
        exited[last, steps_taken[last] - 1] = True
        matrices = {
            "level": cohort.level_rec,
            "bitrate_kbps": cohort.bitrates[cohort.level_rec],
            "size_kbit": cohort.size_rec,
            "bandwidth_kbps": cohort.observed,
            "download_time": cohort.download_rec,
            "stall_time": cohort.stall_rec,
            "wait_time": cohort.wait_rec,
            "buffer_before": cohort.buffer_before_rec,
            "buffer_after": cohort.buffer_after_rec,
            "cumulative_stall_time": cohort.cumulative_rec,
            "stall_count": cohort.stall_count_rec,
            "exit_probability": cohort.probability_rec,
            "exited": exited,
        }
        shared = {
            "segment_index": steps,
            "watch_time": (steps + 1) * cohort.segment_duration,
        }
        traces = []
        for i, spec in enumerate(cohort.specs):
            n = int(steps_taken[i])
            columns = {name: row[:n].copy() for name, row in shared.items()}
            for name, matrix in matrices.items():
                columns[name] = matrix[i, :n].copy()
            traces.append(
                PlaybackTrace(
                    user_id=spec.user_id,
                    video_duration=spec.video.duration,
                    segment_duration=spec.video.segment_duration,
                    trace_name=spec.trace.name,
                    columns=columns,
                    exited_early=bool(exited_early[i]),
                )
            )
        return traces


register_backend("vector", VectorBackend)
