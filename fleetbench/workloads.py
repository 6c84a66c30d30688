"""The benchmark's workloads: inputs from a seed, the timed job, output checks.

Every workload runs on the ``vector`` backend and drives only public entry
points of ``repro`` (``FleetOrchestrator.run``, ``run_ab_campaign``,
``write_fleet_telemetry``, ``replay_log_collection``,
``replay_link_utilization``, ``fleet_metrics``, ``shared_pool`` and
``UserPopulation.generate``).  A job is everything a user waits for: the
run, the telemetry write, the replay and the aggregates read back.  Output
checks run after the job, outside its timed region.
"""

from __future__ import annotations

import filecmp
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.exit_predictor import ExitRatePredictor
from repro.fleet import (
    DriftConfig,
    FleetConfig,
    FleetOrchestrator,
    HybFleetFactory,
    LingXiFleetFactory,
    LongitudinalConfig,
    fleet_metrics,
    replay_link_utilization,
    replay_log_collection,
    run_ab_campaign,
    shared_pool,
    write_fleet_telemetry,
)
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation

STALL_BINS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
#: Videos per library.  With a handful, the seed's draw of durations moves
#: segments per session by +-13%; with 256 it moves them by about 1%.
LIBRARY_VIDEOS = 256


@dataclass
class Job:
    """What one job produced: its session count, outputs and layer figures."""

    sessions: int
    outputs: dict
    #: Per-layer figures measured from outside the program (sizes, ratios).
    layer: dict = field(default_factory=dict)


class Workload:
    """A named workload; its docstring says why the benchmark has it."""

    name: str
    pool_workers: int = 0

    def check_once(self, inputs: dict, job: Job) -> list[str]:
        """Checks that need a second, differently executed run."""
        return []


class FleetWorkload(Workload):
    """One fleet day through ``FleetOrchestrator.run`` with JSONL telemetry."""

    users: int
    sessions_per_user: int = 4
    bandwidth_median_kbps: float = 6000.0
    scenario: str = "steady_state"
    network: str | None = None
    allocator: str | None = None
    num_shards: int = 1

    def build(self, seed: int, timings: dict) -> dict:
        start = time.perf_counter()
        population = UserPopulation.generate(
            self.users, seed=seed, bandwidth_median_kbps=self.bandwidth_median_kbps
        )
        timings["users.generate"] = time.perf_counter() - start
        library = VideoLibrary(
            num_videos=LIBRARY_VIDEOS, mean_duration=40.0, std_duration=15.0, seed=seed
        )
        config = FleetConfig(
            num_shards=self.num_shards,
            num_workers=self.pool_workers,
            sessions_per_user=self.sessions_per_user,
            trace_length=100,
            seed=seed,
            backend="vector",
            network=self.network,
            allocator=self.allocator,
        )
        pool = None
        if self.pool_workers:
            start = time.perf_counter()
            pool = shared_pool(self.pool_workers)
            timings["pool.start"] = time.perf_counter() - start
        return {
            "population": population,
            "library": library,
            "config": config,
            "orchestrator": FleetOrchestrator(config, pool=pool),
        }

    def run(self, inputs: dict, tracer, workdir: Path) -> Job:
        path = workdir / "telemetry.jsonl"
        with tracer.span("fleet.run"):
            result = inputs["orchestrator"].run(
                inputs["population"],
                inputs["library"],
                scenario=self.scenario,
                telemetry_path=path,
            )
        with tracer.span("telemetry.replay"):
            replayed = replay_log_collection(path)
        links = None
        if self.network is not None:
            with tracer.span("telemetry.replay_links"):
                links = replay_link_utilization(path)
        with tracer.span("analytics.aggregate"):
            metrics = fleet_metrics(replayed)
            exit_rates = replayed.exit_rate_by_stall_time(STALL_BINS)
            if links is not None:
                links.mean_utilization()
        return Job(
            sessions=metrics.num_sessions,
            outputs={
                "result": result,
                "path": path,
                "metrics": metrics,
                "exit_rates": exit_rates,
                "links": links,
            },
            layer={
                "telemetry.bytes_per_session": path.stat().st_size
                / metrics.num_sessions,
                "fleet.shards_used": len(result.shard_outputs),
                "fleet.wall_time_s": result.wall_time_s,
                "vector.fallback_share": result.total_fallback_sessions
                / max(result.total_batch_sessions, 1),
                # Samples over capacity by rounding, inside the tolerance above.
                "allocator.over_capacity_samples": sum(
                    1 for s in result.link_usage if s.allocated_kbps > s.capacity_kbps
                ),
                "model": _model_figures(metrics),
            },
        )

    def check(self, inputs: dict, job: Job, reference: Job | None, tracer,
              workdir: Path, rewrite: bool) -> list[str]:
        """Output checks of one job; returns the failures.

        ``rewrite`` also re-runs ``write_fleet_telemetry`` on the result and
        compares the bytes; it costs up to a second, so the caller asks for
        it on the reference and traced jobs only.
        """
        failures = []
        out = job.outputs
        result = out["result"]
        live = result.metrics
        if live != out["metrics"]:
            failures.append("replayed FleetMetrics differ from the live run")
        live_rates = result.logs.exit_rate_by_stall_time(STALL_BINS)
        if not np.array_equal(live_rates, out["exit_rates"], equal_nan=True):
            failures.append("replayed exit_rate_by_stall_time differs from live")
        if self.network is not None:
            samples = result.link_usage
            if list(out["links"].samples) != samples:
                failures.append("replayed link utilization differs from live")
            for sample in samples:
                values = (sample.capacity_kbps, sample.demand_kbps, sample.allocated_kbps)
                if not all(math.isfinite(v) for v in values):
                    failures.append(f"non-finite link usage sample {sample}")
                    break
                # The allocators' feasibility tolerance (tests/test_network.py):
                # a link's allocation is a float sum of its sessions' shares.
                if sample.allocated_kbps > sample.capacity_kbps * (1 + 1e-9):
                    failures.append(f"allocated above capacity: {sample}")
                    break
        if rewrite:
            path = workdir / "rewrite.jsonl"
            with tracer.span("telemetry.write"):
                write_fleet_telemetry(result, path)
            if not filecmp.cmp(out["path"], path, shallow=False):
                failures.append("rewritten telemetry is not byte-identical")
        if reference is not None and live != reference.outputs["result"].metrics:
            failures.append("FleetMetrics do not repeat for the same seed")
        return failures


class FleetDay(FleetWorkload):
    """The measured pain point: 1000 users x 4 uncoupled sessions, 2 shards
    on 2 pooled workers.  Trace assembly, worker-side telemetry encode, pool
    transfer and replay dominate; the controller and the allocator are idle.
    """

    name = "fleet_day"
    users = 1000
    num_shards = 2
    pool_workers = 2

    def check_once(self, inputs: dict, job: Job) -> list[str]:
        inline = FleetOrchestrator(replace(inputs["config"], num_workers=0)).run(
            inputs["population"], inputs["library"], scenario=self.scenario
        )
        if inline.metrics != job.outputs["result"].metrics:
            return ["pooled FleetMetrics differ from the inline run"]
        return []


class CdnStorm(FleetWorkload):
    """``cache_storm`` on ``cdn_3tier`` with the Low-Lapsley allocator.

    The tiered allocator dominates, and telemetry is encoded in the parent:
    the same telemetry layer used differently from ``fleet_day``.  Inline,
    because ``cdn_3tier`` is one connected component, so only one shard
    would ever be non-empty.
    """

    name = "cdn_storm"
    users = 600
    scenario = "cache_storm"
    network = "cdn_3tier"
    allocator = "low_lapsley"


class LingxiAB(Workload):
    """The paper's system: ``run_ab_campaign`` of LingXi against HYB.

    400 users at a 3 Mbps median, 3 days, 2 sessions per user, influx 8,
    inline, checkpoints on.  The per-user Monte-Carlo / Bayesian-optimisation
    control plane and the cross-day persistence dominate; telemetry, the
    pool and the allocator are idle.
    """

    name = "lingxi_ab"

    def build(self, seed: int, timings: dict) -> dict:
        start = time.perf_counter()
        population = UserPopulation.generate(
            400, seed=seed, bandwidth_median_kbps=3000.0
        )
        timings["users.generate"] = time.perf_counter() - start
        library = VideoLibrary(
            num_videos=LIBRARY_VIDEOS, mean_duration=45.0, std_duration=15.0, seed=seed
        )
        arms = {
            "lingxi": LingXiFleetFactory(ExitRatePredictor(channels=8, hidden=16, seed=0)),
            "hyb": HybFleetFactory(),
        }
        config = LongitudinalConfig(
            days=3,
            seed=seed,
            num_shards=1,
            num_workers=0,
            sessions_per_user=2,
            trace_length=60,
            backend="vector",
            drift=DriftConfig(influx_per_day=8),
        )
        return {"population": population, "library": library, "arms": arms,
                "config": config}

    def run(self, inputs: dict, tracer, workdir: Path) -> Job:
        checkpoints = workdir / "checkpoints"
        shutil.rmtree(checkpoints, ignore_errors=True)
        with tracer.span("campaign.run"):
            ab = run_ab_campaign(
                inputs["population"],
                inputs["library"],
                inputs["arms"],
                inputs["config"],
                checkpoint_root=checkpoints,
            )
        with tracer.span("analytics.aggregate"):
            per_arm = {name: fleet_metrics(arm.all_logs()) for name, arm in ab.arms.items()}
        days = [day.result for arm in ab.arms.values() for day in arm.days]
        sessions = sum(metrics.num_sessions for metrics in per_arm.values())
        lingxi, hyb = per_arm["lingxi"], per_arm["hyb"]
        return Job(
            sessions=sessions,
            outputs={
                "per_arm": per_arm,
                "dau": {name: arm.dau_series for name, arm in ab.arms.items()},
            },
            layer={
                "checkpoint.bytes": sum(
                    p.stat().st_size for p in checkpoints.rglob("*") if p.is_file()
                ),
                "fleet.shards_used": max(len(day.shard_outputs) for day in days),
                "fleet.wall_time_s": sum(day.wall_time_s for day in days),
                "vector.fallback_share": sum(d.total_fallback_sessions for d in days)
                / max(sum(d.total_batch_sessions for d in days), 1),
                "controller.obo_trials": sum(
                    len(state.get("obo_trials", []))
                    for state in ab.arms["lingxi"].controller_states.values()
                ),
                # The model figures describe the treatment arm.
                "model": {
                    **_model_figures(lingxi),
                    "model.lingxi_stall_delta": _stall_per_session(lingxi)
                    - _stall_per_session(hyb),
                },
            },
        )

    def check(self, inputs: dict, job: Job, reference: Job | None, tracer,
              workdir: Path, rewrite: bool) -> list[str]:
        """Output checks of one job; the campaign writes no telemetry."""
        failures = []
        if job.layer["controller.obo_trials"] <= 0:
            failures.append("LingXi controllers recorded no OBO trials")
        if reference is not None:
            if job.outputs["dau"] != reference.outputs["dau"]:
                failures.append("DAU series do not repeat for the same seed")
            if job.outputs["per_arm"] != reference.outputs["per_arm"]:
                failures.append("per-arm FleetMetrics do not repeat for the same seed")
        return failures


def _stall_per_session(metrics) -> float:
    return metrics.total_stall_time_s / metrics.num_sessions


def _model_figures(metrics) -> dict:
    return {
        "model.session_exit_rate": metrics.session_exit_rate,
        "model.mean_bitrate_kbps": metrics.mean_bitrate_kbps,
        "model.stall_s_per_session": _stall_per_session(metrics),
        "model.lingxi_stall_delta": 0.0,
    }


WORKLOADS = {w.name: w for w in (FleetDay(), LingxiAB(), CdnStorm())}
