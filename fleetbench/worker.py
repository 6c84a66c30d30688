"""One fresh interpreter of the benchmark: set up a workload, then measure it.

``python3 worker.py setup --workload W --seed N`` imports ``repro``, builds
the workload's inputs, starts its pool, prints the set-up timings as one JSON
line and exits.  ``measure`` does the same set-up and then runs jobs: one
warm-up job that also serves as the reference output, then timed jobs until
``--seconds`` have passed.  With ``--trace 1`` untraced and traced jobs
alternate; traced jobs record the benchmark's spans and enable ``repro.obs``.
The last stdout line is a JSON record that ``run.py`` turns into metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path

from tracer import Tracer

#: Jobs measured at least, even when one job outlasts ``--seconds``.
MIN_TIMED_JOBS = 3

#: Program spans (``repro.obs``) copied into the per-layer table as totals.
OBS_SPANS = {
    "shard.build_specs_s": "shard.build_specs",
    "shard.run_batch_s": "shard.run_batch",
    "vector.run_group_s": "vector.run_group",
    "vector.step_s": "vector.step",
    "pool.dispatch_s": "pool.dispatch",
    "allocator.s": "allocator.water_fill",
    "mc.evaluate_s": "mc.evaluate_requests",
    "nn.forward_s": "nn.forward",
    "campaign.day_s": "campaign.day",
    "campaign.checkpoint_s": "campaign.checkpoint",
    "campaign.summarize_s": "campaign.summarize",
}
#: Program counters copied by name.
OBS_COUNTERS = (
    "pool.shm_result_bytes",
    "pool.shm_telemetry_bytes",
    "allocator.slots",
    "mc.rollout_requests",
    "nn.forwards",
)
#: Benchmark spans whose self time is a per-layer metric.
BENCH_SPANS = {
    "telemetry.write_s": "telemetry.write",
    "telemetry.replay_s": "telemetry.replay",
    "telemetry.replay_links_s": "telemetry.replay_links",
    "analytics.aggregate_s": "analytics.aggregate",
    "job.self_s": "job",
}


def setup(workload_name: str, seed: int) -> tuple[object, dict, dict]:
    """Import the program, build the inputs and start the pool, timed."""
    start = time.perf_counter()
    from workloads import WORKLOADS

    import_s = time.perf_counter() - start
    workload = WORKLOADS[workload_name]
    timings: dict = {}
    inputs = workload.build(seed, timings)
    setup_s = time.perf_counter() - start
    return workload, inputs, {
        "setup_s": setup_s,
        "import.s": import_s,
        "users.generate_s": timings["users.generate"],
        "pool.start_s": timings.get("pool.start", 0.0),
    }


def _span_totals(node: dict, totals: dict) -> dict:
    totals[node["name"]] = totals.get(node["name"], 0.0) + node["total_s"]
    for child in node.get("children", []):
        _span_totals(child, totals)
    return totals


def layer_metrics(job, job_s: float, tracer: Tracer, snapshot: dict,
                  runtime_warnings: int) -> dict:
    """The per-layer figures of one traced job."""
    spans = _span_totals(snapshot["spans"], {})
    counters = snapshot["metrics"]["counters"]
    self_times = tracer.self_times(tracer.run_id)
    if min(self_times.values()) < 0:
        raise RuntimeError(f"negative self time in {self_times}")
    run_s = self_times.get("fleet.run", self_times.get("campaign.run"))
    layer = {name: spans.get(span, 0.0) for name, span in OBS_SPANS.items()}
    layer.update({name: counters.get(name, 0) for name in OBS_COUNTERS})
    layer.update({name: self_times.get(s, 0.0) for name, s in BENCH_SPANS.items()})
    links = counters.get("allocator.links", 0)
    forwards = counters.get("nn.forwards", 0)
    layer.update({
        "fleet.run_s": run_s,
        "fleet.reported_wall_share": job.layer["fleet.wall_time_s"] / run_s,
        "fleet.shards_used": job.layer["fleet.shards_used"],
        "vector.fallback_share": job.layer["vector.fallback_share"],
        "telemetry.bytes_per_session": job.layer.get("telemetry.bytes_per_session", 0.0),
        "allocator.congested_link_share":
            counters.get("allocator.congested_links", 0) / links if links else 0.0,
        "nn.rows_per_forward": counters.get("nn.rows", 0) / forwards if forwards else 0.0,
        "controller.obo_trials": job.layer.get("controller.obo_trials", 0),
        "checkpoint.bytes": job.layer.get("checkpoint.bytes", 0),
        "allocator.over_capacity_samples": job.layer.get("allocator.over_capacity_samples", 0),
        "numpy.runtime_warnings": runtime_warnings,
        "traced_job_s": job_s,
        **job.layer["model"],
    })
    return layer


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live pool workers.

    The sum of each process's own peak (``VmHWM``); pages a worker shares
    with the parent since the fork count in both.
    """
    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _stop_resource_tracker() -> None:
    """Stop and reap the resource tracker the pool started.

    It would otherwise exit on its own only after this process has, unwaited.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def host_block() -> dict:
    import platform

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def measure(args, workload, inputs, setup_record: dict) -> dict:
    from repro import obs
    from repro.fleet import shutdown_shared_pools

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(enabled=bool(args.trace))
    untraced = Tracer(enabled=False)
    deadline = time.perf_counter() + args.budget
    record: dict = {"setup": setup_record, "jobs": [], "failures": []}

    def one_job(index: int, traced: bool, reference):
        """Run and check one job; returns it, or ``None`` when it failed."""
        tracer.run_id = f"{args.workload}-{args.seed}-job{index}"
        spans = tracer if traced else untraced
        entry = {"index": index, "traced": traced}
        record["jobs"].append(entry)
        try:
            if traced:
                obs.enable()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                start = time.perf_counter()
                with spans.span("job"):
                    job = workload.run(inputs, spans, workdir)
                job_s = time.perf_counter() - start
            collector = obs.disable()
            runtime_warnings = sum(
                1 for w in caught if issubclass(w.category, RuntimeWarning)
            )
            failures = workload.check(
                inputs, job, reference, spans, workdir,
                rewrite=traced or reference is None,
            )
            entry.update(job_s=job_s, sessions=job.sessions,
                         runtime_warnings=runtime_warnings)
            if traced:
                entry["layer"] = layer_metrics(
                    job, job_s, tracer, collector.snapshot(), runtime_warnings
                )
        except Exception:
            obs.disable()
            failures = [traceback.format_exc()]
        entry["failures"] = failures
        record["failures"].extend(failures)
        return None if failures else job

    reference = one_job(0, False, None)
    if reference is not None:
        failures = workload.check_once(inputs, reference)
        record["failures"].extend(failures)
        record["jobs"][0]["failures"].extend(failures)
    loop_start = time.perf_counter()
    index = 1
    while True:
        now = time.perf_counter()
        timed = index - 1
        if now >= deadline:
            break
        if now - loop_start >= args.seconds and timed >= MIN_TIMED_JOBS * (1 + args.trace):
            break
        traced = bool(args.trace) and index % 2 == 0
        one_job(index, traced, reference)
        index += 1

    record["peak_rss_mb"] = peak_rss_mb()
    shutdown_shared_pools()
    _stop_resource_tracker()
    record["host"] = host_block()
    trace_file = Path(args.trace_file)
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps(
        {"host": record["host"], "spans": tracer.as_payload(), "jobs": record["jobs"]},
        indent=1,
    ))
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=float, default=120.0,
                        help="hard limit on the measuring loop, in seconds")
    parser.add_argument("--workdir", default="fleetbench/out/work")
    parser.add_argument("--trace-file", default="fleetbench/out/trace.json")
    args = parser.parse_args()

    workload, inputs, setup_record = setup(args.workload, args.seed)
    if args.role == "setup":
        from repro.fleet import shutdown_shared_pools

        shutdown_shared_pools()
        _stop_resource_tracker()
        print(json.dumps({"setup": setup_record}))
        return
    print(json.dumps(measure(args, workload, inputs, setup_record)))


if __name__ == "__main__":
    sys.exit(main())
