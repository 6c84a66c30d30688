"""Fleet benchmark: one workload, its end-to-end or per-layer metrics.

Run from the repository root::

    python3 fleetbench/run.py --workload fleet_day --seed 1 --seconds 20 --trace 0

Workloads (defined, with the reason each was chosen, in ``workloads.py``):

* ``fleet_day`` — 1000 users x 4 sessions, ``steady_state``, 2 shards on 2
  pooled workers, JSONL telemetry written and replayed.
* ``lingxi_ab`` — ``run_ab_campaign`` of LingXi against HYB: 400 users,
  3 days, 2 sessions per user, influx 8, inline, checkpoints on.
* ``cdn_storm`` — 600 users x 4 sessions, ``cdn_3tier`` + ``cache_storm``
  with the Low-Lapsley allocator, inline, telemetry written, both replays.

Every job runs on the ``vector`` backend.  Set-up (``setup_s``) is timed in
fresh interpreters: import, input generation and pool start, median over
``SETUP_SAMPLES`` probes and the measuring interpreter.  That one runs a
warm-up job (the reference output for the checks) and timed jobs
for ``--seconds``; ``sessions_per_s`` is the median over the timed jobs of
sessions / job seconds, where a job is the run, the telemetry write, the
replay and the aggregates read back.  Output checks run between jobs, outside
the timed region; ``failed`` counts jobs that raised or failed a check.

With ``--trace 1`` untraced and traced jobs alternate; the per-layer table
comes from the traced ones (medians), and ``obs.overhead_share`` compares
the two kinds.  Spans are written to ``fleetbench/out/``.

Metric names and units come from ``BENCHMARK.json``.  The last stdout
line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table with a host block.  A missing program (no ``src/repro``)
exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh interpreters timed for ``setup_s``; the measuring one is one more.
SETUP_SAMPLES = 2
#: Hard limit on one run (set-up probes plus measuring), in seconds.
RUN_LIMIT_S = 170.0


def _worker(role: str, args, timeout: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter; returns its JSON record."""
    command = [
        sys.executable, str(HERE / "worker.py"), role,
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if role == "measure":
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        command += [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--budget", str(max(timeout - 25.0, 1.0)),
            "--workdir", str(HERE / "out" / f"work-{tag}-{os.getpid()}"),
            "--trace-file", str(HERE / "out" / f"trace-{tag}.json"),
        ]
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    completed = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{role} of {args.workload} failed ({completed.returncode})")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    setups = [_worker("setup", args, 60.0)["setup"] for _ in range(SETUP_SAMPLES)]
    record = _worker("measure", args, RUN_LIMIT_S - (time.monotonic() - started))
    setups.append(record["setup"])

    jobs = record["jobs"]
    # Jobs that completed count for timing even when a check failed them:
    # ``failed`` and ``correct`` report that.
    timed = [job for job in jobs[1:] if not job["traced"] and "job_s" in job]
    attempted = len(jobs)
    failed = sum(1 for job in jobs if job["failures"])
    if not timed:
        print("\n".join(record["failures"]), file=sys.stderr)
        return 1
    setup_median = {key: statistics.median([s[key] for s in setups]) for key in setups[0]}

    if args.trace:
        traced = [job for job in jobs if job["traced"] and "layer" in job]
        if not traced:
            print("\n".join(record["failures"]), file=sys.stderr)
            return 1
        layer = {
            key: statistics.median([job["layer"][key] for job in traced])
            for key in traced[0]["layer"]
        }
        untraced_s = statistics.median([job["job_s"] for job in timed])
        layer.update(
            {key: setup_median[key] for key in ("import.s", "users.generate_s", "pool.start_s")}
        )
        layer["obs.overhead_share"] = layer.pop("traced_job_s") / untraced_s - 1.0
        layer["failed_op_share"] = failed / attempted
        values, listed = layer, spec["per_layer"]
    else:
        values = {
            "sessions_per_s": statistics.median([job["sessions"] / job["job_s"] for job in timed]),
            "peak_rss_mb": record["peak_rss_mb"],
            "setup_s": setup_median["setup_s"],
        }
        listed = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {attempted} ({len(timed)} timed untraced)")
    print("host " + json.dumps(record["host"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        print(f"  {'failed_op_share':<32} {failed / attempted:>16.6g} ratio "
              f"({failed} of {attempted} jobs)")
    for failure in record["failures"]:
        print("FAILED: " + failure.strip().replace("\n", "\n  "))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
