"""Performance guard: compare fresh ``BENCH_*.json`` files against baselines.

CI runs the benchmark smokes with ``BENCH_OUTPUT_DIR=bench-results`` and then
invokes this guard to compare every throughput figure against the committed
documents in ``benchmarks/baselines/``::

    python benchmarks/perf_guard.py --current bench-results \
        --baseline benchmarks/baselines --threshold 0.30

Rows are matched by their *identity fields* (str/int/bool values such as
``workload``/``sessions``/``users``), and every *throughput field* — a name
ending in ``_per_second``, ``_sps`` or ``_per_s``, or exactly ``speedup`` —
must stay within ``threshold`` of the baseline (higher is better; the guard
only fails on regressions, never on improvements).  Rows or files present on
only one side are reported but never fail the guard, so new benchmarks can
land before their baselines do.  A *baseline* row that no current row
matches is printed as a ``WARN`` line: its throughput went unchecked,
typically because an identity field (e.g. ``segments``) changed and the
baseline needs regenerating.

The guard also enforces a *scaling-efficiency* rule on the fresh fleet
throughput documents (disable with ``--no-scaling-check``): the warm-pool
4-shard run must not be slower than the warm-pool 1-shard run.  If
multiprocess dispatch has any headroom at all, four workers must at least
break even against the inline path; a 4-shard run that loses to 1 shard
means the pool is re-paying a per-run cost it was built to amortise.  The
rule is strict only when the *measuring* host has 4+ cores (recorded in the
document's ``host.cpu_count``) — on smaller hosts four workers time-slice
one core and the comparison is noise, so it degrades to a note.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: A field is a throughput measurement when its name has one of these shapes.
_THROUGHPUT_SUFFIXES = ("_per_second", "_sps", "_per_s")
_THROUGHPUT_EXACT = frozenset({"speedup"})


def is_throughput_field(name: str) -> bool:
    return name in _THROUGHPUT_EXACT or name.endswith(_THROUGHPUT_SUFFIXES)


def row_identity(row: dict) -> tuple:
    """Hashable identity of a row: its non-measurement fields, sorted.

    Strings, ints and bools identify *what* was measured (workload name,
    session count, shard count); floats are the measurements themselves.
    """
    return tuple(
        (key, value)
        for key, value in sorted(row.items())
        if isinstance(value, (str, bool)) or (
            isinstance(value, int) and not is_throughput_field(key)
        )
    )


def iter_row_groups(results) -> list[tuple[str, list[dict]]]:
    """Normalise a document's ``results`` into named row-list groups.

    Benchmarks emit either a flat list of row dicts or a mapping of group
    name -> row list (e.g. ``network_throughput``'s ``overhead`` and
    ``congestion`` tables).  Anything else contributes no comparable rows.
    """
    if isinstance(results, list):
        rows = [row for row in results if isinstance(row, dict)]
        return [("", rows)] if rows else []
    if isinstance(results, dict):
        groups = []
        for name in sorted(results):
            value = results[name]
            if isinstance(value, list):
                rows = [row for row in value if isinstance(row, dict)]
                if rows:
                    groups.append((name, rows))
        return groups
    return []


def _group_label(bench: str, group_name: str) -> str:
    return f"{bench}/{group_name}" if group_name else bench


def _row_label(identity: tuple) -> str:
    return " ".join(f"{k}={v}" for k, v in identity) or "<row>"


def compare_documents(
    bench: str, current: dict, baseline: dict, threshold: float
) -> tuple[list[str], list[str], list[str]]:
    """Compare one benchmark document pair.

    Returns ``(failures, notes, warnings)`` — human-readable lines; any
    failure line means a throughput field regressed past the threshold, and
    each warning names a baseline row that no current row matched.
    """
    failures: list[str] = []
    notes: list[str] = []
    matched: set[tuple[str, tuple]] = set()
    baseline_groups = dict(iter_row_groups(baseline.get("results")))
    for group_name, current_rows in iter_row_groups(current.get("results")):
        baseline_rows = baseline_groups.get(group_name)
        if baseline_rows is None:
            notes.append(f"{bench}: group {group_name!r} has no baseline; skipped")
            continue
        baseline_by_id = {row_identity(row): row for row in baseline_rows}
        label = _group_label(bench, group_name)
        for row in current_rows:
            identity = row_identity(row)
            base_row = baseline_by_id.get(identity)
            row_label = _row_label(identity)
            if base_row is None:
                notes.append(f"{label}: no baseline row for ({row_label}); skipped")
                continue
            matched.add((group_name, identity))
            for field in sorted(row):
                if not is_throughput_field(field):
                    continue
                if field not in base_row:
                    continue
                base_value = float(base_row[field])
                value = float(row[field])
                if base_value <= 0.0:
                    continue
                floor = base_value * (1.0 - threshold)
                delta = (value - base_value) / base_value
                line = (
                    f"{label} ({row_label}) {field}: "
                    f"{value:.2f} vs baseline {base_value:.2f} ({delta:+.1%})"
                )
                if value < floor:
                    failures.append(line + f" — below -{threshold:.0%} floor")
                else:
                    notes.append(line)
    warnings = [
        f"{_group_label(bench, group_name)}: baseline row "
        f"({_row_label(identity)}) matched no current row; not compared"
        for group_name, rows in baseline_groups.items()
        for identity in map(row_identity, rows)
        if (group_name, identity) not in matched
    ]
    return failures, notes, warnings


def _warm_sessions_per_second(document: dict) -> float | None:
    """The warm-mode ``sessions_per_second`` of a fleet throughput document."""
    for _, rows in iter_row_groups(document.get("results")):
        for row in rows:
            if row.get("mode") == "warm" and "sessions_per_second" in row:
                return float(row["sessions_per_second"])
    return None


def check_scaling(current_dir: Path) -> tuple[list[str], list[str]]:
    """Scaling-efficiency rule: warm 4-shard must not lose to warm 1-shard.

    Returns ``(failures, notes)``.  The comparison is strict only when the
    measuring host recorded 4+ cores; on smaller hosts (or when either
    document/row is missing) it reports a note instead.
    """
    documents = {}
    for shards in (1, 4):
        path = current_dir / f"BENCH_fleet_throughput_{shards}shard.json"
        if not path.is_file():
            return [], [f"scaling: {path.name} not measured; skipped"]
        documents[shards] = json.loads(path.read_text())
    single = _warm_sessions_per_second(documents[1])
    pooled = _warm_sessions_per_second(documents[4])
    if single is None or pooled is None:
        return [], ["scaling: no warm rows in fleet throughput documents; skipped"]
    cpu_count = documents[4].get("host", {}).get("cpu_count") or 0
    line = (
        f"scaling: warm 4-shard {pooled:.2f} sessions/s vs "
        f"warm 1-shard {single:.2f} sessions/s "
        f"({pooled / single:.2f}x, host cpu_count={cpu_count})"
    )
    if pooled >= single:
        return [], [line]
    if cpu_count < 4:
        return [], [line + " — host has <4 cores, not enforced"]
    return [line + " — pooled dispatch slower than inline"], []


def run_guard(
    current_dir: Path,
    baseline_dir: Path,
    threshold: float,
    verbose: bool = True,
    scaling: bool = True,
) -> int:
    """Compare every BENCH_*.json pair; returns the number of regressions."""
    baseline_files = {p.name: p for p in sorted(baseline_dir.glob("BENCH_*.json"))}
    current_files = {p.name: p for p in sorted(current_dir.glob("BENCH_*.json"))}
    if not current_files:
        print(f"perf-guard: no BENCH_*.json files in {current_dir}", file=sys.stderr)
        return 1

    all_failures: list[str] = []
    compared = 0
    for name, path in current_files.items():
        baseline_path = baseline_files.get(name)
        if baseline_path is None:
            if verbose:
                print(f"perf-guard: {name} has no committed baseline; skipped")
            continue
        current = json.loads(path.read_text())
        baseline = json.loads(baseline_path.read_text())
        failures, notes, warnings = compare_documents(
            current.get("bench", name), current, baseline, threshold
        )
        compared += 1
        if verbose:
            for note in notes:
                print(f"  ok   {note}")
        for warning in warnings:
            print(f"  WARN {warning}", file=sys.stderr)
        for failure in failures:
            print(f"  FAIL {failure}", file=sys.stderr)
        all_failures.extend(failures)

    if scaling:
        failures, notes = check_scaling(current_dir)
        if verbose:
            for note in notes:
                print(f"  ok   {note}")
        for failure in failures:
            print(f"  FAIL {failure}", file=sys.stderr)
        all_failures.extend(failures)

    print(
        f"perf-guard: {compared} benchmark(s) compared, "
        f"{len(all_failures)} regression(s) beyond -{threshold:.0%}"
    )
    return len(all_failures)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--current",
        type=Path,
        default=Path("bench-results"),
        help="directory holding the freshly measured BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/baselines"),
        help="directory holding the committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="allowed fractional throughput regression (default: 0.30)",
    )
    parser.add_argument("--quiet", action="store_true", help="only print failures")
    parser.add_argument(
        "--no-scaling-check",
        action="store_true",
        help="skip the warm 4-shard vs 1-shard scaling-efficiency rule",
    )
    args = parser.parse_args(argv)
    regressions = run_guard(
        args.current,
        args.baseline,
        args.threshold,
        verbose=not args.quiet,
        scaling=not args.no_scaling_check,
    )
    if regressions:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
