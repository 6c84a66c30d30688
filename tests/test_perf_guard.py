"""``benchmarks/perf_guard.py``: row matching, regressions and stale baselines."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perf_guard.py"
_SPEC = importlib.util.spec_from_file_location("perf_guard", _PATH)
perf_guard = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_guard)

BASELINE = {
    "results": [
        {"mode": "cold", "segments": 9253, "sessions_per_second": 1000.0},
        {"mode": "warm", "segments": 9685, "sessions_per_second": 1000.0},
    ]
}


def test_regression_fails_and_unmatched_baseline_row_warns():
    current = {"results": [{"mode": "warm", "segments": 9685, "sessions_per_second": 600.0}]}
    failures, _, warnings = perf_guard.compare_documents("fleet", current, BASELINE, 0.30)
    assert len(failures) == 1 and "mode=warm" in failures[0]
    assert warnings == [
        "fleet: baseline row (mode=cold segments=9253) matched no current row; "
        "not compared"
    ]


def test_stale_baseline_rows_warn_without_failing(tmp_path, capsys):
    current_dir, baseline_dir = tmp_path / "current", tmp_path / "baseline"
    current_dir.mkdir()
    baseline_dir.mkdir()
    (baseline_dir / "BENCH_fleet.json").write_text(json.dumps(BASELINE))
    current = {
        "bench": "fleet",
        "results": [{"mode": "warm", "segments": 9685, "sessions_per_second": 990.0}],
    }
    (current_dir / "BENCH_fleet.json").write_text(json.dumps(current))
    regressions = perf_guard.run_guard(current_dir, baseline_dir, 0.30, scaling=False)
    assert regressions == 0
    assert "WARN fleet: baseline row (mode=cold segments=9253)" in capsys.readouterr().err
