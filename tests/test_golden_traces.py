"""Golden-trace regression corpus: absolute pins on the simulation output.

The equivalence gates (``test_vector_backend.py``, ``test_network.py``) prove
scalar == vector, but both could drift *together* and no test would notice.
This suite pins the engines to committed segment-for-segment traces under
``tests/data/golden/`` — one JSON document per (ABR × networked) case, each
generated from fixed seeds and replayed **bit-exact** on both backends.  Any
change to a single float anywhere in a trace (one ulp is enough) fails the
corresponding case loudly.  The ``lingxi_hyb`` case also pins the LingXi
control plane: every controller's activation history and its online
Bayesian-optimization trials are part of the document.

Intentional changes regenerate the corpus::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --regen-golden

(the scalar run rewrites each file; the vector run immediately re-verifies
it), and the resulting ``tests/data/golden/`` diff is reviewed like code.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.abr.bba import BBA
from repro.abr.bola import BOLA
from repro.abr.hyb import HYB
from repro.abr.robust_mpc import RobustMPC
from repro.abr.throughput import ThroughputRule
from repro.core.exit_predictor import ExitRatePredictor
from repro.fleet import LingXiFleetFactory
from repro.net import CacheModel, EdgeLink, NetworkTopology
from repro.sim import SessionSpec, get_backend, spawn_session_seeds
from repro.sim.bandwidth import (
    LowBandwidthTraceGenerator,
    MarkovTraceGenerator,
    StationaryTraceGenerator,
)
from repro.sim.session import SessionConfig
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

_ABR_FACTORIES = {
    "throughput": ThroughputRule,
    "hyb": HYB,
    "bba": BBA,
    "bola": BOLA,
    "robust_mpc": RobustMPC,
}

#: ABRs built once per session (stateful controllers must not be shared).
_SESSION_ABR_FACTORIES = {
    "lingxi_hyb": LingXiFleetFactory(ExitRatePredictor(channels=8, hidden=16, seed=0)),
}

_TRACE_GENERATORS = {
    "throughput": StationaryTraceGenerator(1800.0, 500.0),
    "lingxi_hyb": LowBandwidthTraceGenerator(),
    "hyb": MarkovTraceGenerator(),
    "bba": StationaryTraceGenerator(2600.0, 700.0),
    "bola": LowBandwidthTraceGenerator(),
    "robust_mpc": MarkovTraceGenerator(),
}


def _toy_topology() -> NetworkTopology:
    return NetworkTopology(
        name="golden_toy",
        links=(
            EdgeLink("east", 9_000.0, user_share=0.6),
            EdgeLink("west", 14_000.0, user_share=0.4),
        ),
    )


def _tiered_topology(allocator: str) -> NetworkTopology:
    """3-tier golden topology: two edges → shared peering → shared origin."""
    return NetworkTopology(
        name="golden_3tier",
        cache=CacheModel(hit_ratio=0.6),
        allocator=allocator,
        links=(
            EdgeLink("east", 9_000.0, user_share=0.6, uplinks=("peer", "origin")),
            EdgeLink("west", 14_000.0, user_share=0.4, uplinks=("peer", "origin")),
            EdgeLink("peer", 12_000.0, tier="peering"),
            EdgeLink("origin", 8_000.0, tier="origin"),
        ),
    )


def _case_topology(networked: bool | str) -> NetworkTopology | None:
    """``networked`` is False, True (flat toy), or an allocator name (tiered)."""
    if not networked:
        return None
    if networked is True:
        return _toy_topology()
    return _tiered_topology(networked)


def _batch(abr_name: str, seed: int, networked: bool | str) -> list[SessionSpec]:
    """Fixed-seed heterogeneous batch for one golden case."""
    import numpy as np

    rng = np.random.default_rng(seed)
    population = UserPopulation.generate(
        6, seed=seed + 1, bandwidth_median_kbps=2500.0
    )
    library = VideoLibrary(num_videos=4, mean_duration=32.0, std_duration=10.0, seed=3)
    generator = _TRACE_GENERATORS[abr_name]
    seeds = spawn_session_seeds(seed, len(population))
    if abr_name in _SESSION_ABR_FACTORIES:
        factory = _SESSION_ABR_FACTORIES[abr_name]
        abrs = [factory(profile, seed + i) for i, profile in enumerate(population)]
    else:
        abrs = [_ABR_FACTORIES[abr_name]()] * len(population)
    topology = _case_topology(networked)
    return [
        SessionSpec(
            abr=abrs[i],
            video=library[i % 4],
            trace=generator.generate(50, rng),
            exit_model=profile.exit_model(),
            seed=seeds[i],
            user_id=profile.user_id,
            link=topology.link_for(profile.user_id).link_id if networked else None,
            start_step=(i * 3) % 12 if networked else 0,
        )
        for i, profile in enumerate(population)
    ]


#: The committed corpus: case name → (ABR, seed, networked).  ``networked``
#: is False (no network), True (flat toy topology), or an allocator name
#: (3-tier topology with CDN caching, allocated by that engine).
GOLDEN_CASES: dict[str, tuple[str, int, bool | str]] = {
    "throughput": ("throughput", 101, False),
    "hyb": ("hyb", 102, False),
    "bba": ("bba", 103, False),
    "bola": ("bola", 104, False),
    "robust_mpc": ("robust_mpc", 105, False),
    "hyb_networked": ("hyb", 106, True),
    "bola_networked": ("bola", 107, True),
    "bba_tiered": ("bba", 108, "max_min_fair"),
    "throughput_tiered_ll": ("throughput", 109, "low_lapsley"),
    # Seed chosen so that three controllers activate and one activates twice
    # (the second round warm-starts from decayed trials).
    "lingxi_hyb": ("lingxi_hyb", 129, False),
}


def _controller_payload(abr) -> dict:
    """A LingXi controller's activations and OBO trials, JSON-ready."""
    controller = abr.controller
    return {
        "history": [
            {
                "activation_index": event.activation_index,
                "trigger_stall_count": event.trigger_stall_count,
                "predicted_exit_rate": event.predicted_exit_rate,
                "beta": event.chosen_parameters.beta,
                "candidates_evaluated": event.candidates_evaluated,
            }
            for event in controller.history
        ],
        "obo_trials": [
            {"x": list(trial.x), "value": trial.value}
            for trial in controller.obo.history
        ],
    }


def _run_case(case: str, backend_name: str) -> dict:
    """Execute one case on one backend and serialise the full output."""
    abr_name, seed, networked = GOLDEN_CASES[case]
    specs = _batch(abr_name, seed, networked)
    backend = get_backend(backend_name)
    link_usage: list = []
    traces = backend.run_batch(
        specs,
        SessionConfig(),
        network=_case_topology(networked),
        link_usage=link_usage if networked else None,
    )
    document = {
        "case": case,
        "abr": abr_name,
        "seed": seed,
        "networked": networked,
        "sessions": [
            {
                "user_id": trace.user_id,
                "video_duration": trace.video_duration,
                "segment_duration": trace.segment_duration,
                "trace_name": trace.trace_name,
                "exited_early": trace.exited_early,
                "records": [asdict(record) for record in trace.records],
            }
            for trace in traces
        ],
        "link_usage": [sample.as_payload() for sample in link_usage],
    }
    if abr_name in _SESSION_ABR_FACTORIES:
        document["controllers"] = [_controller_payload(spec.abr) for spec in specs]
    return document


def _roundtrip(document: dict) -> dict:
    """JSON write→read roundtrip (exact for binary64 floats)."""
    return json.loads(json.dumps(document, sort_keys=True))


@pytest.mark.parametrize("backend_name", ["scalar", "vector"])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_trace_replays_bit_exact(case, backend_name, regen_golden):
    path = GOLDEN_DIR / f"{case}.json"
    document = _roundtrip(_run_case(case, backend_name))
    if regen_golden and backend_name == "scalar":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n")
    golden = json.loads(path.read_text())
    assert document["sessions"] == golden["sessions"], (
        f"golden case {case!r} drifted on backend {backend_name!r}; if the "
        "change is intentional, rerun with --regen-golden and review the diff"
    )
    assert document["link_usage"] == golden["link_usage"]
    assert document["networked"] == golden["networked"]
    assert document.get("controllers") == golden.get("controllers"), (
        f"LingXi controller state of golden case {case!r} drifted on backend "
        f"{backend_name!r}"
    )


def test_lingxi_golden_case_exercises_the_controller():
    """The pinned LingXi case is only a gate if at least one activation fired."""
    golden = json.loads((GOLDEN_DIR / "lingxi_hyb.json").read_text())
    assert any(controller["history"] for controller in golden["controllers"])
    assert any(controller["obo_trials"] for controller in golden["controllers"])


def test_corpus_is_complete():
    committed = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert committed == set(GOLDEN_CASES), (
        "tests/data/golden/ out of sync with GOLDEN_CASES; "
        "run --regen-golden (and delete stale files)"
    )
