"""Property-based differential fuzz: scalar == vector over random workloads.

``test_vector_backend.py`` sweeps hand-enumerated (ABR × trace × exit-model)
grids; this suite promotes the equivalence gate into a *property* checked
over randomly sampled workloads.  A seeded generator draws ~50 independent
:class:`SessionSpec` batches — random ABR mixes (all lockstep-native
families), random trace shapes and lengths, random exit-model families,
random videos/ladders, and (for half the cases) random shared-bottleneck
topologies — sometimes multi-tier (edge → peering → origin) with a random
cache temperature and allocator — with random start slots and fair-share
weights — and asserts for every case that

* the vector backend reproduces the scalar backend **segment for segment**
  (exact :class:`SegmentRecord` field equality),
* networked cases produce identical per-slot link-usage streams, and
* the vector backend stayed fully lockstep: zero fallback sessions.

Everything is keyed by the case seed, so a failing case replays exactly
(``pytest "tests/test_property_fuzz.py::test_scalar_vector_property[17]"``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.abr.bola import BOLA
from repro.abr.hyb import HYB
from repro.abr.robust_mpc import RobustMPC
from repro.abr.throughput import ThroughputRule
from repro.net import ALLOCATORS, CacheModel, EdgeLink, NetworkTopology
from repro.sim import SessionSpec, get_backend, spawn_session_seeds
from repro.sim.bandwidth import (
    LowBandwidthTraceGenerator,
    MarkovTraceGenerator,
    StationaryTraceGenerator,
)
from repro.sim.session import SessionConfig
from repro.sim.video import VideoLibrary
from repro.users.engagement import BaselineExitModel, RuleBasedUser
from repro.users.population import UserPopulation

NUM_CASES = 50

_ABR_FACTORIES = (ThroughputRule, HYB, BBA, BOLA, RobustMPC)


def _sample_trace_generator(rng: np.random.Generator):
    family = rng.integers(3)
    if family == 0:
        mean = float(rng.uniform(900.0, 6000.0))
        return StationaryTraceGenerator(mean, mean * float(rng.uniform(0.1, 0.4)))
    if family == 1:
        return MarkovTraceGenerator(
            good_mean_kbps=float(rng.uniform(2000.0, 6000.0)),
            bad_mean_kbps=float(rng.uniform(200.0, 900.0)),
            p_good_to_bad=float(rng.uniform(0.05, 0.3)),
            p_bad_to_good=float(rng.uniform(0.1, 0.4)),
        )
    return LowBandwidthTraceGenerator()


def _sample_exit_model(rng: np.random.Generator, profile):
    family = rng.integers(4)
    if family == 0:
        return None
    if family == 1:
        base = float(rng.uniform(0.01, 0.05))
        return BaselineExitModel(
            base_hazard=base,
            floor_hazard=base * float(rng.uniform(0.2, 0.9)),
            decay_time_s=float(rng.uniform(10.0, 60.0)),
        )
    if family == 2:
        return RuleBasedUser(
            stall_time_threshold_s=float(rng.uniform(2.0, 9.0)),
            stall_count_threshold=int(rng.integers(2, 9)),
        )
    return profile.exit_model()


def _sample_topology(rng: np.random.Generator) -> NetworkTopology | None:
    if rng.random() < 0.5:
        return None
    num_links = int(rng.integers(1, 4))
    if rng.random() < 0.4:
        # Multi-tier draw: every edge routes through a shared peering link
        # and (sometimes) an origin, with a random cache temperature and a
        # random allocator — the full path-aware surface under the same
        # scalar==vector property.
        has_origin = bool(rng.random() < 0.5)
        uplinks = ("peer", "origin") if has_origin else ("peer",)
        links = [
            EdgeLink(
                f"l{i}",
                capacity_kbps=float(rng.uniform(4_000.0, 30_000.0)),
                user_share=float(rng.uniform(0.5, 2.0)),
                uplinks=uplinks,
            )
            for i in range(num_links)
        ]
        links.append(
            EdgeLink(
                "peer",
                capacity_kbps=float(rng.uniform(6_000.0, 40_000.0)),
                tier="peering",
            )
        )
        if has_origin:
            links.append(
                EdgeLink(
                    "origin",
                    capacity_kbps=float(rng.uniform(5_000.0, 35_000.0)),
                    tier="origin",
                )
            )
        cache = (
            None
            if rng.random() < 0.25
            else CacheModel(hit_ratio=float(rng.uniform(0.0, 1.0)))
        )
        allocator = ALLOCATORS[int(rng.integers(len(ALLOCATORS)))]
        return NetworkTopology(
            name="fuzz_tiered", links=tuple(links), cache=cache, allocator=allocator
        )
    links = tuple(
        EdgeLink(
            f"l{i}",
            capacity_kbps=float(rng.uniform(4_000.0, 30_000.0)),
            user_share=float(rng.uniform(0.5, 2.0)),
        )
        for i in range(num_links)
    )
    return NetworkTopology(name="fuzz", links=links)


def _sample_batch(case_seed: int):
    """One random workload: (specs, topology)."""
    rng = np.random.default_rng(case_seed)
    num_sessions = int(rng.integers(3, 9))
    population = UserPopulation.generate(
        num_sessions,
        seed=case_seed + 10_000,
        bandwidth_median_kbps=float(rng.uniform(1_500.0, 8_000.0)),
    )
    library = VideoLibrary(
        num_videos=int(rng.integers(2, 6)),
        mean_duration=float(rng.uniform(20.0, 70.0)),
        std_duration=float(rng.uniform(5.0, 20.0)),
        seed=int(rng.integers(1_000)),
    )
    topology = _sample_topology(rng)
    # Half the un-networked cases share one ABR instance across the batch
    # (the other execution shape the backends must agree on); networked
    # cohorts always get per-session instances.
    shared_abr = (
        _ABR_FACTORIES[int(rng.integers(len(_ABR_FACTORIES)))]()
        if topology is None and rng.random() < 0.5
        else None
    )
    generator = _sample_trace_generator(rng)
    trace_length = int(rng.integers(25, 61))
    seeds = spawn_session_seeds(case_seed, num_sessions)
    specs = []
    for i, profile in enumerate(population):
        abr = (
            shared_abr
            if shared_abr is not None
            else _ABR_FACTORIES[int(rng.integers(len(_ABR_FACTORIES)))]()
        )
        specs.append(
            SessionSpec(
                abr=abr,
                video=library[int(rng.integers(len(library)))],
                trace=generator.generate(trace_length, rng),
                exit_model=_sample_exit_model(rng, profile),
                seed=seeds[i],
                user_id=profile.user_id,
                link=(
                    topology.link_for(profile.user_id).link_id
                    if topology is not None
                    else None
                ),
                start_step=int(rng.integers(0, 16)) if topology is not None else 0,
                weight=float(rng.uniform(0.5, 2.0)) if topology is not None else 1.0,
            )
        )
    return specs, topology


def _assert_traces_equal(scalar_traces, vector_traces, case_seed):
    assert len(scalar_traces) == len(vector_traces)
    for index, (scalar, vector) in enumerate(zip(scalar_traces, vector_traces)):
        assert scalar == vector, (case_seed, index)  # every column, bit for bit
        assert scalar.exited_early == vector.exited_early, (case_seed, index)
        assert len(scalar.records) == len(vector.records), (case_seed, index)
        for a, b in zip(scalar.records, vector.records):
            assert a == b, (case_seed, index, a, b)


@pytest.mark.parametrize("case_seed", range(NUM_CASES))
def test_scalar_vector_property(case_seed):
    specs, topology = _sample_batch(case_seed)
    config = SessionConfig()

    scalar_usage: list = []
    scalar_traces = get_backend("scalar").run_batch(
        specs, config, network=topology, link_usage=scalar_usage
    )

    vector = get_backend("vector")
    vector_usage: list = []
    vector_traces = vector.run_batch(
        specs, config, network=topology, link_usage=vector_usage
    )

    _assert_traces_equal(scalar_traces, vector_traces, case_seed)
    assert scalar_usage == vector_usage, case_seed
    assert vector.last_fallback_sessions == 0, case_seed
    assert vector.total_fallback_sessions == 0, case_seed


def test_generator_is_deterministic():
    """The sampler itself is a pure function of the case seed."""
    specs_a, topo_a = _sample_batch(7)
    specs_b, topo_b = _sample_batch(7)
    assert len(specs_a) == len(specs_b)
    for a, b in zip(specs_a, specs_b):
        assert a.user_id == b.user_id
        assert a.start_step == b.start_step
        assert a.weight == b.weight
        assert np.array_equal(a.trace.values_kbps, b.trace.values_kbps)
    assert (topo_a is None) == (topo_b is None)
