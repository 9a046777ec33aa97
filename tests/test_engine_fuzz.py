"""Differential fuzzing of the engine against its reference configuration.

Every :class:`~repro.core.config.EngineConfig` is advertised as
**bit-identical**: not "statistically equivalent", but the same
``SimulationResult``, the same :class:`~repro.network.channel.ChannelStats`
counters, the same round clock and the same adversary end state (RNG stream
positions, budget counters).  ``REFERENCE_ENGINE_CONFIG`` is the in-tree
oracle: per-slot ``transmit`` through the symbol-list windows, per-call
hashing.  ``DEFAULT_ENGINE_CONFIG`` is what production runs: packed
meeting-points windows, one round frame and one ``corrupt_round_packed``
call per lockstep round, batched hashing.

This suite pins that claim differentially: hypothesis draws a workload
(scheme x topology x stock adversary x seed x observability mode), runs it
on both configurations and requires every observable to match exactly.  The
adversaries are the ones production builds: the oblivious pattern
adversaries, the budgeted stock strategies (insertions on) and both Table 1
composites.

The observability mode covers the flight recorder too: a run under an
ambient :class:`~repro.obs.recorder.FlightRecorder` must stay bit-identical,
and both configurations must record the same events in the same order.
Both run the lockstep schedule, so corruption events are compared as ordered
sequences, not multisets.

Reproducing a failure
---------------------

Hypothesis prints the failing example and a reproduction seed on failure.
Re-run a specific derivation deterministically with::

    PYTHONPATH=src python -m pytest tests/test_engine_fuzz.py \
        --hypothesis-seed=<seed>

(the ``<seed>`` is printed in the failure report), or paste the printed
``@reproduce_failure`` decorator onto the test.  The examples budget is
deliberately small (the suite runs two full simulations per example); crank
``max_examples`` up locally for a deeper soak.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.base import NoiseBudget, NoiselessAdversary
from repro.adversary.contract import _state_snapshot
from repro.adversary.oblivious import AdditiveObliviousAdversary, FixingObliviousAdversary
from repro.adversary.strategies import (
    BurstAdversary,
    DeletionAdversary,
    LinkTargetedAdversary,
    PhaseTargetedAdaptiveAdversary,
    RandomNoiseAdversary,
)
from repro.core.config import DEFAULT_ENGINE_CONFIG, REFERENCE_ENGINE_CONFIG
from repro.core.engine import InteractiveCodingSimulator
from repro.core.parameters import scheme_by_name
from repro.experiments.table1 import _adaptive_factory, _oblivious_factory
from repro.network.topologies import (
    line_topology,
    random_connected_topology,
    ring_topology,
    star_topology,
)
from repro.obs.context import use_obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.protocols.random_protocol import RandomProtocol
from repro.utils.rng import make_rng

_FUZZ = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_SCHEMES = ("algorithm_crs", "algorithm_a", "algorithm_b", "algorithm_c")

_TOPOLOGIES = {
    "line4": lambda seed: line_topology(4),
    "ring5": lambda seed: ring_topology(5),
    "star5": lambda seed: star_topology(5),
    "random5": lambda seed: random_connected_topology(5, 0.4, seed=seed),
}


def _oblivious_pattern(graph, seed, values, density=0.02, horizon=600):
    """A deterministic sparse (round, link) -> value pattern over the run."""
    rng = make_rng(seed)
    pattern = {}
    for round_index in range(horizon):
        for sender, receiver in graph.directed_edges():
            if rng.random() < density:
                pattern[(round_index, sender, receiver)] = rng.choice(values)
    return pattern


def _budget(fraction=0.02, allowance=2):
    return NoiseBudget(fraction=fraction, absolute_allowance=allowance)


#: name -> builder(graph, seed) for every adversary family under fuzz.
_ADVERSARIES = {
    "noiseless": lambda graph, seed: NoiselessAdversary(),
    "additive": lambda graph, seed: AdditiveObliviousAdversary(
        pattern=_oblivious_pattern(graph, seed, (1, 2))
    ),
    "fixing": lambda graph, seed: FixingObliviousAdversary(
        pattern=_oblivious_pattern(graph, seed, (0, 1, None))
    ),
    "random-noise": lambda graph, seed: RandomNoiseAdversary(
        corruption_probability=0.02,
        insertion_probability=0.005,
        seed=seed,
        budget=_budget(),
    ),
    "deletion": lambda graph, seed: DeletionAdversary(
        deletion_probability=0.02, seed=seed, budget=_budget()
    ),
    "burst": lambda graph, seed: BurstAdversary(
        start_round=5 + seed % 20, end_round=40 + seed % 60, max_corruptions=6, seed=seed
    ),
    "link-targeted": lambda graph, seed: LinkTargetedAdversary(
        target=graph.directed_edges()[seed % len(graph.directed_edges())],
        fraction=0.05,
        corruption_probability=0.5,
        seed=seed,
    ),
    "phase-targeted": lambda graph, seed: PhaseTargetedAdaptiveAdversary(
        fraction=0.02, phases=("meeting_points", "flag_passing", "rewind"), seed=seed
    ),
    "table1-oblivious": lambda graph, seed: _oblivious_factory(seed, 0.01),
    "table1-adaptive": lambda graph, seed: _adaptive_factory(seed, 0.01),
}


def _workload(topology_name, seed):
    graph = _TOPOLOGIES[topology_name](seed)
    inputs = {party: (seed * 31 + party * 7) % 1024 for party in graph.nodes}
    protocol = RandomProtocol(graph, inputs, num_rounds=8, density=0.5, seed=seed + 1)
    return graph, protocol


#: Observability modes a fuzz case may run under; "recorder" puts an ambient
#: FlightRecorder around construction *and* run (the engine and network
#: capture it at construction time).
_OBS_MODES = ("dark", "metrics", "recorder")


def _run(scheme_name, topology_name, adversary_name, seed, config, obs_mode="dark"):
    """One full simulation; returns (simulator, result, recorder-or-None)."""
    graph, protocol = _workload(topology_name, seed)
    adversary = _ADVERSARIES[adversary_name](graph, seed)
    # A ring big enough to never drop, so the two recordings are complete.
    recorder = FlightRecorder(capacity=1_000_000) if obs_mode == "recorder" else None
    if obs_mode == "dark":
        scope = nullcontext()
    else:
        scope = use_obs(
            metrics=MetricsRegistry() if obs_mode == "metrics" else None,
            recorder=recorder,
        )
    with scope:
        simulator = InteractiveCodingSimulator(
            protocol, scheme=scheme_by_name(scheme_name), adversary=adversary, seed=seed,
            config=config,
        )
        result = simulator.run()
    return simulator, result, recorder


def _result_fingerprint(result):
    return (
        result.success,
        result.outputs,
        result.reference_outputs,
        result.metrics,
        result.channel_summary,
        result.iterations_run,
        result.iterations_budget,
        result.num_real_chunks,
        result.final_link_agreement,
        result.randomness_exchange_agreed,
    )


def _assert_bit_identical(reference_run, default_run):
    reference_sim, reference = reference_run[:2]
    default_sim, default = default_run[:2]
    assert _result_fingerprint(default) == _result_fingerprint(reference)
    assert vars(default_sim.network.stats) == vars(reference_sim.network.stats)
    assert default_sim.network.current_round == reference_sim.network.current_round
    # RNG stream positions and budget counters: the default configuration
    # must consume the adversary's state exactly like the reference did.
    assert _state_snapshot(default_sim.adversary) == _state_snapshot(reference_sim.adversary)


def _events_by_kind(recorder):
    """The recorder's ring split into (corruption events, everything else)."""
    corruption, rest = [], []
    for event in recorder._events:
        (corruption if event["kind"] == "corruption" else rest).append(event)
    return corruption, rest


def _event_keys(events):
    return [json.dumps(event, sort_keys=True, default=str) for event in events]


def _assert_same_recording(reference_recorder, default_recorder):
    """Both configurations must record the same events in the same order."""
    assert reference_recorder.events_dropped == 0
    assert default_recorder.events_dropped == 0
    ref_corruption, ref_rest = _events_by_kind(reference_recorder)
    default_corruption, default_rest = _events_by_kind(default_recorder)
    assert _event_keys(default_corruption) == _event_keys(ref_corruption)
    assert _event_keys(default_rest) == _event_keys(ref_rest)


class TestEngineDifferential:
    @_FUZZ
    @given(
        scheme_name=st.sampled_from(_SCHEMES),
        topology_name=st.sampled_from(sorted(_TOPOLOGIES)),
        adversary_name=st.sampled_from(sorted(_ADVERSARIES)),
        seed=st.integers(0, 10_000),
        obs_mode=st.sampled_from(_OBS_MODES),
    )
    def test_default_matches_reference(
        self, scheme_name, topology_name, adversary_name, seed, obs_mode
    ):
        reference_run = _run(
            scheme_name, topology_name, adversary_name, seed, REFERENCE_ENGINE_CONFIG, obs_mode
        )
        default_run = _run(
            scheme_name, topology_name, adversary_name, seed, DEFAULT_ENGINE_CONFIG, obs_mode
        )
        _assert_bit_identical(reference_run, default_run)
        if obs_mode == "recorder":
            _assert_same_recording(reference_run[2], default_run[2])
        assert reference_run[0].network.packed_dispatches == 0
        assert default_run[0].network.packed_dispatches > 0

    @_FUZZ
    @given(
        adversary_name=st.sampled_from(sorted(_ADVERSARIES)),
        seed=st.integers(0, 10_000),
        obs_mode=st.sampled_from(tuple(mode for mode in _OBS_MODES if mode != "dark")),
    )
    def test_default_is_obs_invariant(self, adversary_name, seed, obs_mode):
        """Observability (metrics or recorder) must not perturb a run."""
        dark_run = _run("algorithm_crs", "ring5", adversary_name, seed, DEFAULT_ENGINE_CONFIG)
        observed_run = _run(
            "algorithm_crs", "ring5", adversary_name, seed, DEFAULT_ENGINE_CONFIG, obs_mode
        )
        assert _result_fingerprint(observed_run[1]) == _result_fingerprint(dark_run[1])
        assert vars(observed_run[0].network.stats) == vars(dark_run[0].network.stats)
        assert _state_snapshot(observed_run[0].adversary) == _state_snapshot(dark_run[0].adversary)


class TestDispatchObservability:
    def test_packed_dispatch_counter_is_flushed(self):
        registry = MetricsRegistry()
        with use_obs(metrics=registry):
            simulator, _, _ = _run(
                "algorithm_crs", "line4", "noiseless", 3, DEFAULT_ENGINE_CONFIG
            )
        counters = registry.snapshot()["counters"]
        assert counters["transport.packed_dispatches"] == simulator.network.packed_dispatches
        assert counters["transport.packed_dispatches"] > 0

    def test_reference_schedule_never_packs(self):
        registry = MetricsRegistry()
        with use_obs(metrics=registry):
            _run("algorithm_crs", "line4", "noiseless", 3, REFERENCE_ENGINE_CONFIG)
        counters = registry.snapshot()["counters"]
        assert "transport.packed_dispatches" not in counters

    def test_recorder_sees_corruptions_on_round_frames(self):
        """The round-frame transport must feed the flight recorder per slot:
        one corruption event per changed slot, agreeing with the channel
        stats."""
        simulator, _, recorder = _run(
            "algorithm_crs", "ring5", "random-noise", 7, DEFAULT_ENGINE_CONFIG, "recorder"
        )
        corruption, _ = _events_by_kind(recorder)
        stats = simulator.network.stats
        assert len(corruption) == stats.corruptions > 0
        assert any(event["phase"] != "meeting_points" for event in corruption)
        by_kind = {"substitution": 0, "deletion": 0, "insertion": 0}
        for event in corruption:
            by_kind[event["corruption"]] += 1
        assert by_kind == {
            "substitution": stats.substitutions,
            "deletion": stats.deletions,
            "insertion": stats.insertions,
        }
