"""Differential fuzzing of the engine against the test-side oracles.

The engine's fast paths are advertised as **bit-identical** to the model:
not "statistically equivalent", but the same ``SimulationResult``, the same
:class:`~repro.network.channel.ChannelStats` counters, the same round clock
and the same adversary end state (RNG stream positions, budget counters).
The oracles in ``tests/oracle.py`` are the reference: per-slot delivery
through ``corrupt`` (``PerSlotNetwork``), per-call
hashing (``build_message_per_call``) and full-rescan rewind bookkeeping
(``rewind_phase_full_scan``, ``same_records_per_record``).  Production runs
every exchange as one link-major plane with one ``corrupt_window`` call (a
lockstep round is a one-round window), batched hashing, and rescans only the
parties a rewind reached.

This suite pins that claim differentially: hypothesis draws a workload
(scheme x topology x stock adversary x seed x observability mode), runs it
in production and with every oracle substituted in (``monkeypatch``), and
requires every observable to match exactly.  The adversaries are the ones
production builds: the oblivious pattern adversaries, the stock strategies
(random noise with insertions on, the budgeted targeted ones) and both
Table 1 composites, plus the test-side budgeted deletion adversary.

The observability mode covers the flight recorder too: a run under an
ambient :class:`~repro.obs.recorder.FlightRecorder` must stay bit-identical,
and both runs must record the same events in the same order.  Both run the
lockstep schedule, so corruption events are compared as ordered sequences,
not multisets.

Reproducing a failure
---------------------

Hypothesis prints the failing example and a reproduction seed on failure.
Re-run a specific derivation deterministically with::

    PYTHONPATH=src python -m pytest tests/test_engine_fuzz.py \
        --hypothesis-seed=<seed>

(the ``<seed>`` is printed in the failure report), or paste the printed
``@reproduce_failure`` decorator onto the test.  The examples budget is
deliberately small in tier-1 (the suite runs two full simulations per
example): the ``fuzz`` profile of ``tests/conftest.py``.  For a deeper soak::

    PYTHONPATH=src python -m pytest tests/test_engine_fuzz.py --hypothesis-profile=soak

Rewind bookkeeping
------------------

The oracles include the engine's rewind phase and collision check as
Algorithm 1 states them (``rewind_phase_full_scan``,
``same_records_per_record``).  :class:`TestRewindBookkeeping` runs fixed
cases whose rewinds cascade, and pins the quiescent-tail collapse, against
those two oracles alone.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from adversaries import BurstAdversary, DeletionAdversary, FixingObliviousAdversary, _state_snapshot
from oracle import use_oracles

from repro.adversary.base import NoiseBudget, NoiselessAdversary
from repro.adversary.oblivious import AdditiveObliviousAdversary
from repro.adversary.strategies import (
    LinkTargetedAdversary,
    PhaseTargetedAdaptiveAdversary,
    RandomNoiseAdversary,
)
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

_FUZZ = settings.get_profile("soak" if settings.get_current_profile_name() == "soak" else "fuzz")

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


def _run(scheme_name, topology_name, adversary_name, seed, oracle, obs_mode="dark"):
    """One full simulation, through every oracle when ``oracle`` is True or
    through the ones a dict of ``use_oracles`` keywords selects; returns
    (simulator, result, recorder-or-None)."""
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
    with scope, pytest.MonkeyPatch.context() as patched:
        if oracle:
            use_oracles(patched, **(oracle if isinstance(oracle, dict) else {"bookkeeping": True}))
        simulator = InteractiveCodingSimulator(
            protocol, scheme=scheme_by_name(scheme_name), adversary=adversary, seed=seed,
        )
        result = simulator.run()
    return simulator, result, recorder


def _result_fingerprint(simulator, result):
    """The result's fields plus the simulator state it summarises: channel
    totals, every link's transcript records and each link's randomness
    exchange agreement."""
    return (
        result.success,
        result.outputs,
        result.reference_outputs,
        result.metrics,
        vars(simulator.network.stats),
        result.iterations_run,
        result.iterations_budget,
        result.num_real_chunks,
        {
            (party, neighbor): transcript.records
            for party, runtime in simulator.runtimes.items()
            for neighbor, transcript in runtime.transcripts.items()
        },
        simulator._randomness_agreed,
    )


def _assert_bit_identical(reference_run, default_run):
    reference_sim, reference = reference_run[:2]
    default_sim, default = default_run[:2]
    assert _result_fingerprint(default_sim, default) == _result_fingerprint(reference_sim, reference)
    assert default_sim.network.current_round == reference_sim.network.current_round
    # RNG stream positions and budget counters: production must consume the
    # adversary's state exactly like per-slot delivery did.
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
    """Both runs must record the same events in the same order."""
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
        reference_run = _run(scheme_name, topology_name, adversary_name, seed, True, obs_mode)
        default_run = _run(scheme_name, topology_name, adversary_name, seed, False, obs_mode)
        _assert_bit_identical(reference_run, default_run)
        if obs_mode == "recorder":
            _assert_same_recording(reference_run[2], default_run[2])
        assert reference_run[0].network.windows_exchanged == 0
        assert default_run[0].network.windows_exchanged > 0

    @_FUZZ
    @given(
        adversary_name=st.sampled_from(sorted(_ADVERSARIES)),
        seed=st.integers(0, 10_000),
        obs_mode=st.sampled_from(tuple(mode for mode in _OBS_MODES if mode != "dark")),
    )
    def test_default_is_obs_invariant(self, adversary_name, seed, obs_mode):
        """Observability (metrics or recorder) must not perturb a run."""
        dark_run = _run("algorithm_crs", "ring5", adversary_name, seed, False)
        observed_run = _run("algorithm_crs", "ring5", adversary_name, seed, False, obs_mode)
        assert _result_fingerprint(*observed_run[:2]) == _result_fingerprint(*dark_run[:2])
        assert _state_snapshot(observed_run[0].adversary) == _state_snapshot(dark_run[0].adversary)


class TestDispatchObservability:
    def test_packed_dispatch_counter_is_flushed(self):
        """Every window is one packed dispatch, dense exactly when the
        adversary may insert."""
        for adversary_name in ("noiseless", "random-noise"):
            registry = MetricsRegistry()
            with use_obs(metrics=registry):
                simulator, _, _ = _run("algorithm_crs", "line4", adversary_name, 3, False)
            counters = registry.snapshot()["counters"]
            windows = simulator.network.windows_exchanged
            assert windows > 0
            assert counters["transport.packed_dispatches"] == counters["transport.windows_exchanged"] == windows
            dense = windows if simulator.adversary.may_insert else 0
            # The registry keeps no entry for a counter that was never raised.
            assert (
                counters.get("transport.sparse_dispatches", 0),
                counters.get("transport.dense_dispatches", 0),
            ) == (windows - dense, dense), adversary_name

    def test_reference_schedule_never_packs(self):
        registry = MetricsRegistry()
        with use_obs(metrics=registry):
            _run("algorithm_crs", "line4", "noiseless", 3, True)
        counters = registry.snapshot()["counters"]
        assert "transport.packed_dispatches" not in counters

    def test_recorder_sees_corruptions_on_round_frames(self):
        """One-round windows must feed the flight recorder per slot:
        one corruption event per changed slot, agreeing with the channel
        stats."""
        simulator, _, recorder = _run("algorithm_crs", "ring5", "random-noise", 7, False, "recorder")
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


#: The rewind and collision oracles alone, over production transport and hashing.
_BOOKKEEPING = {"network": False, "hashing": False, "bookkeeping": True}

#: Cases whose rewinds cascade: a received rewind lowers a party's shortest
#: link, so it rewinds another link in a later round of the same phase.
#: Non-inserting (deletion, fixing) and inserting (random-noise) adversaries.
_CASCADES = (
    ("algorithm_a", "line4", "deletion", 3),
    ("algorithm_crs", "ring5", "deletion", 2),
    ("algorithm_crs", "line4", "fixing", 0),
    ("algorithm_a", "ring5", "random-noise", 1),
    ("algorithm_crs", "random5", "random-noise", 3),
)


class TestRewindBookkeeping:
    @pytest.mark.parametrize("case", _CASCADES, ids=["-".join(map(str, case)) for case in _CASCADES])
    def test_cascading_rewinds_match_the_full_scan(self, case, monkeypatch):
        """Production rescans only the parties a rewind reached; the oracle
        scans every party every round and sends every round's frame."""
        frames = []
        send_round = InteractiveCodingSimulator._send_round

        def counting_send_round(self, slots, phase, iteration):
            if phase == "rewind":
                frames.append(len(slots))
            return send_round(self, slots, phase, iteration)

        monkeypatch.setattr(InteractiveCodingSimulator, "_send_round", counting_send_round)
        reference_run = _run(*case, _BOOKKEEPING, "recorder")
        rounds = reference_run[0].graph.num_nodes
        # The oracle sends all n frames of every phase: a frame with slots
        # after a phase's first round is a cascade.
        assert len(frames) % rounds == 0
        assert any(frames[start + 1:start + rounds] != [0] * (rounds - 1) for start in range(0, len(frames), rounds))
        default_run = _run(*case, False, "recorder")
        _assert_bit_identical(reference_run, default_run)
        _assert_same_recording(reference_run[2], default_run[2])
        assert default_run[1].metrics.rewinds_sent > 0

    @pytest.mark.parametrize("adversary_name", ["noiseless", "deletion"])
    def test_quiescent_tail_collapses_and_keeps_the_clock(self, adversary_name, monkeypatch):
        """With nothing insertable, a rewind round that sends nothing ends
        the phase in one clock advance; every phase still spans n rounds."""
        case = ("algorithm_a", "line4", adversary_name, 3)
        reference_run = _run(*case, _BOOKKEEPING, "recorder")
        phases = []
        rewind_phase = InteractiveCodingSimulator._rewind_phase

        def measured_rewind_phase(self, iteration):
            clock, collapsed = self.network.current_round, self.network.idle_rounds_collapsed
            rewind_phase(self, iteration)
            phases.append((self.network.current_round - clock, self.network.idle_rounds_collapsed - collapsed))

        monkeypatch.setattr(InteractiveCodingSimulator, "_rewind_phase", measured_rewind_phase)
        default_run = _run(*case, False, "recorder")
        simulator, result = default_run[:2]
        rounds = simulator.graph.num_nodes
        assert len(phases) == result.iterations_run
        assert all(advanced == rounds for advanced, _ in phases)
        assert sum(collapsed for _, collapsed in phases) > 0
        assert (result.metrics.rewinds_sent > 0) == (adversary_name == "deletion")
        _assert_bit_identical(reference_run, default_run)
        _assert_same_recording(reference_run[2], default_run[2])
