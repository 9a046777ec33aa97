"""Unit tests for the synchronous noisy transport.

The second half of this file is the property-style equivalence suite of the
plane transport: random graphs, random window sequences (wide windows and
one-round lockstep windows) and many seeds run through ``exchange_window``
and through the per-slot oracle (``tests/oracle.py``: every slot through
``corrupt``) for every stock adversary, asserting identical
deliveries, identical ``ChannelStats``, identical recorder events, identical
clock, and identical adversary-internal state (budgets, cursors, RNG
streams).
"""

from __future__ import annotations

import random

import pytest
from adversaries import (
    DeletionAdversary,
    EchoSpoofingAdversary,
    FixingObliviousAdversary,
    RotatingLinkAdaptiveAdversary,
)
from oracle import PerSlotNetwork, link_major_plane

from repro.adversary.base import Adversary, NoiseBudget, NoiselessAdversary
from repro.adversary.oblivious import AdditiveObliviousAdversary
from repro.adversary.strategies import (
    BurstAdversary,
    CompositeAdversary,
    LinkTargetedAdversary,
    PhaseTargetedAdaptiveAdversary,
    RandomNoiseAdversary,
)
from repro.core.engine import InteractiveCodingSimulator
from repro.core.parameters import crs_oblivious_scheme
from repro.experiments.table1 import _adaptive_factory, _oblivious_factory
from repro.experiments.workloads import gossip_workload
from repro.network.topologies import line_topology, random_connected_topology
from repro.network.transport import NoisyNetwork
from repro.obs import FlightRecorder, use_obs
from repro.utils.bitstring import unpack_symbols
from repro.utils.rng import make_rng


def _window(network, messages, rounds, phase="simulation", iteration=-1):
    """``exchange_window`` on per-link symbol lists, delivering per-link
    symbol lists for every directed link."""
    links = network.graph.directed_edges()
    delivered = unpack_symbols(
        *network.exchange_window(*link_major_plane(network.graph, messages, rounds), rounds, phase, iteration),
        len(links) * rounds,
    )
    return {link: delivered[j * rounds:(j + 1) * rounds] for j, link in enumerate(links)}


class TestTransmit:
    """One symbol on one link: a width-1 window."""

    def test_clean_delivery(self):
        network = NoisyNetwork(line_topology(3))
        assert _window(network, {(0, 1): [1]}, 1)[(0, 1)] == [1]
        assert network.stats.transmissions == 1

    def test_silence_costs_nothing(self):
        network = NoisyNetwork(line_topology(3))
        assert _window(network, {(0, 1): [None]}, 1)[(0, 1)] == [None]
        assert network.stats.transmissions == 0

    def test_rejects_non_links(self):
        """A symbol past the last directed link has no slot to travel on."""
        network = NoisyNetwork(line_topology(3))  # 4 directed links
        with pytest.raises(ValueError):
            network.exchange_window(1 << 4, 1 << 4, 1, "simulation")

    def test_rejects_bad_symbols(self):
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError):
            network.exchange_window(1, 0, 1, "simulation")

    def test_round_counter(self):
        network = NoisyNetwork(line_topology(3))
        network.advance_rounds(5)
        assert network.current_round == 5
        with pytest.raises(ValueError):
            network.advance_rounds(-1)


class TestExchangeWindow:
    def test_window_delivers_all_directed_links(self):
        graph = line_topology(3)
        network = NoisyNetwork(graph)
        received = _window(network, {(0, 1): [1, 0]}, 2)
        assert set(received) == set(graph.directed_edges())
        assert received[(0, 1)] == [1, 0]
        assert received[(1, 0)] == [None, None]
        assert network.current_round == 2

    def test_window_rejects_overlong_messages(self):
        network = NoisyNetwork(line_topology(3))  # 4 links x 2 rounds = 8 slots
        with pytest.raises(ValueError, match="beyond its 8 slots"):
            network.exchange_window(0, 1 << 8, 2, "simulation")

    def test_window_counts_communication(self):
        network = NoisyNetwork(line_topology(3))
        _window(network, {(0, 1): [1, 1], (2, 1): [0]}, 3)
        assert network.communication() == 3

    def test_deletions_recorded(self):
        adversary = DeletionAdversary(deletion_probability=1.0, seed=0)
        network = NoisyNetwork(line_topology(3), adversary=adversary)
        received = _window(network, {(0, 1): [1]}, 1)
        assert received[(0, 1)] == [None]
        assert network.stats.deletions == 1
        assert network.stats.noise_fraction() == 1.0

    def test_insertions_possible_on_idle_links(self):
        adversary = RandomNoiseAdversary(corruption_probability=0.0, insertion_probability=1.0, seed=1)
        network = NoisyNetwork(line_topology(3), adversary=adversary)
        received = _window(network, {}, 1)
        # every directed link received an inserted symbol
        assert all(symbols[0] in (0, 1) for symbols in received.values())
        assert network.stats.insertions == len(received)
        # insertions do not count as transmissions
        assert network.stats.transmissions == 0

    def test_non_inserting_adversary_skips_idle_slots(self):
        class Refusing(Adversary):
            may_insert = False

            def corrupt(self, ctx, sent):
                raise AssertionError("a silent slot reached a non-inserting adversary")

        network = NoisyNetwork(line_topology(3), adversary=Refusing())
        received = _window(network, {}, 4)
        assert all(symbols == [None] * 4 for symbols in received.values())
        assert network.stats.transmissions == 0

    def test_per_slot_path_rejects_what_the_transport_rejects(self):
        """The oracle rejects what the transport rejects, so a differential
        run cannot pass by feeding the oracle traffic production refuses."""
        for bits, present in ((0, 1 << 8), (0b10, 0b01)):  # past the last link; bits outside present
            for network_type in (NoisyNetwork, PerSlotNetwork):
                network = network_type(line_topology(3))
                with pytest.raises(ValueError):
                    network.exchange_window(bits, present, 2, "simulation")
                assert (network.stats.transmissions, network.current_round) == (0, 0)

    def test_rejects_invalid_symbols_in_messages(self):
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError, match="sets bits outside its present mask"):
            network.exchange_window(0b10, 0b01, 2, "simulation")

    def test_adversary_cannot_mutate_the_sent_record(self):
        """The window reaches the adversary as integers, so whatever it
        returns is charged against the planes that were actually sent."""

        class Flipping(NoiselessAdversary):
            def corrupt_window(self, ctx, bits, present):
                return bits ^ present, present

        network = NoisyNetwork(line_topology(3), adversary=Flipping())
        received = _window(network, {(0, 1): [1, 0]}, 2)
        assert received[(0, 1)] == [0, 1]
        assert network.stats.transmissions == 2
        assert network.stats.substitutions == 2

    def test_adversary_returning_its_input_still_accounts_correctly(self):
        """Returning the input planes unchanged is a clean delivery."""

        class EchoAdversary(NoiselessAdversary):
            def corrupt_window(self, ctx, bits, present):
                return bits, present

        network = NoisyNetwork(line_topology(3), adversary=EchoAdversary())
        received = _window(network, {(0, 1): [1, 0]}, 2)
        assert received[(0, 1)] == [1, 0]
        assert network.stats.transmissions == 2
        assert network.stats.corruptions == 0

    def test_per_slot_path_matches_on_simple_window(self):
        planes = NoisyNetwork(line_topology(3))
        per_slot = PerSlotNetwork(line_topology(3))
        messages = {(0, 1): [1, 0, None], (1, 2): [1]}
        assert _window(planes, messages, 3) == _window(per_slot, messages, 3)
        assert planes.stats == per_slot.stats
        assert planes.current_round == per_slot.current_round


# --------------------------------------------------------------------------
# Property-style equivalence of the batched and per-slot transmission paths.
# --------------------------------------------------------------------------

def _random_graph(rng: random.Random):
    num_nodes = rng.randint(2, 7)
    return random_connected_topology(
        num_nodes, edge_probability=rng.choice([0.0, 0.3, 0.8]), rng=rng
    )


def _random_messages(rng: random.Random, graph, window_rounds: int):
    """A random (possibly sparse, possibly ragged) window workload."""
    messages = {}
    for link in graph.directed_edges():
        roll = rng.random()
        if roll < 0.3:
            continue  # silent link
        length = rng.randint(0, window_rounds)
        messages[link] = [rng.choice([0, 1, None]) for _ in range(length)]
    return messages


def _random_oblivious_pattern(rng: random.Random, graph, values):
    pattern = {}
    links = graph.directed_edges()
    for _ in range(rng.randint(0, 12)):
        key = (rng.randint(0, 40), *rng.choice(links))
        pattern[key] = rng.choice(values)
    return pattern


def _adversary_state(adversary: Adversary):
    """Everything observable about an adversary's mutable state."""
    state = {}
    for name in ("budget", "_budget"):
        budget = getattr(adversary, name, None)
        if isinstance(budget, NoiseBudget):
            state[name] = (budget.transmissions_seen, budget.corruptions_spent)
    for name in ("_spent", "_cursor", "_pending_spoof"):
        if hasattr(adversary, name):
            state[name] = getattr(adversary, name)
    rng = getattr(adversary, "_rng", None)
    if rng is not None:
        state["_rng"] = rng.getstate()
    if isinstance(adversary, CompositeAdversary):
        state["components"] = [_adversary_state(component) for component in adversary.components]
    return state


def _composite_builder(seed: int) -> Adversary:
    return CompositeAdversary(
        components=(
            RandomNoiseAdversary(
                corruption_probability=0.1, insertion_probability=0.05, seed=seed
            ),
            DeletionAdversary(deletion_probability=0.1, seed=seed + 1),
            LinkTargetedAdversary(target=(0, 1), fraction=0.2, seed=seed + 2),
        )
    )


#: One builder per stock adversary configuration; each takes (seed, graph, rng)
#: and must build a fresh, identically-initialised instance on every call.
STOCK_ADVERSARIES = {
    "noiseless": lambda seed, graph, rng: NoiselessAdversary(),
    "additive-oblivious": lambda seed, graph, rng: AdditiveObliviousAdversary(
        pattern=_random_oblivious_pattern(rng, graph, values=(1, 2))
    ),
    "fixing-oblivious": lambda seed, graph, rng: FixingObliviousAdversary(
        pattern=_random_oblivious_pattern(rng, graph, values=(0, 1, None))
    ),
    "random-noise": lambda seed, graph, rng: RandomNoiseAdversary(
        corruption_probability=0.15, seed=seed
    ),
    "random-noise-inserting": lambda seed, graph, rng: RandomNoiseAdversary(
        corruption_probability=0.1, insertion_probability=0.08, seed=seed
    ),
    "link-targeted": lambda seed, graph, rng: LinkTargetedAdversary(
        target=(0, 1), fraction=0.3, seed=seed
    ),
    "link-targeted-capped": lambda seed, graph, rng: LinkTargetedAdversary(
        target=(0, 1), max_corruptions=3, phases=("simulation",), seed=seed
    ),
    "burst": lambda seed, graph, rng: BurstAdversary(
        start_round=2, end_round=9, max_corruptions=6, seed=seed
    ),
    "deletion": lambda seed, graph, rng: DeletionAdversary(
        deletion_probability=0.2, seed=seed
    ),
    "deletion-budgeted": lambda seed, graph, rng: DeletionAdversary(
        deletion_probability=0.6, seed=seed, budget=NoiseBudget(fraction=0.15)
    ),
    "composite": lambda seed, graph, rng: _composite_builder(seed),
    "adaptive-phase-targeted": lambda seed, graph, rng: PhaseTargetedAdaptiveAdversary(
        fraction=0.2, phases=("meeting_points", "simulation"), seed=seed
    ),
    "adaptive-rotating-link": lambda seed, graph, rng: RotatingLinkAdaptiveAdversary(
        links=tuple(graph.directed_edges()), fraction=0.3, seed=seed
    ),
    "echo-spoofing": lambda seed, graph, rng: EchoSpoofingAdversary(
        target=(0, 1), fraction=0.4, seed=seed
    ),
}

_PHASES = ("randomness_exchange", "meeting_points", "flag_passing", "simulation", "rewind")


def _twin_networks(builder, trial, layout_rng, recorders=None):
    """A production network and a per-slot oracle network on one random
    graph, each with its own identically-built adversary."""
    graph = _random_graph(layout_rng)
    # The pattern-drawing RNG is forked per build so both instances see the
    # same draws.
    pattern_seed = layout_rng.randint(0, 2**31)
    networks = []
    for network_type, recorder in zip((NoisyNetwork, PerSlotNetwork), recorders or (None, None)):
        with use_obs(recorder=recorder):
            networks.append(network_type(graph, adversary=builder(trial, graph, make_rng(pattern_seed))))
    return graph, networks


def _assert_same_state(name, planes, per_slot, trial):
    assert planes.stats == per_slot.stats, f"{name}: stats diverged (trial {trial})"
    assert planes.current_round == per_slot.current_round
    assert _adversary_state(planes.adversary) == _adversary_state(per_slot.adversary), (
        f"{name}: adversary state diverged (trial {trial})"
    )


@pytest.mark.parametrize("adversary_name", sorted(STOCK_ADVERSARIES))
def test_batched_path_is_bit_identical_to_per_slot_path(adversary_name):
    """The core guarantee: exchange_window (one kernel call per window)
    delivers what slot-by-slot delivery does, with the same stats and
    budgets."""
    builder = STOCK_ADVERSARIES[adversary_name]
    for trial in range(8):
        layout_rng = make_rng(1000 * trial + 7)
        graph, (planes, per_slot) = _twin_networks(builder, trial, layout_rng)
        # A short session of consecutive windows with varying widths/phases,
        # driven by one traffic RNG so both paths see identical messages.
        traffic_rng = make_rng(layout_rng.randint(0, 2**31))
        for step in range(5):
            window_rounds = traffic_rng.choice([0, 1, 1, 2, 5, 9])
            phase = traffic_rng.choice(_PHASES)
            messages = _random_messages(traffic_rng, graph, window_rounds)
            assert _window(planes, messages, window_rounds, phase, step) == _window(
                per_slot, messages, window_rounds, phase, step
            ), f"{adversary_name}: deliveries diverged (trial {trial}, step {step})"
        _assert_same_state(adversary_name, planes, per_slot, trial)
        assert planes.windows_exchanged == 5


@pytest.mark.parametrize("adversary_name", sorted(STOCK_ADVERSARIES))
def test_packed_path_is_bit_identical_to_symbol_path(adversary_name):
    """The flight recorder sees the same symbols on the plane transport as
    on slot-by-slot delivery: one corruption event per changed slot, in link
    then offset order, on both window and round traffic."""
    builder = STOCK_ADVERSARIES[adversary_name]
    for trial in range(8):
        layout_rng = make_rng(9000 * trial + 13)
        recorders = (FlightRecorder(capacity=100_000), FlightRecorder(capacity=100_000))
        graph, networks = _twin_networks(builder, trial, layout_rng, recorders)
        count = len(graph.directed_edges())
        traffic_rng = make_rng(layout_rng.randint(0, 2**31))
        for step in range(5):
            window_rounds = traffic_rng.choice([0, 1, 1, 2, 5, 9])
            phase = traffic_rng.choice(_PHASES)
            messages = _random_messages(traffic_rng, graph, window_rounds)
            present = traffic_rng.getrandbits(count)
            frame = (traffic_rng.getrandbits(count) & present, present)
            delivered = [
                (_window(network, messages, window_rounds, phase, step),
                 network.exchange_window(*frame, 1, phase, step))
                for network in networks
            ]
            assert delivered[0] == delivered[1], (adversary_name, trial, step)
        planes, per_slot = networks
        _assert_same_state(adversary_name, planes, per_slot, trial)
        events = [recorder.finish_trial(success=False)["events"] for recorder in recorders]
        assert events[0] == events[1], f"{adversary_name}: recorder events diverged (trial {trial})"
        assert len(events[0]) == planes.stats.corruptions


class TestDispatchCounters:
    """The observability counter on the transport is a plain int attribute:
    each exchange adds one to ``windows_exchanged``, whatever the adversary,
    without touching deliveries, stats, or any RNG stream.  The engine's
    flush reports every window as one packed dispatch, dense exactly when
    ``adversary.may_insert``, which is fixed when the adversary is built."""

    def test_windows_are_classified_sparse_or_dense(self):
        graph = line_topology(3)
        network = NoisyNetwork(graph, adversary=NoiselessAdversary())
        # Under a non-inserting adversary only the slots that carry a symbol
        # can change, whatever the window's width: sparse.
        assert not network.adversary.may_insert
        network.exchange_window(0b1, 0b1, 1, "simulation")
        assert network.windows_exchanged == 1
        _window(network, {(0, 1): [1, 0]}, 2)
        assert network.windows_exchanged == 2
        inserting = NoisyNetwork(
            graph,
            adversary=RandomNoiseAdversary(
                corruption_probability=0.1, insertion_probability=0.1, seed=3
            ),
        )
        # the adversary may insert anywhere → every window is dense
        assert inserting.adversary.may_insert
        inserting.exchange_window(0b1, 0b1, 1, "simulation")
        _window(inserting, {(0, 1): [1, 0]}, 2)
        assert inserting.windows_exchanged == 2

    def test_deliveries_and_stats_are_bit_identical_under_an_obs_scope(self):
        from repro.obs import MetricsRegistry, Tracer

        graph = line_topology(4)
        messages = {(0, 1): [1, 0, 1], (2, 1): [0, 1, 0], (3, 2): [1, 1, 1]}

        def drive(network):
            out = []
            for phase in ("meeting_points", "simulation", "rewind"):
                out.append(_window(network, messages, 3, phase))
                out.append(network.exchange_window(0b1011, 0b1111, 1, phase))
            return out

        plain = NoisyNetwork(graph, adversary=RandomNoiseAdversary(corruption_probability=0.2, seed=9))
        observed = NoisyNetwork(graph, adversary=RandomNoiseAdversary(corruption_probability=0.2, seed=9))
        plain_out = drive(plain)
        with use_obs(metrics=MetricsRegistry(), tracer=Tracer()):
            observed_out = drive(observed)
        assert plain_out == observed_out
        assert plain.stats == observed.stats
        assert plain.current_round == observed.current_round
        assert plain.windows_exchanged == observed.windows_exchanged


# --------------------------------------------------------------------------
# Lockstep rounds: one-round windows, one adversary call per round.
# --------------------------------------------------------------------------

def _captured_trial_rounds(adversary):
    """Every one-round ``exchange_window`` call of one real storm-noise
    trial, with the clock reading it was made at."""
    workload = gossip_workload("clique", 5, 4, seed=3)
    sim = InteractiveCodingSimulator(workload.protocol, crs_oblivious_scheme(), adversary, seed=3)
    original = sim.network.exchange_window
    rounds = []

    def spy(bits, present, width, phase, iteration=-1):
        if width == 1:
            rounds.append((sim.network.current_round, bits, present, phase, iteration))
        return original(bits, present, width, phase, iteration)

    sim.network.exchange_window = spy
    sim.run()
    return workload.graph, rounds


#: Adversaries the trial replay runs under: the sweep's inserting noise, the
#: Table 1 composites, a fraction budget and the stateful targeted kinds.
_REPLAY_ADVERSARIES = {
    "random-noise-inserting": lambda: RandomNoiseAdversary(
        corruption_probability=0.08, insertion_probability=0.02, seed=5
    ),
    "table1-oblivious": lambda: _oblivious_factory(7, 0.05),
    "table1-adaptive": lambda: _adaptive_factory(8, 0.05),
    "link-targeted-list": lambda: LinkTargetedAdversary(
        target=[0, 1], fraction=0.3, seed=9
    ),
    "deletion": lambda: DeletionAdversary(deletion_probability=0.1, seed=10),
    "echo-spoofing": lambda: EchoSpoofingAdversary(target=(0, 1), fraction=0.3, seed=11),
}


class TestExchangeRound:
    @pytest.fixture(scope="class")
    def trial(self):
        graph, rounds = _captured_trial_rounds(
            RandomNoiseAdversary(corruption_probability=0.08, insertion_probability=0.02, seed=1)
        )
        phases = {phase for _, _, _, phase, _ in rounds}
        assert phases == {"flag_passing", "simulation", "rewind"}
        return graph, rounds

    @pytest.mark.parametrize("name", sorted(_REPLAY_ADVERSARIES))
    def test_replayed_trial_rounds_match_the_window_paths(self, trial, name):
        """A real trial's lockstep rounds through exchange_window and through
        slot-by-slot delivery: same deliveries, stats, recorder events (in
        order) and clock."""
        graph, rounds = trial
        networks = {}
        recorders = {}
        for path, network_type in (("round", NoisyNetwork), ("per-slot", PerSlotNetwork)):
            recorders[path] = FlightRecorder(capacity=100_000)
            with use_obs(recorder=recorders[path]):
                networks[path] = network_type(graph, adversary=_REPLAY_ADVERSARIES[name]())
        for clock, bits, present, phase, iteration in rounds:
            frames = {}
            for path, network in networks.items():
                network.advance_rounds(clock - network.current_round)
                frames[path] = network.exchange_window(bits, present, 1, phase, iteration)
            assert frames["round"] == frames["per-slot"]
        reference = networks["per-slot"]
        events = {path: recorder.finish_trial(success=False)["events"] for path, recorder in recorders.items()}
        assert vars(networks["round"].stats) == vars(reference.stats)
        assert networks["round"].current_round == reference.current_round
        assert events["round"] == events["per-slot"]
        assert _adversary_state(networks["round"].adversary) == _adversary_state(reference.adversary)
        assert reference.stats.transmissions > 0

    def test_replay_exercises_corruption(self, trial):
        graph, rounds = trial
        network = NoisyNetwork(graph, adversary=_REPLAY_ADVERSARIES["random-noise-inserting"]())
        for clock, bits, present, phase, iteration in rounds:
            network.advance_rounds(clock - network.current_round)
            network.exchange_window(bits, present, 1, phase, iteration)
        stats = network.stats
        assert stats.substitutions and stats.deletions and stats.insertions

    @pytest.mark.parametrize("adversary_name", sorted(STOCK_ADVERSARIES))
    def test_random_frames_match_the_window_path(self, adversary_name):
        """Random one-round windows: one kernel call against per-slot
        delivery in link order."""
        builder = STOCK_ADVERSARIES[adversary_name]
        for trial in range(6):
            layout_rng = make_rng(4000 * trial + 29)
            graph, (round_network, per_slot) = _twin_networks(builder, trial, layout_rng)
            count = len(graph.directed_edges())
            traffic_rng = make_rng(layout_rng.randint(0, 2**31))
            for step in range(8):
                present = traffic_rng.getrandbits(count)
                bits = traffic_rng.getrandbits(count) & present
                phase = traffic_rng.choice(_PHASES)
                got = round_network.exchange_window(bits, present, 1, phase, step)
                assert got == per_slot.exchange_window(bits, present, 1, phase, step), (
                    adversary_name, trial, step,
                )
            _assert_same_state(adversary_name, round_network, per_slot, trial)
            assert round_network.current_round == 8

    def test_rejects_bits_outside_present(self):
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError) as error:
            network.exchange_window(0b10, 0b01, 1, "simulation")
        assert str(error.value) == "window sets bits outside its present mask"
        assert network.current_round == 0

    def test_rejects_symbols_beyond_the_links(self):
        network = NoisyNetwork(line_topology(3))  # 4 directed links
        with pytest.raises(ValueError) as error:
            network.exchange_window(0, 1 << 4, 1, "simulation")
        assert str(error.value) == "window has symbols beyond its 4 slots"
        assert (network.stats.transmissions, network.current_round) == (0, 0)

    def test_rejects_adversary_bits_outside_present(self):
        class LeakyFrames(NoiselessAdversary):
            def corrupt_window(self, ctx, bits, present):
                return 0b1, 0

        network = NoisyNetwork(line_topology(3), adversary=LeakyFrames())
        with pytest.raises(ValueError) as error:
            network.exchange_window(0, 0, 1, "simulation")
        assert str(error.value) == (
            "adversary delivered a window that sets bits outside its present mask"
        )

    def test_rejects_adversary_symbols_beyond_the_links(self):
        class WideFrames(NoiselessAdversary):
            def corrupt_window(self, ctx, bits, present):
                return 0, 1 << 4

        network = NoisyNetwork(line_topology(3), adversary=WideFrames())
        with pytest.raises(ValueError) as error:
            network.exchange_window(0, 0, 1, "simulation")
        assert str(error.value) == (
            "adversary delivered a window that has symbols beyond its 4 slots"
        )
        assert network.stats.transmissions == 0

    def test_one_adversary_call_per_round(self):
        """One kernel call per exchange, for lockstep rounds and for a real
        trial's meeting-points windows alike (not one per directed link)."""

        class CountingNoise(RandomNoiseAdversary):
            def corrupt_window(self, ctx, bits, present):
                self.calls = getattr(self, "calls", 0) + 1
                self.shapes = getattr(self, "shapes", []) + [(len(ctx.links), ctx.rounds, ctx.phase)]
                return super().corrupt_window(ctx, bits, present)

        graph = random_connected_topology(6, edge_probability=0.8, seed=2)
        adversary = CountingNoise(corruption_probability=0.1, insertion_probability=0.1, seed=3)
        network = NoisyNetwork(graph, adversary=adversary)
        for step in range(5):
            network.exchange_window(0, 0, 1, "rewind", step)
        assert adversary.calls == 5
        assert network.windows_exchanged == 5

        workload = gossip_workload("clique", 8, 4, seed=3)
        trial_adversary = CountingNoise(corruption_probability=0.01, seed=4)
        sim = InteractiveCodingSimulator(workload.protocol, crs_oblivious_scheme(), trial_adversary, seed=3)
        result = sim.run()
        links = len(workload.graph.directed_edges())
        assert trial_adversary.calls == sim.network.windows_exchanged
        meeting_points = [shape for shape in trial_adversary.shapes if shape[2] == "meeting_points"]
        assert meeting_points
        assert set(meeting_points) == {(links, 4 * sim.hasher.output_bits, "meeting_points")}
        assert len(meeting_points) == result.iterations_run
