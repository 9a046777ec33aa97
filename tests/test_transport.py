"""Unit tests for the synchronous noisy transport.

The second half of this file is the property-style equivalence suite of the
batched window path: random graphs, random window sequences and many seeds
run through both ``exchange_window`` (batched) and
``exchange_window_per_slot`` (the single-slot reference) for every stock
adversary, asserting identical deliveries, identical ``ChannelStats``,
identical clock, and identical adversary-internal state (budgets, cursors,
RNG streams).
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.base import Adversary, NoiseBudget, NoiselessAdversary
from repro.adversary.oblivious import AdditiveObliviousAdversary, FixingObliviousAdversary
from repro.adversary.strategies import (
    BurstAdversary,
    CompositeAdversary,
    DeletionAdversary,
    EchoSpoofingAdversary,
    LinkTargetedAdversary,
    PhaseTargetedAdaptiveAdversary,
    RandomNoiseAdversary,
    RotatingLinkAdaptiveAdversary,
)
from repro.core.engine import InteractiveCodingSimulator
from repro.core.parameters import crs_oblivious_scheme
from repro.experiments.table1 import _adaptive_factory, _oblivious_factory
from repro.experiments.workloads import gossip_workload
from repro.network.topologies import line_topology, random_connected_topology
from repro.network.transport import NoisyNetwork
from repro.obs import FlightRecorder, use_obs
from repro.utils.bitstring import pack_slots, plane_digits, set_positions
from repro.utils.rng import make_rng


class TestTransmit:
    def test_clean_delivery(self):
        network = NoisyNetwork(line_topology(3))
        assert network.transmit(0, 1, 1, phase="simulation") == 1
        assert network.stats.transmissions == 1

    def test_silence_costs_nothing(self):
        network = NoisyNetwork(line_topology(3))
        assert network.transmit(0, 1, None, phase="simulation") is None
        assert network.stats.transmissions == 0

    def test_rejects_non_links(self):
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError):
            network.transmit(0, 2, 1, phase="simulation")

    def test_rejects_bad_symbols(self):
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError):
            network.transmit(0, 1, 7, phase="simulation")

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
        received = network.exchange_window({(0, 1): [1, 0]}, window_rounds=2, phase="simulation")
        assert set(received) == set(graph.directed_edges())
        assert received[(0, 1)] == [1, 0]
        assert received[(1, 0)] == [None, None]
        assert network.current_round == 2

    def test_window_rejects_overlong_messages(self):
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError):
            network.exchange_window({(0, 1): [1, 1, 1]}, window_rounds=2, phase="simulation")

    def test_window_counts_communication(self):
        network = NoisyNetwork(line_topology(3))
        network.exchange_window({(0, 1): [1, 1], (2, 1): [0]}, window_rounds=3, phase="simulation")
        assert network.communication() == 3

    def test_deletions_recorded(self):
        adversary = DeletionAdversary(deletion_probability=1.0, seed=0)
        network = NoisyNetwork(line_topology(3), adversary=adversary)
        received = network.exchange_window({(0, 1): [1]}, window_rounds=1, phase="simulation")
        assert received[(0, 1)] == [None]
        assert network.stats.deletions == 1
        assert network.noise_fraction() == 1.0

    def test_insertions_possible_on_idle_links(self):
        adversary = RandomNoiseAdversary(corruption_probability=0.0, insertion_probability=1.0, seed=1)
        network = NoisyNetwork(line_topology(3), adversary=adversary)
        received = network.exchange_window({}, window_rounds=1, phase="simulation")
        # every directed link received an inserted symbol
        assert all(symbols[0] in (0, 1) for symbols in received.values())
        assert network.stats.insertions == len(received)
        # insertions do not count as transmissions
        assert network.stats.transmissions == 0

    def test_non_inserting_adversary_skips_idle_slots(self):
        network = NoisyNetwork(line_topology(3), adversary=NoiselessAdversary())
        received = network.exchange_window({}, window_rounds=4, phase="simulation")
        assert all(symbols == [None] * 4 for symbols in received.values())
        assert network.stats.transmissions == 0

    def test_rejects_unknown_link_keys(self):
        """Messages keyed on non-edges used to be silently dropped; now they raise."""
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError, match="unknown link"):
            network.exchange_window({(0, 2): [1]}, window_rounds=1, phase="simulation")
        # nothing was transmitted and the clock did not move
        assert network.stats.transmissions == 0
        assert network.current_round == 0

    def test_rejects_unknown_link_keys_per_slot_path(self):
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError, match="unknown link"):
            network.exchange_window_per_slot({(2, 0): [1]}, window_rounds=1, phase="simulation")

    def test_rejects_invalid_symbols_in_messages(self):
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError, match="invalid channel symbol"):
            network.exchange_window({(0, 1): [7]}, window_rounds=1, phase="simulation")

    def test_rejects_notify_override_on_inherited_native_corrupt_window(self):
        """Subclassing a stock adversary's corrupt_window past a notify hook
        would silently skip notifications on the batched path — the network
        refuses the pairing at construction time."""

        class WatchingRandomNoise(RandomNoiseAdversary):
            def notify_delivery(self, ctx, sent, received):
                pass  # pretend to record traffic

        with pytest.raises(ValueError, match="overrides notify_delivery"):
            NoisyNetwork(
                line_topology(3),
                adversary=WatchingRandomNoise(corruption_probability=0.1, seed=0),
            )

        class RepairedWatchingRandomNoise(WatchingRandomNoise):
            corrupt_window = Adversary.corrupt_window  # restore the fallback

        NoisyNetwork(
            line_topology(3),
            adversary=RepairedWatchingRandomNoise(corruption_probability=0.1, seed=0),
        )

    def test_adversary_cannot_mutate_the_sent_record(self):
        """The window reaches the adversary as an immutable tuple, so in-place
        mutation (which would corrupt the accounting's sent record) fails loudly."""

        class InPlaceAdversary(NoiselessAdversary):
            def corrupt_window(self, ctx, symbols):
                symbols[0] = 1 - symbols[0]  # type: ignore[index]
                return list(symbols)

        network = NoisyNetwork(line_topology(3), adversary=InPlaceAdversary())
        with pytest.raises(TypeError):
            network.exchange_window({(0, 1): [1]}, window_rounds=1, phase="simulation")

    def test_adversary_returning_its_input_still_accounts_correctly(self):
        """Returning the input tuple unchanged is normalised to a clean list."""

        class EchoAdversary(NoiselessAdversary):
            def corrupt_window(self, ctx, symbols):
                return symbols

        network = NoisyNetwork(line_topology(3), adversary=EchoAdversary())
        received = network.exchange_window({(0, 1): [1, 0]}, window_rounds=2, phase="simulation")
        assert received[(0, 1)] == [1, 0]
        assert isinstance(received[(0, 1)], list)
        assert network.stats.transmissions == 2
        assert network.stats.corruptions == 0

    def test_per_slot_path_matches_on_simple_window(self):
        batched = NoisyNetwork(line_topology(3))
        per_slot = NoisyNetwork(line_topology(3))
        messages = {(0, 1): [1, 0, None], (1, 2): [1]}
        a = batched.exchange_window(messages, 3, phase="simulation")
        b = per_slot.exchange_window_per_slot(messages, 3, phase="simulation")
        assert a == b
        assert batched.stats == per_slot.stats
        assert batched.current_round == per_slot.current_round


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
    "random-noise-budgeted": lambda seed, graph, rng: RandomNoiseAdversary(
        corruption_probability=0.5,
        insertion_probability=0.2,
        seed=seed,
        budget=NoiseBudget(fraction=0.1, absolute_allowance=2),
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


@pytest.mark.parametrize("adversary_name", sorted(STOCK_ADVERSARIES))
def test_batched_path_is_bit_identical_to_per_slot_path(adversary_name):
    """The tentpole guarantee: same deliveries, stats and budgets on both paths."""
    builder = STOCK_ADVERSARIES[adversary_name]
    for trial in range(8):
        layout_rng = make_rng(1000 * trial + 7)
        graph = _random_graph(layout_rng)
        # Two adversaries built identically (same seeds, same patterns): one
        # per path.  The pattern-drawing RNG must be forked per build so both
        # instances see the same draws.
        pattern_seed = layout_rng.randint(0, 2**31)
        batched_adversary = builder(trial, graph, make_rng(pattern_seed))
        per_slot_adversary = builder(trial, graph, make_rng(pattern_seed))

        batched = NoisyNetwork(graph, adversary=batched_adversary)
        per_slot = NoisyNetwork(graph, adversary=per_slot_adversary)

        # A short session of consecutive windows with varying widths/phases,
        # driven by one traffic RNG so both paths see identical messages.
        traffic_seed = layout_rng.randint(0, 2**31)
        traffic_rng = make_rng(traffic_seed)
        for step in range(5):
            window_rounds = traffic_rng.choice([0, 1, 1, 2, 5, 9])
            phase = traffic_rng.choice(_PHASES)
            iteration = step
            messages = _random_messages(traffic_rng, graph, window_rounds)
            delivered_batched = batched.exchange_window(messages, window_rounds, phase, iteration)
            delivered_per_slot = per_slot.exchange_window_per_slot(
                messages, window_rounds, phase, iteration
            )
            assert delivered_batched == delivered_per_slot, (
                f"{adversary_name}: deliveries diverged (trial {trial}, step {step})"
            )
        assert batched.stats == per_slot.stats, f"{adversary_name}: stats diverged (trial {trial})"
        assert batched.current_round == per_slot.current_round
        assert _adversary_state(batched_adversary) == _adversary_state(per_slot_adversary), (
            f"{adversary_name}: adversary state diverged (trial {trial})"
        )


@pytest.mark.parametrize("adversary_name", sorted(STOCK_ADVERSARIES))
def test_packed_path_is_bit_identical_to_symbol_path(adversary_name):
    """The packed-plane guarantee: exchange_window_packed delivers the same
    corruption mask, stats, clock and adversary end state as exchange_window
    for every stock adversary (the pin exchange_window_packed's docstring
    promises)."""
    from repro.utils.bitstring import pack_symbols, unpack_symbols

    builder = STOCK_ADVERSARIES[adversary_name]
    for trial in range(8):
        layout_rng = make_rng(9000 * trial + 13)
        graph = _random_graph(layout_rng)
        pattern_seed = layout_rng.randint(0, 2**31)
        packed_adversary = builder(trial, graph, make_rng(pattern_seed))
        symbol_adversary = builder(trial, graph, make_rng(pattern_seed))

        packed_network = NoisyNetwork(graph, adversary=packed_adversary)
        symbol_network = NoisyNetwork(graph, adversary=symbol_adversary)

        traffic_seed = layout_rng.randint(0, 2**31)
        traffic_rng = make_rng(traffic_seed)
        for step in range(5):
            window_rounds = traffic_rng.choice([0, 1, 1, 2, 5, 9])
            phase = traffic_rng.choice(_PHASES)
            sparse = traffic_rng.random() < 0.3
            messages = _random_messages(traffic_rng, graph, window_rounds)
            # The packed caller sends plane pairs; ragged windows pad with
            # silence exactly like exchange_window does internally.
            packed_messages = {
                link: pack_symbols(symbols) for link, symbols in messages.items()
            }
            delivered_packed = packed_network.exchange_window_packed(
                packed_messages, window_rounds, phase, step, sparse=sparse
            )
            delivered_symbols = symbol_network.exchange_window(
                messages, window_rounds, phase, step, sparse=sparse
            )
            assert set(delivered_packed) == set(delivered_symbols)
            for link, (bits, present) in delivered_packed.items():
                assert bits & ~present == 0, f"{adversary_name}: plane invariant broken"
                assert unpack_symbols(bits, present, window_rounds) == list(
                    delivered_symbols[link]
                ), f"{adversary_name}: deliveries diverged (trial {trial}, step {step}, {link})"
        assert packed_network.stats == symbol_network.stats, (
            f"{adversary_name}: stats diverged (trial {trial})"
        )
        assert packed_network.current_round == symbol_network.current_round
        assert _adversary_state(packed_adversary) == _adversary_state(symbol_adversary), (
            f"{adversary_name}: adversary state diverged (trial {trial})"
        )
        assert packed_network.packed_dispatches == 5
        assert symbol_network.packed_dispatches == 0


def test_batched_flag_routes_through_per_slot_path():
    """`NoisyNetwork.batched = False` makes exchange_window use the reference path."""
    graph = line_topology(3)
    a = NoisyNetwork(graph, adversary=RandomNoiseAdversary(corruption_probability=0.3, seed=5))
    b = NoisyNetwork(graph, adversary=RandomNoiseAdversary(corruption_probability=0.3, seed=5))
    b.batched = False
    messages = {(0, 1): [1, 0, 1, 1], (2, 1): [0, 0, 1]}
    assert a.exchange_window(messages, 4, "simulation") == b.exchange_window(
        messages, 4, "simulation"
    )
    assert a.stats == b.stats


class TestDispatchCounters:
    """The observability counters on the transport are plain int attributes:
    they classify every window (sparse fast path vs dense) without touching
    deliveries, stats, or any RNG stream."""

    def test_windows_are_classified_sparse_or_dense(self):
        graph = line_topology(3)
        network = NoisyNetwork(graph, adversary=NoiselessAdversary())
        # sparse permitted + non-inserting adversary → the sparse fast path
        network.exchange_window({(0, 1): [1, 0]}, 2, "simulation", sparse=True)
        assert (network.windows_exchanged, network.sparse_dispatches, network.dense_dispatches) == (1, 1, 0)
        network.exchange_window({(0, 1): [1, 0]}, 2, "simulation")  # sparse not requested
        assert (network.sparse_dispatches, network.dense_dispatches) == (1, 1)
        inserting = NoisyNetwork(
            graph,
            adversary=RandomNoiseAdversary(
                corruption_probability=0.1, insertion_probability=0.1, seed=3
            ),
        )
        # sparse requested but the adversary may insert → dense anyway
        inserting.exchange_window({(0, 1): [1, 0]}, 2, "simulation", sparse=True)
        assert (inserting.sparse_dispatches, inserting.dense_dispatches) == (0, 1)

    def test_per_slot_path_counts_dense(self):
        graph = line_topology(3)
        network = NoisyNetwork(graph, adversary=NoiselessAdversary())
        network.exchange_window_per_slot({(0, 1): [1]}, 1, "simulation")
        assert (network.windows_exchanged, network.dense_dispatches) == (1, 1)

    def test_deliveries_and_stats_are_bit_identical_under_an_obs_scope(self):
        from repro.obs import MetricsRegistry, Tracer

        graph = line_topology(4)
        messages = {(0, 1): [1, 0, 1], (2, 1): [0, 1, 0], (3, 2): [1, 1, 1]}

        def drive(network):
            out = []
            for phase in ("meeting_points", "simulation", "rewind"):
                out.append(network.exchange_window(messages, 3, phase))
            return out

        plain = NoisyNetwork(graph, adversary=RandomNoiseAdversary(corruption_probability=0.2, seed=9))
        observed = NoisyNetwork(graph, adversary=RandomNoiseAdversary(corruption_probability=0.2, seed=9))
        plain_out = drive(plain)
        with use_obs(metrics=MetricsRegistry(), tracer=Tracer()):
            observed_out = drive(observed)
        assert plain_out == observed_out
        assert plain.stats == observed.stats
        assert plain.current_round == observed.current_round
        assert (plain.windows_exchanged, plain.sparse_dispatches, plain.dense_dispatches) == (
            observed.windows_exchanged,
            observed.sparse_dispatches,
            observed.dense_dispatches,
        )


class TestGuardMessageText:
    """The guard paths promise *exact* error text (callers and docs quote it
    verbatim), so these pin the full messages rather than substrings."""

    def test_unknown_link_rejection_text(self):
        network = NoisyNetwork(line_topology(3))
        expected = "message keyed on unknown link (0, 2): not a directed edge of the network"
        with pytest.raises(ValueError) as excinfo:
            network.exchange_window({(0, 2): [1]}, window_rounds=1, phase="simulation")
        assert str(excinfo.value) == expected
        with pytest.raises(ValueError) as excinfo:
            network.exchange_window_per_slot({(0, 2): [1]}, window_rounds=1, phase="simulation")
        assert str(excinfo.value) == expected

    def test_notify_override_rejection_text(self):
        class WatchingBurst(BurstAdversary):
            def notify_delivery(self, ctx, sent, received):
                pass

        with pytest.raises(ValueError) as excinfo:
            NoisyNetwork(
                line_topology(3),
                adversary=WatchingBurst(start_round=0, end_round=5, max_corruptions=2, seed=0),
            )
        assert str(excinfo.value) == (
            "WatchingBurst overrides notify_delivery but inherits corrupt_window "
            "from BurstAdversary, whose batch path never notifies: override "
            "corrupt_window too, or restore the per-slot fallback with "
            "`corrupt_window = Adversary.corrupt_window`"
        )


# --------------------------------------------------------------------------
# Round frames: one adversary call per lockstep round.
# --------------------------------------------------------------------------

def _frame_to_messages(graph, bits, present):
    """The width-1 symbol-list messages carrying a round frame."""
    links = graph.directed_edges()
    digits = plane_digits(bits, len(links))
    return {links[position]: [int(digits[position])] for position in set_positions(present)}


def _messages_to_frame(graph, delivered):
    """A width-1 exchange's result as a round frame (missing links are silent)."""
    index = graph.directed_edge_index()
    return pack_slots(
        [(index[link], symbols[0]) for link, symbols in delivered.items() if symbols[0] is not None],
        len(index),
    )


def _captured_trial_rounds(adversary):
    """Every ``exchange_round`` call of one real storm-noise trial, with the
    clock reading it was made at."""
    workload = gossip_workload("clique", 5, 4, seed=3)
    sim = InteractiveCodingSimulator(workload.protocol, crs_oblivious_scheme(), adversary, seed=3)
    original = sim.network.exchange_round
    rounds = []

    def spy(bits, present, phase, iteration=-1):
        rounds.append((sim.network.current_round, bits, present, phase, iteration))
        return original(bits, present, phase, iteration)

    sim.network.exchange_round = spy
    sim.run()
    return workload.graph, rounds


#: Adversaries the trial replay runs under: the sweep's inserting noise, the
#: Table 1 composites, a fraction budget and the stateful targeted kinds.
_REPLAY_ADVERSARIES = {
    "random-noise-inserting": lambda: RandomNoiseAdversary(
        corruption_probability=0.08, insertion_probability=0.02, seed=5
    ),
    "random-noise-budgeted": lambda: RandomNoiseAdversary(
        corruption_probability=0.3,
        insertion_probability=0.1,
        seed=6,
        budget=NoiseBudget(fraction=0.05, absolute_allowance=2),
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
        """A real trial's lockstep rounds through exchange_round, batched
        exchange_window and per-slot exchange_window: same deliveries, stats,
        recorder events (in order) and clock."""
        graph, rounds = trial
        networks = {}
        recorders = {}
        for path in ("round", "batched", "per-slot"):
            recorders[path] = FlightRecorder(capacity=100_000)
            with use_obs(recorder=recorders[path]):
                networks[path] = NoisyNetwork(
                    graph, adversary=_REPLAY_ADVERSARIES[name](), batched=path != "per-slot"
                )
        for clock, bits, present, phase, iteration in rounds:
            frames = {}
            for path, network in networks.items():
                network.advance_rounds(clock - network.current_round)
                if path == "round":
                    frames[path] = network.exchange_round(bits, present, phase, iteration)
                else:
                    delivered = network.exchange_window(
                        _frame_to_messages(graph, bits, present), 1, phase, iteration, sparse=True
                    )
                    frames[path] = _messages_to_frame(graph, delivered)
            assert frames["round"] == frames["batched"] == frames["per-slot"]
        reference = networks["per-slot"]
        events = {path: recorder.finish_trial(success=False)["events"] for path, recorder in recorders.items()}
        for path in ("round", "batched"):
            assert vars(networks[path].stats) == vars(reference.stats), path
            assert networks[path].current_round == reference.current_round, path
            assert events[path] == events["per-slot"], path
            assert _adversary_state(networks[path].adversary) == _adversary_state(reference.adversary)
        assert reference.stats.transmissions > 0

    def test_replay_exercises_corruption(self, trial):
        graph, rounds = trial
        network = NoisyNetwork(graph, adversary=_REPLAY_ADVERSARIES["random-noise-inserting"]())
        for clock, bits, present, phase, iteration in rounds:
            network.advance_rounds(clock - network.current_round)
            network.exchange_round(bits, present, phase, iteration)
        stats = network.stats
        assert stats.substitutions and stats.deletions and stats.insertions

    @pytest.mark.parametrize("adversary_name", sorted(STOCK_ADVERSARIES))
    def test_random_frames_match_the_window_path(self, adversary_name):
        builder = STOCK_ADVERSARIES[adversary_name]
        for trial in range(6):
            layout_rng = make_rng(4000 * trial + 29)
            graph = _random_graph(layout_rng)
            pattern_seed = layout_rng.randint(0, 2**31)
            round_network = NoisyNetwork(graph, adversary=builder(trial, graph, make_rng(pattern_seed)))
            window_network = NoisyNetwork(graph, adversary=builder(trial, graph, make_rng(pattern_seed)))
            count = len(graph.directed_edges())
            traffic_rng = make_rng(layout_rng.randint(0, 2**31))
            for step in range(8):
                present = traffic_rng.getrandbits(count)
                bits = traffic_rng.getrandbits(count) & present
                phase = traffic_rng.choice(_PHASES)
                got = round_network.exchange_round(bits, present, phase, step)
                delivered = window_network.exchange_window(
                    _frame_to_messages(graph, bits, present), 1, phase, step, sparse=True
                )
                assert got == _messages_to_frame(graph, delivered), (adversary_name, trial, step)
            assert round_network.stats == window_network.stats
            assert round_network.current_round == window_network.current_round == 8
            assert _adversary_state(round_network.adversary) == _adversary_state(
                window_network.adversary
            )

    def test_rejects_bits_outside_present(self):
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError) as error:
            network.exchange_round(0b10, 0b01, "simulation")
        assert str(error.value) == "round frame sets bits outside its present mask"
        assert network.current_round == 0

    def test_rejects_symbols_beyond_the_links(self):
        network = NoisyNetwork(line_topology(3))  # 4 directed links
        with pytest.raises(ValueError) as error:
            network.exchange_round(0, 1 << 4, "simulation")
        assert str(error.value) == "round frame has symbols beyond the 4 directed links"

    def test_rejects_adversary_bits_outside_present(self):
        class LeakyFrames(NoiselessAdversary):
            def corrupt_round_packed(self, ctx, bits, present):
                return 0b1, 0

        network = NoisyNetwork(line_topology(3), adversary=LeakyFrames())
        with pytest.raises(ValueError) as error:
            network.exchange_round(0, 0, "simulation")
        assert str(error.value) == (
            "adversary delivered a round frame with bits outside its present mask"
        )

    def test_rejects_adversary_symbols_beyond_the_links(self):
        class WideFrames(NoiselessAdversary):
            def corrupt_round_packed(self, ctx, bits, present):
                return 0, 1 << 4

        network = NoisyNetwork(line_topology(3), adversary=WideFrames())
        with pytest.raises(ValueError) as error:
            network.exchange_round(0, 0, "simulation")
        assert str(error.value) == (
            "adversary delivered a round frame with symbols beyond the 4 directed links"
        )
        assert network.stats.transmissions == 0

    def test_one_adversary_call_per_round(self):
        class CountingNoise(RandomNoiseAdversary):
            def corrupt_round_packed(self, ctx, bits, present):
                self.calls = getattr(self, "calls", 0) + 1
                return super().corrupt_round_packed(ctx, bits, present)

        graph = random_connected_topology(6, edge_probability=0.8, seed=2)
        adversary = CountingNoise(corruption_probability=0.1, insertion_probability=0.1, seed=3)
        network = NoisyNetwork(graph, adversary=adversary)
        for step in range(5):
            network.exchange_round(0, 0, "rewind", step)
        assert adversary.calls == 5
        assert (network.windows_exchanged, network.packed_dispatches, network.dense_dispatches) == (5, 5, 5)
