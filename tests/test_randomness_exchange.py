"""Tests for the randomness exchange (Algorithm 5)."""

from __future__ import annotations

from adversaries import DeletionAdversary

from repro.adversary.strategies import LinkTargetedAdversary, RandomNoiseAdversary
from repro.core.randomness_exchange import run_randomness_exchange
from repro.hashing.seeds import ExchangedSeedSource
from repro.hashing.small_bias import SmallBiasGenerator
from repro.network.topologies import line_topology, star_topology
from repro.network.transport import NoisyNetwork
from repro.utils.rng import make_rng


class TestCleanExchange:
    def test_all_links_agree(self):
        graph = line_topology(4)
        network = NoisyNetwork(graph)
        report = run_randomness_exchange(graph, network, make_rng(0), field_degree=32)
        assert all(report.agreed.values())
        assert report.corrupted_links == []
        assert report.communication > 0
        assert set(report.seed_sources) == set(graph.directed_edges())

    def test_endpoints_derive_identical_hash_seeds(self):
        graph = line_topology(3)
        network = NoisyNetwork(graph)
        report = run_randomness_exchange(graph, network, make_rng(1), field_degree=32)
        for u, v in graph.edges:
            source_u = report.seed_sources[(u, v)]
            source_v = report.seed_sources[(v, u)]
            assert isinstance(source_u, ExchangedSeedSource)
            assert source_u.seeds_for_iteration(0, 64, 256) == source_v.seeds_for_iteration(0, 64, 256)

    def test_each_agreed_link_bootstraps_one_generator(self, monkeypatch):
        """Both endpoints of an agreed link read one source, so one generator
        per link bootstraps."""
        bootstrapped = []
        original = SmallBiasGenerator._bootstrap

        def record(generator):
            bootstrapped.append(generator)
            original(generator)

        monkeypatch.setattr(SmallBiasGenerator, "_bootstrap", record)
        graph = star_topology(5)
        report = run_randomness_exchange(graph, NoisyNetwork(graph), make_rng(2), field_degree=32)
        for source in report.seed_sources.values():
            source.seeds_for_iteration(3, 64, 256)
        assert len(bootstrapped) == graph.num_edges
        senders = [report.seed_sources[edge].generator for edge in graph.edges]
        assert all(any(generator is sender for sender in senders) for generator in bootstrapped)

    def test_communication_scales_with_links(self):
        small_graph = line_topology(3)
        big_graph = star_topology(7)
        small = run_randomness_exchange(small_graph, NoisyNetwork(small_graph), make_rng(0), field_degree=32)
        big = run_randomness_exchange(big_graph, NoisyNetwork(big_graph), make_rng(0), field_degree=32)
        assert big.communication == small.communication * big_graph.num_edges // small_graph.num_edges


class TestNoisyExchange:
    def test_light_noise_is_corrected(self):
        graph = line_topology(4)
        adversary = RandomNoiseAdversary(corruption_probability=0.01, seed=2)
        network = NoisyNetwork(graph, adversary=adversary)
        report = run_randomness_exchange(graph, network, make_rng(3), field_degree=32)
        assert all(report.agreed.values())

    def test_deletions_are_treated_as_erasures(self):
        graph = line_topology(3)
        adversary = DeletionAdversary(deletion_probability=0.05, seed=4)
        network = NoisyNetwork(graph, adversary=adversary)
        report = run_randomness_exchange(graph, network, make_rng(5), field_degree=32)
        assert all(report.agreed.values())

    def test_heavy_targeted_noise_breaks_one_link(self):
        graph = line_topology(4)
        adversary = LinkTargetedAdversary(
            target=(0, 1), phases=("randomness_exchange",), max_corruptions=10_000, seed=6
        )
        network = NoisyNetwork(graph, adversary=adversary)
        report = run_randomness_exchange(graph, network, make_rng(7), field_degree=32)
        assert report.agreed[(0, 1)] is False
        # the untouched links still agree
        assert report.agreed[(1, 2)] is True
        assert report.agreed[(2, 3)] is True
        assert report.corrupted_links == [(0, 1)]

    def test_mismatched_seeds_produce_mismatched_hash_seeds(self):
        graph = line_topology(3)
        adversary = LinkTargetedAdversary(
            target=(0, 1), phases=("randomness_exchange",), max_corruptions=10_000, seed=8
        )
        network = NoisyNetwork(graph, adversary=adversary)
        report = run_randomness_exchange(graph, network, make_rng(9), field_degree=32)
        source_u = report.seed_sources[(0, 1)]
        source_v = report.seed_sources[(1, 0)]
        assert source_u.seeds_for_iteration(0, 64, 256)[1] != source_v.seeds_for_iteration(0, 64, 256)[1]

    def test_agreed_links_share_one_source_and_corrupted_links_hold_two(self):
        graph = line_topology(4)
        adversary = LinkTargetedAdversary(
            target=(0, 1), phases=("randomness_exchange",), max_corruptions=10_000, seed=6
        )
        report = run_randomness_exchange(graph, NoisyNetwork(graph, adversary=adversary), make_rng(7), field_degree=32)
        assert report.corrupted_links == [(0, 1)]
        assert report.seed_sources[(0, 1)] is not report.seed_sources[(1, 0)]
        for u, v in ((1, 2), (2, 3)):
            assert report.seed_sources[(u, v)] is report.seed_sources[(v, u)]


def test_exchange_matches_per_slot_delivery():
    """The plane-native exchange agrees with slot-by-slot delivery: same
    agreement, seeds, communication and channel statistics, including links
    whose codeword fails to decode."""
    from oracle import PerSlotNetwork

    graph = star_topology(6)
    decode_failures = 0
    for seed, probability in enumerate((0.0, 0.05, 0.2, 0.35)):
        outcomes = []
        for network_type in (NoisyNetwork, PerSlotNetwork):
            network = network_type(
                graph,
                adversary=RandomNoiseAdversary(
                    corruption_probability=probability, insertion_probability=probability / 2, seed=seed
                ),
            )
            report = run_randomness_exchange(graph, network, make_rng(seed), field_degree=32)
            seeds = {link: source.link_seed for link, source in report.seed_sources.items()}
            outcomes.append((report.agreed, report.communication, seeds, network.stats, network.current_round))
        assert outcomes[0] == outcomes[1]
        decode_failures += sum(1 for ok in outcomes[0][0].values() if not ok)
    assert decode_failures > 0
