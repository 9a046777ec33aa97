"""Integration tests: the simulator over a noiseless network.

Over a perfect network the coding scheme must reproduce the noiseless outputs
of every workload exactly, with bounded overhead, and its early-stop must fire
well before the iteration budget.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.analysis.potential import compute_snapshot
from repro.baselines.repetition import run_repetition
from repro.baselines.uncoded import run_uncoded
from repro.core.engine import InteractiveCodingSimulator, simulate
from repro.core.parameters import algorithm_a, algorithm_b, algorithm_c, crs_oblivious_scheme
from repro.experiments.workloads import aggregation_workload, gossip_workload
from repro.network.topologies import ring_topology, star_topology
from repro.protocols.random_protocol import RandomProtocol
from repro.protocols.token_ring import TokenRingProtocol


class TestNoiselessCorrectness:
    def test_gossip_line(self, gossip_line5):
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        assert result.success
        assert result.failed_parties() == []

    def test_gossip_clique(self, gossip_clique4):
        result = simulate(gossip_clique4, scheme=crs_oblivious_scheme(), seed=2)
        assert result.success

    def test_aggregation(self, aggregation_line6):
        result = simulate(aggregation_line6, scheme=crs_oblivious_scheme(), seed=3)
        assert result.success
        assert all(value == aggregation_line6.expected_total() for value in result.outputs.values())

    def test_simulate_sparse_aggregation(self):
        # A sparse protocol on a 3x3 grid.
        workload = aggregation_workload(topology="grid", num_nodes=9, value_bits=8, seed=0)
        assert simulate(workload.protocol, scheme=crs_oblivious_scheme(), seed=3).success

    def test_line_example(self, line_example6):
        result = simulate(line_example6, scheme=crs_oblivious_scheme(), seed=4)
        assert result.success

    def test_token_ring(self):
        graph = ring_topology(5)
        protocol = TokenRingProtocol(graph, {i: i for i in range(5)}, value_bits=4, laps=1)
        result = simulate(protocol, scheme=crs_oblivious_scheme(), seed=5)
        assert result.success

    def test_random_protocol(self):
        graph = star_topology(5)
        protocol = RandomProtocol(graph, {i: i * 3 for i in range(5)}, num_rounds=10, density=0.5, seed=6)
        result = simulate(protocol, scheme=crs_oblivious_scheme(), seed=6)
        assert result.success

    def test_pairwise_exchange(self, pairwise_line4):
        result = simulate(pairwise_line4, scheme=crs_oblivious_scheme(), seed=7)
        assert result.success

    @pytest.mark.parametrize("scheme_factory", [crs_oblivious_scheme, algorithm_a, algorithm_b, algorithm_c])
    def test_all_schemes_noiseless(self, scheme_factory, gossip_line5):
        result = simulate(gossip_line5, scheme=scheme_factory(), seed=8)
        assert result.success

    @pytest.mark.parametrize(
        "scheme_factory", [crs_oblivious_scheme, algorithm_a, algorithm_c], ids=["crs", "algorithm_a", "algorithm_c"]
    )
    def test_simulate_gossip_noiseless(self, scheme_factory):
        workload = gossip_workload(topology="line", num_nodes=5, phases=12, seed=0)
        assert simulate(workload.protocol, scheme=scheme_factory(), seed=1).success


class TestNoiselessBehaviour:
    def test_early_stop_fires(self, gossip_line5):
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        assert result.iterations_run < result.iterations_budget

    def test_overhead_is_finite_and_recorded(self, gossip_line5):
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        assert result.overhead > 1.0
        assert result.metrics.simulation_communication == sum(
            result.metrics.communication_by_phase.values()
        )

    def test_no_noise_means_no_corruptions(self, gossip_line5):
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        assert result.metrics.corruptions == 0
        assert result.noise_fraction == 0.0
        assert result.metrics.hash_collisions_observed == 0

    def test_final_link_agreement_covers_all_chunks(self, gossip_line5):
        simulator = InteractiveCodingSimulator(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        result = simulator.run()
        snapshot = compute_snapshot(
            simulator.graph, simulator._all_transcripts(), result.iterations_run - 1, simulator.scale_k
        )
        # G* is the least agreement over the links.
        assert snapshot.global_agreement >= result.num_real_chunks

    def test_deterministic_given_seed(self, gossip_line5):
        first = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=12)
        second = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=12)
        assert first.metrics.simulation_communication == second.metrics.simulation_communication
        assert first.outputs == second.outputs

    def test_crs_mode_has_no_randomness_exchange_traffic(self, gossip_line5):
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        assert "randomness_exchange" not in result.metrics.communication_by_phase

    def test_exchange_mode_pays_randomness_exchange_traffic(self, gossip_line5):
        result = simulate(gossip_line5, scheme=algorithm_a(), seed=1)
        assert result.metrics.communication_by_phase.get("randomness_exchange", 0) > 0
        assert result.metrics.randomness_exchange_failures == 0

    def test_summary_contains_key_fields(self, gossip_line5):
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        summary = result.summary()
        for key in ("scheme", "success", "cc_protocol", "cc_simulation", "overhead", "rate"):
            assert key in summary


class TestAblationsNoiseless:
    def test_flag_passing_disabled_still_correct_without_noise(self, gossip_line5):
        scheme = crs_oblivious_scheme(enable_flag_passing=False)
        assert simulate(gossip_line5, scheme=scheme, seed=1).success

    def test_rewind_disabled_still_correct_without_noise(self, gossip_line5):
        scheme = crs_oblivious_scheme(enable_rewind_phase=False)
        assert simulate(gossip_line5, scheme=scheme, seed=1).success

    def test_custom_chunk_multiplier(self, gossip_line5):
        big_chunks = simulate(gossip_line5, scheme=crs_oblivious_scheme(chunk_multiplier=20), seed=1)
        small_chunks = simulate(gossip_line5, scheme=crs_oblivious_scheme(chunk_multiplier=2), seed=1)
        assert big_chunks.success and small_chunks.success
        assert big_chunks.overhead < small_chunks.overhead


class TestCrossTrialIsolation:
    """Trials over one protocol object share its trial-independent plan (chunk
    plan, reference run, spanning tree); no trial may leak state into the next."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda protocol, seed: simulate(protocol, scheme=algorithm_a(), seed=seed),
            lambda protocol, seed: run_uncoded(protocol),
            lambda protocol, seed: run_repetition(protocol),
        ],
        ids=["engine", "uncoded", "repetition"],
    )
    def test_second_trial_matches_a_fresh_workload(self, run):
        shared = gossip_workload("clique", 4, 3).protocol
        first = run(shared, 1)
        for party in first.reference_outputs:
            first.reference_outputs[party] = "tampered"
        second = run(shared, 2)
        fresh = run(gossip_workload("clique", 4, 3).protocol, 2)
        assert fresh.metrics.success
        assert second.metrics == fresh.metrics
        assert second.reference_outputs == fresh.reference_outputs

    def test_plan_is_built_once_per_workload(self, gossip_line5):
        first = InteractiveCodingSimulator(gossip_line5, scheme=algorithm_a(), seed=1)
        second = InteractiveCodingSimulator(gossip_line5, scheme=algorithm_a(), seed=2)
        assert first.chunked is second.chunked
        assert first.tree is second.tree
        assert gossip_line5.run_noiseless() is gossip_line5.run_noiseless()

    def test_discarded_workload_is_freed_without_the_cycle_collector(self):
        """No cached plan refers back to its protocol, so pool workers, which
        unpickle and drop a workload per chunk, never leave it to the cycle
        collector."""
        gc.collect()
        gc.disable()
        try:
            protocol = gossip_workload("clique", 4, 3).protocol
            simulate(protocol, scheme=algorithm_a(), seed=1)
            collected = weakref.ref(protocol)
            del protocol
            assert collected() is None
        finally:
            gc.enable()
