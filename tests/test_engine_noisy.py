"""Integration tests: the simulator under noise within the tolerated budget."""

from __future__ import annotations

import pytest
from adversaries import DeletionAdversary

from repro.adversary.oblivious import AdditiveObliviousAdversary
from repro.adversary.strategies import (
    BurstAdversary,
    CompositeAdversary,
    LinkTargetedAdversary,
    RandomNoiseAdversary,
)
from repro.core.engine import simulate
from repro.core.parameters import crs_oblivious_scheme
from repro.experiments.factories import RandomNoiseFactory
from repro.experiments.workloads import gossip_workload


class TestRandomNoiseRecovery:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_low_random_noise_is_absorbed(self, gossip_line5, seed):
        adversary = RandomNoiseAdversary(corruption_probability=0.002, seed=seed + 10)
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=seed)
        assert result.success

    def test_noise_with_insertions(self, gossip_line5):
        adversary = RandomNoiseAdversary(
            corruption_probability=0.002, insertion_probability=0.0005, seed=3
        )
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=3)
        assert result.success

    def test_pure_deletion_noise(self, gossip_line5):
        adversary = DeletionAdversary(deletion_probability=0.004, seed=4)
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=4)
        assert result.success

    def test_recovery_costs_extra_iterations(self, gossip_line5):
        clean = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=5)
        adversary = RandomNoiseAdversary(corruption_probability=0.004, seed=6)
        noisy = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=5)
        assert noisy.success
        assert noisy.iterations_run >= clean.iterations_run
        assert noisy.metrics.corruptions > 0

    def test_noise_sweep_cell_at_nominal_level(self):
        """The noise sweep's clique cell: insertions, deletions and
        substitutions at the nominal fraction, three seeds, all recovered."""
        workload = gossip_workload(topology="clique", num_nodes=8, phases=6, seed=0)
        scheme = crs_oblivious_scheme()
        factory = RandomNoiseFactory(fraction=scheme.nominal_noise_fraction(workload.graph))
        for seed in range(3):
            assert simulate(workload.protocol, scheme=scheme, adversary=factory(seed), seed=seed).success

    def test_excessive_noise_fails(self, gossip_line5):
        adversary = RandomNoiseAdversary(corruption_probability=0.08, seed=7)
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=7)
        assert not result.success


class TestTargetedNoiseRecovery:
    def test_single_simulation_error(self, line_example6):
        adversary = LinkTargetedAdversary(
            target=(0, 1), phases=("simulation",), max_corruptions=1, seed=1
        )
        result = simulate(line_example6, scheme=crs_oblivious_scheme(), adversary=adversary, seed=1)
        assert result.success
        assert result.metrics.corruptions == 1
        assert result.metrics.meeting_point_truncations + result.metrics.rewinds_sent > 0

    def test_error_burst_on_control_traffic(self, gossip_line5):
        adversary = LinkTargetedAdversary(
            target=(1, 2), phases=("meeting_points",), max_corruptions=3, seed=2
        )
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=2)
        assert result.success

    def test_error_on_flag_passing(self, gossip_line5):
        adversary = LinkTargetedAdversary(
            target=(1, 0), phases=("flag_passing",), max_corruptions=2, seed=3
        )
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=3)
        assert result.success

    def test_error_on_rewind_messages(self, gossip_line5):
        adversary = LinkTargetedAdversary(
            target=(2, 3), phases=("rewind",), max_corruptions=2, seed=4
        )
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=4)
        assert result.success

    def test_round_burst(self, gossip_line5):
        adversary = BurstAdversary(start_round=40, end_round=60, max_corruptions=4, seed=5)
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=5)
        assert result.success

    def test_composite_attack(self, gossip_line5):
        adversary = CompositeAdversary(
            components=(
                RandomNoiseAdversary(corruption_probability=0.001, seed=6),
                LinkTargetedAdversary(target=(0, 1), phases=("simulation",), max_corruptions=2, seed=7),
            )
        )
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=6)
        assert result.success


class TestAdditiveObliviousAdversary:
    def test_explicit_additive_pattern(self, gossip_line5):
        # Corrupt two early simulation-phase slots of link (0, 1).  Round
        # numbers are deterministic because the phase layout is fixed; slots
        # that end up silent become insertions, which is fine.
        pattern = {(200, 0, 1): 1, (420, 1, 0): 2}
        adversary = AdditiveObliviousAdversary(pattern=pattern)
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=8)
        assert result.success

    def test_additive_pattern_counts_corruptions(self, gossip_line5):
        pattern = {(5, 0, 1): 1}
        adversary = AdditiveObliviousAdversary(pattern=pattern)
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=9)
        assert result.metrics.corruptions >= 1


class TestNoiseAccounting:
    def test_noise_fraction_reported(self, gossip_line5):
        adversary = RandomNoiseAdversary(corruption_probability=0.005, seed=10)
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=10)
        assert result.noise_fraction == pytest.approx(
            result.metrics.corruptions / result.metrics.simulation_communication, rel=0.2
        )

    def test_corruptions_by_phase_sum(self, gossip_line5):
        adversary = RandomNoiseAdversary(corruption_probability=0.01, seed=11)
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), adversary=adversary, seed=11)
        assert sum(result.metrics.corruptions_by_phase.values()) == result.metrics.corruptions
