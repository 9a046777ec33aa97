"""Tests for the uncoded, repetition and fully-utilised baselines.

They also pin the motivation of §1: ordinary protocols break under a handful
of targeted insertion/deletion errors that Algorithm A absorbs, per-bit
redundancy is no substitute for interactive coding, and converting a sparse
protocol to the fully-utilised model multiplies its communication by 2m.
"""

from __future__ import annotations

import pytest
from adversaries import DeletionAdversary

from repro.adversary.strategies import LinkTargetedAdversary
from repro.baselines.fully_utilized import fully_utilized_overhead
from repro.baselines.repetition import run_repetition
from repro.baselines.uncoded import run_uncoded
from repro.core.engine import simulate
from repro.core.parameters import algorithm_a
from repro.experiments.workloads import aggregation_workload, gossip_workload


def _burst(seed: int) -> LinkTargetedAdversary:
    """Three targeted errors on one link's simulation (or baseline) traffic."""
    return LinkTargetedAdversary(
        target=(1, 0), phases=("simulation", "baseline"), max_corruptions=3, seed=seed
    )


class TestUncoded:
    def test_clean_channel_succeeds(self, gossip_line5):
        result = run_uncoded(gossip_line5)
        assert result.success
        assert result.metrics.overhead == pytest.approx(1.0)

    def test_single_error_breaks_it(self, gossip_line5):
        # Flip the very first bit party 0 sends to party 1 (an additive offset
        # always changes the delivered value, so the corruption is observable).
        from repro.adversary.oblivious import AdditiveObliviousAdversary

        adversary = AdditiveObliviousAdversary(pattern={(0, 0, 1): 1})
        result = run_uncoded(gossip_line5, adversary=adversary)
        assert not result.success
        assert result.metrics.corruptions == 1

    def test_deletions_break_it(self, aggregation_line6):
        adversary = DeletionAdversary(deletion_probability=0.2, seed=2)
        result = run_uncoded(aggregation_line6, adversary=adversary)
        assert not result.success

    def test_outputs_match_reference_shape(self, gossip_line5):
        result = run_uncoded(gossip_line5)
        assert set(result.outputs) == set(result.reference_outputs)

    def test_metrics_name(self, gossip_line5):
        assert run_uncoded(gossip_line5, name="plain").metrics.scheme == "plain"

    def test_uncoded_fails_where_algorithm_a_succeeds(self):
        workload = gossip_workload(topology="line", num_nodes=5, phases=10, seed=0)
        assert not run_uncoded(workload.protocol, adversary=_burst(1)).success
        assert simulate(workload.protocol, scheme=algorithm_a(), adversary=_burst(1), seed=5).success


class TestRepetition:
    def test_clean_channel_succeeds_with_3x_overhead(self, gossip_line5):
        result = run_repetition(gossip_line5, repetitions=3)
        assert result.success
        assert result.metrics.overhead == pytest.approx(3.0)

    def test_single_substitution_is_corrected(self, gossip_line5):
        adversary = LinkTargetedAdversary(target=(0, 1), max_corruptions=1, seed=3)
        result = run_repetition(gossip_line5, adversary=adversary, repetitions=3)
        assert result.success

    def test_targeted_burst_defeats_it(self, gossip_line5):
        # Three consecutive corruptions on the same link hit one repetition
        # group and flip the decoded bit.  Party 1's input is 1, so whatever
        # mix of flips and deletions the burst applies, the majority decodes 0.
        adversary = LinkTargetedAdversary(target=(1, 0), max_corruptions=3, seed=4)
        result = run_repetition(gossip_line5, adversary=adversary, repetitions=3)
        assert not result.success

    def test_repetition_fails_under_targeted_burst(self):
        # Per-bit redundancy triples the cost and still loses to a burst.
        workload = gossip_workload(topology="line", num_nodes=5, phases=10, seed=0)
        result = run_repetition(workload.protocol, adversary=_burst(2), repetitions=3)
        assert not result.success
        assert result.metrics.overhead == pytest.approx(3.0)

    def test_invalid_repetitions(self, gossip_line5):
        with pytest.raises(ValueError):
            run_repetition(gossip_line5, repetitions=0)

    def test_repetitions_scale_communication(self, gossip_line5):
        five = run_repetition(gossip_line5, repetitions=5)
        assert five.metrics.overhead == pytest.approx(5.0)


class TestFullyUtilizedConversion:
    def test_dense_protocol_has_no_conversion_cost(self, gossip_clique4):
        conversion = fully_utilized_overhead(gossip_clique4)
        assert conversion.overhead == pytest.approx(1.0)

    def test_sparse_protocol_pays_up_to_m(self, aggregation_line6):
        conversion = fully_utilized_overhead(aggregation_line6)
        # one transmission per round over m=5 links -> conversion costs 2m
        assert conversion.overhead == pytest.approx(2 * aggregation_line6.graph.num_edges)

    def test_fully_utilised_conversion_cost(self):
        workload = aggregation_workload(topology="line", num_nodes=6, value_bits=6, seed=0)
        conversion = fully_utilized_overhead(workload.protocol)
        assert conversion.overhead == pytest.approx(2 * workload.graph.num_edges)

    def test_converted_communication_formula(self, aggregation_line6):
        conversion = fully_utilized_overhead(aggregation_line6)
        assert conversion.converted_communication == (
            2 * aggregation_line6.graph.num_edges * aggregation_line6.num_rounds
        )


def _baseline_adversaries():
    from adversaries import FixingObliviousAdversary

    from repro.adversary.strategies import RandomNoiseAdversary

    return {
        "random-noise-inserting": lambda: RandomNoiseAdversary(
            corruption_probability=0.1, insertion_probability=0.05, seed=4
        ),
        "deletion": lambda: DeletionAdversary(deletion_probability=0.2, seed=5),
        "link-targeted": lambda: LinkTargetedAdversary(target=(1, 2), fraction=0.5, seed=6),
        "fixing": lambda: FixingObliviousAdversary(
            pattern={(round_index, 1, 0): round_index % 2 for round_index in range(0, 40, 3)}
        ),
    }


@pytest.mark.parametrize("run", [run_uncoded, run_repetition], ids=["uncoded", "repetition"])
@pytest.mark.parametrize("adversary_name", sorted(_baseline_adversaries()))
def test_baselines_match_per_slot_delivery(run, adversary_name, gossip_line5, monkeypatch):
    """The baselines' plane transport delivers what slot-by-slot delivery does."""
    from adversaries import _state_snapshot
    from oracle import PerSlotNetwork

    build = _baseline_adversaries()[adversary_name]
    production_adversary = build()
    production = run(gossip_line5, adversary=production_adversary)
    monkeypatch.setattr("repro.baselines.repetition.NoisyNetwork", PerSlotNetwork)
    oracle_adversary = build()
    oracle = run(gossip_line5, adversary=oracle_adversary)
    assert production.metrics == oracle.metrics
    assert production.outputs == oracle.outputs
    assert _state_snapshot(production_adversary) == _state_snapshot(oracle_adversary)
