"""The paper's headline claims, measured on small cells.

* Theorem 1.1: below its nominal noise level ε/m, the scheme succeeds in
  every trial; far above it, it fails (the crossover sits at a multiplier
  above 1).
* Theorem 1.2 and Appendix B: Algorithms B and C succeed against an adaptive
  adversary at their nominal levels ε/(m log m) and ε/(m log log m), here
  one that spends its budget on control traffic.
* Table 1: on each topology every Algorithm row succeeds at its nominal
  noise level with bounded overhead, the uncoded baseline fails, and
  repetition costs its three copies.

The rate claims of Theorem 1.1 live with the series in
``tests/test_experiments.py``, and the §1 baselines in
``tests/test_baselines.py``.
"""

from __future__ import annotations

import pytest

from repro.core.parameters import algorithm_b, algorithm_c, crs_oblivious_scheme
from repro.experiments.factories import PhaseTargetedFactory
from repro.experiments.harness import run_trials
from repro.experiments.noise_sweep import crossover_multiplier, noise_sweep
from repro.experiments.table1 import build_table1
from repro.experiments.workloads import gossip_workload


def test_success_vs_noise_curve():
    workload = gossip_workload(topology="line", num_nodes=5, phases=10, seed=0)
    points = noise_sweep(workload, crs_oblivious_scheme(), multipliers=(0.5, 1.0, 16.0, 64.0), trials=2)
    by_multiplier = {point.multiplier: point for point in points}
    assert by_multiplier[0.5].success_rate == 1.0
    assert by_multiplier[1.0].success_rate == 1.0
    assert by_multiplier[64.0].success_rate == 0.0
    crossover = crossover_multiplier(points)
    assert crossover is not None and crossover > 1.0


@pytest.mark.parametrize("scheme_factory", [algorithm_b, algorithm_c])
def test_adaptive_attack_on_control_traffic(scheme_factory):
    """At ε = 0.03 the adversary spends a real budget: it corrupts hashes,
    flags and simulated bits, every trial sees hash mismatches and rewinds,
    and every trial still succeeds.  (At ε = 0.01 it could afford at most two
    corruptions, too few to reach the recovery machinery.)"""
    workload = gossip_workload(topology="star", num_nodes=5, phases=10, seed=1)
    scheme = scheme_factory()
    fraction = scheme.nominal_noise_fraction(workload.graph, epsilon=0.03)

    factory = PhaseTargetedFactory(fraction=fraction)
    trial_set = run_trials(workload, scheme, adversary_factory=factory, trials=2, base_seed=3)
    for run in trial_set.runs:
        assert run.corruptions > 0
        assert run.hash_mismatches_detected > 0
        assert run.rewinds_sent > 0
    assert trial_set.aggregate.success_rate == 1.0


@pytest.mark.parametrize("topology", ["line", "star"])
def test_table1_measured_rows(topology):
    rows = build_table1(topologies=(topology,), num_nodes=5, phases=10, trials=1, include_analytical=False)
    by_scheme = {row["scheme"]: row for row in rows}
    for scheme in ("Algorithm A", "Algorithm B", "Algorithm C"):
        assert by_scheme[scheme]["success_rate"] == 1.0, f"{scheme} failed on {topology}"
        assert by_scheme[scheme]["mean_overhead"] < 150
    assert by_scheme["uncoded"]["success_rate"] == 0.0
    assert by_scheme["repetition(3)"]["mean_overhead"] == pytest.approx(3.0)
