"""Throughput benchmarks of the simulator itself (not tied to one paper table).

These give a reference point for how expensive one noise-resilient simulation
is for each scheme preset on a small workload, and they double as regression
guards: every benchmarked run must succeed.

``test_batched_window_transport_speedup`` measures the transport on its own:
it replays the exact window and round-frame traffic of one noise-sweep cell
(stochastic insertion/deletion/substitution noise at the nominal fraction)
and asserts that the replay is deterministic.  (The name dates from when the
replay also ran an in-tree per-slot path to report a ratio; that path is
gone.)
"""

from __future__ import annotations

import time

import pytest

from repro.adversary.strategies import RandomNoiseAdversary
from repro.core.engine import InteractiveCodingSimulator, simulate
from repro.core.parameters import algorithm_a, algorithm_b, algorithm_c, crs_oblivious_scheme
from repro.experiments.factories import RandomNoiseFactory
from repro.experiments.workloads import aggregation_workload, gossip_workload
from repro.network.transport import NoisyNetwork


@pytest.mark.parametrize(
    "scheme_factory", [crs_oblivious_scheme, algorithm_a, algorithm_c], ids=["crs", "algorithm_a", "algorithm_c"]
)
def test_simulate_gossip_noiseless(benchmark, run_once, scheme_factory):
    workload = gossip_workload(topology="line", num_nodes=5, phases=12, seed=0)
    result = run_once(benchmark, simulate, workload.protocol, scheme=scheme_factory(), seed=1)
    benchmark.extra_info["overhead"] = result.overhead
    assert result.success


def test_simulate_gossip_algorithm_b_under_noise(benchmark, run_once):
    workload = gossip_workload(topology="line", num_nodes=5, phases=8, seed=0)
    scheme = algorithm_b()
    fraction = scheme.nominal_noise_fraction(workload.graph)
    adversary = RandomNoiseAdversary(corruption_probability=fraction, seed=2)
    result = run_once(benchmark, simulate, workload.protocol, scheme=scheme, adversary=adversary, seed=2)
    benchmark.extra_info["overhead"] = result.overhead
    assert result.success


def test_simulate_sparse_aggregation(benchmark, run_once):
    workload = aggregation_workload(topology="grid", num_nodes=9, value_bits=8, seed=0)
    result = run_once(benchmark, simulate, workload.protocol, scheme=crs_oblivious_scheme(), seed=3)
    benchmark.extra_info["overhead"] = result.overhead
    assert result.success


def _best_of(function, repetitions=5):
    """Minimum wall clock over several runs (robust against scheduler noise)."""
    best = None
    value = None
    for _ in range(repetitions):
        start = time.perf_counter()
        value = function()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best, value


def test_batched_window_transport_speedup(benchmark, run_once):
    """The transport hot path: one noise-sweep cell's traffic, replayed.

    The workload is a dense-graph gossip cell at the nominal noise level with
    the noise-sweep harness's stochastic adversary (``RandomNoiseFactory`` —
    substitutions/deletions plus insertions, so every silent slot is
    adversary-reachable).  The traffic — the meeting-points windows and the
    one-round lockstep windows — is captured from a real trial, then replayed
    through a fresh transport; two replays must agree bit for bit.
    """
    workload = gossip_workload(topology="clique", num_nodes=8, phases=6, seed=0)
    scheme = crs_oblivious_scheme()
    fraction = scheme.nominal_noise_fraction(workload.graph)
    factory = RandomNoiseFactory(fraction=fraction)

    # Capture the cell's transport workload from one real trial, with the
    # clock reading of every call so idle-round collapses replay exactly.
    captured = []
    sim = InteractiveCodingSimulator(workload.protocol, scheme=scheme, adversary=factory(0), seed=0)
    network = sim.network
    exchange = network.exchange_window

    def spy(bits, present, rounds, phase, iteration=-1):
        captured.append((network.current_round, (bits, present, rounds, phase, iteration)))
        return exchange(bits, present, rounds, phase, iteration)

    network.exchange_window = spy
    assert sim.run().success
    assert captured, "the trial exchanged no traffic?"

    def replay():
        network = NoisyNetwork(workload.graph, adversary=factory(1))
        deliveries = []
        for clock, call in captured:
            network.advance_rounds(clock - network.current_round)
            deliveries.append(network.exchange_window(*call))
        return deliveries, network.stats, network.current_round

    seconds, first = _best_of(replay)
    result = run_once(benchmark, replay)
    assert result == first

    benchmark.extra_info["calls_replayed"] = len(captured)
    benchmark.extra_info["windows_replayed"] = sum(1 for _, call in captured if call[2] > 1)
    benchmark.extra_info["best_seconds"] = round(seconds, 6)


def test_simulate_noise_sweep_cell_end_to_end(benchmark, run_once):
    """Whole-trial wall clock of the same noise-sweep cell.

    Complements the transport replay above: this is the end-to-end number a
    sweep user sees, where hashing and protocol logic share the bill with the
    transport.
    """
    workload = gossip_workload(topology="clique", num_nodes=8, phases=6, seed=0)
    scheme = crs_oblivious_scheme()
    fraction = scheme.nominal_noise_fraction(workload.graph)
    factory = RandomNoiseFactory(fraction=fraction)

    def run_cell():
        successes = 0
        for seed in range(3):
            sim = InteractiveCodingSimulator(
                workload.protocol, scheme=scheme, adversary=factory(seed), seed=seed
            )
            successes += 1 if sim.run().success else 0
        return successes

    assert run_once(benchmark, run_cell) == 3
