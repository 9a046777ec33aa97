"""Throughput benchmarks of the simulator itself (not tied to one paper table).

These give a reference point for how expensive one noise-resilient simulation
is for each scheme preset on a small workload, and they double as regression
guards: every benchmarked run must succeed.

``test_batched_window_transport_speedup`` measures the batched transport: it
replays the exact window traffic of one noise-sweep cell (stochastic
insertion/deletion/substitution noise at the nominal fraction) through both
the batched and the single-slot transport paths, asserts bit-identical
deliveries and statistics, and records the speedup in ``extra_info``.
Its wall clock is persisted like every other benchmark, so
``benchmarks/check_perf_regression.py`` gates the batched numbers session
over session.
"""

from __future__ import annotations

import time

import pytest

from repro.adversary.strategies import RandomNoiseAdversary
from repro.core.config import DEFAULT_ENGINE_CONFIG
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
    """The symbol hot path: one noise-sweep cell's window traffic, both paths.

    The workload is a dense-graph gossip cell at the nominal noise level with
    the noise-sweep harness's stochastic adversary (``RandomNoiseFactory`` —
    substitutions/deletions plus insertions, so every silent slot is
    adversary-reachable).  The traffic is captured from a real trial, then
    replayed through the batched and the per-slot transport; both must agree
    bit for bit.  The speedup is recorded in ``extra_info``, not asserted: a
    ratio against an in-tree slow path is not the measure of a change
    (``perfbench`` compares with the parent commit), and it flakes on a
    shared host.
    """
    workload = gossip_workload(topology="clique", num_nodes=8, phases=6, seed=0)
    scheme = crs_oblivious_scheme()
    fraction = scheme.nominal_noise_fraction(workload.graph)
    factory = RandomNoiseFactory(fraction=fraction)

    # Capture the cell's window-exchange workload from one real trial.  The
    # capture profile routes every window through ``exchange_window`` (the
    # default profile's packed dispatches would bypass the spy and starve the
    # replay of the dense meeting-points windows this gate is about; the
    # packed layer has its own gate in ``test_bench_packed_transport.py``).
    capture_config = DEFAULT_ENGINE_CONFIG.with_overrides(packed=False)
    captured = []
    sim = InteractiveCodingSimulator(
        workload.protocol, scheme=scheme, adversary=factory(0), seed=0, config=capture_config
    )
    original = sim.network.exchange_window

    def spy(messages, window_rounds, phase, iteration=-1, sparse=False):
        captured.append(
            ({link: list(symbols) for link, symbols in messages.items()}, window_rounds, phase, iteration)
        )
        return original(messages, window_rounds, phase, iteration, sparse=sparse)

    sim.network.exchange_window = spy
    assert sim.run().success
    assert captured, "the trial exchanged no windows?"

    def replay(batched):
        network = NoisyNetwork(workload.graph, adversary=factory(1))
        network.batched = batched
        deliveries = [
            network.exchange_window(messages, window_rounds, phase, iteration)
            for messages, window_rounds, phase, iteration in captured
        ]
        return deliveries, network.stats, network.current_round

    per_slot_seconds, per_slot_result = _best_of(lambda: replay(False))
    batched_seconds, batched_result = _best_of(lambda: replay(True))
    # The tentpole guarantee: the fast path changes nothing observable.
    assert batched_result == per_slot_result

    result = run_once(benchmark, lambda: replay(True))
    assert result[0] == batched_result[0]

    speedup = per_slot_seconds / batched_seconds
    benchmark.extra_info["windows_replayed"] = len(captured)
    benchmark.extra_info["per_slot_seconds"] = round(per_slot_seconds, 6)
    benchmark.extra_info["batched_seconds"] = round(batched_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 2)


def test_simulate_noise_sweep_cell_end_to_end(benchmark, run_once):
    """Whole-trial wall clock of the same noise-sweep cell (batched path).

    Complements the transport replay above: this is the end-to-end number a
    sweep user sees, where hashing and protocol logic share the bill with the
    transport.  The per-slot end-to-end time is recorded in ``extra_info``
    for context (no hard ratio — Amdahl caps it well below the transport-only
    speedup).
    """
    workload = gossip_workload(topology="clique", num_nodes=8, phases=6, seed=0)
    scheme = crs_oblivious_scheme()
    fraction = scheme.nominal_noise_fraction(workload.graph)
    factory = RandomNoiseFactory(fraction=fraction)

    def run_cell(batched):
        successes = 0
        for seed in range(3):
            sim = InteractiveCodingSimulator(
                workload.protocol, scheme=scheme, adversary=factory(seed), seed=seed
            )
            sim.network.batched = batched
            successes += 1 if sim.run().success else 0
        return successes

    per_slot_seconds, per_slot_successes = _best_of(lambda: run_cell(False), repetitions=2)
    successes = run_once(benchmark, run_cell, True)
    assert successes == per_slot_successes == 3
    benchmark.extra_info["per_slot_seconds"] = round(per_slot_seconds, 6)
