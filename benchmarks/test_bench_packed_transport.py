"""Packed transport against the per-slot reference path.

The packed plane pair ``(bits, present)`` carries a whole window per directed
link as two integers: one adversary kernel call, one whole-register stats
update and one dispatch per link, instead of one ``transmit`` per slot.  The
thin single-round phase windows (flag passing / simulation / rewind rounds)
travel as round frames through ``exchange_round``, one adversary call per
round over every link, because that is what the engine calls.  The workload
replays the window mix of ``scripts/profile_hotpath.py``'s representative
trial (gossip clique n=8, CRS scheme, nominal noise): dense ``4·τ``-round
meeting-points windows on every directed link plus thin single-round
windows, under a slot-addressed additive-oblivious pattern at the trial's
nominal noise fraction.

Both paths must produce bit-identical ``ChannelStats`` and clock — the
equivalence itself is pinned much harder by ``tests/test_transport.py`` and
the packed mode of ``tests/test_phase_merge_fuzz.py``.  The speedup over the
per-slot path is reported in ``extra_info``, not asserted: an in-tree slow
path is not the measure of a change (``perfbench`` compares with the parent
commit), and a ratio between two timings on a shared host flakes.  Plane
packing on the sender side is *inside* the timed region.
"""

from __future__ import annotations

import time

from repro.adversary.oblivious import AdditiveObliviousAdversary
from repro.core.parameters import crs_oblivious_scheme
from repro.experiments.workloads import gossip_workload
from repro.network.transport import NoisyNetwork
from repro.utils.bitstring import pack_slots
from repro.utils.rng import make_rng

#: The representative trial's meeting-points window: 4 hashes of τ bits each.
_DENSE_WINDOW = 32
#: Iterations replayed — enough dense windows that the measurement dwarfs
#: timer noise while staying well under a second on the reference path.
_ITERATIONS = 12
#: Thin phase windows (flag passing / simulation / rewind rounds) per
#: iteration, and the fraction of links that carry traffic in each.
_THIN_WINDOWS = 10
_THIN_DENSITY = 0.3


def _workload():
    """Graph, oblivious pattern and per-window traffic, all deterministic."""
    graph = gossip_workload("clique", 8, 6, seed=0).protocol.graph
    fraction = crs_oblivious_scheme().nominal_noise_fraction(graph)
    pattern_rng = make_rng(11)
    pattern = {}
    total_rounds = _ITERATIONS * (_DENSE_WINDOW + _THIN_WINDOWS)
    for round_index in range(total_rounds):
        for link in graph.directed_edges():
            if pattern_rng.random() < fraction:
                pattern[(round_index,) + link] = pattern_rng.choice((1, 2))
    traffic_rng = make_rng(5)
    dense = [
        {
            link: [traffic_rng.choice((0, 1)) for _ in range(_DENSE_WINDOW)]
            for link in graph.directed_edges()
        }
        for _ in range(_ITERATIONS)
    ]
    thin = [
        [
            {
                link: [traffic_rng.choice((0, 1))]
                for link in graph.directed_edges()
                if traffic_rng.random() < _THIN_DENSITY
            }
            for _ in range(_THIN_WINDOWS)
        ]
        for _ in range(_ITERATIONS)
    ]
    return graph, pattern, dense, thin


def _per_slot_seconds(graph, pattern, dense, thin):
    """The PR-9-era reference: one ``transmit`` per slot of every window."""
    network = NoisyNetwork(
        graph, adversary=AdditiveObliviousAdversary(pattern=pattern), batched=False
    )
    start = time.perf_counter()
    for iteration, window in enumerate(dense):
        network.exchange_window(window, _DENSE_WINDOW, "meeting_points", iteration)
        for messages in thin[iteration]:
            network.exchange_window(messages, 1, "simulation", iteration)
    return time.perf_counter() - start, network


def _packed_seconds(graph, pattern, dense, thin):
    """The packed path: ``(bits, present)`` planes through one kernel per link."""
    network = NoisyNetwork(
        graph, adversary=AdditiveObliviousAdversary(pattern=pattern), batched=True
    )
    full = (1 << _DENSE_WINDOW) - 1
    index = graph.directed_edge_index()
    start = time.perf_counter()
    for iteration, window in enumerate(dense):
        planes = {}
        for link, symbols in window.items():
            bits = 0
            for position, symbol in enumerate(symbols):
                if symbol:
                    bits |= 1 << position
            planes[link] = (bits, full)
        network.exchange_window_packed(planes, _DENSE_WINDOW, "meeting_points", iteration)
        for messages in thin[iteration]:
            bits, present = pack_slots(
                [(index[link], symbols[0]) for link, symbols in messages.items()], len(index)
            )
            network.exchange_round(bits, present, "simulation", iteration)
    return time.perf_counter() - start, network


def test_packed_transport_speedup(benchmark, run_once):
    """Packed windows and round frames against per-slot dispatch: same stats,
    the speedup recorded."""
    graph, pattern, dense, thin = _workload()

    def measure(runner):
        # Best of two runs per path: a scheduling spike on a shared CI runner
        # must hit both attempts to move the measurement.
        first_seconds, first_network = runner(graph, pattern, dense, thin)
        second_seconds, second_network = runner(graph, pattern, dense, thin)
        assert vars(first_network.stats) == vars(second_network.stats)
        return min(first_seconds, second_seconds), first_network

    def compare():
        reference_seconds, reference_network = measure(_per_slot_seconds)
        packed_seconds, packed_network = measure(_packed_seconds)
        # The two dispatch shapes must account identically before their
        # timings are comparable at all.
        assert vars(packed_network.stats) == vars(reference_network.stats)
        assert packed_network.current_round == reference_network.current_round
        assert packed_network.packed_dispatches > 0
        assert reference_network.packed_dispatches == 0
        return reference_seconds, packed_seconds

    reference_seconds, packed_seconds = run_once(benchmark, compare)
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 6)
    benchmark.extra_info["packed_seconds"] = round(packed_seconds, 6)
    benchmark.extra_info["speedup"] = round(reference_seconds / packed_seconds, 2)
    benchmark.extra_info["dense_window_rounds"] = _DENSE_WINDOW
    benchmark.extra_info["iterations"] = _ITERATIONS
    benchmark.extra_info["directed_links"] = len(graph.directed_edges())
