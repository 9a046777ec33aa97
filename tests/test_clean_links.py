"""The clean-link path of the meeting-points phase is bit-identical to hashing.

A link is clean when both endpoints hold the same seed source, the same
``k`` and byte-equal transcripts, under a symbol-blind adversary and without
a flight recorder (``repro.core.meeting_points``).  It sends a placeholder
and reads the noise off it instead of hashing.  :class:`EagerRandomNoise`
draws exactly what :class:`RandomNoiseAdversary` draws but does not declare
itself symbol-blind, so every link under it hashes: the two runs must end
with the same ``RunMetrics``, the same channel totals and the same
adversary generator state.  The Table 1 composites are run as built and
with their declaration withheld on the instance, to the same effect.
"""

from __future__ import annotations

import pytest

from repro.adversary.strategies import RandomNoiseAdversary
from repro.core.engine import InteractiveCodingSimulator
from repro.core.parameters import SCHEME_PRESETS, algorithm_a
from repro.experiments.table1 import _adaptive_factory, _oblivious_factory
from repro.experiments.workloads import gossip_workload
from repro.obs import FlightRecorder, MetricsRegistry, use_obs


class EagerRandomNoise(RandomNoiseAdversary):
    """Same draws; not declared symbol-blind, so no link is clean."""

    symbol_blind = False


MULTIPLIERS = (1.0, 4.0, 16.0)
SEEDS = range(8)
TABLE1_FACTORIES = {"oblivious": _oblivious_factory, "adaptive": _adaptive_factory}


def _workload(topology):
    return gossip_workload(topology, num_nodes=4, phases=4, seed=0)


def _run(workload, scheme, adversary_class, fraction, seed):
    """The simulator after one trial, and what the trial ended with: its
    ``RunMetrics``, the channel totals and the adversary's generator state."""
    adversary = adversary_class(
        corruption_probability=fraction, insertion_probability=fraction / 4, seed=seed
    )
    simulator, (metrics, stats) = _trial(workload, scheme, adversary, seed)
    return simulator, (metrics, stats, adversary._rng.getstate())


def _trial(workload, scheme, adversary, seed):
    """The simulator after one trial under ``adversary``, its ``RunMetrics``
    and its channel totals."""
    simulator = InteractiveCodingSimulator(workload.protocol, scheme=scheme, adversary=adversary, seed=seed)
    result = simulator.run()
    return simulator, (result.metrics, vars(simulator.network.stats))


@pytest.mark.parametrize("topology", ["line", "star", "clique"])
@pytest.mark.parametrize("preset", sorted(SCHEME_PRESETS))
def test_clean_links_match_hashing_every_link(preset, topology):
    """CRS/A/B/C × line/star/clique × 1x/4x/16x nominal noise × 8 seeds."""
    scheme = SCHEME_PRESETS[preset]()
    workload = _workload(topology)
    nominal = scheme.nominal_noise_fraction(workload.graph)
    for multiplier in MULTIPLIERS:
        for seed in SEEDS:
            cell = (preset, topology, multiplier, seed)
            _, lazy = _run(workload, scheme, RandomNoiseAdversary, nominal * multiplier, seed)
            _, eager = _run(workload, scheme, EagerRandomNoise, nominal * multiplier, seed)
            assert lazy[0] == eager[0], cell
            assert lazy[0].to_payload() == eager[0].to_payload(), cell
            assert lazy[1] == eager[1], cell
            assert lazy[2] == eager[2], cell


@pytest.mark.parametrize("topology", ["line", "star", "clique"])
@pytest.mark.parametrize("preset", sorted(SCHEME_PRESETS))
@pytest.mark.parametrize("factory", sorted(TABLE1_FACTORIES))
def test_table1_composites_match_hashing_every_link(factory, preset, topology):
    """Both Table 1 composites × CRS/A/B/C × line/star/clique × 4 seeds at
    the scheme's nominal noise, as built and with ``symbol_blind`` withheld
    on the instance; the declared runs must build fewer packed hashes."""
    scheme = SCHEME_PRESETS[preset]()
    workload = _workload(topology)
    fraction = scheme.nominal_noise_fraction(workload.graph)
    outcomes = {}
    builds = {}
    for withheld in (False, True):
        registry = MetricsRegistry()
        outcomes[withheld] = []
        with use_obs(metrics=registry):
            for seed in range(4):
                adversary = TABLE1_FACTORIES[factory](seed, fraction)
                assert adversary.symbol_blind
                if withheld:
                    adversary.symbol_blind = False
                outcomes[withheld].append(_trial(workload, scheme, adversary, seed)[1])
        builds[withheld] = registry.snapshot()["counters"]["hashing.packed_builds"]
    assert outcomes[False] == outcomes[True]
    assert builds[False] < builds[True]


def test_a_failed_randomness_exchange_keeps_its_link_hashing():
    """In the grid's Algorithm A line cell at 16x, some exchange fails: the
    endpoints of that link hold different sources, never a clean link, and
    the results still match hashing every link."""
    scheme = algorithm_a()
    workload = _workload("line")
    fraction = 16.0 * scheme.nominal_noise_fraction(workload.graph)
    failed = 0
    for seed in SEEDS:
        simulator, lazy = _run(workload, scheme, RandomNoiseAdversary, fraction, seed)
        if not lazy[0].randomness_exchange_failures:
            continue
        failed += 1
        split = [
            (u, v) for u, v in workload.graph.edges
            if simulator.runtimes[u].sessions[v].seed_source
            is not simulator.runtimes[v].sessions[u].seed_source
        ]
        assert len(split) == lazy[0].randomness_exchange_failures
        _, eager = _run(workload, scheme, EagerRandomNoise, fraction, seed)
        assert lazy == eager, seed
    assert failed, "no cell of the grid exercises a failed randomness exchange"


def test_a_flight_recorder_makes_every_link_hash():
    """With a recorder installed no link is clean: the recorder sees the
    real messages on the wire, and the results stay the same."""
    scheme = algorithm_a()
    workload = _workload("star")
    fraction = 4.0 * scheme.nominal_noise_fraction(workload.graph)
    _, plain = _run(workload, scheme, RandomNoiseAdversary, fraction, 3)
    registry = MetricsRegistry()
    with use_obs(metrics=registry, recorder=FlightRecorder()):
        _, recorded = _run(workload, scheme, RandomNoiseAdversary, fraction, 3)
    assert recorded == plain
    builds = registry.snapshot()["counters"]["hashing.packed_builds"]
    assert builds == 2 * workload.graph.num_edges * recorded[0].iterations_run
