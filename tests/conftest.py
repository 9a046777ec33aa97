"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

#: Example budgets of the engine's differential fuzz suite
#: (``tests/test_engine_fuzz.py``): tier-1 runs ``fuzz``; a soak run selects
#: ``soak`` with ``pytest tests/test_engine_fuzz.py --hypothesis-profile=soak``.
settings.register_profile(
    "fuzz", max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.register_profile("soak", settings.get_profile("fuzz"), max_examples=300)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "smoke: fast end-to-end entry-point checks (scripts run as subprocesses); "
        "always on, deselect with -m 'not smoke'",
    )

from repro.network.graph import Graph
from repro.network.topologies import complete_topology, grid_topology, line_topology, ring_topology, star_topology
from repro.protocols.aggregation import AggregationProtocol
from repro.protocols.gossip import PairwiseExchangeProtocol, ParityGossipProtocol
from repro.protocols.line_example import LineExampleProtocol


@pytest.fixture
def line5() -> Graph:
    return line_topology(5)


@pytest.fixture
def ring5() -> Graph:
    return ring_topology(5)


@pytest.fixture
def star6() -> Graph:
    return star_topology(6)


@pytest.fixture
def clique4() -> Graph:
    return complete_topology(4)


@pytest.fixture
def grid33() -> Graph:
    return grid_topology(3, 3)


@pytest.fixture
def gossip_line5(line5: Graph) -> ParityGossipProtocol:
    return ParityGossipProtocol(line5, {i: i % 2 for i in range(5)}, phases=6)


@pytest.fixture
def gossip_clique4(clique4: Graph) -> ParityGossipProtocol:
    return ParityGossipProtocol(clique4, {i: (i + 1) % 2 for i in range(4)}, phases=5)


@pytest.fixture
def pairwise_line4() -> PairwiseExchangeProtocol:
    graph = line_topology(4)
    return PairwiseExchangeProtocol(graph, {i: i % 2 for i in range(4)})


@pytest.fixture
def aggregation_line6() -> AggregationProtocol:
    graph = line_topology(6)
    return AggregationProtocol(graph, {i: i + 1 for i in range(6)}, value_bits=5)


@pytest.fixture
def line_example6() -> LineExampleProtocol:
    graph = line_topology(6)
    return LineExampleProtocol(graph, {i: i % 2 for i in range(6)}, blocks=2)
