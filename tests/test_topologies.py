"""Unit tests for the topology generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topologies import (
    binary_tree_topology,
    build_topology,
    complete_topology,
    grid_topology,
    line_topology,
    random_connected_topology,
    ring_topology,
    star_topology,
)


class TestNamedTopologies:
    def test_line(self):
        graph = line_topology(5)
        assert graph.num_edges == 4
        assert max(graph.degree(node) for node in graph.nodes) == 2

    def test_ring(self):
        graph = ring_topology(5)
        assert graph.num_edges == 5
        assert all(graph.degree(node) == 2 for node in graph.nodes)

    def test_star(self):
        graph = star_topology(6)
        assert graph.num_edges == 5
        assert graph.degree(0) == 5

    def test_clique(self):
        graph = complete_topology(5)
        assert graph.num_edges == 10

    def test_grid(self):
        graph = grid_topology(2, 3)
        assert graph.num_nodes == 6
        assert graph.num_edges == 7  # 2*2 vertical + 3 horizontal? -> rows*(cols-1) + cols*(rows-1) = 2*2+3*1=7
        assert graph.is_connected()

    def test_binary_tree(self):
        graph = binary_tree_topology(7)
        assert graph.num_edges == 6
        assert graph.is_connected()

    def test_minimum_sizes_rejected(self):
        with pytest.raises(ValueError):
            line_topology(1)
        with pytest.raises(ValueError):
            ring_topology(2)
        with pytest.raises(ValueError):
            grid_topology(0, 3)


class TestRandomTopology:
    def test_connected_and_reproducible(self):
        a = random_connected_topology(10, 0.2, seed=3)
        b = random_connected_topology(10, 0.2, seed=3)
        assert a.is_connected()
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = random_connected_topology(12, 0.3, seed=1)
        b = random_connected_topology(12, 0.3, seed=2)
        assert a.edges != b.edges

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            random_connected_topology(5, 1.5)

    @given(st.integers(2, 20), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_always_connected(self, nodes, seed):
        graph = random_connected_topology(nodes, 0.1, seed=seed)
        assert graph.is_connected()
        assert graph.num_nodes == nodes


class TestBuilder:
    @pytest.mark.parametrize("name", ["line", "ring", "star", "clique", "binary_tree", "random", "grid"])
    def test_build_named(self, name):
        graph = build_topology(name, 6, seed=1)
        assert graph.is_connected()
        assert graph.num_nodes >= 6

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_topology("torus", 5)
