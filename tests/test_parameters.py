"""Tests for scheme parameters and the Algorithm A/B/C presets."""

from __future__ import annotations

import pytest

from repro.core.parameters import (
    SCHEME_PRESETS,
    SchemeParameters,
    algorithm_a,
    algorithm_b,
    algorithm_c,
    crs_oblivious_scheme,
    scheme_by_name,
)
from repro.network.topologies import complete_topology, line_topology


class TestScaling:
    def test_k_modes(self):
        graph = complete_topology(6)  # m = 15
        assert SchemeParameters(k_mode="m").scale_k(graph) == 15
        assert SchemeParameters(k_mode="m_log_m").scale_k(graph) == 15 * 4
        # ceil(log2(ceil(log2 15) + 1)) = ceil(log2 5) = 3
        assert SchemeParameters(k_mode="m_log_log_m").scale_k(graph) == 15 * 3

    def test_unknown_k_mode(self):
        with pytest.raises(ValueError):
            SchemeParameters(k_mode="bogus").scale_k(line_topology(3))

    def test_chunk_budget(self):
        graph = line_topology(5)  # m = 4
        assert SchemeParameters(k_mode="m", chunk_multiplier=5).chunk_budget(graph) == 20

    def test_hash_output_bits(self):
        graph = complete_topology(8)  # m = 28
        assert SchemeParameters(hash_mode="constant", hash_constant_bits=6).hash_output_bits(graph) == 6
        log_mode = SchemeParameters(hash_mode="log_m", hash_constant_bits=6)
        assert log_mode.hash_output_bits(graph) >= 9  # ceil(log2 28) + 4
        with pytest.raises(ValueError):
            SchemeParameters(hash_mode="bogus").hash_output_bits(graph)

    def test_nominal_noise_fraction_ordering(self):
        graph = complete_topology(6)
        a = algorithm_a().nominal_noise_fraction(graph)
        b = algorithm_b().nominal_noise_fraction(graph)
        c = algorithm_c().nominal_noise_fraction(graph)
        assert a > c > b  # eps/m > eps/(m log log m) > eps/(m log m)

    def test_iterations_budget(self):
        # max(8, ceil(iteration_factor * chunks) + 6)
        params = SchemeParameters(iteration_factor=0.5)
        assert params.iterations(1) == 8
        assert params.iterations(10) == 11
        assert SchemeParameters(iteration_factor=4.0).iterations(10) == 46

    def test_with_overrides(self):
        params = algorithm_a().with_overrides(hash_constant_bits=4)
        assert params.hash_constant_bits == 4
        assert params.name == "algorithm_a"
        # the original is unchanged (frozen dataclass semantics)
        assert algorithm_a().hash_constant_bits == 8


class TestPresets:
    def test_preset_identities(self):
        assert crs_oblivious_scheme().use_crs is True
        assert algorithm_a().use_crs is False
        assert algorithm_a().k_mode == "m"
        assert algorithm_b().use_crs is False
        assert algorithm_b().k_mode == "m_log_m"
        assert algorithm_b().hash_mode == "log_m"
        assert algorithm_c().use_crs is True
        assert algorithm_c().k_mode == "m_log_log_m"

    def test_scheme_by_name(self):
        for name in SCHEME_PRESETS:
            assert scheme_by_name(name).name == name
        with pytest.raises(ValueError):
            scheme_by_name("algorithm_z")

    def test_preset_overrides(self):
        params = scheme_by_name("algorithm_b", iteration_factor=2.0)
        assert params.iteration_factor == 2.0
