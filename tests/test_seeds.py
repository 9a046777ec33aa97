"""Tests for the per-link seed sources (CRS and exchanged δ-biased seeds)."""

from __future__ import annotations

import pytest

from repro.hashing.seeds import SLOTS_PER_ITERATION, CrsSeedSource, ExchangedSeedSource
from repro.hashing.small_bias import SmallBiasGenerator
from repro.utils.bitstring import bits_to_int


class TestCrsSeedSource:
    def test_both_endpoints_agree(self):
        a = CrsSeedSource(master_seed=42, link=(0, 1))
        b = CrsSeedSource(master_seed=42, link=(0, 1))
        assert a.seeds_for_iteration(3, 256, 256) == b.seeds_for_iteration(3, 256, 256)

    def test_different_links_get_different_seeds(self):
        a = CrsSeedSource(master_seed=42, link=(0, 1))
        b = CrsSeedSource(master_seed=42, link=(0, 2))
        assert a.seeds_for_iteration(0, 256, 256)[1] != b.seeds_for_iteration(0, 256, 256)[1]

    def test_different_iterations_differ(self):
        source = CrsSeedSource(master_seed=1, link=(0, 1))
        assert source.seeds_for_iteration(0, 256, 256)[1] != source.seeds_for_iteration(1, 256, 256)[1]

    def test_different_purposes_differ(self):
        counter, prefix = CrsSeedSource(master_seed=1, link=(0, 1)).seeds_for_iteration(0, 256, 256)
        assert counter != prefix

    def test_length_respected(self):
        counter, prefix = CrsSeedSource(master_seed=1, link=(0, 1)).seeds_for_iteration(0, 32, 64)
        assert counter < (1 << 32) and prefix < (1 << 64)

    def test_caching_is_stable(self):
        source = CrsSeedSource(master_seed=1, link=(0, 1))
        first = source.seeds_for_iteration(5, 128, 128)
        assert source.seeds_for_iteration(5, 128, 128) is first
        assert source.derivations == 2


class TestExchangedSeedSource:
    def test_same_link_seed_gives_same_bits(self):
        a = ExchangedSeedSource(link_seed=123456789)
        b = ExchangedSeedSource(link_seed=123456789)
        assert a.seeds_for_iteration(2, 64, 512) == b.seeds_for_iteration(2, 64, 512)

    def test_different_link_seeds_differ(self):
        a = ExchangedSeedSource(link_seed=1 | (5 << 64))
        b = ExchangedSeedSource(link_seed=2 | (6 << 64))
        assert a.seeds_for_iteration(0, 512, 512)[1] != b.seeds_for_iteration(0, 512, 512)[1]

    def test_slots_do_not_overlap(self):
        """Each iteration's slots are disjoint: counter seed at ``3·i·cap``,
        prefix seed one slot later."""
        seed = 0x9D1C_37A2_55B0_4E11_6F08_42D3_91AC_7E65
        cap = 64
        source = ExchangedSeedSource(link_seed=seed, slot_capacity_bits=cap)
        reference = SmallBiasGenerator(seed_bits=seed)
        assert SLOTS_PER_ITERATION == 3
        for iteration in (0, 1, 4):
            expected = tuple(
                bits_to_int(reference.bits((3 * iteration + slot) * cap, cap)) for slot in (0, 1)
            )
            assert source.seeds_for_iteration(iteration, cap, cap) == expected

    def test_capacity_enforced(self):
        source = ExchangedSeedSource(link_seed=1, slot_capacity_bits=128)
        with pytest.raises(ValueError):
            source.seeds_for_iteration(0, 64, 256)
        with pytest.raises(ValueError):
            source.seeds_for_iteration(0, 256, 64)
        assert source.derivations == 0

    def test_negative_iteration_rejected(self):
        source = ExchangedSeedSource(link_seed=1)
        with pytest.raises(ValueError):
            source.seeds_for_iteration(-1, 64, 64)
