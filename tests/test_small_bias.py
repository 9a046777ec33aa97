"""Tests for the AGHP small-bias generator (Lemma 2.5 substitute)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.gf2m import GF2m
from repro.hashing.small_bias import (
    SmallBiasGenerator,
    empirical_bias,
    required_field_degree,
    seed_length_bits,
)
from repro.utils.bitstring import bits_to_int


class TestParameters:
    def test_required_field_degree(self):
        assert required_field_degree(100, 0.01) == 16
        assert required_field_degree(10_000, 2**-40) == 64

    def test_required_field_degree_validation(self):
        with pytest.raises(ValueError):
            required_field_degree(0, 0.1)
        with pytest.raises(ValueError):
            required_field_degree(10, 1.5)

    def test_seed_length(self):
        assert seed_length_bits(64) == 128


class TestGeneration:
    def test_deterministic(self):
        a = SmallBiasGenerator(seed_bits=123456789, field_degree=32)
        b = SmallBiasGenerator(seed_bits=123456789, field_degree=32)
        assert a.bits(0, 100) == b.bits(0, 100)

    def test_random_access_matches_sequential(self):
        generator = SmallBiasGenerator(seed_bits=0xDEADBEEFCAFEBABE, field_degree=64)
        sequential = generator.bits(0, 200)
        for index in (0, 1, 17, 63, 199):
            assert generator.bit(index) == sequential[index]

    def test_packed_bits_matches_bits(self):
        generator = SmallBiasGenerator(seed_bits=9876543210, field_degree=32)
        bits = generator.bits(37, 48)
        packed = generator.packed_bits(37, 48)
        assert packed == sum(bit << index for index, bit in enumerate(bits))

    def test_offset_validation(self):
        generator = SmallBiasGenerator(seed_bits=1, field_degree=32)
        with pytest.raises(ValueError):
            generator.bits(-1, 4)
        with pytest.raises(ValueError):
            generator.bit(-2)

    def test_different_seeds_give_different_streams(self):
        a = SmallBiasGenerator(seed_bits=1 | (7 << 64), field_degree=64)
        b = SmallBiasGenerator(seed_bits=2 | (9 << 64), field_degree=64)
        assert a.bits(0, 128) != b.bits(0, 128)


class TestBias:
    def test_empirical_bias_requires_bits(self):
        with pytest.raises(ValueError):
            empirical_bias([])

    def test_empirical_bias_of_constant_sequence(self):
        assert empirical_bias([0] * 10) == pytest.approx(0.5)

    def test_average_bias_over_random_seeds_is_small(self):
        """Averaged over seeds, the output of a 2000-bit prefix is close to balanced."""
        rng = random.Random(7)
        biases = []
        for _ in range(12):
            seed = rng.getrandbits(128)
            generator = SmallBiasGenerator(seed_bits=seed, field_degree=64)
            biases.append(empirical_bias(generator.bits(0, 1500)))
        assert sum(biases) / len(biases) < 0.06

    def test_small_bias_generator_quality(self):
        # Lemma 2.5: one 128-bit seed's 2000-bit prefix is nearly balanced.
        generator = SmallBiasGenerator(seed_bits=random.Random(3).getrandbits(128), field_degree=64)
        bits = generator.bits(0, 2000)
        assert len(bits) == 2000
        assert empirical_bias(bits) < 0.12

    def test_parity_of_linear_combinations_is_balanced(self):
        """δ-bias is about parities of arbitrary index subsets, not just single bits."""
        rng = random.Random(11)
        subset = sorted(rng.sample(range(512), 31))
        parities = []
        for _ in range(40):
            generator = SmallBiasGenerator(seed_bits=rng.getrandbits(128), field_degree=64)
            bits = generator.bits(0, 512)
            parities.append(sum(bits[i] for i in subset) % 2)
        fraction_of_ones = sum(parities) / len(parities)
        assert 0.2 <= fraction_of_ones <= 0.8


# ------------------------------------------------------------ jump-ahead --

DEGREES = (8, 16, 32, 64, 128)


def _gf4_element() -> int:
    """An element of order 3 in GF(2^64): it lies in the GF(4) subfield."""
    field = GF2m(64)
    for a in range(2, 100):
        y = field.pow(a, ((1 << 64) - 1) // 3)
        if y != 1:
            return y
    raise AssertionError("no element of order 3 found")


def _degenerate_seeds(degree: int):
    """Seeds whose stream has linear complexity below r (or a zero head)."""
    rng = random.Random(degree)
    x = rng.getrandbits(degree) | 1
    seeds = {
        "x=0": rng.getrandbits(degree) << degree,
        "y=0": x,
        "y=0,x even": x ^ 1,
        "y=1": x | (1 << degree),
        "random": rng.getrandbits(2 * degree),
    }
    if degree == 64:
        seeds["y in GF(4)"] = x | (_gf4_element() << 64)
    return seeds


def _reference(generator: SmallBiasGenerator, offset: int, count: int) -> int:
    return bits_to_int(generator.bits(offset, count))


class TestJumpAheadExpansion:
    """Jump-ahead reads against the per-bit definition, :meth:`bits`."""

    @pytest.mark.parametrize("degree", DEGREES)
    def test_low_linear_complexity_seeds(self, degree):
        for name, seed in _degenerate_seeds(degree).items():
            generator = SmallBiasGenerator(seed_bits=seed, field_degree=degree)
            reads = [(0, 3), (1, 40), (2 * degree - 5, 30), (3000, 200), (70_000, 90)]
            for offset, count in reads:
                assert generator.packed_bits(offset, count) == _reference(generator, offset, count), (name, offset)

    @pytest.mark.parametrize("degree", DEGREES)
    def test_slots_before_and_after_the_head(self, degree):
        """y = 0 gives ``X · 1`` as characteristic polynomial: one head bit
        (bit 0 = x_0), zeros after it, at any distance."""
        generator = SmallBiasGenerator(seed_bits=1, field_degree=degree)
        slots = [(0, 1), (1, 5), (10, 3 * degree), (50_000, 64)]
        assert generator.packed_slots(slots) == (1, 0, 0, 0)
        assert generator.packed_slots(slots) == tuple(_reference(generator, *slot) for slot in slots)

    def test_zero_length_slots(self):
        generator = SmallBiasGenerator(seed_bits=random.Random(1).getrandbits(128))
        assert generator.packed_bits(12_345, 0) == 0
        slots = [(0, 0), (100, 0), (100, 50), (4096, 0), (9000, 20)]
        values = generator.packed_slots(slots)
        assert values == tuple(_reference(generator, *slot) for slot in slots)
        assert values[0] == values[1] == values[3] == 0

    def test_packed_bits_after_packed_slots(self):
        """Reads behind the last jump restart from X^0 and stay exact; a jump
        longer than every earlier one rebuilds the pre-shifted base table."""
        generator = SmallBiasGenerator(seed_bits=random.Random(2).getrandbits(128))
        slots = [(3 * 4096, 256), (4 * 4096, 700), (9 * 4096, 256)]
        assert generator.packed_slots(slots) == tuple(_reference(generator, *slot) for slot in slots)
        for offset, count in [(5000, 300), (0, 128), (100, 1000), (40_000, 10), (50_000, 40), (60_000, 1536)]:
            assert generator.packed_bits(offset, count) == _reference(generator, offset, count)


@st.composite
def _seed_and_slots(draw):
    degree = draw(st.sampled_from(DEGREES))
    seed = draw(
        st.one_of(
            st.integers(0, (1 << (2 * degree)) - 1),
            st.sampled_from(sorted(_degenerate_seeds(degree).values())),
        )
    )
    slots = []
    position = 0
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 20_000), st.integers(0, 1536)), max_size=5)):
        position += gap
        slots.append((position, length))
        position += length
    return degree, seed, slots


@settings(max_examples=60, deadline=None)
@given(_seed_and_slots())
def test_packed_slots_match_bits_property(case):
    degree, seed, slots = case
    generator = SmallBiasGenerator(seed_bits=seed, field_degree=degree)
    assert generator.packed_slots(slots) == tuple(_reference(generator, *slot) for slot in slots)
