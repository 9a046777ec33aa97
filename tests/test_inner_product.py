"""Tests for the inner-product hash (Definition 2.2, Lemma 2.3)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.inner_product import FINGERPRINT_BITS, InnerProductHash, fingerprint_bits


class TestFingerprint:
    def test_width_and_determinism(self):
        a = fingerprint_bits(b"hello")
        assert 0 <= a < (1 << FINGERPRINT_BITS)
        assert a == fingerprint_bits(b"hello")
        assert a != fingerprint_bits(b"hellp")

    def test_custom_width(self):
        assert fingerprint_bits(b"x", width=64) < (1 << 64)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            fingerprint_bits(b"x", width=7)


class TestInnerProductHash:
    def test_output_bits_validation(self):
        with pytest.raises(ValueError):
            InnerProductHash(0)

    def test_seed_length(self):
        hasher = InnerProductHash(8)
        assert hasher.seed_bits_required(128) == 1024
        with pytest.raises(ValueError):
            hasher.seed_bits_required(0)

    def test_digest_range_checks(self):
        hasher = InnerProductHash(4)
        with pytest.raises(ValueError):
            hasher.digest(16, 4, 0)  # value does not fit
        with pytest.raises(ValueError):
            hasher.digest(1, 4, 1 << 20)  # seed too long

    def test_zero_input_hashes_to_zero(self):
        hasher = InnerProductHash(8)
        seed = random.Random(0).getrandbits(hasher.seed_bits_required(32))
        assert hasher.digest(0, 32, seed) == 0

    def test_linear_in_input(self):
        """h(x) xor h(y) == h(x xor y) — the hash is GF(2)-linear per output bit."""
        hasher = InnerProductHash(6)
        rng = random.Random(3)
        seed = rng.getrandbits(hasher.seed_bits_required(64))
        for _ in range(20):
            x = rng.getrandbits(64)
            y = rng.getrandbits(64)
            assert hasher.digest(x, 64, seed) ^ hasher.digest(y, 64, seed) == hasher.digest(x ^ y, 64, seed)

    def test_uniform_output_for_nonzero_input(self):
        """Lemma 2.3: over a uniform seed, the output of a fixed non-zero input is uniform."""
        hasher = InnerProductHash(2)
        rng = random.Random(5)
        counts = {value: 0 for value in range(4)}
        x = 0b1011
        for _ in range(800):
            seed = rng.getrandbits(hasher.seed_bits_required(4))
            counts[hasher.digest(x, 4, seed)] += 1
        for value, count in counts.items():
            assert 120 < count < 280  # expected 200 each

    @staticmethod
    def _collision_rate(hasher, left, right, trials, rng):
        x, y = fingerprint_bits(left), fingerprint_bits(right)
        collisions = 0
        for _ in range(trials):
            seed = rng.getrandbits(hasher.seed_bits_required(FINGERPRINT_BITS))
            if hasher.digest(x, FINGERPRINT_BITS, seed) == hasher.digest(y, FINGERPRINT_BITS, seed):
                collisions += 1
        return collisions / trials

    def test_collision_probability_close_to_nominal(self):
        """Distinct inputs collide with probability about 2^-tau over the seed."""
        hasher = InnerProductHash(4)
        rate = self._collision_rate(hasher, b"left", b"right", 600, random.Random(9))
        assert rate < 4 * hasher.collision_probability()

    def test_inner_product_hash_collision_rate(self):
        """Lemma 2.3 at tau = 8: two transcripts collide about 2^-8 of the time."""
        hasher = InnerProductHash(8)
        rate = self._collision_rate(hasher, b"transcript-one", b"transcript-two", 400, random.Random(0))
        assert rate <= 6 * hasher.collision_probability()

    def test_collision_probability_property(self):
        assert InnerProductHash(8).collision_probability() == pytest.approx(1 / 256)

    @given(st.integers(1, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_same_input_same_seed_same_output(self, value, seed_base):
        hasher = InnerProductHash(8)
        seed = seed_base % (1 << hasher.seed_bits_required(32))
        assert hasher.digest(value, 32, seed) == hasher.digest(value, 32, seed)
