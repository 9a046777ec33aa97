"""Unit tests for repro.utils.rng."""

from __future__ import annotations

import pytest

from repro.utils.bitstring import bits_to_int
from repro.utils.rng import fork, fork_seed, make_rng, random_bits, stable_label_hash


class TestStability:
    def test_stable_label_hash_is_deterministic(self):
        assert stable_label_hash("abc") == stable_label_hash("abc")
        assert stable_label_hash("abc") != stable_label_hash("abd")

    def test_make_rng_reproducible(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_fork_same_label_same_stream(self):
        assert fork(1, "x").random() == fork(1, "x").random()

    def test_fork_different_labels_differ(self):
        assert fork(1, "x").random() != fork(1, "y").random()

    def test_fork_seed_matches_fork(self):
        # fork() must be equivalent to seeding with fork_seed().
        assert fork(3, "label").random() == make_rng(fork_seed(3, "label")).random()


class TestBitGeneration:
    def test_random_bits_length_and_values(self):
        bits = random_bits(make_rng(0), 100)
        assert len(bits) == 100
        assert set(bits) <= {0, 1}

    def test_random_bits_negative_count(self):
        with pytest.raises(ValueError):
            random_bits(make_rng(0), -1)

    @pytest.mark.parametrize("count", [0, 1, 31, 128, 1000])
    def test_random_bits_matches_one_getrandbits_per_bit(self, count):
        """The bulk read is draw for draw the per-bit loop, and leaves the
        generator in the same state."""
        bulk, reference = make_rng(count), make_rng(count)
        reference.random()
        bulk.random()
        assert random_bits(bulk, count) == [reference.getrandbits(1) for _ in range(count)]
        assert bulk.getstate() == reference.getstate()


class TestBitsToInt:
    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 128, 1001])
    def test_packs_lsb_first(self, count):
        bits = random_bits(make_rng(count), count)
        expected = sum(bit << index for index, bit in enumerate(bits))
        assert bits_to_int(bits) == bits_to_int(tuple(bits)) == bits_to_int(iter(bits)) == expected

    @pytest.mark.parametrize(
        "bits, index, bad",
        [([0, 1, 2], 2, "2"), ([1, -1], 1, "-1"), ([0, 0, 0, "1"], 3, "'1'"), ([True, 0.5], 1, "0.5"), (iter([1, 0, 9]), 2, "9")],
    )
    def test_names_the_bad_index(self, bits, index, bad):
        with pytest.raises(ValueError, match=f"^bit at index {index} is {bad}, expected 0 or 1$"):
            bits_to_int(bits)

    def test_bools_and_exact_reals_are_bits(self):
        assert bits_to_int([True, False, 1.0]) == 5
