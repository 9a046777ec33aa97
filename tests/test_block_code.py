"""Unit and property tests for the binary block code (randomness-exchange ECC)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.block_code import BinaryBlockCode, DecodingError
from repro.utils.bitstring import bits_to_int, int_to_bits, pack_symbols


def _encode(code, bits):
    """The codeword of a bit-list message, as a bit list."""
    return int_to_bits(code.encode(bits_to_int(bits)), code.codeword_bits)


def _decode(code, symbols):
    """Decode received symbols (0, 1 or None); the message as a bit list."""
    return int_to_bits(code.decode(*pack_symbols(symbols)), code.message_bits)


class TestLayout:
    def test_basic_parameters(self):
        code = BinaryBlockCode(message_bits=128)
        assert code.message_symbols == 16
        assert code.codeword_bits == 16 * 3 * 8
        assert code.rate == pytest.approx(1 / 3)

    def test_long_message_is_chunked(self):
        code = BinaryBlockCode(message_bits=8 * 300)  # 300 bytes > 255/3 per block
        assert code.codeword_bits >= 3 * 8 * 300
        assert code.rate <= 1 / 3 + 0.01

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BinaryBlockCode(message_bits=0)
        with pytest.raises(ValueError):
            BinaryBlockCode(message_bits=8, expansion=1)
        with pytest.raises(ValueError):
            BinaryBlockCode(message_bits=8, max_block_symbols=999)

    def test_encode_rejects_wrong_length(self):
        code = BinaryBlockCode(message_bits=16)
        with pytest.raises(ValueError):
            code.encode(1 << 16)
        with pytest.raises(ValueError):
            code.encode(-1)


class TestRoundtrip:
    def test_clean_roundtrip(self):
        code = BinaryBlockCode(message_bits=64)
        message = [i % 2 for i in range(64)]
        assert _decode(code, _encode(code, message)) == message

    def test_bit_flips_within_radius(self):
        code = BinaryBlockCode(message_bits=64)
        message = [1] * 64
        word = _encode(code, message)
        # flip a handful of bits inside the same byte so only one RS symbol is hit
        for offset in (0, 1, 2):
            word[offset] ^= 1
        assert _decode(code, word) == message

    def test_erasures(self):
        code = BinaryBlockCode(message_bits=64)
        message = [i % 2 for i in range(64)]
        word = _encode(code, message)
        for index in range(0, 40):
            word[index] = None
        assert _decode(code, word) == message

    def test_truncated_word_is_padded_with_erasures(self):
        code = BinaryBlockCode(message_bits=32)
        message = [1, 0] * 16
        word = _encode(code, message)
        assert _decode(code, word[: len(word) - 30]) == message

    def test_hopeless_corruption_raises(self):
        code = BinaryBlockCode(message_bits=64)
        word = _encode(code, [0] * 64)
        rng = random.Random(1)
        corrupted = [rng.getrandbits(1) for _ in word]
        with pytest.raises(DecodingError):
            # either a decoding error, or (rarely) a silent miscorrection;
            # force failure by checking the value too
            decoded = _decode(code, corrupted)
            if decoded != [0] * 64:
                raise DecodingError("miscorrected")


@settings(max_examples=30, deadline=None)
@given(st.integers(8, 260), st.integers(0, 2**32 - 1))
def test_random_low_rate_noise_roundtrip(message_bits, seed):
    """A few percent of random bit corruptions must always be corrected."""
    rng = random.Random(seed)
    code = BinaryBlockCode(message_bits=message_bits)
    message = [rng.getrandbits(1) for _ in range(message_bits)]
    word = _encode(code, message)
    corruptions = int(0.03 * len(word))
    for index in rng.sample(range(len(word)), corruptions):
        word[index] = None if rng.random() < 0.5 else 1 - word[index]
    assert _decode(code, word) == message


class TestPlanes:
    def test_a_byte_with_any_missing_bit_is_erased(self):
        """One deleted bit erases its whole byte, whatever the other bits say."""
        code = BinaryBlockCode(message_bits=64)
        message = 0x0123_4567_89AB_CDEF
        codeword = code.encode(message)
        full = (1 << code.codeword_bits) - 1
        # Flip every bit of the first 12 bytes (24 in the codeword, 16 parity):
        # as erasures they are within the radius, as errors they are not.
        bits = codeword ^ ((1 << 96) - 1)
        with pytest.raises(DecodingError):
            code.decode(bits, full)
        present = full
        for byte in range(12):
            present &= ~(1 << (8 * byte + 3))
        assert code.decode(bits & present, present) == message

    def test_slots_beyond_the_codeword_are_ignored(self):
        code = BinaryBlockCode(message_bits=32)
        codeword = code.encode(0xDEADBEEF)
        tail = 0b101 << code.codeword_bits
        present = (1 << (code.codeword_bits + 3)) - 1
        assert code.decode(codeword | tail, present) == 0xDEADBEEF

    def test_randomness_exchange_seed_survives_mixed_noise(self):
        """Theorem 2.1: a 128-bit seed survives 3% erasures and substitutions."""
        code = BinaryBlockCode(message_bits=128)
        rng = random.Random(1)
        message = rng.getrandbits(128)
        width = code.codeword_bits
        bits, present = code.encode(message), (1 << width) - 1
        for index in rng.sample(range(width), int(0.03 * width)):
            if rng.random() < 0.5:  # erasure
                bits &= ~(1 << index)
                present &= ~(1 << index)
            else:  # substitution
                bits ^= 1 << index
        assert code.decode(bits, present) == message
