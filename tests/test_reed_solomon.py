"""Unit and property tests for the Reed-Solomon code."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.gf256 import GENERATOR, gf_mul, poly_eval
from repro.coding.reed_solomon import DecodingError, ReedSolomonCode, _generator


class TestParameters:
    def test_valid_parameters(self):
        code = ReedSolomonCode(15, 9)
        assert code.parity_length == 6
        assert code.distance == 7
        assert code.rate == pytest.approx(0.6)

    @pytest.mark.parametrize("n,k", [(256, 10), (10, 10), (10, 0), (5, 6)])
    def test_invalid_parameters(self, n, k):
        with pytest.raises(ValueError):
            ReedSolomonCode(n, k)

    def test_generator_polynomial_roots(self):
        code = ReedSolomonCode(12, 8)
        generator = _generator(code.parity_length)
        root = 1  # alpha^0, then alpha^1, ... alpha^(p-1)
        for _ in range(code.parity_length):
            assert poly_eval(generator, root) == 0
            root = gf_mul(root, GENERATOR)


class TestEncoding:
    def test_encode_length_and_systematic_part(self):
        code = ReedSolomonCode(10, 4)
        message = [1, 2, 3, 4]
        codeword = code.encode(message)
        assert len(codeword) == 10
        assert codeword[code.parity_length:] == message

    def test_codeword_has_zero_syndromes(self):
        code = ReedSolomonCode(20, 11)
        codeword = code.encode(list(range(11)))
        assert all(s == 0 for s in code.syndromes(codeword))

    def test_encode_rejects_wrong_length(self):
        code = ReedSolomonCode(10, 4)
        with pytest.raises(ValueError):
            code.encode([1, 2, 3])

    def test_encode_rejects_non_field_symbols(self):
        code = ReedSolomonCode(10, 4)
        with pytest.raises(ValueError):
            code.encode([1, 2, 3, 300])


class TestDecoding:
    def test_no_errors(self):
        code = ReedSolomonCode(12, 6)
        message = [7, 0, 255, 3, 9, 100]
        assert code.decode(code.encode(message)) == message

    def test_single_error(self):
        code = ReedSolomonCode(12, 6)
        message = [7, 0, 255, 3, 9, 100]
        word = code.encode(message)
        word[2] ^= 0x55
        assert code.decode(word) == message

    def test_errors_up_to_half_distance(self):
        code = ReedSolomonCode(16, 8)
        message = list(range(8))
        word = code.encode(message)
        for position in (0, 5, 9, 15):
            word[position] ^= 0xAA
        assert code.decode(word) == message

    def test_erasures_up_to_parity(self):
        code = ReedSolomonCode(16, 8)
        message = list(range(8))
        word = code.encode(message)
        erasures = [0, 3, 5, 7, 9, 11, 13, 15]
        for position in erasures:
            word[position] = 0
        assert code.decode(word, erasure_positions=erasures) == message

    def test_mixed_errors_and_erasures(self):
        code = ReedSolomonCode(20, 10)
        message = list(range(10, 20))
        word = code.encode(message)
        erasures = [1, 2, 3, 4]
        for position in erasures:
            word[position] = 99
        word[10] ^= 1
        word[15] ^= 7
        assert code.decode(word, erasure_positions=erasures) == message

    def test_too_many_erasures(self):
        code = ReedSolomonCode(10, 6)
        word = code.encode([0] * 6)
        with pytest.raises(DecodingError):
            code.decode(word, erasure_positions=[0, 1, 2, 3, 4])

    def test_beyond_radius_raises_or_miscorrects(self):
        """Beyond the radius the decoder raises or lands on *some* codeword,
        and a successful decode is always a bounded-distance decode: the
        message of a codeword within (n - k) // 2 symbols of the word."""
        code = ReedSolomonCode(10, 6)
        message = [1, 2, 3, 4, 5, 6]
        rng = random.Random(0)
        outcomes = set()
        for trial in range(100):
            # Even trials: 6 errors on the codeword of ``message``.  Odd
            # trials: 2 errors on another codeword, which is just as far
            # beyond the radius of ``message``'s codeword.
            source = message if trial % 2 == 0 else [rng.randrange(256) for _ in range(6)]
            word = code.encode(source)
            for position in rng.sample(range(10), 6 if trial % 2 == 0 else 2):
                word[position] ^= rng.randrange(1, 256)
            try:
                decoded = code.decode(word)
            except DecodingError:
                outcomes.add("raised")
                continue
            outcomes.add("decoded")
            distance = sum(a != b for a, b in zip(code.encode(decoded), word))
            assert distance <= code.parity_length // 2
        assert outcomes == {"raised", "decoded"}

    def test_wrong_length_rejected(self):
        code = ReedSolomonCode(10, 6)
        with pytest.raises(ValueError):
            code.decode([0] * 9)

    def test_erasure_position_out_of_range(self):
        code = ReedSolomonCode(10, 6)
        with pytest.raises(ValueError):
            code.decode(code.encode([0] * 6), erasure_positions=[10])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(8, 40),
    st.data(),
)
def test_random_error_erasure_patterns_roundtrip(n, data):
    """Any pattern with 2*errors + erasures <= n-k must decode correctly."""
    k = data.draw(st.integers(1, n - 4))
    code = ReedSolomonCode(n, k)
    message = data.draw(st.lists(st.integers(0, 255), min_size=k, max_size=k))
    word = code.encode(message)
    parity = n - k
    num_erasures = data.draw(st.integers(0, parity))
    num_errors = data.draw(st.integers(0, (parity - num_erasures) // 2))
    positions = data.draw(
        st.lists(st.integers(0, n - 1), min_size=num_erasures + num_errors,
                 max_size=num_erasures + num_errors, unique=True)
    )
    erasures = positions[:num_erasures]
    errors = positions[num_erasures:]
    for position in erasures:
        word[position] = data.draw(st.integers(0, 255))
    for position in errors:
        word[position] ^= data.draw(st.integers(1, 255))
    assert code.decode(word, erasure_positions=erasures) == message
