"""Differential tests: the table-driven coding layer against a frozen oracle.

The oracle below is the straightforward Reed–Solomon pipeline over
per-element ``gf_mul`` calls (generator rebuilt per encode, syndromes by
Horner evaluation, a per-bit binary wrapper).  It is kept here, not in
``src/``, as the reference semantics: on every word, within or beyond the
decoding radius and with or without erasures, the library must return the
same codeword, the same message, or a ``DecodingError`` exactly when the
oracle does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.block_code import BinaryBlockCode
from repro.coding.reed_solomon import DecodingError, ReedSolomonCode
from repro.utils.bitstring import bits_to_int, int_to_bits, pack_symbols

# ------------------------------------------------------------------ oracle --

_EXP = [0] * 512
_LOG = [0] * 256
_value = 1
for _power in range(255):
    _EXP[_power] = _value
    _LOG[_value] = _power
    _value <<= 1
    if _value & 256:
        _value ^= 0x11D
for _power in range(255, 512):
    _EXP[_power] = _EXP[_power - 255]


def _mul(a: int, b: int) -> int:
    return 0 if a == 0 or b == 0 else _EXP[_LOG[a] + _LOG[b]]


def _pow2(exponent: int) -> int:
    return _EXP[exponent % 255]


def _inv(a: int) -> int:
    return _EXP[255 - _LOG[a]]


def _trim(poly: Sequence[int]) -> List[int]:
    out = list(poly)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _add(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * max(len(a), len(b))
    for i, coeff in enumerate(a):
        out[i] ^= coeff
    for i, coeff in enumerate(b):
        out[i] ^= coeff
    return _trim(out)


def _pmul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, coeff_a in enumerate(a):
        for j, coeff_b in enumerate(b):
            out[i + j] ^= _mul(coeff_a, coeff_b)
    return _trim(out)


def _eval(poly: Sequence[int], x: int) -> int:
    result = 0
    for coeff in reversed(list(poly)):
        result = _mul(result, x) ^ coeff
    return result


def _deg(poly: Sequence[int]) -> int:
    return len(_trim(poly)) - 1


def _divmod(numerator: Sequence[int], denominator: Sequence[int]):
    num, den = _trim(numerator), _trim(denominator)
    quotient = [0] * max(1, len(num) - len(den) + 1)
    remainder = list(num)
    lead_inv = _inv(den[-1])
    for shift in range(len(num) - len(den), -1, -1):
        coeff = _mul(remainder[shift + len(den) - 1], lead_inv)
        quotient[shift] = coeff
        for i, den_coeff in enumerate(den):
            remainder[shift + i] ^= _mul(coeff, den_coeff)
    return _trim(quotient), _trim(remainder)


def oracle_encode(n: int, k: int, message: Sequence[int]) -> List[int]:
    parity = n - k
    generator = [1]
    for i in range(parity):
        generator = _pmul(generator, [_pow2(i), 1])
    _, remainder = _divmod([0] * parity + list(message), generator)
    return (list(remainder) + [0] * parity)[:parity] + list(message)


def oracle_decode(n: int, k: int, received: Sequence[int], erasure_positions: Sequence[int] = ()) -> List[int]:
    parity = n - k
    word = list(received)
    erasures = sorted(set(erasure_positions))
    if len(erasures) > parity:
        raise DecodingError("more erasures than parity symbols")

    def syndromes(values):
        return [_eval(values, _pow2(j)) for j in range(parity)]

    synd = syndromes(word)
    if all(s == 0 for s in synd):
        return word[parity:]
    gamma = [1]
    for position in erasures:
        gamma = _pmul(gamma, [1, _pow2(position)])
    syndrome_poly = _trim(synd)
    modified = _trim(_pmul(syndrome_poly, gamma)[:parity])
    if all(c == 0 for c in modified):
        locator = [1]
    else:
        r_prev, r_curr = [0] * parity + [1], _trim(modified)
        v_prev, v_curr = [0], [1]
        while r_curr != [0] and 2 * _deg(r_curr) >= parity + len(erasures):
            quotient, remainder = _divmod(r_prev, r_curr)
            r_prev, r_curr = r_curr, remainder
            v_prev, v_curr = v_curr, _add(v_prev, _pmul(quotient, v_curr))
        locator = _trim(v_curr)
        if locator == [0]:
            raise DecodingError("degenerate error locator")
    errata = _pmul(locator, gamma)
    positions = [p for p in range(n) if _eval(errata, _inv(_pow2(p))) == 0]
    if len(positions) != _deg(errata):
        raise DecodingError("errata locator does not split over the field")
    omega = _trim(_pmul(syndrome_poly, errata)[:parity])
    derivative = _trim([errata[j] if j % 2 == 1 else 0 for j in range(1, len(errata))] or [0])
    corrected = list(word)
    for position in positions:
        x_i = _pow2(position)
        x_inv = _inv(x_i)
        denominator = _eval(derivative, x_inv)
        if denominator == 0:
            raise DecodingError("Forney denominator vanished")
        corrected[position] ^= _mul(x_i, _mul(_eval(omega, x_inv), _inv(denominator)))
    if any(s != 0 for s in syndromes(corrected)):
        raise DecodingError("residual syndromes after correction")
    return corrected[parity:]


def oracle_blocks(code: BinaryBlockCode) -> List[ReedSolomonCode]:
    """The RS block layout of a binary code."""
    blocks = []
    remaining = code.message_symbols
    while remaining > 0:
        k = min(code.symbols_per_block, remaining)
        blocks.append(ReedSolomonCode(max(k + 1, min(255, code.expansion * k)), k))
        remaining -= k
    return blocks


def oracle_binary_decode(code: BinaryBlockCode, received: Sequence[Optional[int]]) -> List[int]:
    """The per-bit binary wrapper over the oracle RS decoder."""
    codeword_bits = 8 * sum(block.block_length for block in oracle_blocks(code))
    padded = list(received[:codeword_bits])
    padded.extend([None] * (codeword_bits - len(padded)))
    message: List[int] = []
    cursor = 0
    for block in oracle_blocks(code):
        word, erasures = [], []
        for symbol in range(block.block_length):
            value, erased = 0, False
            for offset in range(8):
                bit = padded[cursor + 8 * symbol + offset]
                if bit is None:
                    erased = True
                elif bit:
                    value |= 1 << offset
            word.append(value)
            if erased:
                erasures.append(symbol)
        cursor += 8 * block.block_length
        message.extend(oracle_decode(block.block_length, block.message_length, word, erasures))
    bits = [(symbol >> offset) & 1 for symbol in message for offset in range(8)]
    return bits[: code.message_bits]


def _outcome(call):
    try:
        return call()
    except DecodingError:
        return "DecodingError"


# ------------------------------------------------------------------- tests --


@st.composite
def _rs_case(draw):
    n = draw(st.integers(4, 60))
    k = draw(st.integers(1, n - 1))
    message = draw(st.lists(st.integers(0, 255), min_size=k, max_size=k))
    word = oracle_encode(n, k, message)
    parity = n - k
    # Within the radius, at it, and well beyond it.
    budget = draw(st.sampled_from([parity // 2, parity, parity + 2, n]))
    erasures = draw(st.lists(st.integers(0, n - 1), max_size=min(budget, parity + 1), unique=True))
    errors = draw(st.lists(st.integers(0, n - 1), max_size=max(0, budget - len(erasures)), unique=True))
    for position in erasures:
        word[position] = draw(st.integers(0, 255))
    for position in errors:
        word[position] ^= draw(st.integers(1, 255))
    return n, k, message, word, erasures


@settings(max_examples=300, deadline=None)
@given(_rs_case())
def test_reed_solomon_matches_oracle(case):
    n, k, message, word, erasures = case
    code = ReedSolomonCode(n, k)
    assert code.encode(message) == oracle_encode(n, k, message)
    expected = _outcome(lambda: oracle_decode(n, k, word, erasures))
    assert _outcome(lambda: code.decode(word, erasure_positions=erasures)) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_binary_block_code_matches_oracle(data):
    message_bits = data.draw(st.sampled_from([8, 13, 64, 128, 200, 720]))  # 720: two RS blocks
    code = BinaryBlockCode(message_bits=message_bits, expansion=data.draw(st.sampled_from([2, 3])))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=message_bits, max_size=message_bits))
    codeword = int_to_bits(code.encode(bits_to_int(bits)), code.codeword_bits)
    assert codeword == [
        (symbol >> offset) & 1
        for block_message, block in _split(bits, code)
        for symbol in oracle_encode(block.block_length, block.message_length, block_message)
        for offset in range(8)
    ]
    received: List[Optional[int]] = list(codeword)
    corruptions = data.draw(st.sampled_from([2, 8, 40, 150]))
    for index, symbol in data.draw(
        st.lists(st.tuples(st.integers(0, len(codeword) - 1), st.sampled_from([None, 0, 1])), max_size=corruptions)
    ):
        received[index] = symbol
    received = received[: data.draw(st.integers(len(received) - 20, len(received) + 5))]
    expected = _outcome(lambda: bits_to_int(oracle_binary_decode(code, received)))
    assert _outcome(lambda: code.decode(*pack_symbols(received))) == expected


def _split(bits: Sequence[int], code: BinaryBlockCode):
    symbols = [
        sum(bits[8 * index + offset] << offset for offset in range(8) if 8 * index + offset < len(bits))
        for index in range(code.message_symbols)
    ]
    cursor = 0
    for block in oracle_blocks(code):
        yield symbols[cursor:cursor + block.message_length], block
        cursor += block.message_length
