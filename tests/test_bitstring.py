"""Unit tests for repro.utils.bitstring."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitstring import (
    bits_to_int,
    flip_planes,
    int_to_bits,
    join_windows,
    pack_slots,
    pack_symbols,
    parity,
    plane_digits,
    positions_to_int,
    set_positions,
    split_windows,
    symbol_to_bit,
    symbols_to_bits,
    unpack_symbols,
)

symbol_windows = st.lists(st.sampled_from([0, 1, None]), max_size=96)


class TestBitsIntConversion:
    def test_bits_to_int_basic(self):
        assert bits_to_int([1, 0, 1]) == 5
        assert bits_to_int([]) == 0
        assert bits_to_int([0, 0, 0, 1]) == 8

    def test_int_to_bits_basic(self):
        assert int_to_bits(5, 4) == [1, 0, 1, 0]
        assert int_to_bits(0, 3) == [0, 0, 0]
        assert int_to_bits(7, 3) == [1, 1, 1]

    def test_bits_to_int_rejects_non_bits(self):
        with pytest.raises(ValueError):
            bits_to_int([0, 2, 1])

    def test_int_to_bits_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)

    @given(st.lists(st.integers(0, 1), max_size=64))
    def test_roundtrip(self, bits):
        assert int_to_bits(bits_to_int(bits), len(bits)) == bits

    @given(st.integers(0, 2**48 - 1))
    def test_roundtrip_int(self, value):
        assert bits_to_int(int_to_bits(value, 48)) == value


class TestParityAndDistance:
    def test_parity(self):
        assert parity(0) == 0
        assert parity(0b1011) == 1
        assert parity(0b11) == 0


class TestSymbolsAndPrefix:
    def test_symbols_to_bits_fills_erasures(self):
        assert symbols_to_bits([1, None, 0]) == [1, 0, 0]
        assert symbols_to_bits([None], erasure_fill=1) == [1]

    def test_symbol_to_bit_matches_sequence_helper(self):
        for symbol in (0, 1, None):
            assert [symbol_to_bit(symbol)] == symbols_to_bits([symbol])
        assert symbol_to_bit(None, erasure_fill=1) == 1


class TestPackedSymbolPlanes:
    """The packed ``(bits, present)`` plane pair the hot transport path runs on."""

    def test_pack_symbols_doc_example(self):
        assert pack_symbols([1, None, 0, 1]) == (9, 13)
        assert unpack_symbols(9, 13, 4) == [1, None, 0, 1]

    def test_pack_symbols_rejects_non_symbols(self):
        with pytest.raises(ValueError):
            pack_symbols([0, 2])

    def test_unpack_symbols_rejects_invariant_breaks(self):
        with pytest.raises(ValueError):
            unpack_symbols(2, 1, 2)  # bits outside the present plane
        with pytest.raises(ValueError):
            unpack_symbols(0, 4, 2)  # present bit beyond the window
        with pytest.raises(ValueError):
            unpack_symbols(0, 0, -1)

    @given(symbol_windows)
    def test_roundtrip_and_invariant(self, symbols):
        bits, present = pack_symbols(symbols)
        assert bits & ~present == 0
        assert present >> len(symbols) == 0
        assert unpack_symbols(bits, present, len(symbols)) == symbols

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_roundtrip_from_planes(self, a, b):
        present = a | b
        bits = a  # a ⊆ a|b by construction, so the invariant holds
        assert pack_symbols(unpack_symbols(bits, present, 64)) == (bits, present)

    @given(symbol_windows)
    def test_popcount_statistics_match_symbol_counts(self, symbols):
        """The O(1)-popcount accounting of the packed transport path counts
        exactly what a per-slot walk over the symbols would."""
        bits, present = pack_symbols(symbols)
        assert present.bit_count() == sum(1 for s in symbols if s is not None)
        assert bits.bit_count() == sum(1 for s in symbols if s == 1)
        # Substitution mask against a reference delivery plane pair.
        delivered = [None if s is None else 1 - s for s in symbols]
        dbits, dpresent = pack_symbols(delivered)
        assert dpresent == present
        flips = (bits ^ dbits) & present
        assert flips.bit_count() == sum(1 for s in symbols if s is not None)


class TestRoundFrameHelpers:
    """The linear plane helpers the round-frame path reads and writes with."""

    def test_zero_width_and_zero_value(self):
        assert plane_digits(0, 0) == ""
        assert plane_digits(0, 3) == "000"
        assert set_positions(0) == []
        assert positions_to_int([], 0) == 0
        assert pack_slots([], 5) == (0, 0)

    @given(symbol_windows)
    def test_helpers_agree_with_pack_symbols(self, symbols):
        count = len(symbols)
        bits, present = pack_symbols(symbols)
        assert pack_slots(
            [(index, symbol) for index, symbol in enumerate(symbols) if symbol is not None], count
        ) == (bits, present)
        digits = plane_digits(present, count)
        assert len(digits) == count
        assert [index for index, digit in enumerate(digits) if digit == "1"] == set_positions(present)
        assert positions_to_int(set_positions(bits), count) == bits
        assert [
            (1 if plane_digits(bits, count)[i] == "1" else 0) if digits[i] == "1" else None
            for i in range(count)
        ] == list(symbols)


class TestLinkMajorPlaneHelpers:
    """The helpers that lay per-link windows out in a link-major plane."""

    @given(st.integers(0, 9), st.lists(st.integers(0, 2**9 - 1), max_size=12))
    def test_split_inverts_join(self, width, values):
        windows = [value & ((1 << width) - 1) for value in values]
        plane = join_windows(windows, width)
        assert plane >> (width * len(windows)) == 0
        assert split_windows(plane, width, len(windows)) == windows
        for j, window in enumerate(windows):
            assert (plane >> (j * width)) & ((1 << width) - 1) == window

    def test_rejects_values_that_do_not_fit(self):
        with pytest.raises(ValueError):
            join_windows([0b100], 2)
        with pytest.raises(ValueError):
            split_windows(1 << 4, 2, 2)

    @given(symbol_windows, st.data())
    def test_flip_planes_toggles_each_listed_position(self, symbols, data):
        count = len(symbols)
        bits, present = pack_symbols(symbols)
        positions = st.lists(st.integers(0, max(count - 1, 0)), unique=True) if count else st.just([])
        bit_flips, present_flips = data.draw(positions), data.draw(positions)
        got_bits, got_present = flip_planes(bits, present, bit_flips, present_flips, count)
        assert got_bits == bits ^ positions_to_int(bit_flips, count)
        assert got_present == present ^ positions_to_int(present_flips, count)


class TestPackedTranscriptRoundTrip:
    """Packed transcript/digest accessors vs the historical unpacked path.

    ``LinkTranscript.prefix_fingerprint`` serves the meeting-points hashing
    from a per-prefix cache; it must stay bit-for-bit what
    ``fingerprint_bits`` computes from ``serialize_prefix``.
    """

    @staticmethod
    def _transcript(chunks):
        from repro.core.transcript import ChunkRecord, LinkTranscript

        transcript = LinkTranscript(owner=0, neighbor=1)
        for index, view in enumerate(chunks):
            transcript.append(ChunkRecord(chunk_index=index, link_view=tuple(view)))
        return transcript

    @given(st.lists(st.lists(st.sampled_from([0, 1, None]), max_size=12), min_size=1, max_size=6))
    def test_prefix_fingerprint_matches_direct_digest(self, chunks):
        from repro.hashing.inner_product import fingerprint_bits

        transcript = self._transcript(chunks)
        for prefix in range(len(chunks) + 1):
            expected = fingerprint_bits(transcript.serialize_prefix(prefix))
            assert transcript.prefix_fingerprint(prefix) == expected

    @given(st.lists(st.lists(st.sampled_from([0, 1, None]), max_size=10), min_size=2, max_size=6),
           st.integers(0, 5))
    def test_packed_caches_survive_truncation(self, chunks, keep):
        from repro.hashing.inner_product import fingerprint_bits

        transcript = self._transcript(chunks)
        full = [transcript.prefix_fingerprint(i) for i in range(len(chunks) + 1)]
        transcript.truncate_to(keep)
        kept = min(keep, len(chunks))
        assert transcript.prefix_fingerprint(kept) == full[kept]
        assert transcript.prefix_fingerprint(kept) == fingerprint_bits(transcript.serialize_prefix(kept))
