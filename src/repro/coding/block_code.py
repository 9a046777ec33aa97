"""Binary block code used by the randomness exchange.

Algorithm 5 sends a uniformly random seed ``L`` encoded as ``C(L)`` over a
link, one bit per round.  Because the exchange happens on a fixed schedule,
a deletion is perceived as an erasure and an insertion outside the schedule
is simply ignored, so the code only needs to handle bit substitutions and
bit erasures (paper footnote 9).

``BinaryBlockCode`` realises Theorem 2.1's "constant rate, constant distance,
efficiently encodable/decodable binary code" as a Reed–Solomon code over
GF(256) whose symbols are expanded to bits.  Long messages are split into
independent RS blocks so that any message length is supported.  A bit-level
erasure marks its containing byte as an erased RS symbol; a bit flip becomes
(at most) one RS symbol error.

With the default expansion factor of 3 the binary rate is 1/3 and each block
corrects up to ``k`` byte errors out of ``3k`` byte positions — i.e. a
constant fraction of corrupted bits, which is all the analysis in Section 5
requires.

Messages and codewords are integers, bit ``i`` being message or wire bit
``i``, and a received word is a ``(bits, present)`` plane pair (the
:func:`~repro.utils.bitstring.pack_symbols` convention), so the code takes
the transport's planes as they arrive.  Bits and GF(256) symbols convert
through ``int.to_bytes``/``int.from_bytes`` in C: byte ``j`` of the
little-endian encoding is symbol ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List

from repro.coding.reed_solomon import DecodingError, ReedSolomonCode

__all__ = ["BinaryBlockCode", "DecodingError"]

_BITS_PER_SYMBOL = 8


@dataclass(frozen=True)
class BinaryBlockCode:
    """A constant-rate binary code built from chunked Reed–Solomon blocks.

    Parameters
    ----------
    message_bits:
        Length (in bits) of the messages this instance encodes.
    expansion:
        Codeword-to-message length ratio per block (>= 2); the default of 3
        matches the "rate 1/3" instantiation suggested under Theorem 2.1.
    max_block_symbols:
        Upper bound on RS block length (must be <= 255).
    """

    message_bits: int
    expansion: int = 3
    max_block_symbols: int = 255

    def __post_init__(self) -> None:
        if self.message_bits <= 0:
            raise ValueError("message_bits must be positive")
        if self.expansion < 2:
            raise ValueError("expansion must be at least 2")
        if not 3 <= self.max_block_symbols <= 255:
            raise ValueError("max_block_symbols must lie in [3, 255]")

    # -- layout -----------------------------------------------------------------

    @property
    def message_symbols(self) -> int:
        """Number of GF(256) symbols needed to carry the message bits."""
        return (self.message_bits + _BITS_PER_SYMBOL - 1) // _BITS_PER_SYMBOL

    @property
    def symbols_per_block(self) -> int:
        """Message symbols carried by each RS block (last block may be shorter)."""
        max_k = max(1, self.max_block_symbols // self.expansion)
        return min(self.message_symbols, max_k)

    @cached_property
    def _blocks(self) -> List[ReedSolomonCode]:
        """The RS code of every block, in order."""
        blocks: List[ReedSolomonCode] = []
        remaining = self.message_symbols
        per_block = self.symbols_per_block
        while remaining > 0:
            k = min(per_block, remaining)
            n = min(255, self.expansion * k)
            if n <= k:
                n = k + 1
            blocks.append(ReedSolomonCode(block_length=n, message_length=k))
            remaining -= k
        return blocks

    @cached_property
    def codeword_bits(self) -> int:
        """Total number of bits in an encoded message."""
        return sum(code.block_length for code in self._blocks) * _BITS_PER_SYMBOL

    @property
    def rate(self) -> float:
        return self.message_bits / self.codeword_bits

    # -- public API ------------------------------------------------------------------

    def encode(self, message: int) -> int:
        """Encode a ``message_bits``-bit message into a ``codeword_bits``-bit codeword."""
        if message < 0 or message >> self.message_bits:
            raise ValueError(f"message must be a non-negative {self.message_bits}-bit integer")
        symbols = message.to_bytes(self.message_symbols, "little")
        codeword = bytearray()
        cursor = 0
        for code in self._blocks:
            codeword += bytes(code.encode(symbols[cursor:cursor + code.message_length]))
            cursor += code.message_length
        return int.from_bytes(codeword, "little")

    def decode(self, bits: int, present: int) -> int:
        """Decode a received word given as ``(bits, present)`` planes.

        A byte with any cleared ``present`` bit is an erased RS symbol whose
        missing bits read 0.  Slots beyond the codeword are ignored.  Raises
        :class:`DecodingError` if any block is beyond the correction radius.
        """
        num_symbols = self.codeword_bits // _BITS_PER_SYMBOL
        full = (1 << self.codeword_bits) - 1
        word = (bits & present & full).to_bytes(num_symbols, "little")
        received = (present & full).to_bytes(num_symbols, "little")
        erased = [index for index, byte in enumerate(received) if byte != 0xFF]

        message = bytearray()
        cursor = 0
        for code in self._blocks:
            end = cursor + code.block_length
            erasures = [symbol - cursor for symbol in erased if cursor <= symbol < end]
            message += bytes(code.decode(word[cursor:end], erasure_positions=erasures))
            cursor = end
        return int.from_bytes(message, "little") & ((1 << self.message_bits) - 1)
