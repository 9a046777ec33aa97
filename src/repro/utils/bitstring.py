"""Bit-string helpers used across the library.

The interactive-coding machinery manipulates three kinds of low-level data:

* plain bit sequences (``list[int]`` with values in ``{0, 1}``),
* symbol sequences over the channel alphabet ``{0, 1, None}`` where ``None``
  stands for the "no message" symbol ``*`` of the paper,
* compact integer encodings of bit sequences (used by the inner-product hash
  and by the GF(2^r) arithmetic behind the small-bias generator).

All helpers are pure functions; no module-level mutable state.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

Bit = int
Symbol = Optional[int]  # 0, 1 or None (the "*" / no-message symbol)


def bits_to_int(bits: Sequence[Bit]) -> int:
    """Pack a bit sequence into an integer (bit 0 of the sequence is the LSB).

    >>> bits_to_int([1, 0, 1])
    5
    """
    if not isinstance(bits, (list, tuple)):
        bits = list(bits)
    try:
        packed = bytes(bits)
    except (TypeError, ValueError):
        packed = None
    if packed is not None and not packed.translate(None, b"\x00\x01"):
        # Every bit is 0 or 1: read the bytes, last first, as binary digits.
        return int(packed[::-1].replace(b"\x00", b"0").replace(b"\x01", b"1") or b"0", 2)
    value = 0
    for index, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit at index {index} is {bit!r}, expected 0 or 1")
        if bit:
            value |= 1 << index
    return value


def int_to_bits(value: int, width: int) -> List[Bit]:
    """Unpack ``value`` into ``width`` bits, LSB first.

    >>> int_to_bits(5, 4)
    [1, 0, 1, 0]
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    if width < 0:
        raise ValueError("width must be non-negative")
    return [(value >> i) & 1 for i in range(width)]


def parity(value: int) -> Bit:
    """Parity (XOR of all bits) of a non-negative integer."""
    return value.bit_count() & 1


def symbol_to_bit(symbol: Symbol, erasure_fill: Bit = 0) -> Bit:
    """Convert one channel symbol to a bit, mapping erasure (``None``) to a filler.

    The single-symbol companion of :func:`symbols_to_bits`, used wherever a
    receiver must feed a possibly-deleted slot into protocol logic.
    """
    return erasure_fill if symbol is None else int(symbol)


def symbols_to_bits(symbols: Iterable[Symbol], erasure_fill: Bit = 0) -> List[Bit]:
    """Convert channel symbols to bits, mapping the erasure symbol to a filler.

    The coding scheme records ``None`` (the paper's ``*``) whenever a deletion
    left a hole in a transcript.  When such a transcript is replayed into the
    underlying protocol the hole must be filled with *some* bit; the filler is
    semantically arbitrary because the surrounding machinery will detect and
    rewind the inconsistency.
    """
    return [erasure_fill if s is None else int(s) for s in symbols]


def pack_symbols(symbols: Sequence[Symbol]) -> Tuple[int, int]:
    """Pack channel symbols into two bit planes ``(bits, present)``.

    Slot ``i`` carries a symbol iff bit ``i`` of ``present`` is set; its value
    is then bit ``i`` of ``bits``.  Silence (``None``, the paper's ``*``) is a
    cleared ``present`` bit.  The representation maintains the invariant
    ``bits & ~present == 0``, which is what makes the O(1) popcount formulas
    of the packed transport path (substitutions, deletions, insertions per
    window) well defined.

    >>> pack_symbols([1, None, 0, 1])
    (9, 13)
    """
    bits = 0
    present = 0
    for index, symbol in enumerate(symbols):
        if symbol is None:
            continue
        if symbol == 1:
            bits |= 1 << index
            present |= 1 << index
        elif symbol == 0:
            present |= 1 << index
        else:
            raise ValueError(f"invalid channel symbol {symbol!r} at index {index}")
    return bits, present


def plane_digits(value: int, count: int) -> str:
    """The binary digits of ``value``, least significant first, padded to ``count``.

    ``plane_digits(value, count)[i] == "1"`` exactly when bit ``i`` is set.
    One conversion costs O(count); reading a slot is then O(1), where
    ``(value >> i) & 1`` costs O(count) per slot on a long plane.

    >>> plane_digits(6, 4)
    '0110'
    >>> plane_digits(0, 0)
    ''
    """
    return (format(value, "b") if value else "").zfill(count)[::-1]


def set_positions(value: int) -> List[int]:
    """Ascending positions of the set bits of ``value``, in time linear in its length.

    >>> set_positions(0b10110)
    [1, 2, 4]
    """
    digits = format(value, "b")[::-1]
    find = digits.find
    positions: List[int] = []
    position = find("1")
    while position >= 0:
        positions.append(position)
        position = find("1", position + 1)
    return positions


def positions_to_int(positions: Iterable[int], count: int) -> int:
    """The integer whose set bits are exactly ``positions`` (all below ``count``).

    Linear in ``count``: the bits are collected in a byte buffer, so no
    intermediate integer is ever rebuilt.

    >>> positions_to_int([1, 2, 4], 5)
    22
    """
    buffer = bytearray((count + 7) >> 3)
    for position in positions:
        buffer[position >> 3] |= 1 << (position & 7)
    return int.from_bytes(buffer, "little")


def pack_slots(slots: Iterable[Tuple[int, Bit]], count: int) -> Tuple[int, int]:
    """The ``(bits, present)`` planes carrying bit ``b`` at each ``(position, b)``.

    Every other slot below ``count`` is silent.  Linear in ``count``, like
    :func:`positions_to_int`.

    >>> pack_slots([(0, 1), (2, 0), (3, 1)], 4)
    (9, 13)
    """
    present: List[int] = []
    ones: List[int] = []
    for position, bit in slots:
        present.append(position)
        if bit:
            ones.append(position)
    return positions_to_int(ones, count), positions_to_int(present, count)


def flip_planes(
    bits: int, present: int, bit_flips: List[int], present_flips: List[int], count: int
) -> Tuple[int, int]:
    """Toggle the listed positions of the two planes, one pass each (not one
    whole-plane mask per position).

    >>> flip_planes(0b01, 0b11, [0, 2], [2], 3)
    (4, 7)
    """
    if bit_flips:
        bits ^= positions_to_int(bit_flips, count)
    if present_flips:
        present ^= positions_to_int(present_flips, count)
    return bits, present


def join_windows(windows: Sequence[int], width: int) -> int:
    """Lay ``width``-bit values side by side: ``windows[j]`` occupies bits
    ``[j * width, (j + 1) * width)``.

    One shift per window: for the plane sizes the transport carries (tens of
    links × tens of rounds) that beats any per-bit or string conversion.

    >>> join_windows([0b01, 0b11], 2)
    13
    """
    value = 0
    for window in reversed(windows):
        if window < 0 or window >> width:
            raise ValueError(f"window value {window!r} does not fit in {width} bits")
        value = (value << width) | window
    return value


def split_windows(value: int, width: int, count: int) -> List[int]:
    """Inverse of :func:`join_windows`: the ``count`` windows of ``value``.

    >>> split_windows(13, 2, 2)
    [1, 3]
    """
    if value < 0 or value >> (width * count):
        raise ValueError(f"value does not fit in {count} windows of {width} bits")
    mask = (1 << width) - 1
    return [(value >> (j * width)) & mask for j in range(count)]


def unpack_symbols(bits: int, present: int, count: int) -> List[Symbol]:
    """Inverse of :func:`pack_symbols`: expand ``count`` slots back to symbols.

    >>> unpack_symbols(9, 13, 4)
    [1, None, 0, 1]
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if bits < 0 or present < 0:
        raise ValueError("bit planes must be non-negative")
    if present >> count:
        raise ValueError(f"present plane has bits beyond the {count}-slot window")
    if bits & ~present:
        raise ValueError("bits plane must be a subset of the present plane")
    bit_digits = plane_digits(bits, count)
    return [
        (1 if bit == "1" else 0) if slot == "1" else None
        for slot, bit in zip(plane_digits(present, count), bit_digits)
    ]
