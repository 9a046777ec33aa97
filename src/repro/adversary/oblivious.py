"""Oblivious adversaries.

An oblivious adversary (paper §2.1) fixes its entire noise attack before the
protocol starts, independently of the parties' inputs and randomness.  The
paper's primary model is the **additive** adversary: the noise pattern is a
vector ``e`` indexed by (round, directed link) with entries in ``{0, 1, 2}``;
the symbol actually delivered is ``received = sent + e (mod 3)`` over the
alphabet ``{0, 1, *}``.  Remark 1 also discusses the stronger **fixing**
adversary, which pins the channel output of a corrupted slot to a
predetermined value; no experiment uses it, so it lives in the test suite
(``tests/adversaries.py``) on top of the pattern helpers here.

Because the pattern is indexed by absolute round numbers, an oblivious
adversary has no knowledge of what the slot carries — exactly the oblivious
guarantee the analysis of Section 4 relies on.

The content-oblivious strategies of :mod:`repro.adversary.strategies`
(random noise, a targeted link, a burst) are oblivious in the same sense,
but draw their noise lazily from a seeded generator instead of holding an
explicit pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.adversary.base import Adversary
from repro.network.channel import (
    Symbol,
    TransmissionContext,
    WindowContext,
    apply_additive_noise,
)
from repro.utils.bitstring import flip_planes, plane_digits

#: Key of one channel slot in an oblivious noise pattern.
SlotKey = Tuple[int, int, int]  # (round_index, sender, receiver)


def _group_pattern_by_link(pattern: Dict[SlotKey, object]) -> Dict[Tuple[int, int], Dict[int, object]]:
    """Group an oblivious pattern by directed link (round -> value).

    Built once at construction time: the pattern is immutable, so the index
    never goes stale, and the window kernels that read it stay free of state
    writes (an oblivious adversary's state is fixed before the run starts).
    """
    by_link: Dict[Tuple[int, int], Dict[int, object]] = {}
    for (round_index, sender, receiver), value in pattern.items():
        by_link.setdefault((sender, receiver), {})[round_index] = value
    return by_link


def _rewrite_window(
    by_link: Dict[Tuple[int, int], Dict[int, object]],
    ctx: WindowContext,
    bits: int,
    present: int,
    deliver: Callable[[Symbol, object], Symbol],
) -> Tuple[int, int]:
    """Rewrite the plane slots a pattern names: ``deliver(sent, value)``.

    Walks the pattern entries of the window's links only (per link, the
    window's rounds or the link's entries, whichever is fewer), then applies
    every toggle in one pass.  Links the pattern leaves clean cost nothing.
    """
    base = ctx.base_round
    rounds = ctx.rounds
    index = ctx.index
    hits: List[Tuple[int, object]] = []
    for link, per_round in by_link.items():
        position = index.get(link)
        if position is None:
            continue
        start = position * rounds
        if rounds <= len(per_round):
            hits.extend(
                (start + offset, per_round[base + offset])
                for offset in range(rounds)
                if base + offset in per_round
            )
        else:
            hits.extend(
                (start + round_index - base, value)
                for round_index, value in per_round.items()
                if 0 <= round_index - base < rounds
            )
    if not hits:
        return bits, present
    count = ctx.width
    bit_digits = plane_digits(bits, count)
    present_digits = plane_digits(present, count)
    bit_flips: List[int] = []
    present_flips: List[int] = []
    for slot, value in hits:
        was_present = present_digits[slot] == "1"
        was_one = bit_digits[slot] == "1"
        received = deliver((1 if was_one else 0) if was_present else None, value)
        if (received is not None) != was_present:
            present_flips.append(slot)
        if (received == 1) != was_one:
            bit_flips.append(slot)
    return flip_planes(bits, present, bit_flips, present_flips, count)


def slot_key(ctx: TransmissionContext) -> SlotKey:
    return (ctx.round_index, ctx.sender, ctx.receiver)


@dataclass
class AdditiveObliviousAdversary(Adversary):
    """The additive oblivious adversary of §2.1.

    ``pattern`` maps slots to offsets in {1, 2}; absent slots are clean
    (offset 0).  The number of *intended* corruptions is ``len(pattern)``;
    note the paper's subtle point that an additive offset always changes the
    delivered symbol (offset 1 or 2 is never the identity on Z_3), so every
    pattern entry that is exercised becomes a real corruption.
    """

    pattern: Dict[SlotKey, int] = field(default_factory=dict)
    name: str = "oblivious-additive"
    oblivious: bool = True

    def __post_init__(self) -> None:
        for key, offset in self.pattern.items():
            if offset not in (1, 2):
                raise ValueError(f"pattern offset for slot {key} must be 1 or 2, got {offset}")
        # Insertions only happen on slots the pattern touches.
        self.may_insert = bool(self.pattern)
        self._pattern_by_link = _group_pattern_by_link(self.pattern)

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        offset = self.pattern.get(slot_key(ctx), 0)
        if offset == 0:
            return sent
        return apply_additive_noise(sent, offset)

    def corrupt_window(self, ctx: WindowContext, bits: int, present: int) -> Tuple[int, int]:
        return _rewrite_window(self._pattern_by_link, ctx, bits, present, apply_additive_noise)

    def reset(self) -> None:  # the pattern is immutable state; nothing to do
        return None
