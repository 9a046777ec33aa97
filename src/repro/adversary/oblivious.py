"""Oblivious adversaries.

An oblivious adversary (paper §2.1) fixes its entire noise attack before the
protocol starts, independently of the parties' inputs and randomness.  The
paper's primary model is the **additive** adversary: the noise pattern is a
vector ``e`` indexed by (round, directed link) with entries in ``{0, 1, 2}``;
the symbol actually delivered is ``received = sent + e (mod 3)`` over the
alphabet ``{0, 1, *}``.  Remark 1 also discusses the stronger **fixing**
adversary, which pins the channel output of a corrupted slot to a
predetermined value; we implement both.

Because the pattern is indexed by absolute round numbers, an oblivious
adversary has no knowledge of what the slot carries — exactly the oblivious
guarantee the analysis of Section 4 relies on.

Concrete pattern generators (uniformly random slots, bursts on one link,
attacks on the randomness-exchange prefix, ...) live in
:mod:`repro.adversary.strategies`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.adversary.base import Adversary
from repro.network.channel import (
    Symbol,
    TransmissionContext,
    WindowContext,
    apply_additive_noise,
)

#: Key of one channel slot in an oblivious noise pattern.
SlotKey = Tuple[int, int, int]  # (round_index, sender, receiver)


def _index_pattern_by_link(pattern: Dict[SlotKey, object]) -> Dict[Tuple[int, int], Dict[int, object]]:
    """Group an oblivious pattern by directed link (round -> value).

    Built once at construction time: the pattern is immutable, so the index
    never goes stale, and the window kernels that read it stay free of state
    writes (an oblivious adversary's state is fixed before the run starts).
    """
    by_link: Dict[Tuple[int, int], Dict[int, object]] = {}
    for (round_index, sender, receiver), value in pattern.items():
        by_link.setdefault((sender, receiver), {})[round_index] = value
    return by_link

#: Sentinel distinguishing "slot not in pattern" from a pattern value of
#: ``None`` (which the fixing adversary uses to force silence).
_MISSING = object()


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
        self._pattern_by_link = _index_pattern_by_link(self.pattern)

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        offset = self.pattern.get(slot_key(ctx), 0)
        if offset == 0:
            return sent
        return apply_additive_noise(sent, offset)

    def corrupt_window(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        # Precompute the additive noise mask of this window from the pattern;
        # clean windows (the common case) pass through with no per-slot work.
        pattern = self.pattern
        if not pattern:
            return list(symbols)
        sender, receiver = ctx.link
        base = ctx.base_round
        mask = [pattern.get((base + offset, sender, receiver), 0) for offset in range(len(symbols))]
        if not any(mask):
            return list(symbols)
        return [
            sent if offset == 0 else apply_additive_noise(sent, offset)
            for sent, offset in zip(symbols, mask)
        ]

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        # The corruption mask of the window is generated in one pass over
        # this directed link's pattern entries (or over the window's slots,
        # whichever is smaller); clean links pass their planes through with
        # no per-slot work at all.
        per_round = self._pattern_by_link.get(ctx.link)
        if not per_round:
            return bits, present
        base = ctx.base_round
        if count <= len(per_round):
            hits = [
                (slot, per_round[base + slot])
                for slot in range(count)
                if base + slot in per_round
            ]
        else:
            hits = [
                (round_index - base, offset)
                for round_index, offset in per_round.items()
                if 0 <= round_index - base < count
            ]
        for slot, offset in hits:
            mask = 1 << slot
            sent = ((bits >> slot) & 1) if present & mask else None
            received = apply_additive_noise(sent, offset)
            if received is None:
                bits &= ~mask
                present &= ~mask
            else:
                present |= mask
                if received:
                    bits |= mask
                else:
                    bits &= ~mask
        return bits, present

    def planned_corruptions(self) -> int:
        return len(self.pattern)

    def reset(self) -> None:  # the pattern is immutable state; nothing to do
        return None


@dataclass
class FixingObliviousAdversary(Adversary):
    """The "fixing" oblivious adversary of Remark 1.

    ``pattern`` maps slots to the symbol the receiver will observe (0, 1 or
    ``None`` for "force silence").  A fixed slot only counts as a corruption
    if it actually differs from what was sent; this matches the remark's
    discussion that fixing the channel to the honest value is not an error.
    """

    pattern: Dict[SlotKey, Symbol] = field(default_factory=dict)
    name: str = "oblivious-fixing"
    oblivious: bool = True

    def __post_init__(self) -> None:
        for key, value in self.pattern.items():
            if value not in (0, 1, None):
                raise ValueError(f"pattern value for slot {key} must be 0, 1 or None")
        self.may_insert = any(value is not None for value in self.pattern.values())
        self._pattern_by_link = _index_pattern_by_link(self.pattern)

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        key = slot_key(ctx)
        if key in self.pattern:
            return self.pattern[key]
        return sent

    def corrupt_window(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        # ``None`` is a legal pattern value (force silence), so membership is
        # resolved with a private sentinel rather than ``dict.get``'s default.
        pattern = self.pattern
        if not pattern:
            return list(symbols)
        sender, receiver = ctx.link
        base = ctx.base_round
        missing = _MISSING
        out = [
            pattern.get((base + offset, sender, receiver), missing)
            for offset in range(len(symbols))
        ]
        return [
            sent if fixed is missing else fixed
            for sent, fixed in zip(symbols, out)
        ]

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        # One pass per directed link, like the additive kernel: only the
        # window's fixed slots are rewritten, everything else passes through.
        per_round = self._pattern_by_link.get(ctx.link)
        if not per_round:
            return bits, present
        base = ctx.base_round
        if count <= len(per_round):
            hits = [
                (slot, per_round[base + slot])
                for slot in range(count)
                if base + slot in per_round
            ]
        else:
            hits = [
                (round_index - base, fixed)
                for round_index, fixed in per_round.items()
                if 0 <= round_index - base < count
            ]
        for slot, fixed in hits:
            mask = 1 << slot
            if fixed is None:
                bits &= ~mask
                present &= ~mask
            else:
                present |= mask
                if fixed:
                    bits |= mask
                else:
                    bits &= ~mask
        return bits, present

    def planned_corruptions(self) -> int:
        return len(self.pattern)

    def reset(self) -> None:
        return None
