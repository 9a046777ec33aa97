"""Concrete noise strategies.

Two families:

* **Content-oblivious strategies** decide whether to corrupt a slot from the
  slot's coordinates (round, link, phase) and their own pre-seeded RNG only —
  never from the transmitted symbol or the parties' randomness.  Fixing their
  RNG seed turns each of them into an explicit oblivious noise pattern in the
  sense of §2.1 (the pattern could be materialised up front; we evaluate it
  lazily for convenience).
* **Adaptive (non-oblivious) strategies** may look at the symbol on the wire
  and at everything delivered so far, which is exactly the extra power
  Algorithm B / Algorithm C are designed to resist.

All budgeted strategies spend from a :class:`~repro.adversary.base.NoiseBudget`
whose allowance grows with the *actual* communication, matching the relative
noise fraction of the theorems.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from itertools import compress, islice
from typing import Callable, ClassVar, Iterable, List, Optional, Sequence, Tuple

from repro.adversary.base import Adversary, NoiseBudget, corrupt_slots
from repro.network.channel import Symbol, TransmissionContext, WindowContext
from repro.utils.bitstring import flip_planes, plane_digits, set_positions
from repro.utils.rng import make_rng


#: Most Mersenne Twister words one ``getrandbits`` call of the noise kernel
#: draws: it bounds the kernel's word buffer to 16 KiB on the widest windows.
_BLOCK_WORDS = 4096

#: The two little-endian 32-bit words of one ``random()`` draw.
_WORD_PAIR = struct.Struct("<II").unpack_from


def _candidate_table(threshold: float) -> bytes:
    """The ``bytes.translate`` table that marks with 1 each high byte ``h``
    of a ``random()`` draw's first word for which the draw can be below
    ``threshold``.

    The draw lies in ``[h / 256, (h + 1) / 256)``, so it can only hit when
    ``h / 256 < threshold``, that is when ``h < ceil(256 * threshold)``.
    """
    marked = min(256, math.ceil(threshold * 256))
    return b"\x01" * marked + bytes(256 - marked)


def _draw_words(getrandbits: Callable[[int], int], raw: bytes, at: int, certain: int) -> bytes:
    """Top up a kernel's word buffer from its generator.

    Keeps the unread words ``raw[4 * at:]`` and appends fresh ones, up to
    ``certain`` words in all (the words the per-slot loop is certain to draw
    from here on) and at most :data:`_BLOCK_WORDS` fresh ones.  The buffer
    holds 32-bit words, little endian, in draw order: ``getrandbits`` puts
    its first word lowest.
    """
    kept = raw[4 * at :]
    fresh = min(_BLOCK_WORDS, certain - (len(kept) >> 2))
    return kept + getrandbits(32 * fresh).to_bytes(4 * fresh, "little")


def _corrupt_randomly(rng: random.Random, symbol: Symbol) -> Symbol:
    """Pick a uniformly random corruption of ``symbol`` (always a real change)."""
    if symbol is None:
        return rng.choice([0, 1])  # insertion
    return rng.choice([1 - symbol, None])  # substitution or deletion


def _corrupt_slot(
    rng: random.Random, slot: int, sent: bool, bit_flips: List[int], present_flips: List[int]
) -> None:
    """Corrupt the transmitted bit ``sent`` at ``slot`` like
    :func:`_corrupt_randomly`, recording the plane bits that toggle: a
    deletion clears the slot's present bit (and its bit if it was 1), a
    substitution flips its bit."""
    if _corrupt_randomly(rng, int(sent)) is None:
        present_flips.append(slot)
        if sent:
            bit_flips.append(slot)
    else:
        bit_flips.append(slot)


def _as_link(value: object, name: str) -> Tuple[int, int]:
    """``value`` as a directed link ``(sender, receiver)`` of int nodes.

    A list, a wrong-length tuple or a string node would never compare equal
    to a transport link, so an attack keyed on it would silently never fire:
    normalise lists to tuples and reject the rest.
    """
    try:
        link = tuple(value)
    except TypeError:
        link = ()
    if len(link) != 2 or not all(isinstance(node, int) for node in link):
        raise ValueError(f"{name} must be a directed link (sender, receiver), got {value!r}")
    return link


def _observe_range(budget: NoiseBudget, present: int, start: int, stop: int) -> None:
    """Bulk-observe the transmissions at plane positions ``[start, stop)``."""
    budget.observe_transmissions((present >> start & ((1 << (stop - start)) - 1)).bit_count())


def _attack_links(
    adversary: Adversary,
    budget: NoiseBudget,
    ctx: WindowContext,
    bits: int,
    present: int,
    targets: Iterable[int],
) -> Tuple[int, int]:
    """Run the per-slot loop on each target link and bulk-observe the links
    in between.

    ``targets`` yields link positions in ascending order and is read lazily,
    so it may depend on state the previous target's loop changed.  For an
    adversary whose off-target slots only observe transmissions, this is
    bit-identical to the per-slot loop over the whole plane.
    """
    rounds = ctx.rounds
    start = 0
    for position in targets:
        _observe_range(budget, present, start * rounds, position * rounds)
        bits, present = corrupt_slots(
            adversary, ctx, bits, present, position * rounds, (position + 1) * rounds
        )
        start = position + 1
    _observe_range(budget, present, start * rounds, ctx.width)
    return bits, present


@dataclass
class RandomNoiseAdversary(Adversary):
    """Corrupt each transmitted slot independently with a fixed probability.

    This is the natural stochastic instantiation of an oblivious adversary:
    the coin flips depend only on the slot index and the adversary's own seed.
    ``insertion_probability`` controls extra insertions on silent slots
    (0 disables them and lets the transport skip silent slots entirely).
    :meth:`corrupt` draws the coins one slot at a time; the window kernel
    reads the same Mersenne Twister words in bulk, word for word, so both
    leave the same corruptions and the same generator state.
    """

    corruption_probability: float = 0.0
    insertion_probability: float = 0.0
    seed: int = 0
    name: str = "random-noise"
    oblivious: bool = True
    #: Whether a slot draws depends on its presence only, and a
    #: corruption's ``choice`` picks flip or delete (insert 0 or 1) by
    #: index, whatever the bit.
    symbol_blind: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.corruption_probability <= 1.0:
            raise ValueError("corruption_probability must lie in [0, 1]")
        if not 0.0 <= self.insertion_probability <= 1.0:
            raise ValueError("insertion_probability must lie in [0, 1]")
        self._rng = make_rng(self.seed)
        self.may_insert = self.insertion_probability > 0.0
        self._candidates = _candidate_table(
            max(self.corruption_probability, self.insertion_probability)
        )

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        probability = self.insertion_probability if sent is None else self.corruption_probability
        if probability <= 0.0 or self._rng.random() >= probability:
            return sent
        return _corrupt_randomly(self._rng, sent)

    def corrupt_window(self, ctx: WindowContext, bits: int, present: int) -> Tuple[int, int]:
        """The native kernel: the per-slot loop's draws, read in bulk.

        The slots that draw are the present ones when the corruption
        probability is positive and the silent ones when the insertion
        probability is; in plane order, each costs one ``random()``, which
        CPython builds from two consecutive Mersenne Twister words ``a, b``
        as ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``.  The kernel reads the
        words with ``getrandbits`` in blocks (:func:`_draw_words`), skips at
        C speed every draw whose high byte ``a >> 24`` rules a hit out
        (``self._candidates``) and rebuilds the exact draw only for the
        rest.  A corruption's ``choice`` between two symbols reads the next
        words as ``choice`` does: ``word >> 30``, rejecting 2 and 3.  A block
        never holds more words than the slots still to visit are certain to
        draw, so the generator ends in the state the per-slot loop leaves.
        :meth:`corrupt` stays the semantics this kernel must equal.
        """
        probability = self.corruption_probability
        insertion = self.insertion_probability
        transmitted = present.bit_count()
        count = ctx.width
        # The drawing slots; ``idle`` is the digit of the slots that do not
        # draw, when there are any.
        if insertion <= 0.0:
            draws, idle = (transmitted, b"0") if probability > 0.0 else (0, None)
        elif probability <= 0.0:
            draws, idle = count - transmitted, b"1"
        else:
            draws, idle = count, None
        getrandbits = self._rng.getrandbits
        table = self._candidates
        raw = b""  # buffered words, little endian
        words = at = 0  # buffered words, and the next unread one
        # ``flags[j]`` marks a candidate draw at words ``base + 2j, base + 2j + 1``.
        flags = b""
        base = 0
        visited = 0  # drawing slots visited, in plane order
        present_bytes = bit_bytes = located = None
        bit_flips: List[int] = []
        present_flips: List[int] = []
        while visited < draws:
            if words - at < 2:
                raw = _draw_words(getrandbits, raw, at, 2 * (draws - visited))
                words, at = len(raw) >> 2, 0
                flags, base = raw[3::8].translate(table), 0
            elif (at - base) & 1:  # a corruption's choice moved the draws by a word
                flags, base = raw[4 * at + 3 :: 8].translate(table), at
            pairs = (words - at) >> 1
            start = (at - base) >> 1
            first = flags.find(1, start, start + pairs)
            if first < 0:
                visited += pairs
                at += 2 * pairs
                continue
            visited += first - start
            first = base + 2 * first
            at = first + 2
            high, low = _WORD_PAIR(raw, 4 * first)
            draw = (high >> 5) * 67108864 + (low >> 6)  # random() * 2**53
            if present_bytes is None:
                present_bytes = present.to_bytes((count + 7) >> 3, "little")
            if idle is None:
                slot = visited
            else:
                if located is None:
                    digits = plane_digits(present, count).encode()
                    located = compress(range(count), digits.replace(idle, b"\0"))
                    pulled = 0
                slot = next(islice(located, visited - pulled, None))
                pulled = visited + 1
            visited += 1
            sent = present_bytes[slot >> 3] >> (slot & 7) & 1
            if draw >= (probability if sent else insertion) * 9007199254740992.0:
                continue
            while True:  # ``choice`` of two: the next word below 2**31
                if at == words:
                    raw = _draw_words(getrandbits, raw, at, 1 + 2 * (draws - visited))
                    words, at = len(raw) >> 2, 0
                    flags, base = raw[3::8].translate(table), 0
                choice = raw[4 * at + 3] >> 6
                at += 1
                if choice < 2:
                    break
            if not sent:  # insertion of the symbol ``choice``
                present_flips.append(slot)
                if choice:
                    bit_flips.append(slot)
            elif choice:  # deletion
                present_flips.append(slot)
                if bit_bytes is None:
                    bit_bytes = bits.to_bytes((count + 7) >> 3, "little")
                if bit_bytes[slot >> 3] >> (slot & 7) & 1:
                    bit_flips.append(slot)
            else:  # substitution
                bit_flips.append(slot)
        assert at == words, "the noise kernel drew words the per-slot loop does not"
        return flip_planes(bits, present, bit_flips, present_flips, count)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)


@dataclass
class LinkTargetedAdversary(Adversary):
    """Concentrate the noise on one directed link.

    Optionally restricted to a set of phases (for instance only the
    ``"simulation"`` phase, or only the ``"randomness_exchange"`` prefix —
    the attack Section 5 must defend against).  Content-oblivious.

    The attack is bounded either by a relative ``fraction`` of the realised
    communication (the theorems' noise model) or by an absolute
    ``max_corruptions`` (useful for "exactly k errors" experiments); when
    ``max_corruptions`` is set it is the only limit that applies.
    """

    target: Tuple[int, int] = (0, 1)
    fraction: float = 0.0
    phases: Optional[Sequence[str]] = None
    corruption_probability: float = 1.0
    max_corruptions: Optional[int] = None
    seed: int = 0
    name: str = "link-targeted"
    oblivious: bool = True
    may_insert: bool = False

    def __post_init__(self) -> None:
        self.target = _as_link(self.target, "target")
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._spent = 0

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is not None:
            self._budget.observe_transmission()
        if (ctx.sender, ctx.receiver) != self.target:
            return sent
        if self.phases is not None and ctx.phase not in self.phases:
            return sent
        if sent is None:
            return sent
        if self._rng.random() >= self.corruption_probability:
            return sent
        if self.max_corruptions is not None:
            if self._spent >= self.max_corruptions:
                return sent
        elif not self._budget.can_spend():
            return sent
        if self.max_corruptions is None:
            self._budget.spend()
        self._spent += 1
        return _corrupt_randomly(self._rng, sent)

    def corrupt_window(self, ctx: WindowContext, bits: int, present: int) -> Tuple[int, int]:
        # Only the target's slots can change.  The links before and after it
        # are bulk-observed in that order, so a fraction budget sees the
        # counter values the per-slot loop would give it.
        position = ctx.index.get(self.target)
        if position is None or (self.phases is not None and ctx.phase not in self.phases):
            targets: Tuple[int, ...] = ()
        else:
            targets = (position,)
        return _attack_links(self, self._budget, ctx, bits, present, targets)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget.reset()
        self._spent = 0


@dataclass
class CompositeAdversary(Adversary):
    """Apply several adversaries in sequence to every slot.

    Each component sees the (possibly already corrupted) symbol produced by
    the previous one; the composite is oblivious only if every component is.
    Useful for combining a background noise floor with a targeted attack —
    e.g. the Table 1 harness pairs random insertion/deletion noise with a
    short burst on one link so that baselines face at least a few guaranteed
    errors.
    """

    components: Sequence[Adversary] = ()
    name: str = "composite"

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("CompositeAdversary needs at least one component")
        self.oblivious = all(component.oblivious for component in self.components)
        self.may_insert = any(component.may_insert for component in self.components)

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        symbol = sent
        for component in self.components:
            symbol = component.corrupt(ctx, symbol)
        return symbol

    def corrupt_window(self, ctx: WindowContext, bits: int, present: int) -> Tuple[int, int]:
        # Chaining whole planes is bit-identical to chaining per slot: each
        # component owns its RNG and budget (no stock adversary takes either
        # from outside), and its state when reaching slot i
        # depends only on the slots it already processed (0..i-1 of this
        # plane in both orders) — the interleaving with other components is
        # unobservable.  A non-inserting component treats a silent slot as a
        # no-op, so its own skip of silent slots matches the composite's.
        for component in self.components:
            bits, present = component.corrupt_window(ctx, bits, present)
        return bits, present

    def reset(self) -> None:
        for component in self.components:
            component.reset()


@dataclass
class PhaseTargetedAdaptiveAdversary(Adversary):
    """A non-oblivious adversary that spends its budget on chosen phases.

    It watches the actual communication (so its budget tracks the realised
    communication complexity) and corrupts transmissions that occur in the
    listed phases, preferring early iterations.  This captures the classic
    adaptive attacks against the scheme: hitting the meeting-points hashes or
    the flag-passing bits, where a single corrupted bit has the largest
    downstream effect.
    """

    fraction: float = 0.0
    phases: Sequence[str] = ("meeting_points", "flag_passing")
    seed: int = 0
    name: str = "adaptive-phase-targeted"
    oblivious: bool = False
    may_insert: bool = False

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is not None:
            self._budget.observe_transmission()
        if sent is None:
            return sent
        if ctx.phase not in self.phases:
            return sent
        if not self._budget.can_spend():
            return sent
        self._budget.spend()
        return _corrupt_randomly(self._rng, sent)

    def corrupt_window(self, ctx: WindowContext, bits: int, present: int) -> Tuple[int, int]:
        """One popcount off target, else one pass over the transmitted slots
        with the budget counters mirrored locally."""
        if not present:
            return bits, present
        budget = self._budget
        if ctx.phase not in self.phases:
            budget.observe_transmissions(present.bit_count())
            return bits, present
        rng = self._rng
        seen = budget.transmissions_seen
        spent = budget.corruptions_spent
        fraction = budget.fraction
        allowance = budget.absolute_allowance
        allowance_at = budget.allowance_at
        count = ctx.width
        bit_digits = plane_digits(bits, count)
        bit_flips: List[int] = []
        present_flips: List[int] = []
        for slot in set_positions(present):
            seen += 1
            if spent + 1 > allowance_at(fraction, seen, allowance):
                continue
            spent += 1
            _corrupt_slot(rng, slot, bit_digits[slot] == "1", bit_flips, present_flips)
        budget.transmissions_seen = seen
        budget.corruptions_spent = spent
        return flip_planes(bits, present, bit_flips, present_flips, count)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget.reset()
