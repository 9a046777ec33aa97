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

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.adversary.base import Adversary, NoiseBudget
from repro.network.channel import RoundContext, Symbol, TransmissionContext, WindowContext
from repro.utils.bitstring import plane_digits, positions_to_int, set_positions
from repro.utils.rng import make_rng


def _flip(symbol: Symbol) -> Symbol:
    """Substitute a bit; turn silence into an inserted 0."""
    if symbol is None:
        return 0
    return 1 - symbol


def _corrupt_randomly(rng: random.Random, symbol: Symbol) -> Symbol:
    """Pick a uniformly random corruption of ``symbol`` (always a real change)."""
    if symbol is None:
        return rng.choice([0, 1])  # insertion
    return rng.choice([1 - symbol, None])  # substitution or deletion


def _apply_flips(
    bits: int, present: int, bit_flips: List[int], present_flips: List[int], count: int
) -> Tuple[int, int]:
    """Toggle the listed slots of the two planes (one pass each, not per slot)."""
    if bit_flips:
        bits ^= positions_to_int(bit_flips, count)
    if present_flips:
        present ^= positions_to_int(present_flips, count)
    return bits, present


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


def _pass_through_observing(budget: NoiseBudget, symbols: Sequence[Symbol]) -> List[Symbol]:
    """Deliver a window untouched, bulk-observing its realised communication.

    The shared fast path of every targeted/adaptive adversary for windows it
    will never corrupt: only the budget's notion of the communication grows,
    so the per-slot observe calls collapse into one bulk update.
    """
    transmitted = sum(1 for sent in symbols if sent is not None)
    if transmitted:
        budget.observe_transmissions(transmitted)
    return list(symbols)


@dataclass
class RandomNoiseAdversary(Adversary):
    """Corrupt each transmitted slot independently with a fixed probability.

    This is the natural stochastic instantiation of an oblivious adversary:
    the coin flips depend only on the slot index and the adversary's own seed.
    ``insertion_probability`` controls extra insertions on silent slots
    (0 disables them and lets the transport skip silent slots entirely).
    """

    corruption_probability: float = 0.0
    insertion_probability: float = 0.0
    seed: int = 0
    budget: Optional[NoiseBudget] = None
    name: str = "random-noise"
    oblivious: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.corruption_probability <= 1.0:
            raise ValueError("corruption_probability must lie in [0, 1]")
        if not 0.0 <= self.insertion_probability <= 1.0:
            raise ValueError("insertion_probability must lie in [0, 1]")
        self._rng = make_rng(self.seed)
        self.may_insert = self.insertion_probability > 0.0

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if self.budget is not None and sent is not None:
            self.budget.observe_transmission()
        probability = self.insertion_probability if sent is None else self.corruption_probability
        if probability <= 0.0 or self._rng.random() >= probability:
            return sent
        if self.budget is not None and not self.budget.can_spend():
            return sent
        corrupted = _corrupt_randomly(self._rng, sent)
        if self.budget is not None:
            self.budget.spend()
        return corrupted

    def corrupt_window(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        # The RNG stream must match the per-slot path draw for draw, so the
        # corruption mask is drawn in offset order — but in one tight pass
        # with everything bound locally and no per-slot contexts (the budget
        # counters are mirrored locally and written back once).
        corruption_probability = self.corruption_probability
        insertion_probability = self.insertion_probability
        budget = self.budget
        if budget is None and corruption_probability <= 0.0 and insertion_probability <= 0.0:
            return list(symbols)
        rng = self._rng
        rand = rng.random
        out: List[Symbol] = []
        append = out.append
        if budget is None:
            for sent in symbols:
                probability = insertion_probability if sent is None else corruption_probability
                if probability <= 0.0 or rand() >= probability:
                    append(sent)
                else:
                    append(_corrupt_randomly(rng, sent))
            return out
        seen = budget.transmissions_seen
        spent = budget.corruptions_spent
        fraction = budget.fraction
        allowance = budget.absolute_allowance
        allowance_at = budget.allowance_at
        for sent in symbols:
            if sent is None:
                probability = insertion_probability
            else:
                seen += 1
                probability = corruption_probability
            if probability <= 0.0 or rand() >= probability:
                append(sent)
                continue
            if spent + 1 > allowance_at(fraction, seen, allowance):
                append(sent)
                continue
            append(_corrupt_randomly(rng, sent))
            spent += 1
        budget.transmissions_seen = seen
        budget.corruptions_spent = spent
        return out

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        return self._plane_kernel(bits, present, count)

    def corrupt_round_packed(self, ctx: RoundContext, bits: int, present: int) -> Tuple[int, int]:
        # The coins depend only on slot order, and a frame's slot order is
        # the link order of the per-link loop: the frame is one window over
        # its links.
        return self._plane_kernel(bits, present, len(ctx.links))

    def _plane_kernel(self, bits: int, present: int, count: int) -> Tuple[int, int]:
        """The packed window kernel, linear in ``count``.

        Slots are visited in offset order, so the RNG draws and the budget
        counters (mirrored locally, written back once) follow the symbol
        path draw for draw.  Silent slots are only visited when insertions
        are on.
        """
        probability = self.corruption_probability
        insertion = self.insertion_probability
        budget = self.budget
        if probability <= 0.0 and insertion <= 0.0:
            if budget is not None and present:
                budget.observe_transmissions(present.bit_count())
            return bits, present
        rng = self._rng
        rand = rng.random
        present_digits = plane_digits(present, count)
        bit_digits = plane_digits(bits, count)
        bit_flips: List[int] = []
        present_flips: List[int] = []
        budgeted = budget is not None
        if budgeted:
            seen = budget.transmissions_seen
            spent = budget.corruptions_spent
            fraction = budget.fraction
            allowance = budget.absolute_allowance
            allowance_at = budget.allowance_at
        for slot in range(count) if insertion > 0.0 else set_positions(present):
            if present_digits[slot] == "1":
                if budgeted:
                    seen += 1
                if probability <= 0.0 or rand() >= probability:
                    continue
                if budgeted:
                    if spent + 1 > allowance_at(fraction, seen, allowance):
                        continue
                    spent += 1
                _corrupt_slot(rng, slot, bit_digits[slot] == "1", bit_flips, present_flips)
            else:
                if rand() >= insertion:
                    continue
                if budgeted:
                    if spent + 1 > allowance_at(fraction, seen, allowance):
                        continue
                    spent += 1
                present_flips.append(slot)
                if _corrupt_randomly(rng, None):
                    bit_flips.append(slot)
        if budgeted:
            budget.transmissions_seen = seen
            budget.corruptions_spent = spent
        return _apply_flips(bits, present, bit_flips, present_flips, count)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        if self.budget is not None:
            self.budget.transmissions_seen = 0
            self.budget.corruptions_spent = 0


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
        # A list target would never compare equal to a link tuple, so the
        # attack would silently never fire: normalise to a 2-tuple of nodes.
        try:
            target = tuple(self.target)
        except TypeError:
            target = ()
        if len(target) != 2 or not all(isinstance(node, int) for node in target):
            raise ValueError(
                f"target must be a directed link (sender, receiver), got {self.target!r}"
            )
        self.target = target
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

    def corrupt_window(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        # Only one directed link is ever attacked, so every other window is a
        # pure pass-through: observe the realised communication in bulk and
        # skip the per-slot machinery entirely.
        if ctx.link != self.target or (self.phases is not None and ctx.phase not in self.phases):
            return _pass_through_observing(self._budget, symbols)
        return super().corrupt_window(ctx, symbols)

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        # Off-target windows pass their planes through untouched; only the
        # budget observes their realised communication.
        if ctx.link != self.target or (
            self.phases is not None and ctx.phase not in self.phases
        ):
            self._observe(present)
            return bits, present
        return super().corrupt_window_packed(ctx, bits, present, count)

    def corrupt_round_packed(self, ctx: RoundContext, bits: int, present: int) -> Tuple[int, int]:
        # Only the target's bit can change.  The links before and after it
        # are bulk-observed in that order, so a fraction budget sees the
        # counter values the per-link loop would give it.
        position = ctx.index.get(self.target)
        if position is None or (self.phases is not None and ctx.phase not in self.phases):
            self._observe(present)
            return bits, present
        mask = 1 << position
        if not present & mask:
            # A silent target is a no-op: this adversary never inserts.
            self._observe(present)
            return bits, present
        self._observe(present & (mask - 1))
        got_bits, got_present = self.corrupt_window_packed(
            ctx.window(position), (bits >> position) & 1, 1, 1
        )
        self._observe(present >> (position + 1))
        bits = (bits & ~mask) | (got_bits << position)
        present = (present & ~mask) | (got_present << position)
        return bits, present

    def _observe(self, present: int) -> None:
        """Bulk-observe the transmissions of ``present``."""
        if present:
            self._budget.observe_transmissions(present.bit_count())

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._spent = 0


@dataclass
class BurstAdversary(Adversary):
    """Corrupt every transmission inside a window of absolute rounds.

    Models the "all the noise lands in one short interval" worst case; the
    total damage is still capped by ``max_corruptions`` so experiments can
    relate it to a noise fraction after the fact.
    """

    start_round: int = 0
    end_round: int = 0
    max_corruptions: int = 0
    seed: int = 0
    name: str = "burst"
    oblivious: bool = True
    may_insert: bool = False

    def __post_init__(self) -> None:
        if self.end_round < self.start_round:
            raise ValueError("end_round must be >= start_round")
        if not isinstance(self.max_corruptions, int):
            raise TypeError(f"max_corruptions must be an int, got {self.max_corruptions!r}")
        self._rng = make_rng(self.seed)
        self._spent = 0

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is None:
            return sent
        if not self.start_round <= ctx.round_index <= self.end_round:
            return sent
        if self._spent >= self.max_corruptions:
            return sent
        self._spent += 1
        return _corrupt_randomly(self._rng, sent)

    def corrupt_window(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        # Windows disjoint from the burst interval (or after the cap is
        # exhausted) touch no state at all — not even the RNG.
        last_round = ctx.base_round + len(symbols) - 1
        if (
            self._spent >= self.max_corruptions
            or last_round < self.start_round
            or ctx.base_round > self.end_round
        ):
            return list(symbols)
        return super().corrupt_window(ctx, symbols)

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        # Windows disjoint from the burst interval (or after the cap is
        # exhausted) pass their planes straight through; overlapping windows
        # take the generic unpack fallback.
        last_round = ctx.base_round + count - 1
        if (
            self._spent >= self.max_corruptions
            or last_round < self.start_round
            or ctx.base_round > self.end_round
        ):
            return bits, present
        return super().corrupt_window_packed(ctx, bits, present, count)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._spent = 0


@dataclass
class DeletionAdversary(Adversary):
    """Delete each transmitted symbol independently with a fixed probability.

    Useful for isolating the insertion/deletion aspect of the noise model
    (e.g. to show that baselines relying purely on timing fail).
    """

    deletion_probability: float = 0.0
    seed: int = 0
    budget: Optional[NoiseBudget] = None
    name: str = "deletion"
    oblivious: bool = True
    may_insert: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.deletion_probability <= 1.0:
            raise ValueError("deletion_probability must lie in [0, 1]")
        self._rng = make_rng(self.seed)

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is None:
            return sent
        if self.budget is not None:
            self.budget.observe_transmission()
        if self._rng.random() >= self.deletion_probability:
            return sent
        if self.budget is not None:
            if not self.budget.can_spend():
                return sent
            self.budget.spend()
        return None

    def corrupt_window(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        # Per-slot ``corrupt`` draws the RNG for every transmitted slot (even
        # at probability 0), so the batch path must too — one draw per
        # non-silent slot, in offset order.
        rng = self._rng
        rand = rng.random
        probability = self.deletion_probability
        budget = self.budget
        out: List[Symbol] = []
        append = out.append
        if budget is None:
            for sent in symbols:
                if sent is None or rand() >= probability:
                    append(sent)
                else:
                    append(None)
            return out
        seen = budget.transmissions_seen
        spent = budget.corruptions_spent
        fraction = budget.fraction
        allowance = budget.absolute_allowance
        allowance_at = budget.allowance_at
        for sent in symbols:
            if sent is None:
                append(None)
                continue
            seen += 1
            if rand() >= probability or spent + 1 > allowance_at(fraction, seen, allowance):
                append(sent)
                continue
            append(None)
            spent += 1
        budget.transmissions_seen = seen
        budget.corruptions_spent = spent
        return out

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        # Deletions only ever clear plane bits, so the kernel walks the set
        # bits of ``present`` LSB-first (= offset order, preserving the draw
        # sequence) and never touches ``bits`` except to keep the
        # bits-subset-of-present invariant.
        # Per-slot ``corrupt`` draws once per transmitted slot even at
        # probability 0, so the loop below must too.
        probability = self.deletion_probability
        rand = self._rng.random
        budget = self.budget
        if budget is None:
            remaining = present
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                if rand() < probability:
                    bits &= ~low
                    present ^= low
            return bits, present
        seen = budget.transmissions_seen
        spent = budget.corruptions_spent
        fraction = budget.fraction
        allowance = budget.absolute_allowance
        allowance_at = budget.allowance_at
        remaining = present
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            seen += 1
            if rand() < probability and spent + 1 <= allowance_at(fraction, seen, allowance):
                bits &= ~low
                present ^= low
                spent += 1
        budget.transmissions_seen = seen
        budget.corruptions_spent = spent
        return bits, present

    def reset(self) -> None:
        self._rng = make_rng(self.seed)


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
        # The batched path runs each component over a whole window before the
        # next one sees it, mirroring budget counters locally per component.
        # That is only equivalent to the per-slot interleaving when every
        # component owns its budget, so a shared NoiseBudget object is
        # rejected rather than silently diverging between the two paths.
        seen_budgets = set()
        for component in self._flattened():
            budget = getattr(component, "budget", None)
            if budget is None:
                continue
            if id(budget) in seen_budgets:
                raise ValueError(
                    "CompositeAdversary components must not share a NoiseBudget instance"
                )
            seen_budgets.add(id(budget))
        # A component that records state via notify_delivery must be replayed
        # slot by slot: the per-slot path notifies every component with the
        # ORIGINAL sent and FINAL received symbol of each slot, interleaved
        # between slots, which chaining whole windows cannot reproduce.
        # Whole-window chaining is used only when every leaf's notify hook is
        # the base no-op (true for all stock adversaries).
        self._chain_windows = all(
            type(component).notify_delivery is Adversary.notify_delivery
            for component in self._flattened()
        )

    def _flattened(self) -> Iterable[Adversary]:
        for component in self.components:
            if isinstance(component, CompositeAdversary):
                yield from component._flattened()
            else:
                yield component

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        symbol = sent
        for component in self.components:
            symbol = component.corrupt(ctx, symbol)
        return symbol

    def corrupt_window(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        # Chaining whole windows is bit-identical to chaining per slot: each
        # component owns its RNG/budget, and its state when reaching slot i
        # depends only on the slots it already processed (0..i-1 of this
        # window in both orders) — the interleaving with other components is
        # unobservable.  Components with a real notify_delivery hook break
        # that argument, so they take the per-slot fallback (which chains
        # `corrupt` per slot and forwards the original/final symbols through
        # `notify_delivery`, exactly like the per-slot transport).
        if not self._chain_windows:
            return super().corrupt_window(ctx, symbols)
        out = list(symbols)
        for component in self.components:
            out = component.corrupt_window(ctx, out)
        return out

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        # Same chaining argument as ``corrupt_window``: each component's
        # packed kernel is bit-identical to its symbol-sequence path, so the
        # planes can flow straight through the chain without unpacking.
        if not self._chain_windows:
            return super().corrupt_window_packed(ctx, bits, present, count)
        for component in self.components:
            bits, present = component.corrupt_window_packed(ctx, bits, present, count)
        return bits, present

    def corrupt_round_packed(self, ctx: RoundContext, bits: int, present: int) -> Tuple[int, int]:
        # Chaining whole frames is the window argument again: each component
        # reaches link j having processed links 0..j-1 in both orders, and a
        # non-inserting component treats a silent slot as a no-op, so its own
        # skip of silent links matches the composite's.
        if not self._chain_windows:
            return super().corrupt_round_packed(ctx, bits, present)
        for component in self.components:
            bits, present = component.corrupt_round_packed(ctx, bits, present)
        return bits, present

    def notify_delivery(self, ctx: TransmissionContext, sent: Symbol, received: Symbol) -> None:
        for component in self.components:
            component.notify_delivery(ctx, sent, received)

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
    max_iteration: Optional[int] = None
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
        if self.max_iteration is not None and ctx.iteration > self.max_iteration:
            return sent
        if not self._budget.can_spend():
            return sent
        self._budget.spend()
        return _corrupt_randomly(self._rng, sent)

    def _targets(self, phase: str, iteration: int) -> bool:
        return phase in self.phases and (
            self.max_iteration is None or iteration <= self.max_iteration
        )

    def corrupt_window(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        # Windows outside the targeted phases (or beyond the iteration cap)
        # only feed the budget's notion of realised communication.
        if not self._targets(ctx.phase, ctx.iteration):
            return _pass_through_observing(self._budget, symbols)
        return super().corrupt_window(ctx, symbols)

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        return self._packed(ctx.phase, ctx.iteration, bits, present, count)

    def corrupt_round_packed(self, ctx: RoundContext, bits: int, present: int) -> Tuple[int, int]:
        # Decisions depend on the phase, the iteration and slot order only,
        # so a frame is one window over its links.
        return self._packed(ctx.phase, ctx.iteration, bits, present, len(ctx.links))

    def _packed(
        self, phase: str, iteration: int, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        """The packed kernel: one popcount off target, else one pass over the
        transmitted slots with the budget counters mirrored locally."""
        if not present:
            return bits, present
        budget = self._budget
        if not self._targets(phase, iteration):
            budget.observe_transmissions(present.bit_count())
            return bits, present
        rng = self._rng
        seen = budget.transmissions_seen
        spent = budget.corruptions_spent
        fraction = budget.fraction
        allowance = budget.absolute_allowance
        allowance_at = budget.allowance_at
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
        return _apply_flips(bits, present, bit_flips, present_flips, count)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)


@dataclass
class RotatingLinkAdaptiveAdversary(Adversary):
    """A non-oblivious adversary that keeps moving its attack across links.

    Every time its budget allows another corruption it targets the next
    directed link in a round-robin order, corrupting the first transmitted
    symbol it sees there.  Spreading single errors across many links maximises
    the number of (iteration, link) pairs that need local correction, which is
    the stress case for the global flag-passing/rewind machinery.
    """

    links: Sequence[Tuple[int, int]] = ()
    fraction: float = 0.0
    seed: int = 0
    name: str = "adaptive-rotating-link"
    oblivious: bool = False
    may_insert: bool = False

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("RotatingLinkAdaptiveAdversary needs a non-empty link list")
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._cursor = 0

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is not None:
            self._budget.observe_transmission()
        if sent is None:
            return sent
        if (ctx.sender, ctx.receiver) != tuple(self.links[self._cursor]):
            return sent
        if not self._budget.can_spend():
            return sent
        self._budget.spend()
        self._cursor = (self._cursor + 1) % len(self.links)
        return _corrupt_randomly(self._rng, sent)

    def corrupt_window(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        # The cursor only advances when a corruption lands on the cursor
        # link, so a window on any other link cannot become targeted
        # mid-window: bulk-observe it and pass it through.
        if ctx.link != tuple(self.links[self._cursor]):
            return _pass_through_observing(self._budget, symbols)
        return super().corrupt_window(ctx, symbols)

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        if ctx.link != tuple(self.links[self._cursor]):
            if present:
                self._budget.observe_transmissions(present.bit_count())
            return bits, present
        return super().corrupt_window_packed(ctx, bits, present, count)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._cursor = 0


@dataclass
class EchoSpoofingAdversary(Adversary):
    """The synchronisation attack of BGMO17 adapted to our model.

    Whenever it can afford two corruptions it deletes a symbol travelling in
    one direction of the target link and inserts a spoofed symbol in the
    opposite direction within the same window, driving the two endpoints out
    of sync — the attack that makes insertion/deletion noise strictly harder
    than substitutions.  Non-oblivious (it reacts to observed traffic).
    """

    target: Tuple[int, int] = (0, 1)
    fraction: float = 0.0
    seed: int = 0
    name: str = "echo-spoofing"
    oblivious: bool = False
    may_insert: bool = True

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._pending_spoof = False

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is not None:
            self._budget.observe_transmission()
        forward = (ctx.sender, ctx.receiver) == tuple(self.target)
        backward = (ctx.receiver, ctx.sender) == tuple(self.target)
        if forward and sent is not None and self._budget.can_spend(2):
            self._budget.spend()
            self._pending_spoof = True
            return None  # deletion
        if backward and sent is None and self._pending_spoof:
            self._pending_spoof = False
            self._budget.spend()
            return self._rng.choice([0, 1])  # spoofed reply (insertion)
        return sent

    def corrupt_window(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        # Only the two directions of the target link are ever touched; every
        # other window just grows the observed communication.
        target = tuple(self.target)
        if ctx.link != target and (ctx.link[1], ctx.link[0]) != target:
            return _pass_through_observing(self._budget, symbols)
        return super().corrupt_window(ctx, symbols)

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        target = tuple(self.target)
        if ctx.link != target and (ctx.link[1], ctx.link[0]) != target:
            if present:
                self._budget.observe_transmissions(present.bit_count())
            return bits, present
        return super().corrupt_window_packed(ctx, bits, present, count)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._pending_spoof = False
