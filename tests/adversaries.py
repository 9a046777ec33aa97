"""Test-side adversaries and the adversary contract checker.

Nothing in ``src/`` builds these: the experiments and factories use the
stock adversaries of :mod:`repro.adversary`.  The suite keeps them because
they reach corners the stock ones do not (the goldens grid pins the burst
case too):

* :class:`FixingObliviousAdversary` — Remark 1's fixing adversary (pins a
  slot's output; can force silence or insert);
* :class:`DeletionAdversary` — deletions only, optionally budgeted;
* :class:`BurstAdversary` — every transmission inside a window of absolute
  rounds, up to a cap (the "all the noise in one short interval" case);
* :class:`RotatingLinkAdaptiveAdversary` — one corruption per link in
  round-robin order, the stress case for flag passing and rewind;
* :class:`EchoSpoofingAdversary` — delete one way, spoof the reply the
  other way (the BGMO17 synchronisation attack).

:func:`check_contract` probes the one law that ties an adversary's native
kernel to its per-slot semantics, the **window law**: ``corrupt_window``
must deliver the same plane (and leave the same state: RNG stream
consumption, budget accounting) as the base per-slot loop, ``corrupt`` per
slot in plane order.  The kernel is only legal because the corruption mask
it applies is the one per-slot delivery would have produced.  An adversary
that declares itself symbol-blind (``Adversary.symbol_blind``, read from the
instance) is also held to the **symbol-blind law**: two copies in one state,
fed the probe plane and its complement on the same ``present``, deliver the
same ``present``, delivered bits that differ exactly on the slots that were
sent and delivered, and end in the same state.  The probe runs deterministic fuzz windows of several widths
(one round, as in a lockstep round, and wider, as in the meeting-points
exchange), ending with one 56-link × 32-round plane, the shape of a
meeting-points window on the 8-clique, and raises :class:`ContractViolation`
on the first break.  It is behavioural, not static: it deep-copies the
adversary (so a stateful adversary's streams/budgets cannot leak into the
subject), replays the same window sequence through both paths, and compares
delivered planes *and* a structural snapshot (:func:`_state_snapshot`) of
all mutable state after every window.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.adversary.base import Adversary, NoiseBudget
from repro.adversary.oblivious import SlotKey, _group_pattern_by_link, _rewrite_window, slot_key
from repro.adversary.strategies import _as_link, _attack_links, _corrupt_randomly
from repro.network.channel import Symbol, TransmissionContext, WindowContext
from repro.network.topologies import complete_topology
from repro.utils.bitstring import positions_to_int, set_positions
from repro.utils.rng import make_rng

# -- the contract checker ---------------------------------------------------

#: Default directed links the probe windows run over.  They intentionally
#: include both directions of one edge (echo/spoofing adversaries key on
#: that) and a third unrelated link (targeted adversaries must pass it
#: through untouched).
_DEFAULT_LINKS: Tuple[Tuple[int, int], ...] = ((0, 1), (1, 0), (1, 2), (2, 1))

_DEFAULT_PHASES: Tuple[str, ...] = (
    "meeting_points",
    "flag_passing",
    "simulation",
    "rewind",
)

#: The production-sized probe: a meeting-points window on the 8-clique
#: (56 directed links × 4τ = 32 rounds at τ = 8).
_CLIQUE_LINKS = complete_topology(8).directed_edges()
_CLIQUE_ROUNDS = 32

LAW = "window"
SYMBOL_BLIND_LAW = "symbol-blind"


class ContractViolation(AssertionError):
    """An adversary broke the contract law."""

    def __init__(self, law: str, message: str) -> None:
        super().__init__(f"[{law}] {message}")
        self.law = law


@dataclass(frozen=True)
class ContractReport:
    """What :func:`check_contract` verified for one adversary."""

    adversary: str
    windows_probed: int
    laws: Tuple[str, ...]


def _state_snapshot(value: object) -> object:
    """A comparable structural snapshot of an adversary's mutable state.

    Recurses through instance attributes; RNG streams collapse to
    ``getstate()`` and budgets to their counter tuple, so two snapshots are
    equal exactly when the two objects would behave identically from here on.
    """
    if isinstance(value, random.Random):
        return ("rng", value.getstate())
    if isinstance(value, NoiseBudget):
        return (
            "budget",
            value.fraction,
            value.absolute_allowance,
            value.transmissions_seen,
            value.corruptions_spent,
        )
    if isinstance(value, Adversary):
        return (
            type(value).__name__,
            tuple(
                (name, _state_snapshot(attr))
                for name, attr in sorted(vars(value).items(), key=lambda item: item[0])
            ),
        )
    if isinstance(value, dict):
        return (
            "dict",
            tuple(
                (key, _state_snapshot(item))
                for key, item in sorted(value.items(), key=lambda kv: repr(kv[0]))
            ),
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return ("seq", tuple(_state_snapshot(item) for item in items))
    return value


def _probe_plane(
    rng: random.Random, links: Sequence[Tuple[int, int]], rounds: int, kind: int
) -> Tuple[int, int]:
    """All silence (kind 0), all traffic (kind 1) or a random mix."""
    width = len(links) * rounds
    if kind == 0:
        present = 0
    elif kind == 1:
        present = (1 << width) - 1
    else:
        present = rng.getrandbits(width)
    return rng.getrandbits(width) & present, present


def _probe_windows(
    links: Sequence[Tuple[int, int]],
    phases: Sequence[str],
    window_rounds: int,
    windows: int,
    seed: int,
) -> List[Tuple[WindowContext, int, int]]:
    """Deterministic fuzz windows over ``links``, alternating ``window_rounds``
    wide and one round wide, at base rounds ``index * window_rounds``; then
    one 8-clique meeting-points-sized plane."""
    rng = make_rng(seed)
    index = {link: position for position, link in enumerate(links)}
    probes: List[Tuple[WindowContext, int, int]] = []
    for number in range(windows):
        rounds = window_rounds if number % 2 == 0 else 1
        ctx = WindowContext(
            links, index, rounds, phases[number % len(phases)],
            iteration=number % 3, base_round=number * window_rounds,
        )
        probes.append((ctx, *_probe_plane(rng, links, rounds, number)))
    clique_index = {link: position for position, link in enumerate(_CLIQUE_LINKS)}
    ctx = WindowContext(_CLIQUE_LINKS, clique_index, _CLIQUE_ROUNDS, phases[0], iteration=0, base_round=0)
    probes.append((ctx, *_probe_plane(rng, _CLIQUE_LINKS, _CLIQUE_ROUNDS, 2)))
    return probes


def _check_window_law(adv: Adversary, probes: Sequence[Tuple[WindowContext, int, int]]) -> None:
    """corrupt_window must equal the per-slot loop: same delivered plane,
    same state afterwards."""
    native = copy.deepcopy(adv)
    reference = copy.deepcopy(adv)
    native.reset()
    reference.reset()
    name = type(adv).__name__
    for ctx, bits, present in probes:
        got = native.corrupt_window(ctx, bits, present)
        expected = Adversary.corrupt_window(reference, ctx, bits, present)
        if got != expected:
            raise ContractViolation(
                LAW,
                f"{name}.corrupt_window delivers {got!r} on {ctx!r} with plane "
                f"{(bits, present)!r} but the per-slot loop delivers {expected!r}",
            )
        if _state_snapshot(native) != _state_snapshot(reference):
            raise ContractViolation(
                LAW,
                f"{name}.corrupt_window left different state than the per-slot "
                f"loop after {ctx!r} (RNG streams or budget counters diverged)",
            )


def _check_symbol_blind_law(adv: Adversary, probes: Sequence[Tuple[WindowContext, int, int]]) -> None:
    """Fed complementary bits on the same ``present``, two copies in one
    state deliver the same ``present``, bits that differ exactly on the
    slots sent and delivered, and end in the same state."""
    first = copy.deepcopy(adv)
    second = copy.deepcopy(adv)
    first.reset()
    second.reset()
    name = type(adv).__name__
    for ctx, bits, present in probes:
        complement = ~bits & present
        got_bits, got_present = first.corrupt_window(ctx, bits, present)
        other_bits, other_present = second.corrupt_window(ctx, complement, present)
        if got_present != other_present:
            raise ContractViolation(
                SYMBOL_BLIND_LAW,
                f"{name} delivers present {got_present:#x} for bits {bits:#x} but "
                f"{other_present:#x} for their complement on {ctx!r}",
            )
        if got_bits ^ other_bits != present & got_present:
            raise ContractViolation(
                SYMBOL_BLIND_LAW,
                f"{name}'s delivered bits for bits {bits:#x} and their complement differ on "
                f"{got_bits ^ other_bits:#x}, not on the delivered sent slots "
                f"{present & got_present:#x}, on {ctx!r}",
            )
        if _state_snapshot(first) != _state_snapshot(second):
            raise ContractViolation(
                SYMBOL_BLIND_LAW,
                f"{name} ends in different states for bits {bits:#x} and their "
                f"complement on {ctx!r}",
            )


def check_contract(
    adv: Adversary,
    *,
    links: Optional[Sequence[Tuple[int, int]]] = None,
    phases: Optional[Sequence[str]] = None,
    window_rounds: int = 12,
    windows: int = 8,
    seed: int = 2024,
) -> ContractReport:
    """Probe ``adv`` against the window law, and against the symbol-blind
    law when it declares it (read from the instance, as the engine does).

    ``windows`` probe windows over ``links`` alternate between
    ``window_rounds`` rounds and one round; they are deterministic in
    ``seed`` and span absolute rounds ``[0, windows * window_rounds)`` —
    configure adversaries whose behaviour is round- or link-keyed (bursts,
    patterns, targets) to overlap that region and the default ``links`` so
    the interesting branches are exercised.  A last probe is one 8-clique
    meeting-points plane (56 links × 32 rounds from round 0).

    Returns a :class:`ContractReport`; raises :class:`ContractViolation` on
    the first break.  The adversary object is never mutated (all probes run
    on deep copies).
    """
    probe_links = tuple(links) if links is not None else _DEFAULT_LINKS
    probe_phases = tuple(phases) if phases is not None else _DEFAULT_PHASES
    probes = _probe_windows(probe_links, probe_phases, window_rounds, windows, seed)
    _check_window_law(adv, probes)
    laws: Tuple[str, ...] = (LAW,)
    if adv.symbol_blind:
        _check_symbol_blind_law(adv, probes)
        laws += (SYMBOL_BLIND_LAW,)
    return ContractReport(adversary=adv.name, windows_probed=len(probes), laws=laws)


# -- test-only adversaries --------------------------------------------------


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
        self._pattern_by_link = _group_pattern_by_link(self.pattern)

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        key = slot_key(ctx)
        if key in self.pattern:
            return self.pattern[key]
        return sent

    def corrupt_window(self, ctx: WindowContext, bits: int, present: int) -> Tuple[int, int]:
        return _rewrite_window(
            self._pattern_by_link, ctx, bits, present, lambda sent, fixed: fixed
        )

    def reset(self) -> None:
        return None


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
    #: Every transmitted slot draws once, whatever its bit.
    symbol_blind: ClassVar[bool] = True

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

    def corrupt_window(self, ctx: WindowContext, bits: int, present: int) -> Tuple[int, int]:
        # Deletions only ever clear plane bits, so the kernel walks the
        # transmitted slots in plane order (preserving the draw sequence),
        # collects the deleted ones and clears them in one pass.  Per-slot
        # ``corrupt`` draws once per transmitted slot even at probability 0,
        # so the loop below must too.
        probability = self.deletion_probability
        rand = self._rng.random
        budget = self.budget
        slots = set_positions(present)
        if budget is None:
            deleted = [slot for slot in slots if rand() < probability]
        else:
            deleted = []
            seen = budget.transmissions_seen
            spent = budget.corruptions_spent
            fraction = budget.fraction
            allowance = budget.absolute_allowance
            allowance_at = budget.allowance_at
            for slot in slots:
                seen += 1
                if rand() < probability and spent + 1 <= allowance_at(fraction, seen, allowance):
                    deleted.append(slot)
                    spent += 1
            budget.transmissions_seen = seen
            budget.corruptions_spent = spent
        if not deleted:
            return bits, present
        mask = positions_to_int(deleted, ctx.width)
        return bits & ~mask, present ^ mask

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        if self.budget is not None:
            self.budget.reset()


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
    #: A slot is hit by its round and the cap, and a corruption's ``choice``
    #: picks flip or delete by index, whatever the bit.
    symbol_blind: ClassVar[bool] = True

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

    def corrupt_window(self, ctx: WindowContext, bits: int, present: int) -> Tuple[int, int]:
        # Windows disjoint from the burst interval (or after the cap is
        # exhausted) pass their planes straight through; overlapping windows
        # take the per-slot loop.
        last_round = ctx.base_round + ctx.rounds - 1
        if (
            self._spent >= self.max_corruptions
            or last_round < self.start_round
            or ctx.base_round > self.end_round
        ):
            return bits, present
        return super().corrupt_window(ctx, bits, present)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._spent = 0


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
        self.links = tuple(_as_link(link, "every rotating link") for link in self.links)
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._cursor = 0

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is not None:
            self._budget.observe_transmission()
        if sent is None:
            return sent
        if (ctx.sender, ctx.receiver) != self.links[self._cursor]:
            return sent
        if not self._budget.can_spend():
            return sent
        self._budget.spend()
        self._cursor = (self._cursor + 1) % len(self.links)
        return _corrupt_randomly(self._rng, sent)

    def corrupt_window(self, ctx: WindowContext, bits: int, present: int) -> Tuple[int, int]:
        return _attack_links(self, self._budget, ctx, bits, present, self._targets(ctx))

    def _targets(self, ctx: WindowContext) -> Iterator[int]:
        """The current target's position while it lies ahead of the walk.

        The cursor only moves when the target is attacked, so once the
        target is behind the walk (or off the graph) no later link of this
        window is attacked.
        """
        start = 0
        while True:
            position = ctx.index.get(self.links[self._cursor])
            if position is None or position < start:
                return
            yield position
            start = position + 1

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget.reset()
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
        self.target = _as_link(self.target, "target")
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._pending_spoof = False

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is not None:
            self._budget.observe_transmission()
        forward = (ctx.sender, ctx.receiver) == self.target
        backward = (ctx.receiver, ctx.sender) == self.target
        if forward and sent is not None and self._budget.can_spend(2):
            self._budget.spend()
            self._pending_spoof = True
            return None  # deletion
        if backward and sent is None and self._pending_spoof:
            self._pending_spoof = False
            self._budget.spend()
            return self._rng.choice([0, 1])  # spoofed reply (insertion)
        return sent

    def corrupt_window(self, ctx: WindowContext, bits: int, present: int) -> Tuple[int, int]:
        # Only the two directions of the target link can change; every other
        # link is bulk-observed.
        sender, receiver = self.target
        index = ctx.index
        targets = sorted(
            {position for position in (index.get(self.target), index.get((receiver, sender)))
             if position is not None}
        )
        return _attack_links(self, self._budget, ctx, bits, present, targets)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget.reset()
        self._pending_spoof = False
