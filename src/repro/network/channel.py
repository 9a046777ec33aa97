"""Channel primitives: symbols, transmission contexts and statistics.

The communication model (paper §2.1) is synchronous: in every round every
link may carry at most one symbol from the alphabet Σ (here Σ = {0, 1}) in
each direction, and a party may also stay silent.  A transmission is the
event of actually sending a symbol; the channel function is

    Ch : Σ ∪ {*} -> Σ ∪ {*}

where ``*`` ("no message") is represented by ``None`` throughout the code.
A corruption is any slot where the received value differs from the sent one:

* substitution — ``0 -> 1`` or ``1 -> 0``;
* deletion     — a symbol was sent but ``None`` is delivered;
* insertion    — nothing was sent but a symbol is delivered.

``ChannelStats`` keeps the accounting that the theorems are stated in terms
of: the total number of transmissions (the communication complexity ``CC``),
the number of corruptions of each kind, and per-phase breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.utils.bitstring import set_positions

Symbol = Optional[int]  # 0, 1 or None (silence / the paper's "*")

#: Encoding used by the additive adversary of the paper (§2.1, "additive
#: adversary"): symbols are mapped to Z_3 with ``None`` encoded as 2, the
#: adversary adds an offset in {0, 1, 2} mod 3, and the result is mapped back.
SYMBOL_TO_TRIT = {0: 0, 1: 1, None: 2}
TRIT_TO_SYMBOL = {0: 0, 1: 1, 2: None}


def apply_additive_noise(sent: Symbol, offset: int) -> Symbol:
    """Apply an additive-adversary offset (mod 3) to a channel symbol."""
    if offset not in (0, 1, 2):
        raise ValueError(f"additive offset must be in {{0,1,2}}, got {offset}")
    return TRIT_TO_SYMBOL[(SYMBOL_TO_TRIT[sent] + offset) % 3]


@dataclass(frozen=True)
class TransmissionContext:
    """Metadata describing one channel slot (one round, one directed link).

    Adversaries receive this context when deciding whether to corrupt a slot.
    ``phase`` is one of ``"randomness_exchange"``, ``"meeting_points"``,
    ``"flag_passing"``, ``"simulation"``, ``"rewind"`` or ``"baseline"``;
    ``iteration`` is the index of the outer iteration of Algorithm 1 (or -1
    outside the main loop).
    """

    round_index: int
    sender: int
    receiver: int
    phase: str
    iteration: int = -1


class WindowContext:
    """Metadata describing one window of consecutive rounds over every directed link.

    The transport hands one ``WindowContext`` to
    :meth:`~repro.adversary.base.Adversary.corrupt_window` together with a
    link-major ``(bits, present)`` plane: position ``j * rounds + t`` is link
    ``links[j]`` in absolute round ``base_round + t``, so a lockstep round is
    the case ``rounds == 1``.  ``index`` maps each link back to ``j``.
    :meth:`slot` materialises the per-slot :class:`TransmissionContext` of a
    position, which is what the base per-slot loop (and any adversary that
    only implements ``corrupt``) consumes.

    A hand-rolled ``__slots__`` class rather than a dataclass: one instance
    is allocated per exchange on the transport hot path, where the
    dataclass machinery is measurable overhead.
    """

    __slots__ = ("links", "index", "rounds", "phase", "iteration", "base_round")

    def __init__(
        self,
        links: Sequence[Tuple[int, int]],
        index: Dict[Tuple[int, int], int],
        rounds: int,
        phase: str,
        iteration: int = -1,
        base_round: int = 0,
    ) -> None:
        self.links = links
        self.index = index
        self.rounds = rounds
        self.phase = phase
        self.iteration = iteration
        self.base_round = base_round

    @property
    def width(self) -> int:
        """Number of slots in the plane: ``len(links) * rounds``."""
        return len(self.links) * self.rounds

    def slot(self, position: int) -> TransmissionContext:
        """The per-slot context of plane position ``position``."""
        sender, receiver = self.links[position // self.rounds]
        offset = position % self.rounds
        return TransmissionContext(
            round_index=self.base_round + offset,
            sender=sender,
            receiver=receiver,
            phase=self.phase,
            iteration=self.iteration,
        )

    def link_positions(self, plane: int) -> List[int]:
        """The positions in ``links`` of the links with a set slot in
        ``plane``, ascending; only the set slots are visited."""
        rounds = self.rounds
        positions: List[int] = []
        for slot in set_positions(plane):
            position = slot // rounds
            if not positions or positions[-1] != position:
                positions.append(position)
        return positions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowContext(links={len(self.links)}, rounds={self.rounds}, "
            f"phase={self.phase!r}, iteration={self.iteration}, base_round={self.base_round})"
        )


@dataclass
class ChannelStats:
    """Running totals of transmissions and corruptions."""

    transmissions: int = 0
    delivered_symbols: int = 0
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    transmissions_by_phase: Dict[str, int] = field(default_factory=dict)
    corruptions_by_phase: Dict[str, int] = field(default_factory=dict)

    @property
    def corruptions(self) -> int:
        """Total number of corrupted slots (each counts once, per the paper)."""
        return self.substitutions + self.deletions + self.insertions

    def noise_fraction(self) -> float:
        """Fraction of corrupted transmissions (0 when nothing was sent)."""
        if self.transmissions == 0:
            return 0.0
        return self.corruptions / self.transmissions

    def record_window(
        self,
        ctx: WindowContext,
        sent_bits: int,
        sent_present: int,
        received_bits: int,
        received_present: int,
    ) -> int:
        """Account one window; return the plane of its corrupted slots.

        ``(bits, present)`` planes follow the
        :func:`~repro.utils.bitstring.pack_symbols` convention (``bits`` is a
        subset of ``present``; a cleared ``present`` bit is silence).  A
        substitution is a slot present on both sides with differing bits, a
        deletion is present→absent, an insertion is absent→present; each
        corrupted slot counts once in the totals and in the per-phase
        breakdown.  Every count is a popcount; no slot is visited.
        """
        phase = ctx.phase
        flipped = (sent_bits ^ received_bits) & sent_present & received_present
        deleted = sent_present & ~received_present
        inserted = received_present & ~sent_present
        transmissions = sent_present.bit_count()
        self.delivered_symbols += received_present.bit_count()
        if transmissions:
            self.transmissions += transmissions
            phase_counts = self.transmissions_by_phase
            phase_counts[phase] = phase_counts.get(phase, 0) + transmissions
        corrupted = flipped | deleted | inserted
        if not corrupted:
            return 0
        substitutions = flipped.bit_count()
        deletions = deleted.bit_count()
        insertions = inserted.bit_count()
        self.substitutions += substitutions
        self.deletions += deletions
        self.insertions += insertions
        phase_corruptions = self.corruptions_by_phase
        phase_corruptions[phase] = (
            phase_corruptions.get(phase, 0) + substitutions + deletions + insertions
        )
        return corrupted
