"""The per-link meeting-points mechanism (paper §3.1(ii), §4.2, Appendix A).

Every consistency-check phase, the two endpoints of a link exchange four
short hashes: one of their meeting-points counter ``k``, one of the full
transcript and two of transcript prefixes truncated at the current *meeting
points* MP1 and MP2.  The meeting
points are the multiples of ``k̃ = 2^⌈log₂ k⌉`` nearest below the transcript
length, so as the search continues (k grows) the candidate rollback points
move back geometrically.  When a party has seen enough evidence that one of
its meeting points is a common prefix, it truncates its transcript to that
point; when the full-transcript hashes match at ``k = 1`` the link is
consistent and the party reports status ``"simulate"``.

The implementation follows Haeupler's meeting-points protocol (which the
paper adapts as its Algorithm 7 — the appendix text is not fully available in
our source):

* ``k`` counts consecutive consistency phases spent in the current search;
* ``E`` counts phases in which the two parties appear to disagree about ``k``
  itself (evidence of channel noise);
* ``mpc1`` / ``mpc2`` count, within the current scale, how often MP1 / MP2
  hash-matched one of the other side's meeting points;
* at the end of a scale (``k = k̃``) the party either truncates to a
  sufficiently supported meeting point, or — if errors dominate — resets the
  search.

A single exchange costs ``4τ`` bits per direction, τ being the hash output
length (:attr:`MeetingPointsSession.message_bits`), so a consistency phase
over the whole network costs Θ(τ·m) bits, as required for the constant-rate
accounting.

Every transcript prefix enters the hash as its cached 128-bit fingerprint
(:meth:`~repro.core.transcript.LinkTranscript.prefix_fingerprint`).  Each
message first looks its digests up in the seed source's memo
(:meth:`~repro.hashing.seeds.SeedSource.digest_memo`), which both
endpoints of a CRS or agreed link share, so each distinct input is hashed
once per link and iteration.  The inputs it lacks take one
:meth:`~repro.hashing.seeds.SeedSource.seeds_for_iteration` call (the
counter and prefix seeds) and one
:meth:`~repro.hashing.inner_product.InnerProductHash.digest_many` pass over
the shared prefix seed.  Digests are kept as plain integers end to end:
the message is one integer whose bit ``i`` is wire bit ``i``, and the reply
arrives as a ``(bits, present)`` plane pair.  ``tests/test_hashing_equivalence.py`` pins
the wire bits and decisions against a per-call hashing oracle
(``tests/oracle.py``).

A hash only has to tell two *different* inputs apart (Definition 2.2,
Lemma 2.5).  When both endpoints of a link hold the same seed source, the
same ``k`` and byte-equal transcripts, their two messages are equal, so
every comparison depends only on what the channel did to the window.  The
engine calls such a link *clean* when, in addition, the adversary is
symbol-blind (:attr:`~repro.adversary.base.Adversary.symbol_blind`) and no
flight recorder is installed.  A clean link only advances ``k``
(:meth:`MeetingPointsSession.advance`) and puts a zero placeholder on the
wire; its reply goes to :meth:`MeetingPointsSession.process_clean_reply`.
A reply that arrives whole and unflipped is a full match, decided without
reading a seed or a transcript fingerprint.  Any other reply is
*materialised*: the session builds its own message, which is also the
message the other side would have sent, and the symbol-blind law turns the
delivered placeholder into the reply that message would have produced,
``(own ^ delivered) & present``, before the unchanged decision.  Every
other link builds and hashes as above, so results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.transcript import LinkTranscript
from repro.hashing.inner_product import FINGERPRINT_BITS, InnerProductHash
from repro.hashing.seeds import SeedSource

STATUS_SIMULATE = "simulate"
STATUS_MEETING_POINTS = "meeting points"

#: Width of the encoding of the counter ``k`` fed to the hash.
_COUNTER_BITS = 32


@dataclass
class MeetingPointsOutcome:
    """What one consistency-check exchange decided for one endpoint."""

    status: str
    truncate_to: Optional[int] = None
    k_agreed: bool = False
    full_match: bool = False
    vote: Optional[str] = None
    reset: bool = False


@dataclass
class MeetingPointsSession:
    """Per-(party, link) state of the meeting-points mechanism."""

    hasher: InnerProductHash
    seed_source: SeedSource

    k: int = 0
    error_count: int = 0
    mpc1: int = 0
    mpc2: int = 0
    status: str = STATUS_SIMULATE

    #: Diagnostics accumulated over the whole run.
    truncations: int = 0
    resets: int = 0
    #: How many hash messages this session built (``repro.obs``; a plain
    #: increment, flushed into the metrics registry by the engine).
    builds: int = 0

    #: Optional flight recorder (``repro.obs.recorder``) plus the directed
    #: link this session guards, attached by the engine when forensics are
    #: on.  The session emits ``meeting_point`` transition events — search
    #: recoveries, divergence onsets, resets, votes, truncations — and never
    #: reads the recorder, so decisions are bit-identical with it attached
    #: or not.
    recorder: Optional[object] = field(default=None, repr=False, compare=False)
    link: str = field(default="", repr=False, compare=False)

    # transient, per-exchange fields
    _mp1: int = 0
    _mp2: int = 0
    _k_tilde: int = 1
    #: This phase's own digests; -1 (never a digest) before the first build.
    _own_counter_hash: int = -1
    _own_full_hash: int = -1
    _own_mp1_hash: int = -1
    _own_mp2_hash: int = -1

    # -- message construction ----------------------------------------------------

    @property
    def message_bits(self) -> int:
        """Bits per direction per consistency phase (four hashes).

        The message carries hashes of (a) the meeting-points counter ``k``,
        (b) the full transcript — the "are we consistent?" check the paper
        describes as happening every consistency phase, (c) the MP1 prefix and
        (d) the MP2 prefix.
        """
        return 4 * self.hasher.output_bits

    def build_message_packed(self, iteration: int, transcript: LinkTranscript) -> int:
        """Advance ``k`` and produce this phase's outgoing hash message as one
        integer (bit ``i`` of the result is wire bit ``i``)."""
        self.advance(transcript)
        return self._own_message(iteration, transcript)

    def advance(self, transcript: LinkTranscript) -> None:
        """Advance ``k`` and recompute this phase's meeting points (all a
        clean link does before its reply arrives)."""
        self.k += 1
        self._k_tilde = 1 << (self.k - 1).bit_length()
        length = transcript.num_chunks
        self._mp1 = self._k_tilde * (length // self._k_tilde)
        self._mp2 = max(self._mp1 - self._k_tilde, 0)

    def _own_message(self, iteration: int, transcript: LinkTranscript) -> int:
        """This phase's message, ``k`` already advanced."""
        self.builds += 1
        return self._build_message(iteration, transcript, transcript.num_chunks)

    def _build_message(
        self, iteration: int, transcript: LinkTranscript, length: int
    ) -> int:
        """Digests from the source's memo; the inputs it lacks take one seed
        derivation and one multi-value digest pass."""
        hasher = self.hasher
        tau = hasher.output_bits
        source = self.seed_source
        counter_bits = hasher.seed_bits_required(_COUNTER_BITS)
        prefix_bits = hasher.seed_bits_required(FINGERPRINT_BITS)
        counter_memo, prefix_memo = source.digest_memo(iteration, counter_bits, prefix_bits)
        counter = self.k & ((1 << _COUNTER_BITS) - 1)
        fingerprints = [
            transcript.prefix_fingerprint(num_chunks)
            for num_chunks in (length, self._mp1, self._mp2)
        ]
        missing = [value for value in dict.fromkeys(fingerprints) if value not in prefix_memo]
        counter_digest = counter_memo.get(counter)
        if counter_digest is None or missing:
            counter_seed, prefix_seed = source.seeds_for_iteration(iteration, counter_bits, prefix_bits)
            if counter_digest is None:
                counter_digest = counter_memo[counter] = hasher.digest(
                    counter, _COUNTER_BITS, counter_seed
                )
            if missing:
                prefix_memo.update(
                    zip(missing, hasher.digest_many(missing, FINGERPRINT_BITS, prefix_seed))
                )
        full_digest, mp1_digest, mp2_digest = [prefix_memo[value] for value in fingerprints]
        self._own_counter_hash = counter_digest
        self._own_full_hash = full_digest
        self._own_mp1_hash = mp1_digest
        self._own_mp2_hash = mp2_digest
        return (
            counter_digest
            | (full_digest << tau)
            | (mp1_digest << (2 * tau))
            | (mp2_digest << (3 * tau))
        )

    # -- reply processing ---------------------------------------------------------

    def process_reply_packed(
        self,
        iteration: int,
        transcript: LinkTranscript,
        bits: int,
        present: int,
    ) -> MeetingPointsOutcome:
        """Digest the other side's hashes and decide status / truncation.

        ``(bits, present)`` are the delivered planes of the 4τ-slot reply
        window (:func:`~repro.utils.bitstring.pack_symbols` convention).  A
        hash group is usable only when *all* of its ``present`` bits are set:
        one deleted bit voids the whole digest.
        """
        tau = self.hasher.output_bits
        mask = (1 << tau) - 1
        groups: List[Optional[int]] = []
        for index in range(4):
            start = index * tau
            group_mask = mask << start
            if present & group_mask != group_mask:
                groups.append(None)
            else:
                groups.append((bits >> start) & mask)
        return self._decide(iteration, groups[0], groups[1], groups[2], groups[3])

    def process_clean_reply(
        self,
        iteration: int,
        transcript: LinkTranscript,
        bits: int,
        present: int,
    ) -> MeetingPointsOutcome:
        """Decide on the reply of a clean link (module docstring), ``k``
        already advanced.

        Both sides sent a zero placeholder for the message they share, so
        ``(bits, present)`` is the noise alone: a whole, unflipped window is
        a full match; any other is materialised into the reply the shared
        message would have produced and goes through
        :meth:`process_reply_packed`.
        """
        if not bits and present == (1 << self.message_bits) - 1:
            return self._full_match(iteration, k_agreed=True)
        own = self._own_message(iteration, transcript)
        return self.process_reply_packed(iteration, transcript, (own ^ bits) & present, present)

    def _decide(
        self,
        iteration: int,
        their_counter: Optional[int],
        their_full: Optional[int],
        their_mp1: Optional[int],
        their_mp2: Optional[int],
    ) -> MeetingPointsOutcome:
        """Compare digests and update the search state."""
        outcome = MeetingPointsOutcome(status=STATUS_MEETING_POINTS)
        outcome.k_agreed = their_counter is not None and their_counter == self._own_counter_hash
        recorder = self.recorder
        was_simulating = self.status == STATUS_SIMULATE

        # The "are we consistent?" check happens every consistency phase: if the
        # full-transcript hashes agree the link looks clean, the search state is
        # discarded and the party goes back to simulating — even if the two
        # endpoints had drifted apart in their meeting-points counters (which
        # happens when noise corrupted one direction of a previous exchange).
        if their_full is not None and their_full == self._own_full_hash:
            return self._full_match(iteration, outcome.k_agreed)
        if recorder is not None and was_simulating:
            recorder.emit(
                "meeting_point", event="diverged", link=self.link,
                iteration=iteration, k=self.k,
            )

        if not outcome.k_agreed:
            # The two endpoints disagree about how long they have been
            # searching (channel noise, or one of them reset while the other
            # did not).  Restart the local search: within two phases both
            # sides are back at k = 1 simultaneously, which prevents the
            # counters from drifting apart indefinitely.  Each such restart
            # is caused by (and therefore charged to) a corrupted exchange.
            self.error_count += 1
            self.resets += 1
            if recorder is not None:
                recorder.emit(
                    "meeting_point", event="reset", link=self.link,
                    iteration=iteration, k=self.k,
                )
            self._reset_counters()
            self.status = STATUS_MEETING_POINTS
            outcome.reset = True
            return outcome

        if self.k > 1:
            if self._own_mp1_hash in (their_mp1, their_mp2):
                self.mpc1 += 1
                outcome.vote = "mp1"
            elif self._own_mp2_hash in (their_mp1, their_mp2):
                self.mpc2 += 1
                outcome.vote = "mp2"

        # End-of-scale transition: truncate to a sufficiently supported
        # meeting point, then start a fresh (shorter) search.
        if self.k > 1 and self.k == self._k_tilde:
            if self.mpc1 >= 0.5 * self._k_tilde:
                outcome.truncate_to = self._mp1
            elif self.mpc2 >= 0.5 * self._k_tilde:
                outcome.truncate_to = self._mp2
            self.mpc1 = 0
            self.mpc2 = 0

        if recorder is not None and outcome.vote is not None:
            recorder.emit(
                "meeting_point", event="vote", vote=outcome.vote, link=self.link,
                iteration=iteration, k=self.k,
            )

        if outcome.truncate_to is not None:
            self.truncations += 1
            if recorder is not None:
                recorder.emit(
                    "meeting_point", event="truncate", link=self.link,
                    iteration=iteration, k=self.k, truncate_to=outcome.truncate_to,
                )
            self._reset_counters()

        self.status = STATUS_MEETING_POINTS
        outcome.status = STATUS_MEETING_POINTS
        return outcome

    # -- internals ----------------------------------------------------------------

    def _full_match(self, iteration: int, k_agreed: bool) -> MeetingPointsOutcome:
        """The full-transcript digests agree: back to simulating."""
        if self.recorder is not None and self.k > 1:
            # A real search (k > 1) just recovered; steady-state matches
            # at k = 1 are not transitions and stay out of the ring.
            self.recorder.emit(
                "meeting_point", event="recovered", link=self.link,
                iteration=iteration, k=self.k,
            )
        self._reset_counters()
        self.status = STATUS_SIMULATE
        return MeetingPointsOutcome(status=STATUS_SIMULATE, k_agreed=k_agreed, full_match=True)

    def _reset_counters(self) -> None:
        self.k = 0
        self.error_count = 0
        self.mpc1 = 0
        self.mpc2 = 0
