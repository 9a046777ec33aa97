"""Reference semantics the production fast paths are tested against.

Three oracles, each a direct transcription of the model rather than an
optimisation of it:

* :class:`PerSlotNetwork` — a :class:`~repro.network.transport.NoisyNetwork`
  whose ``exchange_window`` delivers slot by slot through the adversary's
  ``corrupt``: directed links in
  ``graph.directed_edges()`` order, then rounds in order, skipping silent
  slots when the adversary cannot insert.  It accounts each slot on its own
  (:func:`record_slot`) and emits one flight-recorder event per corrupted
  slot, as the production transport does.
* :func:`build_message_per_call` — the meeting-points message built with one
  generator read per seed slot and one ``digest`` per hash, where production
  derives an iteration's seeds in one ``packed_slots`` call and digests the
  three transcript prefixes in one pass.
* :func:`rewind_phase_full_scan` and :func:`same_records_per_record` — the
  engine's bookkeeping as Algorithm 1 states it: every rewind round scans
  every party's every link and sends its frame (no rescan rule, no
  quiescent-tail collapse), and the ground-truth collision check compares
  facing transcripts record by record, where production rescans only the
  parties a rewind reached and compares serialisation bytes.

Tests substitute them with ``monkeypatch`` (``repro.core.engine.NoisyNetwork``,
``MeetingPointsSession._build_message``,
``InteractiveCodingSimulator._rewind_phase`` and
``LinkTranscript.same_records``); nothing in ``src/`` knows they exist.
"""

from __future__ import annotations

from typing import List

from repro.core.meeting_points import _COUNTER_BITS, STATUS_MEETING_POINTS
from repro.hashing.inner_product import FINGERPRINT_BITS
from repro.network.channel import ChannelStats, Symbol, TransmissionContext
from repro.network.transport import NoisyNetwork
from repro.obs import classify_slot, link_label
from repro.utils.bitstring import pack_symbols, set_positions, unpack_symbols


def link_major_plane(graph, messages, rounds):
    """The ``(bits, present)`` plane ``exchange_window`` expects for
    ``messages`` (link -> at most ``rounds`` symbols): link ``j`` of
    ``graph.directed_edges()`` at positions ``[j * rounds, (j + 1) * rounds)``,
    silence after each message and on absent links."""
    index = graph.directed_edge_index()
    symbols: List[Symbol] = [None] * (len(index) * rounds)
    for link, sent in messages.items():
        if len(sent) > rounds:
            raise ValueError(f"message on link {link} is longer than the {rounds}-round window")
        start = index[link] * rounds
        symbols[start:start + len(sent)] = sent
    return pack_symbols(symbols)


def record_slot(stats: ChannelStats, ctx: TransmissionContext, sent: Symbol, received: Symbol) -> None:
    """Account one channel slot: a transmission per sent symbol, one
    corruption per changed slot, with per-phase breakdowns."""
    if sent is not None:
        stats.transmissions += 1
        stats.transmissions_by_phase[ctx.phase] = stats.transmissions_by_phase.get(ctx.phase, 0) + 1
    if received is not None:
        stats.delivered_symbols += 1
    kind = classify_slot(sent, received)
    if kind is None:
        return
    if kind == "substitution":
        stats.substitutions += 1
    elif kind == "deletion":
        stats.deletions += 1
    else:
        stats.insertions += 1
    stats.corruptions_by_phase[ctx.phase] = stats.corruptions_by_phase.get(ctx.phase, 0) + 1


class PerSlotNetwork(NoisyNetwork):
    """The transport with every slot delivered through ``corrupt`` on its own."""

    def exchange_window(self, bits, present, rounds, phase, iteration=-1):
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        links = self.graph.directed_edges()
        sent = unpack_symbols(bits, present, len(links) * rounds)
        adversary = self.adversary
        delivered: List[Symbol] = []
        for position, symbol in enumerate(sent):
            sender, receiver = links[position // rounds]
            offset = position % rounds
            if symbol is None and not adversary.may_insert:
                delivered.append(None)
                continue
            ctx = TransmissionContext(
                round_index=self.current_round + offset, sender=sender, receiver=receiver,
                phase=phase, iteration=iteration,
            )
            received = adversary.corrupt(ctx, symbol)
            if received not in (0, 1, None):
                raise ValueError(f"adversary produced invalid symbol {received!r}")
            record_slot(self.stats, ctx, symbol, received)
            if self.recorder is not None and received != symbol:
                self.recorder.record_window(
                    link_label(sender, receiver), phase, iteration, ctx.round_index, (symbol,), (received,)
                )
            delivered.append(received)
        self.current_round += rounds
        return pack_symbols(delivered)


def build_message_per_call(session, iteration: int, transcript, length: int) -> int:
    """A meeting-points message with one seed read and one digest per hash;
    sets the session's own digests like the production builder.

    Iteration ``i`` owns three slots of ``cap`` δ-biased bits: the counter
    seed is read at offset ``3·i·cap`` and the prefix seed at
    ``(3·i + 1)·cap``, each straight from the source's generator."""
    hasher = session.hasher
    source = session.seed_source
    cap = source.slot_capacity_bits
    counter_seed = source.generator.packed_bits(
        3 * iteration * cap, hasher.seed_bits_required(_COUNTER_BITS)
    )
    counter = hasher.digest(session.k & ((1 << _COUNTER_BITS) - 1), _COUNTER_BITS, counter_seed)
    prefixes = []
    for num_chunks in (length, session._mp1, session._mp2):
        seed = source.generator.packed_bits(
            (3 * iteration + 1) * cap, hasher.seed_bits_required(FINGERPRINT_BITS)
        )
        prefixes.append(hasher.digest(transcript.prefix_fingerprint(num_chunks), FINGERPRINT_BITS, seed))
    session._own_counter_hash = counter
    session._own_full_hash, session._own_mp1_hash, session._own_mp2_hash = prefixes
    tau = hasher.output_bits
    return counter | (prefixes[0] << tau) | (prefixes[1] << (2 * tau)) | (prefixes[2] << (3 * tau))


def rewind_phase_full_scan(simulator, iteration: int) -> None:
    """Phase (iv): in each of the n rounds every party scans every link and
    sends a rewind on each link longer than its shortest one (unless the
    link is in meeting points or already rewound this phase); then every
    delivered request truncates the receiver's link under the same two
    conditions, in (receiver, sender) order.  Every round sends its frame,
    even an empty one."""
    already = set()
    recorder = simulator._obs.recorder
    links = simulator.graph.directed_edges()
    index = simulator.graph.directed_edge_index()
    for _ in range(simulator.graph.num_nodes):
        slots = []
        for party, runtime in simulator.runtimes.items():
            shortest = min(len(transcript) for transcript in runtime.transcripts.values())
            for neighbor in sorted(runtime.transcripts):
                transcript = runtime.transcripts[neighbor]
                if runtime.link_status[neighbor] == STATUS_MEETING_POINTS or (party, neighbor) in already:
                    continue
                if len(transcript) > shortest:
                    slots.append((index[(party, neighbor)], 1))
                    transcript.truncate_last(1)
                    already.add((party, neighbor))
                    simulator._counters["rewinds_sent"] += 1
                    if recorder is not None:
                        recorder.emit(
                            "rewind", iteration=iteration, link=link_label(party, neighbor),
                            role="sender", depth=len(transcript),
                        )
        delivered_bits, _ = simulator._send_round(slots, "rewind", iteration)
        requests = sorted(
            (receiver, sender)
            for sender, receiver in (links[position] for position in set_positions(delivered_bits))
        )
        for party, neighbor in requests:
            runtime = simulator.runtimes[party]
            if runtime.link_status[neighbor] == STATUS_MEETING_POINTS or (party, neighbor) in already:
                continue
            runtime.transcripts[neighbor].truncate_last(1)
            already.add((party, neighbor))
            if recorder is not None:
                recorder.emit(
                    "rewind", iteration=iteration, link=link_label(party, neighbor),
                    role="receiver", depth=len(runtime.transcripts[neighbor]),
                )


def same_records_per_record(transcript, other) -> bool:
    """Equal lengths and every facing record ``matches``."""
    return transcript.matches_prefix(other, max(len(transcript), len(other)))


def use_oracles(monkeypatch, network: bool = True, hashing: bool = True, bookkeeping: bool = False) -> None:
    """Route every simulator built afterwards through the chosen oracles.

    ``bookkeeping`` is opt-in: without it the engine keeps its production
    rewind phase and collision check."""
    if bookkeeping:
        monkeypatch.setattr(
            "repro.core.engine.InteractiveCodingSimulator._rewind_phase", rewind_phase_full_scan
        )
        monkeypatch.setattr("repro.core.transcript.LinkTranscript.same_records", same_records_per_record)
    if network:
        monkeypatch.setattr("repro.core.engine.NoisyNetwork", PerSlotNetwork)
    if hashing:
        monkeypatch.setattr(
            "repro.core.meeting_points.MeetingPointsSession._build_message", build_message_per_call
        )
