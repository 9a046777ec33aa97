"""The noise-resilient simulator — the paper's Algorithm 1.

``InteractiveCodingSimulator`` takes a noiseless protocol Π (with a fixed
speaking order), a network adversary, and a :class:`SchemeParameters` preset
(Algorithm 1/A/B/C), and executes the noise-resilient simulation over the
noisy network:

    for every iteration:
        (i)   consistency check  — one meeting-points exchange per link
        (ii)  flag passing       — convergecast/broadcast of continue/idle flags
        (iii) simulation         — one chunk of Π per link (or idle ⊥)
        (iv)  rewind             — length-based single-chunk rewind requests

All inter-party communication goes through :class:`NoisyNetwork`, so the
adversary sees (and may corrupt) every symbol, and the communication /
corruption accounting used by the theorems is collected in one place.

Engineering notes:

* The iteration budget defaults to a small multiple of |Π| instead of the
  paper's ``100·|Π|`` — the analysis constants are loose.  The run also
  ends as soon as every link's facing transcripts agree on all real chunks;
  this is an observer-level shortcut that can only shorten runs (success is
  always re-validated by comparing final party outputs with the noiseless
  reference execution).
* Parties never read each other's state: every decision a party makes uses
  only its own transcripts, its hash seeds and what it received on the wire.
  Ground-truth quantities (hash-collision counts, success and, when a flight
  recorder is installed, the potential Φ) are computed for reporting only.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.analysis.metrics import RunMetrics
from repro.analysis.potential import compute_snapshot
from repro.core.meeting_points import (
    STATUS_MEETING_POINTS,
    STATUS_SIMULATE,
    MeetingPointsSession,
)
from repro.core.parameters import SchemeParameters, crs_oblivious_scheme
from repro.core.randomness_exchange import run_randomness_exchange
from repro.core.results import SimulationResult
from repro.core.transcript import ChunkRecord, LinkTranscript
from repro.hashing.inner_product import FINGERPRINT_BITS, InnerProductHash
from repro.hashing.seeds import CrsSeedSource, SeedSource
from repro.network.channel import Symbol
from repro.network.graph import Graph, edge_key
from repro.network.transport import NoisyNetwork
from repro.obs import Tracer, get_obs, link_label
from repro.protocols.base import PartyLogic, Protocol
from repro.utils.bitstring import (
    join_windows,
    pack_slots,
    plane_digits,
    set_positions,
    split_windows,
    symbol_to_bit,
)
from repro.utils.rng import fork, fork_seed


@dataclass
class PartyRuntime:
    """The complete local state of one party during the simulation."""

    party: int
    logic: PartyLogic
    transcripts: Dict[int, LinkTranscript]
    sessions: Dict[int, MeetingPointsSession]
    link_status: Dict[int, str]
    status_flag: int = 1
    net_correct: int = 1

    def __post_init__(self) -> None:
        self._neighbors = tuple(sorted(self.transcripts))

    def neighbors(self) -> Tuple[int, ...]:
        return self._neighbors

    def min_chunk(self) -> int:
        return min([len(transcript.records) for transcript in self.transcripts.values()])

    def build_received_map(self) -> Dict[Tuple[int, int], int]:
        """Everything this party has received so far, for protocol replay."""
        merged: Dict[Tuple[int, int], int] = {}
        for transcript in self.transcripts.values():
            merged.update(transcript.received_map())
        return merged


class InteractiveCodingSimulator:
    """Run Algorithm 1 (with the chosen scheme preset) over a noisy network."""

    def __init__(
        self,
        protocol: Protocol,
        scheme: Optional[SchemeParameters] = None,
        adversary: Optional[Adversary] = None,
        seed: int = 0,
    ) -> None:
        self.protocol = protocol
        self.graph: Graph = protocol.graph
        self.scheme = scheme if scheme is not None else crs_oblivious_scheme()
        self.adversary = adversary if adversary is not None else NoiselessAdversary()
        self.seed = seed
        #: The ambient observability context, captured once (a plain
        #: attribute, so it stays fingerprint-invisible).  With the
        #: default disabled context each phase costs two ``None`` checks:
        #: no span is opened and no round is counted.
        self._obs = get_obs()

        self.scale_k = self.scheme.scale_k(self.graph)
        # The chunk plan, the tree and (in run()) the reference execution
        # depend only on Π and the graph: built once per workload object and
        # shared, read-only, by every trial over it.
        self.chunked = protocol.chunk_plan(self.scheme.chunk_budget(self.graph))
        self.hasher = InnerProductHash(self.scheme.hash_output_bits(self.graph))
        self.tree = protocol.spanning_tree()
        self.network = NoisyNetwork(self.graph, adversary=self.adversary)
        #: Round-frame layout: bit ``j`` of a lockstep round is link
        #: ``self._links[j]``, and ``self._link_bit`` maps a link to its bit.
        self._links = self.graph.directed_edges()
        self._link_bit = self.graph.directed_edge_index()
        self.runtimes: Dict[int, PartyRuntime] = {}
        self.iterations_budget = self.scheme.iterations(self.chunked.num_real_chunks)
        self._counters: Dict[str, int] = {
            "rewinds_sent": 0,
            "mp_truncations": 0,
            "hash_mismatches": 0,
            "hash_collisions": 0,
        }
        self._randomness_agreed: Dict[Tuple[int, int], bool] = {}

    # ------------------------------------------------------------------ run --

    def run(self) -> SimulationResult:
        """Execute the whole simulation and return a :class:`SimulationResult`."""
        reference = self.protocol.run_noiseless()
        self.adversary.reset()
        self._initialize_state()

        tracer = self._obs.tracer
        recorder = self._obs.recorder
        phase_rounds: Optional[Dict[str, int]] = {} if self._obs.metrics is not None else None
        iterations_run = 0
        for iteration in range(self.iterations_budget):
            iterations_run = iteration + 1
            self._run_iteration(iteration, tracer, phase_rounds)
            if recorder is not None:
                # Ground-truth Φ trajectory (reporting only: the parties
                # never see it).
                snapshot = compute_snapshot(
                    self.graph, self._all_transcripts(), iteration, self.scale_k
                )
                recorder.emit("potential", **snapshot.as_dict())
            if self._simulation_complete():
                break

        outputs = self._extract_outputs()
        reference_outputs = dict(reference.outputs)
        metrics = self._build_metrics(reference_cc=self.protocol.communication_complexity(),
                                      outputs=outputs,
                                      reference_outputs=reference_outputs,
                                      iterations_run=iterations_run)
        if self._obs.metrics is not None:
            self._flush_obs(phase_rounds or {}, iterations_run)
        return SimulationResult(
            scheme=self.scheme,
            success=metrics.success,
            outputs=outputs,
            reference_outputs=reference_outputs,
            metrics=metrics,
            iterations_run=iterations_run,
            iterations_budget=self.iterations_budget,
            num_real_chunks=self.chunked.num_real_chunks,
        )

    # ------------------------------------------------------ observability --

    def _run_iteration(
        self,
        iteration: int,
        tracer: Optional[Tracer],
        phase_rounds: Optional[Dict[str, int]],
    ) -> None:
        """One iteration of the main loop: the four phases of Algorithm 1.

        With a tracer, the iteration and each phase run inside a span; with a
        metrics registry, each phase's rounds are added to ``phase_rounds``.
        Spans and counters never touch the schedule, the adversary or any
        RNG, so every observation mode runs bit-identically.
        """
        scope = tracer.span("iteration", iteration=iteration) if tracer is not None else nullcontext()
        with scope:
            self._phase("meeting_points", iteration, self._meeting_points_phase, tracer, phase_rounds)
            self._compute_status_flags()
            self._phase("flag_passing", iteration, self._flag_passing_phase, tracer, phase_rounds)
            self._phase("simulation", iteration, self._simulation_phase, tracer, phase_rounds)
            if self.scheme.enable_rewind_phase:
                self._phase("rewind", iteration, self._rewind_phase, tracer, phase_rounds)

    def _phase(
        self,
        name: str,
        iteration: int,
        step: Callable[[int], None],
        tracer: Optional[Tracer],
        phase_rounds: Optional[Dict[str, int]],
    ) -> None:
        before = self.network.current_round
        if tracer is not None:
            with tracer.span("phase", phase=name, iteration=iteration):
                step(iteration)
        else:
            step(iteration)
        if phase_rounds is not None:
            phase_rounds[name] = phase_rounds.get(name, 0) + (self.network.current_round - before)

    def _flush_obs(self, phase_rounds: Dict[str, int], iterations_run: int) -> None:
        """Flush every per-trial counter into the ambient metrics registry.

        One bulk :meth:`~repro.obs.metrics.MetricsRegistry.inc_many` per trial
        (a single lock acquisition), fed from the plain integer counters the
        hot paths maintained: engine diagnostics, transport dispatch shapes,
        :class:`~repro.network.channel.ChannelStats` totals, and
        hashing-session build paths and seed-source derivations.
        """
        network = self.network
        stats = network.stats
        windows = network.windows_exchanged
        dense = windows if network.adversary.may_insert else 0
        counters: Dict[str, float] = {
            "engine.trials": 1,
            "engine.iterations_run": iterations_run,
            "engine.rounds_total": network.current_round,
            "engine.rewinds_sent": self._counters["rewinds_sent"],
            "engine.meeting_point_truncations": self._counters["mp_truncations"],
            "engine.hash_mismatches": self._counters["hash_mismatches"],
            "engine.hash_collisions": self._counters["hash_collisions"],
            "transport.windows_exchanged": windows,
            # Every window is one packed dispatch, dense exactly when the
            # adversary may insert (fixed when the adversary is built).
            "transport.packed_dispatches": windows,
            "transport.sparse_dispatches": windows - dense,
            "transport.dense_dispatches": dense,
            "transport.idle_rounds_collapsed": network.idle_rounds_collapsed,
            "transport.transmissions": stats.transmissions,
            "transport.delivered_symbols": stats.delivered_symbols,
            "transport.substitutions": stats.substitutions,
            "transport.deletions": stats.deletions,
            "transport.insertions": stats.insertions,
        }
        for phase, count in phase_rounds.items():
            counters[f"engine.rounds.{phase}"] = count
        for phase, count in stats.transmissions_by_phase.items():
            counters[f"transport.transmissions.{phase}"] = count
        for phase, count in stats.corruptions_by_phase.items():
            counters[f"transport.corruptions.{phase}"] = count
        builds = truncations = resets = 0
        # Both endpoints of a CRS or agreed link hold the same source object:
        # count each source's derivations once.
        sources: Dict[int, SeedSource] = {}
        for runtime in self.runtimes.values():
            for session in runtime.sessions.values():
                builds += session.builds
                truncations += session.truncations
                resets += session.resets
                sources[id(session.seed_source)] = session.seed_source
        derivations = sum(source.derivations for source in sources.values())
        counters["hashing.packed_builds"] = builds
        counters["hashing.session_truncations"] = truncations
        counters["hashing.session_resets"] = resets
        counters["hashing.seed_derivations"] = derivations
        self._obs.metrics.inc_many(counters)

    # ------------------------------------------------------ initialisation --

    def _initialize_state(self) -> None:
        """InitializeState(): transcripts, meeting-points state and hash seeds."""
        seed_sources = self._setup_seed_sources()
        recorder = self._obs.recorder
        self.runtimes = {}
        for party in self.graph.nodes:
            transcripts = {v: LinkTranscript(party, v) for v in self.graph.neighbors(party)}
            sessions = {
                v: MeetingPointsSession(
                    hasher=self.hasher,
                    seed_source=seed_sources[(party, v)],
                    recorder=recorder,
                    link=link_label(party, v),
                )
                for v in self.graph.neighbors(party)
            }
            self.runtimes[party] = PartyRuntime(
                party=party,
                logic=self.protocol.create_party(party),
                transcripts=transcripts,
                sessions=sessions,
                link_status={v: STATUS_SIMULATE for v in self.graph.neighbors(party)},
            )

    def _setup_seed_sources(self) -> Dict[Tuple[int, int], SeedSource]:
        if self.scheme.use_crs:
            master = fork_seed(self.seed, "common-random-string")
            # Size each slot to the largest seed meeting points requests:
            # the inner-product seed of a fingerprint.  Capacity determines
            # the slot offsets, so this is part of the documented 2.0 CRS
            # stream break.
            capacity = self.hasher.seed_bits_required(FINGERPRINT_BITS)
            sources: Dict[Tuple[int, int], SeedSource] = {}
            for u, v in self.graph.edges:
                # One shared source per undirected edge: both endpoints read
                # the same CRS, so they expand the same δ-biased stream once.
                source = CrsSeedSource(master_seed=master, link=edge_key(u, v), slot_capacity_bits=capacity)
                sources[(u, v)] = source
                sources[(v, u)] = source
            self._randomness_agreed = {edge: True for edge in self.graph.edges}
            return sources
        exchange_rng = fork(self.seed, "randomness-exchange")
        report = run_randomness_exchange(self.graph, self.network, exchange_rng)
        self._randomness_agreed = dict(report.agreed)
        return report.seed_sources

    # ------------------------------------------------- phase (i): meeting points --

    def _meeting_points_phase(self, iteration: int) -> None:
        """Phase (i): one 4τ-round window over every directed link.

        Each session's 4τ-bit hash message is one packed integer (every slot
        present) placed at its link's window of the link-major plane, the
        transport's :meth:`~repro.network.transport.NoisyNetwork.exchange_window`
        makes one ``corrupt_window`` call for the whole plane, and each reply
        window feeds
        :meth:`~repro.core.meeting_points.MeetingPointsSession.process_reply_packed`
        directly.  A clean link (:meth:`_clean_links`) only advances ``k``,
        sends the zero placeholder and reads its reply with
        :meth:`~repro.core.meeting_points.MeetingPointsSession.process_clean_reply`.
        """
        rounds = 4 * self.hasher.output_bits
        link_bit = self._link_bit
        clean = self._clean_links()
        messages = [0] * len(self._links)
        for runtime in self.runtimes.values():
            for neighbor in runtime.neighbors():
                session = runtime.sessions[neighbor]
                transcript = runtime.transcripts[neighbor]
                if (runtime.party, neighbor) in clean:
                    session.advance(transcript)
                else:
                    messages[link_bit[(runtime.party, neighbor)]] = session.build_message_packed(
                        iteration, transcript
                    )
        width = len(messages) * rounds
        bits, present = self.network.exchange_window(
            join_windows(messages, rounds), (1 << width) - 1, rounds, "meeting_points", iteration
        )
        reply_bits = split_windows(bits, rounds, len(messages))
        reply_present = split_windows(present, rounds, len(messages))
        for runtime in self.runtimes.values():
            for neighbor in runtime.neighbors():
                session = runtime.sessions[neighbor]
                transcript = runtime.transcripts[neighbor]
                position = link_bit[(neighbor, runtime.party)]
                if (runtime.party, neighbor) in clean:
                    process = session.process_clean_reply
                else:
                    process = session.process_reply_packed
                outcome = process(iteration, transcript, reply_bits[position], reply_present[position])
                self._apply_mp_outcome(iteration, runtime, neighbor, transcript, outcome)

    def _clean_links(self) -> Set[Tuple[int, int]]:
        """The directed links whose two endpoints would send each other the
        same meeting-points message this phase (:mod:`repro.core.meeting_points`).

        Both endpoints hold the same seed source object, the same ``k`` and
        byte-equal transcripts, the adversary is symbol-blind and no
        flight recorder is installed (it records the sent bits).  Read
        before the sessions advance: each advances ``k`` by one, so equal
        counters stay equal.  Both directions of an edge are clean or
        neither is.
        """
        clean: Set[Tuple[int, int]] = set()
        if not self.adversary.symbol_blind or self._obs.recorder is not None:
            return clean
        runtimes = self.runtimes
        for u, v in self.graph.edges:
            mine, theirs = runtimes[u], runtimes[v]
            session, other = mine.sessions[v], theirs.sessions[u]
            if (
                session.seed_source is other.seed_source
                and session.k == other.k
                and mine.transcripts[v].same_records(theirs.transcripts[u])
            ):
                clean.add((u, v))
                clean.add((v, u))
        return clean

    def _apply_mp_outcome(
        self,
        iteration: int,
        runtime: PartyRuntime,
        neighbor: int,
        transcript: LinkTranscript,
        outcome,
    ) -> None:
        """Per-link bookkeeping of one meeting-points outcome."""
        runtime.link_status[neighbor] = outcome.status
        if outcome.truncate_to is not None:
            transcript.truncate_to(outcome.truncate_to)
            self._counters["mp_truncations"] += 1
        if outcome.status == STATUS_MEETING_POINTS:
            self._counters["hash_mismatches"] += 1
        if outcome.full_match:
            # Ground-truth hash-collision detection (reporting only).
            other = self.runtimes[neighbor].transcripts[runtime.party]
            if not transcript.same_records(other):
                self._counters["hash_collisions"] += 1
                recorder = self._obs.recorder
                if recorder is not None:
                    recorder.emit(
                        "hash_collision",
                        iteration=iteration,
                        link=link_label(runtime.party, neighbor),
                        transcript_length=len(transcript),
                        other_length=len(other),
                    )

    # -------------------------------------------------- status flags (lines 6-13) --

    def _compute_status_flags(self) -> None:
        for runtime in self.runtimes.values():
            lengths = [len(transcript.records) for transcript in runtime.transcripts.values()]
            runtime.status_flag = int(
                STATUS_MEETING_POINTS not in runtime.link_status.values() and min(lengths) == max(lengths)
            )

    # ------------------------------------------------- phase (ii): flag passing --

    def _flag_passing_phase(self, iteration: int) -> None:
        if not self.scheme.enable_flag_passing:
            for runtime in self.runtimes.values():
                runtime.net_correct = runtime.status_flag
            return

        depth = self.tree.depth
        parent = self.tree.parent
        level_of = self.tree.level
        link_bit = self._link_bit
        up_value: Dict[int, int] = {
            party: runtime.status_flag for party, runtime in self.runtimes.items()
        }

        # Convergecast: deepest levels first; each node sends its aggregated flag
        # to its parent one round after all its children have spoken.  The
        # levels are genuinely sequential — each level's message is the AND of
        # what the previous (deeper) level *delivered* — so each level is one
        # round frame.
        for level in range(depth, 1, -1):
            senders = [node for node in self.graph.nodes if level_of[node] == level]
            slots = [(link_bit[(node, parent[node])], up_value[node]) for node in senders]
            delivered = self._round_digits(slots, "flag_passing", iteration)[0]
            for node, (position, _) in zip(senders, slots):
                if delivered[position] != "1":
                    up_value[parent[node]] = 0

        down_value: Dict[int, int] = {self.tree.root: up_value[self.tree.root]}

        # Broadcast: root first, then level by level.
        for level in range(1, depth):
            slots = [
                (link_bit[(node, child)], down_value[node])
                for node in self.graph.nodes
                if level_of[node] == level and node in down_value
                for child in self.tree.children[node]
            ]
            delivered = self._round_digits(slots, "flag_passing", iteration)[0]
            for node in self.graph.nodes:
                if level_of[node] == level + 1:
                    bit = 1 if delivered[link_bit[(parent[node], node)]] == "1" else 0
                    down_value[node] = bit & self.runtimes[node].status_flag

        for party, runtime in self.runtimes.items():
            if party == self.tree.root:
                runtime.net_correct = down_value[self.tree.root]
            else:
                runtime.net_correct = down_value.get(party, 0)

    # ------------------------------------------------- phase (iii): simulation --

    def _simulation_phase(self, iteration: int) -> None:
        link_bit = self._link_bit
        links = self._links
        # Round 0: parties that should not simulate send ⊥ (encoded as a 1) to
        # every neighbour; everyone listens.
        bot_slots = [
            (link_bit[(runtime.party, neighbor)], 1)
            for runtime in self.runtimes.values()
            if runtime.net_correct == 0
            for neighbor in runtime.neighbors()
        ]
        delivered_bits, _ = self._send_round(bot_slots, "simulation", iteration)
        bot_from: Dict[int, Set[int]] = {party: set() for party in self.graph.nodes}
        for position in set_positions(delivered_bits):
            sender, receiver = links[position]
            bot_from[receiver].add(sender)

        # The chunk index each party simulates on each of its links this phase.
        active: Dict[int, Dict[int, int]] = {}
        for runtime in self.runtimes.values():
            if runtime.net_correct != 1:
                active[runtime.party] = {}
                continue
            active[runtime.party] = {
                neighbor: len(runtime.transcripts[neighbor]) + 1
                for neighbor in runtime.neighbors()
                if neighbor not in bot_from[runtime.party]
            }

        # Per-party working state for the chunk being simulated.
        workspaces: Dict[int, Dict[str, object]] = {}
        for party, chunks in active.items():
            if not chunks:
                continue
            workspaces[party] = {
                "received_map": self.runtimes[party].build_received_map(),
                "sent": {neighbor: {} for neighbor in chunks},
                "recv": {neighbor: {} for neighbor in chunks},
            }

        window = self.chunked.max_chunk_rounds()
        if not workspaces and not self.adversary.may_insert:
            # No party simulates anything this phase and the adversary cannot
            # insert: every one of the window's rounds is provably silent, so
            # the whole span collapses into one clock advancement (the
            # round-by-round schedule would advance the same clock one round
            # at a time and never touch the adversary).
            self.network.advance_rounds(window)
            self.network.idle_rounds_collapsed += window
            return
        may_insert = self.adversary.may_insert
        for offset in range(window):
            # (party, neighbor, round index) of every slot this round: sends
            # are looked up on the round's schedule (a link appears at most
            # once per round), receives are the same slots seen from the
            # other end.
            slots: List[Tuple[int, int]] = []
            reads: List[Tuple[int, int, int, int]] = []
            for party, chunks in active.items():
                if not chunks:
                    continue
                workspace = workspaces[party]
                for neighbor, chunk_index in chunks.items():
                    chunk = self.chunked.chunk(chunk_index)
                    if offset >= chunk.num_rounds:
                        continue
                    round_index = chunk.round_indices[offset]
                    scheduled = self.chunked.chunk_round_sets(chunk_index)[offset]
                    if (party, neighbor) in scheduled:
                        bit = self.runtimes[party].logic.send_bit(
                            round_index, neighbor, workspace["received_map"]
                        )
                        slots.append((link_bit[(party, neighbor)], bit))
                        workspace["sent"][neighbor][round_index] = bit
                    if (neighbor, party) in scheduled:
                        reads.append((party, neighbor, round_index, link_bit[(neighbor, party)]))
            if not slots and not may_insert:
                # Nothing scheduled anywhere this round; skip the exchange but
                # keep the clock honest.
                self.network.advance_rounds(1)
                self.network.idle_rounds_collapsed += 1
                continue
            bit_digits, present_digits = self._round_digits(slots, "simulation", iteration)
            for party, neighbor, round_index, position in reads:
                if present_digits[position] == "1":
                    symbol: Symbol = 1 if bit_digits[position] == "1" else 0
                else:
                    symbol = None
                workspace = workspaces[party]
                workspace["recv"][neighbor][round_index] = symbol
                workspace["received_map"][(round_index, neighbor)] = symbol_to_bit(symbol)

        # Append the freshly simulated chunk records.
        for party, chunks in active.items():
            if not chunks:
                continue
            workspace = workspaces[party]
            runtime = self.runtimes[party]
            for neighbor, chunk_index in chunks.items():
                view: List[Symbol] = []
                for slot in self.chunked.link_slots(chunk_index, party, neighbor):
                    if slot.sender == party:
                        view.append(workspace["sent"][neighbor].get(slot.round_index))
                    else:
                        view.append(workspace["recv"][neighbor].get(slot.round_index))
                record = ChunkRecord(
                    chunk_index=chunk_index,
                    link_view=tuple(view),
                    received_by_round=tuple(sorted(workspace["recv"][neighbor].items())),
                )
                runtime.transcripts[neighbor].append(record)

    # --------------------------------------------------- phase (iv): rewind --

    def _rewind_phase(self, iteration: int) -> None:
        """Phase (iv): n lockstep rounds of single-chunk rewind requests.
        Round 0 scans every party, each later round only the parties that
        truncated a link as a receiver in the round before: only a received
        rewind can lower a party's shortest link and so make a link sendable."""
        already: Set[Tuple[int, int]] = set()
        rounds = self.graph.num_nodes  # the paper's choice: n rounds
        recorder = self._obs.recorder
        link_bit = self._link_bit
        links = self._links
        scan: List[PartyRuntime] = list(self.runtimes.values())
        for round_index in range(rounds):
            slots: List[Tuple[int, int]] = []
            for runtime in scan:
                party = runtime.party
                transcripts = runtime.transcripts
                min_chunk = runtime.min_chunk()
                for neighbor in runtime.neighbors():
                    transcript = transcripts[neighbor]
                    if (
                        len(transcript.records) <= min_chunk
                        or runtime.link_status[neighbor] == STATUS_MEETING_POINTS
                        or (party, neighbor) in already
                    ):
                        continue
                    slots.append((link_bit[(party, neighbor)], 1))
                    transcript.truncate_last(1)
                    already.add((party, neighbor))
                    self._counters["rewinds_sent"] += 1
                    if recorder is not None:
                        recorder.emit(
                            "rewind",
                            iteration=iteration,
                            link=link_label(party, neighbor),
                            role="sender",
                            depth=len(transcript),
                        )
            if not slots and not self.adversary.may_insert:
                # Quiescent tail: with nothing sent and nothing insertable,
                # nothing was delivered, so the state feeding the next round's
                # message computation (transcripts, `already` flags) is
                # unchanged — every remaining round is provably identical to
                # this one.  Advance the clock over the whole tail in one call.
                self.network.advance_rounds(rounds - round_index)
                self.network.idle_rounds_collapsed += rounds - round_index
                return
            delivered_bits, _ = self._send_round(slots, "rewind", iteration)
            # Every link that delivered a 1, in the order the parties scan
            # their neighbours (party, then neighbour, ascending).
            requests = sorted(
                (receiver, sender)
                for sender, receiver in (links[position] for position in set_positions(delivered_bits))
            )
            scan = []
            for party, neighbor in requests:
                runtime = self.runtimes[party]
                if runtime.link_status[neighbor] == STATUS_MEETING_POINTS:
                    continue
                if (party, neighbor) in already:
                    continue
                runtime.transcripts[neighbor].truncate_last(1)
                already.add((party, neighbor))
                if not scan or scan[-1] is not runtime:
                    scan.append(runtime)
                if recorder is not None:
                    recorder.emit(
                        "rewind",
                        iteration=iteration,
                        link=link_label(party, neighbor),
                        role="receiver",
                        depth=len(runtime.transcripts[neighbor]),
                    )

    # --------------------------------------------------------- bookkeeping --

    def _send_round(
        self, slots: List[Tuple[int, int]], phase: str, iteration: int
    ) -> Tuple[int, int]:
        """One lockstep round: send ``bit`` on the link at each ``(position, bit)``
        of ``slots`` (positions in ``graph.directed_edges()``) as a one-round
        :meth:`~repro.network.transport.NoisyNetwork.exchange_window`, and
        return the delivered round frame ``(bits, present)``."""
        bits, present = pack_slots(slots, len(self._links))
        return self.network.exchange_window(bits, present, 1, phase, iteration)

    def _round_digits(
        self, slots: List[Tuple[int, int]], phase: str, iteration: int
    ) -> Tuple[str, str]:
        """:meth:`_send_round`, with the delivered frame as per-link digit
        strings (``plane_digits``) so every read is O(1)."""
        count = len(self._links)
        bits, present = self._send_round(slots, phase, iteration)
        return plane_digits(bits, count), plane_digits(present, count)

    def _transcript(self, owner: int, neighbor: int) -> LinkTranscript:
        return self.runtimes[owner].transcripts[neighbor]

    def _all_transcripts(self) -> Dict[Tuple[int, int], LinkTranscript]:
        out: Dict[Tuple[int, int], LinkTranscript] = {}
        for runtime in self.runtimes.values():
            for neighbor, transcript in runtime.transcripts.items():
                out[(runtime.party, neighbor)] = transcript
        return out

    def _simulation_complete(self) -> bool:
        """True when every link's facing transcripts agree on all real chunks."""
        target = self.chunked.num_real_chunks
        for u, v in self.graph.edges:
            mine = self._transcript(u, v)
            theirs = self._transcript(v, u)
            if len(mine) < target or len(theirs) < target:
                return False
            if not mine.matches_prefix(theirs, target):
                return False
        return True

    def _extract_outputs(self) -> Dict[int, object]:
        outputs: Dict[int, object] = {}
        max_chunk = self.chunked.num_real_chunks
        for party, runtime in self.runtimes.items():
            received: Dict[Tuple[int, int], int] = {}
            for transcript in runtime.transcripts.values():
                received.update(transcript.received_map(max_chunk_index=max_chunk))
            outputs[party] = runtime.logic.compute_output(received)
        return outputs

    def _build_metrics(
        self,
        reference_cc: int,
        outputs: Dict[int, object],
        reference_outputs: Dict[int, object],
        iterations_run: int,
    ) -> RunMetrics:
        stats = self.network.stats
        success = all(outputs.get(party) == value for party, value in reference_outputs.items())
        return RunMetrics(
            scheme=self.scheme.name,
            success=success,
            protocol_communication=reference_cc,
            simulation_communication=stats.transmissions,
            corruptions=stats.corruptions,
            noise_fraction=stats.noise_fraction(),
            iterations_run=iterations_run,
            iterations_budget=self.iterations_budget,
            communication_by_phase=dict(stats.transmissions_by_phase),
            corruptions_by_phase=dict(stats.corruptions_by_phase),
            meeting_point_truncations=self._counters["mp_truncations"],
            rewinds_sent=self._counters["rewinds_sent"],
            hash_mismatches_detected=self._counters["hash_mismatches"],
            hash_collisions_observed=self._counters["hash_collisions"],
            randomness_exchange_failures=sum(
                1 for agreed in self._randomness_agreed.values() if not agreed
            ),
        )


def simulate(
    protocol: Protocol,
    scheme: Optional[SchemeParameters] = None,
    adversary: Optional[Adversary] = None,
    seed: int = 0,
) -> SimulationResult:
    """Convenience wrapper: build a simulator and run it once."""
    return InteractiveCodingSimulator(protocol, scheme=scheme, adversary=adversary, seed=seed).run()
