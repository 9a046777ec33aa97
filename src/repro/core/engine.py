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
  paper's ``100·|Π|`` — the analysis constants are loose.  With
  ``early_stop=True`` (default) the run also ends as soon as every link's
  facing transcripts agree on all real chunks; this is an observer-level
  shortcut that can only shorten runs (success is always re-validated by
  comparing final party outputs with the noiseless reference execution).
* Parties never read each other's state: every decision a party makes uses
  only its own transcripts, its hash seeds and what it received on the wire.
  Ground-truth quantities (potential, hash-collision counts, success) are
  computed by the surrounding harness for reporting only.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.analysis.metrics import RunMetrics
from repro.analysis.potential import PotentialTrace, compute_snapshot
from repro.core.chunking import ChunkedProtocol
from repro.core.config import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.core.meeting_points import (
    _RAW_INPUT_CAP_BITS,
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
from repro.network.spanning_tree import SpanningTree
from repro.network.transport import NoisyNetwork
from repro.obs import Tracer, get_obs, link_label
from repro.protocols.base import PartyLogic, Protocol
from repro.utils.bitstring import pack_slots, plane_digits, set_positions, symbol_to_bit
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

    def neighbors(self) -> List[int]:
        return sorted(self.transcripts)

    def min_chunk(self) -> int:
        return min(map(len, self.transcripts.values()))

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
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.protocol = protocol
        self.graph: Graph = protocol.graph
        self.scheme = scheme if scheme is not None else crs_oblivious_scheme()
        self.adversary = adversary if adversary is not None else NoiselessAdversary()
        self.seed = seed

        if config is None:
            config = DEFAULT_ENGINE_CONFIG
        #: The execution configuration this simulator was built with.  The
        #: switches below are copied out as plain *mutable* attributes rather
        #: than read from the frozen config (or from scheme fields) for two
        #: reasons: trial fingerprints (and therefore result caches) must be
        #: unaffected — every configuration is bit-identical, pinned by the
        #: equivalence suites — and tests/benchmarks flip individual switches
        #: on a live simulator.
        self.config = config
        #: Batched meeting-points hashing (seeds_for_iteration + digest_many
        #: + packed digests) instead of per-call derivation.
        self.fast_hashing = config.fast_hashing
        #: Packed-plane hot path: the meeting-points exchange travels as
        #: ``(bits, present)`` integer planes through
        #: :meth:`~repro.network.transport.NoisyNetwork.exchange_window_packed`
        #: (one ``corrupt_window_packed`` kernel call and O(1)-popcount
        #: accounting per link), and each lockstep round of the flag-passing,
        #: simulation and rewind phases is one round frame through
        #: :meth:`~repro.network.transport.NoisyNetwork.exchange_round` (one
        #: ``corrupt_round_packed`` call per round), instead of per-slot
        #: symbol sequences.
        self.packed = config.packed
        #: The ambient observability context, captured once (a plain
        #: attribute, for the same fingerprint-invisibility reason).  With the
        #: default disabled context the per-run cost is one attribute read and
        #: one branch; the iteration loop body is untouched.
        self._obs = get_obs()

        self.scale_k = self.scheme.scale_k(self.graph)
        self.chunked = ChunkedProtocol(
            protocol,
            chunk_budget=self.scheme.chunk_budget(self.graph),
            padding_chunks=self.scheme.padding_chunks,
        )
        self.hasher = InnerProductHash(self.scheme.hash_output_bits(self.graph))
        self.tree = SpanningTree(self.graph, root=0)
        self.network = NoisyNetwork(
            self.graph, adversary=self.adversary, batched=config.batched_transport
        )
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

        trace = PotentialTrace() if self.scheme.trace_potential else None
        tracer = self._obs.tracer
        recorder = self._obs.recorder
        phase_rounds: Optional[Dict[str, int]] = {} if self._obs.metrics is not None else None
        iterations_run = 0
        for iteration in range(self.iterations_budget):
            iterations_run = iteration + 1
            if tracer is None and phase_rounds is None:
                self._meeting_points_phase(iteration)
                self._compute_status_flags()
                self._flag_passing_phase(iteration)
                self._simulation_phase(iteration)
                if self.scheme.enable_rewind_phase:
                    self._rewind_phase(iteration)
            else:
                self._run_iteration_observed(iteration, tracer, phase_rounds)
            if trace is not None or recorder is not None:
                snapshot = compute_snapshot(
                    self.graph, self._all_transcripts(), iteration, self.scale_k
                )
                if trace is not None:
                    trace.record(snapshot)
                if recorder is not None:
                    # Ground-truth Φ trajectory (reporting only, like the
                    # potential trace itself: the parties never see it).
                    recorder.emit("potential", **snapshot.as_dict())
            if self.scheme.early_stop and self._simulation_complete():
                break

        outputs = self._extract_outputs()
        metrics = self._build_metrics(reference_cc=self.protocol.communication_complexity(),
                                      outputs=outputs,
                                      reference_outputs=reference.outputs,
                                      iterations_run=iterations_run)
        if self._obs.metrics is not None:
            self._flush_obs(phase_rounds or {}, iterations_run)
        return SimulationResult(
            scheme=self.scheme,
            success=metrics.success,
            outputs=outputs,
            reference_outputs=reference.outputs,
            metrics=metrics,
            channel_summary=self.network.stats.snapshot(),
            iterations_run=iterations_run,
            iterations_budget=self.iterations_budget,
            num_real_chunks=self.chunked.num_real_chunks,
            final_link_agreement={
                edge: self._transcript(edge[0], edge[1]).common_prefix_chunks(self._transcript(edge[1], edge[0]))
                for edge in self.graph.edges
            },
            potential_trace=trace,
            randomness_exchange_agreed=dict(self._randomness_agreed),
        )

    # ------------------------------------------------------ observability --

    def _run_iteration_observed(
        self,
        iteration: int,
        tracer: Optional[Tracer],
        phase_rounds: Optional[Dict[str, int]],
    ) -> None:
        """One iteration of the main loop with spans and per-phase round counts.

        A separate mirror of the loop body so the unobserved path stays free
        of context managers and conditionals; bit-identical to it (spans and
        counters never touch the schedule, the adversary or any RNG).
        """
        scope = tracer.span("iteration", iteration=iteration) if tracer is not None else nullcontext()
        with scope:
            self._observed_phase("meeting_points", iteration, self._meeting_points_phase, tracer, phase_rounds)
            self._compute_status_flags()
            self._observed_phase("flag_passing", iteration, self._flag_passing_phase, tracer, phase_rounds)
            self._observed_phase("simulation", iteration, self._simulation_phase, tracer, phase_rounds)
            if self.scheme.enable_rewind_phase:
                self._observed_phase("rewind", iteration, self._rewind_phase, tracer, phase_rounds)

    def _observed_phase(
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
        :class:`~repro.network.channel.ChannelStats` totals, hashing-session
        build paths and seed-source derivations, and the adversary's budget
        consumption when it has one.
        """
        network = self.network
        stats = network.stats
        counters: Dict[str, float] = {
            "engine.trials": 1,
            "engine.iterations_run": iterations_run,
            "engine.rounds_total": network.current_round,
            "engine.rewinds_sent": self._counters["rewinds_sent"],
            "engine.meeting_point_truncations": self._counters["mp_truncations"],
            "engine.hash_mismatches": self._counters["hash_mismatches"],
            "engine.hash_collisions": self._counters["hash_collisions"],
            "transport.windows_exchanged": network.windows_exchanged,
            "transport.sparse_dispatches": network.sparse_dispatches,
            "transport.dense_dispatches": network.dense_dispatches,
            "transport.packed_dispatches": network.packed_dispatches,
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
        fast_builds = reference_builds = truncations = resets = derivations = 0
        for runtime in self.runtimes.values():
            for session in runtime.sessions.values():
                fast_builds += session.fast_builds
                reference_builds += session.reference_builds
                truncations += session.truncations
                resets += session.resets
                derivations += getattr(session.seed_source, "derivations", 0)
        counters["hashing.packed_builds"] = fast_builds
        counters["hashing.reference_builds"] = reference_builds
        counters["hashing.session_truncations"] = truncations
        counters["hashing.session_resets"] = resets
        counters["hashing.seed_derivations"] = derivations
        budget = getattr(self.adversary, "budget", None)
        if budget is not None:
            counters["adversary.transmissions_seen"] = getattr(budget, "transmissions_seen", 0)
            counters["adversary.corruptions_spent"] = getattr(budget, "corruptions_spent", 0)
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
                    hash_input_mode=self.scheme.hash_input_mode,
                    fast_hashing=self.fast_hashing,
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
            # Size the per-purpose slot capacity to the largest seed any hash
            # purpose can request: the inner-product seed for a full-width
            # input (raw inputs are capped at _RAW_INPUT_CAP_BITS, fingerprint
            # inputs at FINGERPRINT_BITS).  Capacity determines the slot
            # offsets, so this is part of the documented 2.0 CRS stream break.
            max_input_bits = (
                _RAW_INPUT_CAP_BITS
                if self.scheme.hash_input_mode == "raw"
                else FINGERPRINT_BITS
            )
            capacity = self.hasher.seed_bits_required(max_input_bits)
            sources: Dict[Tuple[int, int], SeedSource] = {}
            for u, v in self.graph.edges:
                # One shared source per undirected edge: both endpoints read
                # the same CRS, so they expand the same δ-biased stream once.
                source = CrsSeedSource(
                    master_seed=master,
                    link=edge_key(u, v),
                    field_degree=self.scheme.small_bias_field_degree,
                    slot_capacity_bits=capacity,
                )
                sources[(u, v)] = source
                sources[(v, u)] = source
            self._randomness_agreed = {edge: True for edge in self.graph.edges}
            return sources
        exchange_rng = fork(self.seed, "randomness-exchange")
        report = run_randomness_exchange(
            self.graph,
            self.network,
            exchange_rng,
            field_degree=self.scheme.small_bias_field_degree,
        )
        self._randomness_agreed = dict(report.agreed)
        return report.seed_sources

    # ------------------------------------------------- phase (i): meeting points --

    def _meeting_points_phase(self, iteration: int) -> None:
        # One dense window per directed link: every session contributes its
        # four concatenated hashes, and the whole network-wide exchange is a
        # single batched window transmission.
        if self.packed:
            self._meeting_points_phase_packed(iteration)
            return
        window = 4 * self.hasher.output_bits
        messages: Dict[Tuple[int, int], List[int]] = {}
        for runtime in self.runtimes.values():
            for neighbor in runtime.neighbors():
                session = runtime.sessions[neighbor]
                messages[(runtime.party, neighbor)] = session.build_message(
                    iteration, runtime.transcripts[neighbor]
                )
        delivered = self.network.exchange_window(messages, window, "meeting_points", iteration)
        for runtime in self.runtimes.values():
            for neighbor in runtime.neighbors():
                session = runtime.sessions[neighbor]
                transcript = runtime.transcripts[neighbor]
                outcome = session.process_reply(iteration, transcript, delivered[(neighbor, runtime.party)])
                self._apply_mp_outcome(iteration, runtime, neighbor, transcript, outcome)

    def _meeting_points_phase_packed(self, iteration: int) -> None:
        """Phase (i) on the packed hot path.

        Same exchange, carried as integer planes: each session's 4τ-bit hash
        message is one packed integer (every slot present), the transport's
        :meth:`~repro.network.transport.NoisyNetwork.exchange_window_packed`
        runs one ``corrupt_window_packed`` kernel per directed link, and the
        reply planes feed
        :meth:`~repro.core.meeting_points.MeetingPointsSession.process_reply_packed`
        directly — no per-slot symbol lists anywhere.  Bit-identical to the
        symbol-sequence phase above for every stock adversary
        (``tests/test_hashing_equivalence.py``/``tests/test_transport.py`` pin this).
        """
        window = 4 * self.hasher.output_bits
        full = (1 << window) - 1
        messages: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for runtime in self.runtimes.values():
            for neighbor in runtime.neighbors():
                session = runtime.sessions[neighbor]
                messages[(runtime.party, neighbor)] = (
                    session.build_message_packed(iteration, runtime.transcripts[neighbor]),
                    full,
                )
        delivered = self.network.exchange_window_packed(
            messages, window, "meeting_points", iteration
        )
        for runtime in self.runtimes.values():
            for neighbor in runtime.neighbors():
                session = runtime.sessions[neighbor]
                transcript = runtime.transcripts[neighbor]
                bits, present = delivered[(neighbor, runtime.party)]
                outcome = session.process_reply_packed(iteration, transcript, bits, present)
                self._apply_mp_outcome(iteration, runtime, neighbor, transcript, outcome)

    def _apply_mp_outcome(
        self,
        iteration: int,
        runtime: PartyRuntime,
        neighbor: int,
        transcript: LinkTranscript,
        outcome,
    ) -> None:
        """Shared per-link bookkeeping of one meeting-points outcome."""
        runtime.link_status[neighbor] = outcome.status
        if outcome.truncate_to is not None:
            transcript.truncate_to(outcome.truncate_to)
            self._counters["mp_truncations"] += 1
        if outcome.status == STATUS_MEETING_POINTS:
            self._counters["hash_mismatches"] += 1
        if outcome.full_match:
            # Ground-truth hash-collision detection (reporting only).
            other = self.runtimes[neighbor].transcripts[runtime.party]
            if not transcript.matches_prefix(other, max(len(transcript), len(other))):
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
            min_chunk = runtime.min_chunk()
            in_meeting_points = any(
                status == STATUS_MEETING_POINTS for status in runtime.link_status.values()
            )
            uneven = any(len(runtime.transcripts[v]) > min_chunk for v in runtime.neighbors())
            runtime.status_flag = 0 if (in_meeting_points or uneven) else 1

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
        delivered_bits, _ = self._exchange_round(bot_slots, "simulation", iteration)
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
                    scheduled = self.chunked.chunk_round_links(chunk_index)[offset]
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
        already: Dict[int, Dict[int, bool]] = {
            party: {neighbor: False for neighbor in runtime.neighbors()}
            for party, runtime in self.runtimes.items()
        }
        rounds = self.scheme.rewind_round_count(self.graph)
        recorder = self._obs.recorder
        link_bit = self._link_bit
        links = self._links
        for round_index in range(rounds):
            slots: List[Tuple[int, int]] = []
            for runtime in self.runtimes.values():
                party = runtime.party
                min_chunk = runtime.min_chunk()
                for neighbor in runtime.neighbors():
                    if runtime.link_status[neighbor] == STATUS_MEETING_POINTS:
                        continue
                    if already[party][neighbor]:
                        continue
                    if len(runtime.transcripts[neighbor]) > min_chunk:
                        slots.append((link_bit[(party, neighbor)], 1))
                        runtime.transcripts[neighbor].truncate_last(1)
                        already[party][neighbor] = True
                        self._counters["rewinds_sent"] += 1
                        if recorder is not None:
                            recorder.emit(
                                "rewind",
                                iteration=iteration,
                                link=link_label(party, neighbor),
                                role="sender",
                                depth=len(runtime.transcripts[neighbor]),
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
            delivered_bits, _ = self._exchange_round(slots, "rewind", iteration)
            # Every link that delivered a 1, in the order the parties scan
            # their neighbours (party, then neighbour, ascending).
            requests = sorted(
                (receiver, sender)
                for sender, receiver in (links[position] for position in set_positions(delivered_bits))
            )
            for party, neighbor in requests:
                runtime = self.runtimes[party]
                if runtime.link_status[neighbor] == STATUS_MEETING_POINTS:
                    continue
                if already[party][neighbor]:
                    continue
                runtime.transcripts[neighbor].truncate_last(1)
                already[party][neighbor] = True
                if recorder is not None:
                    recorder.emit(
                        "rewind",
                        iteration=iteration,
                        link=link_label(party, neighbor),
                        role="receiver",
                        depth=len(runtime.transcripts[neighbor]),
                    )

    # --------------------------------------------------------- bookkeeping --

    def _exchange_round(
        self, slots: List[Tuple[int, int]], phase: str, iteration: int
    ) -> Tuple[int, int]:
        """One lockstep round: send ``bit`` on the link at each ``(position, bit)``
        of ``slots`` (positions in ``graph.directed_edges()``), return the
        delivered round frame ``(bits, present)``.

        With ``packed`` the frame goes to
        :meth:`~repro.network.transport.NoisyNetwork.exchange_round` as is.
        Otherwise this adapter turns it into the symbol-list messages of a
        width-1 sparse :meth:`~repro.network.transport.NoisyNetwork.exchange_window`,
        so the reference configuration still runs per-slot ``transmit``
        through the same phase bodies.
        """
        count = len(self._links)
        if self.packed:
            bits, present = pack_slots(slots, count)
            return self.network.exchange_round(bits, present, phase, iteration)
        links = self._links
        messages = {links[position]: [bit] for position, bit in slots}
        delivered = self.network.exchange_window(
            messages, 1, phase, iteration, sparse=True
        )
        link_bit = self._link_bit
        return pack_slots(
            [
                (link_bit[link], symbols[0])
                for link, symbols in delivered.items()
                if symbols[0] is not None
            ],
            count,
        )

    def _round_digits(
        self, slots: List[Tuple[int, int]], phase: str, iteration: int
    ) -> Tuple[str, str]:
        """:meth:`_exchange_round`, with the delivered frame as per-link digit
        strings (``plane_digits``) so every read is O(1)."""
        count = len(self._links)
        bits, present = self._exchange_round(slots, phase, iteration)
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
    config: Optional[EngineConfig] = None,
) -> SimulationResult:
    """Convenience wrapper: build a simulator and run it once."""
    return InteractiveCodingSimulator(
        protocol, scheme=scheme, adversary=adversary, seed=seed, config=config
    ).run()
