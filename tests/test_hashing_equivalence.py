"""Property-style equivalence suite for the meeting-points hashing fast path.

Mirrors ``tests/test_transport.py``: every layer of the batched hashing
machinery is run side by side with its per-call / per-bit reference over
random inputs, and the two must agree bit for bit —

* ``SmallBiasGenerator`` jump-ahead reads vs :meth:`bits`, the per-bit
  field-multiplication definition,
* ``SeedSource.seeds_for_iteration`` vs per-slot generator reads at the
  documented offsets, for both seed sources,
* ``InnerProductHash.digest_many`` vs one ``digest`` per value,
* ``MeetingPointsSession`` vs a session building its messages with the
  per-call hashing oracle (``tests/oracle.py``), in lockstep over random
  transcripts and corrupted replies, with one source per session and with
  sessions sharing one source (and its digest memo),
* whole trials through the engine with every combination of the three
  oracles (per-call hashing, per-slot transport, full-rescan rewind
  bookkeeping) substituted in.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import product

import pytest
from adversaries import DeletionAdversary
from oracle import build_message_per_call, use_oracles

from repro.adversary.strategies import RandomNoiseAdversary
from repro.core.engine import InteractiveCodingSimulator
from repro.core.meeting_points import MeetingPointsSession
from repro.core.parameters import algorithm_a, algorithm_b, crs_oblivious_scheme
from repro.core.randomness_exchange import run_randomness_exchange
from repro.core.transcript import ChunkRecord, LinkTranscript
from repro.hashing.inner_product import InnerProductHash
from repro.hashing.seeds import CrsSeedSource, ExchangedSeedSource
from repro.hashing.small_bias import SmallBiasGenerator
from repro.network.topologies import line_topology
from repro.network.transport import NoisyNetwork
from repro.utils.bitstring import bits_to_int, int_to_bits, pack_symbols
from repro.utils.rng import make_rng


# ---------------------------------------------------------------- small bias --


class TestSmallBiasExpansionEquivalence:
    def test_table_stepping_matches_per_bit_reference(self):
        """Jump-ahead reads equal the per-bit definition, :meth:`bits`."""
        rng = make_rng(11)
        for degree in (8, 16, 32, 64, 128):
            seed = rng.getrandbits(2 * degree)
            generator = SmallBiasGenerator(seed_bits=seed, field_degree=degree)
            for _ in range(6):
                offset = rng.randint(0, 10_000)
                count = rng.randint(0, 400)
                assert generator.packed_bits(offset, count) == bits_to_int(generator.bits(offset, count))

    def test_packed_slots_matches_per_slot_reads(self):
        rng = make_rng(12)
        for trial in range(8):
            generator = SmallBiasGenerator(seed_bits=rng.getrandbits(128))
            slots = []
            position = rng.randint(0, 500)
            for _ in range(rng.randint(1, 5)):
                position += rng.randint(0, 3000)
                length = rng.randint(0, 600)
                slots.append((position, length))
                position += length
            expected = tuple(generator.packed_bits(offset, count) for offset, count in slots)
            assert generator.packed_slots(slots) == expected

    def test_cursor_resume_across_sequential_reads(self):
        """Monotone packed_slots calls (the per-iteration access pattern) stay
        correct when each jump advances from the previous slot's."""
        rng = make_rng(13)
        generator = SmallBiasGenerator(seed_bits=rng.getrandbits(128))
        for iteration in range(6):
            base = iteration * 3 * 4096
            slots = [(base, 256), (base + 4096, 1024)]
            expected = tuple(bits_to_int(generator.bits(offset, count)) for offset, count in slots)
            assert generator.packed_slots(slots) == expected

    def test_packed_slots_rejects_disorder(self):
        generator = SmallBiasGenerator(seed_bits=12345)
        with pytest.raises(ValueError):
            generator.packed_slots([(100, 50), (60, 10)])

    def test_random_access_bit_agrees_with_sequential(self):
        generator = SmallBiasGenerator(seed_bits=make_rng(14).getrandbits(128))
        window = generator.bits(200, 40)
        for offset in range(40):
            assert generator.bit(200 + offset) == window[offset]


# -------------------------------------------------------------- seed sources --


def _random_lengths(rng: random.Random):
    return rng.choice([1, 32, 256, 1024]), rng.choice([1, 32, 256, 1024])


def _slot_reference(generator, iteration: int, cap: int, counter_bits: int, prefix_bits: int):
    """The per-bit reference: counter seed at ``3·i·cap``, prefix seed at
    ``(3·i + 1)·cap``."""
    return (
        bits_to_int(generator.bits(3 * iteration * cap, counter_bits)),
        bits_to_int(generator.bits((3 * iteration + 1) * cap, prefix_bits)),
    )


class TestSeedBatchEquivalence:
    def test_crs_batch_matches_per_call_reference(self):
        rng = make_rng(21)
        for trial in range(8):
            master = rng.getrandbits(48)
            link = (rng.randint(0, 5), rng.randint(6, 11))
            source = CrsSeedSource(master_seed=master, link=link)
            reference = CrsSeedSource(master_seed=master, link=link).generator
            for _ in range(4):
                iteration = rng.randint(0, 40)
                lengths = _random_lengths(rng)
                expected = _slot_reference(reference, iteration, source.slot_capacity_bits, *lengths)
                assert source.seeds_for_iteration(iteration, *lengths) == expected
                # warm second call (cache)
                assert source.seeds_for_iteration(iteration, *lengths) == expected

    def test_exchanged_batch_matches_per_call_reference(self):
        rng = make_rng(22)
        for trial in range(6):
            seed = rng.getrandbits(128)
            source = ExchangedSeedSource(link_seed=seed)
            reference = SmallBiasGenerator(seed_bits=seed)
            for iteration in sorted(rng.sample(range(12), 3)):
                lengths = _random_lengths(rng)
                expected = _slot_reference(reference, iteration, source.slot_capacity_bits, *lengths)
                assert source.seeds_for_iteration(iteration, *lengths) == expected

    def test_generator_sharing_preserves_values(self):
        """An agreed link's one shared source serves both endpoints the seeds
        an independent source of the same link seed derives."""
        graph = line_topology(3)
        report = run_randomness_exchange(graph, NoisyNetwork(graph), make_rng(4))
        for u, v in graph.edges:
            shared = report.seed_sources[(u, v)]
            independent = ExchangedSeedSource(link_seed=shared.link_seed)
            for iteration in (0, 1, 5):
                expected = independent.seeds_for_iteration(iteration, 256, 1024)
                assert shared.seeds_for_iteration(iteration, 256, 1024) == expected
                assert report.seed_sources[(v, u)].seeds_for_iteration(iteration, 256, 1024) == expected


# ------------------------------------------------------------- digest batching --


class TestDigestManyEquivalence:
    def test_matches_per_value_digest(self):
        rng = make_rng(31)
        for _ in range(20):
            tau = rng.choice([1, 4, 8, 12, 17])
            input_bits = rng.choice([1, 32, 128, 200])
            hasher = InnerProductHash(tau)
            seed = rng.getrandbits(hasher.seed_bits_required(input_bits))
            values = [rng.getrandbits(input_bits) for _ in range(rng.randint(1, 4))]
            assert hasher.digest_many(values, input_bits, seed) == tuple(
                hasher.digest(value, input_bits, seed) for value in values
            )

    def test_validates_like_digest(self):
        hasher = InnerProductHash(4)
        with pytest.raises(ValueError):
            hasher.digest_many([16], 4, 0)  # value too wide
        with pytest.raises(ValueError):
            hasher.digest_many([1], 4, 1 << 20)  # seed too long
        assert hasher.digest_many([], 4, 0) == ()


# ------------------------------------------------------- session-level lockstep --


def _transcript(owner: int, neighbor: int, payloads) -> LinkTranscript:
    transcript = LinkTranscript(owner, neighbor)
    for index, payload in enumerate(payloads, start=1):
        transcript.append(ChunkRecord(chunk_index=index, link_view=payload))
    return transcript


def _random_payloads(rng: random.Random, count: int):
    return [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(count)]


def _corrupt(rng: random.Random, message: int, width: int):
    """Randomly flip / erase a few symbols of an outgoing hash message; the
    reply planes ``(bits, present)``."""
    symbols = int_to_bits(message, width)
    for index in range(len(symbols)):
        roll = rng.random()
        if roll < 0.05:
            symbols[index] = None
        elif roll < 0.12:
            symbols[index] = 1 - symbols[index]
    return pack_symbols(symbols)


def _outcome_tuple(outcome):
    return (
        outcome.status,
        outcome.truncate_to,
        outcome.k_agreed,
        outcome.full_match,
        outcome.vote,
        outcome.reset,
    )


def _session_state(session: MeetingPointsSession):
    return (
        session.k,
        session.error_count,
        session.mpc1,
        session.mpc2,
        session.status,
        session.truncations,
        session.resets,
    )


@pytest.mark.parametrize("source_kind", ["crs", "exchanged"])
def test_session_fast_path_is_bit_identical_to_reference(source_kind):
    """The tentpole guarantee at session level: identical wire messages,
    outcomes and search state under noisy replies, for every seed source.

    Three sessions run in lockstep: both endpoints of a link (facing
    transcripts that agree on a prefix) and a session of another τ over the
    first endpoint's transcript.  Each holds its own source (a failed
    randomness exchange), then all three read one shared source, as the
    endpoints of a CRS or agreed link do, in the same iterations: the digest
    memo they share must hand every session the digests of its own seeds.
    """
    def build_source():
        # The exchanged seed fills both AGHP field elements (x and y
        # non-degenerate).
        if source_kind == "crs":
            return CrsSeedSource(master_seed=4242, link=(0, 1))
        return ExchangedSeedSource(link_seed=0x9D1C_37A2_55B0_4E11_6F08_42D3_91AC_7E65)

    for trial in range(6):
        rng = make_rng(1000 * trial + 41)
        tau = rng.choice([4, 8, 12])
        payloads = _random_payloads(rng, rng.randint(0, 12))
        noise_seed = rng.getrandbits(32)
        facing_payloads = payloads[: rng.randint(0, len(payloads))] + _random_payloads(rng, rng.randint(0, 4))
        other_tau = rng.choice([value for value in (4, 8, 12) if value != tau])
        lanes = ((tau, 0, 1, payloads), (tau, 1, 0, facing_payloads), (other_tau, 0, 1, payloads))

        for shared in (None, build_source()):
            sessions = []
            for lane_tau, owner, neighbor, lane_payloads in lanes:
                hasher = InnerProductHash(lane_tau)
                reference = MeetingPointsSession(hasher=hasher, seed_source=build_source())
                reference._build_message = partial(build_message_per_call, reference)
                sessions.append((
                    MeetingPointsSession(hasher=hasher, seed_source=shared or build_source()),
                    reference,
                    _transcript(owner, neighbor, lane_payloads),
                    _transcript(owner, neighbor, lane_payloads),
                ))

            noise = make_rng(noise_seed)
            for iteration in range(15):
                messages = []
                for lane, (fast, reference, fast_transcript, reference_transcript) in enumerate(sessions):
                    message = fast.build_message_packed(iteration, fast_transcript)
                    assert message == reference.build_message_packed(iteration, reference_transcript), (
                        trial, shared is not None, lane, iteration,
                    )
                    messages.append(message)

                # The link's endpoints hear each other; the other-τ session
                # hears itself.
                for (fast, reference, fast_transcript, reference_transcript), incoming in zip(
                    sessions, (messages[1], messages[0], messages[2])
                ):
                    reply = _corrupt(noise, incoming, 4 * fast.hasher.output_bits)
                    fast_outcome = fast.process_reply_packed(iteration, fast_transcript, *reply)
                    reference_outcome = reference.process_reply_packed(iteration, reference_transcript, *reply)
                    assert _outcome_tuple(fast_outcome) == _outcome_tuple(reference_outcome)
                    assert _session_state(fast) == _session_state(reference)
                    if fast_outcome.truncate_to is not None:
                        fast_transcript.truncate_to(fast_outcome.truncate_to)
                        reference_transcript.truncate_to(reference_outcome.truncate_to)


# ------------------------------------------------------------ trial-level runs --


def _trial_fingerprint(result):
    return (
        result.success,
        result.outputs,
        result.metrics,
        result.channel_summary,
        result.iterations_run,
        result.final_link_agreement,
        result.randomness_exchange_agreed,
    )


_TRIAL_CASES = {
    "crs-noise": (crs_oblivious_scheme, lambda: RandomNoiseAdversary(corruption_probability=0.004, seed=3)),
    "crs-inserting": (
        crs_oblivious_scheme,
        lambda: RandomNoiseAdversary(corruption_probability=0.002, insertion_probability=0.002, seed=4),
    ),
    "algorithm-a-deletion": (algorithm_a, lambda: DeletionAdversary(deletion_probability=0.004, seed=5)),
    "algorithm-b-noise": (algorithm_b, lambda: RandomNoiseAdversary(corruption_probability=0.002, seed=6)),
}


@pytest.mark.parametrize("case", sorted(_TRIAL_CASES))
def test_full_trial_bit_identity_across_fast_path_switches(case, gossip_clique4, monkeypatch):
    """Whole trials agree field for field with every combination of the
    per-slot transport, per-call hashing and full-rescan bookkeeping oracles
    substituted in."""
    scheme_factory, adversary_factory = _TRIAL_CASES[case]

    def run(network_oracle: bool, hashing_oracle: bool, bookkeeping_oracle: bool):
        with monkeypatch.context() as patched:
            use_oracles(patched, network=network_oracle, hashing=hashing_oracle, bookkeeping=bookkeeping_oracle)
            simulator = InteractiveCodingSimulator(
                gossip_clique4,
                scheme=scheme_factory(),
                adversary=adversary_factory(),
                seed=7,
            )
            return simulator.run()

    switches = list(product((False, True), repeat=3))
    production = _trial_fingerprint(run(*switches[0]))
    for oracles in switches[1:]:
        assert _trial_fingerprint(run(*oracles)) == production, (case, oracles)


@pytest.mark.parametrize("case", sorted(_TRIAL_CASES))
def test_full_trial_bit_identity_with_obs_on_and_off(case, gossip_clique4, monkeypatch):
    """Observability is a pure reader: metrics + tracing change nothing.

    The tracer draws its ids from ``os.urandom`` and the registry flush runs
    after the simulation, so every field of the result — outputs, metrics,
    channel summary — must match the uninstrumented run bit for bit, with
    production hashing and with the per-call hashing oracle.
    """
    from repro.obs import MetricsRegistry, Tracer, use_obs

    scheme_factory, adversary_factory = _TRIAL_CASES[case]

    def run():
        simulator = InteractiveCodingSimulator(
            gossip_clique4,
            scheme=scheme_factory(),
            adversary=adversary_factory(),
            seed=7,
        )
        return simulator.run()

    for hashing_oracle in (False, True):
        with monkeypatch.context() as patched:
            use_oracles(patched, network=False, hashing=hashing_oracle)
            plain = _trial_fingerprint(run())
            registry = MetricsRegistry()
            with use_obs(metrics=registry, tracer=Tracer()):
                observed = _trial_fingerprint(run())
        assert observed == plain, (case, hashing_oracle)
        # The flush counted every hash message the sessions built.
        counters = registry.snapshot()["counters"]
        assert counters.get("hashing.packed_builds", 0) > 0
        assert "hashing.reference_builds" not in counters
