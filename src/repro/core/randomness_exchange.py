"""The per-link randomness exchange (paper Algorithm 5).

When no common random string is assumed (Algorithms A and B), each link
bootstraps its hash seeds as follows: the endpoint with the smaller identifier
samples a short uniform seed, protects it with a constant-rate
error-correcting code, and streams the codeword to the other endpoint over a
fixed schedule (one bit per round).  Both endpoints then expand their —
hopefully identical — seeds into a long δ-biased string from which all later
hash seeds are carved (:class:`~repro.hashing.seeds.ExchangedSeedSource`).

Because the schedule is fixed, deletions are seen as erasures and insertions
outside the schedule are ignored, so the code only needs to handle
substitutions and erasures (paper footnote 9).  If decoding fails outright,
the receiver falls back to the raw received bits (erasures read 0): the two endpoints then hold
different seeds, all their hash comparisons keep failing, and the link
behaves like the paper's ``E \\ E'`` set — which Section 5 shows the
adversary cannot afford to create at the allowed noise rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.coding.block_code import BinaryBlockCode, DecodingError
from repro.hashing.seeds import ExchangedSeedSource, SeedSource
from repro.hashing.small_bias import seed_length_bits
from repro.network.graph import Graph, edge_key
from repro.network.transport import NoisyNetwork
from repro.utils.bitstring import bits_to_int, join_windows, split_windows
from repro.utils.rng import random_bits

#: δ-biased bits reserved per seed slot.  It fixes the slot offsets, so the
#: exchanged seeds of every Algorithm A/B trial depend on it.
SLOT_CAPACITY_BITS = 4096


@dataclass
class RandomnessExchangeReport:
    """Outcome of the randomness exchange across the whole network."""

    #: (party, neighbour) -> the seed source that party will use on that link.
    seed_sources: Dict[Tuple[int, int], SeedSource]
    #: canonical edge -> whether both endpoints ended up with identical seeds
    #: (ground truth, for analysis only; the parties themselves do not know).
    agreed: Dict[Tuple[int, int], bool] = field(default_factory=dict)
    #: Total bits transmitted during the exchange.
    communication: int = 0

    @property
    def corrupted_links(self) -> List[Tuple[int, int]]:
        return sorted(edge for edge, ok in self.agreed.items() if not ok)


def run_randomness_exchange(
    graph: Graph,
    network: NoisyNetwork,
    rng: random.Random,
    field_degree: int = 64,
    expansion: int = 3,
) -> RandomnessExchangeReport:
    """Execute Algorithm 5 on every link in parallel and build the seed sources."""
    seed_bits = seed_length_bits(field_degree)
    code = BinaryBlockCode(message_bits=seed_bits, expansion=expansion)
    window = code.codeword_bits
    full = (1 << window) - 1

    link_bit = graph.directed_edge_index()
    links = len(link_bit)
    sampled: Dict[Tuple[int, int], int] = {}
    messages = [0] * links
    sending = [0] * links
    for u, v in graph.edges:  # canonical order: u < v, u is the sender
        seed = bits_to_int(random_bits(rng, seed_bits))
        sampled[(u, v)] = seed
        messages[link_bit[(u, v)]] = code.encode(seed)
        sending[link_bit[(u, v)]] = full

    before = network.communication()
    bits, present = network.exchange_window(
        join_windows(messages, window), join_windows(sending, window), window, "randomness_exchange"
    )
    communication = network.communication() - before
    received_bits = split_windows(bits, window, links)
    received_present = split_windows(present, window, links)

    report = RandomnessExchangeReport(seed_sources={}, communication=communication)
    for u, v in graph.edges:
        sender_seed = sampled[(u, v)]
        position = link_bit[(u, v)]
        bits, present = received_bits[position], received_present[position]
        try:
            receiver_seed = code.decode(bits, present)
        except DecodingError:
            # Decoding failure: fall back to the raw (erasure-filled) bits.
            receiver_seed = bits & ((1 << seed_bits) - 1)
        report.agreed[edge_key(u, v)] = receiver_seed == sender_seed

        sender_source = ExchangedSeedSource(sender_seed, field_degree, SLOT_CAPACITY_BITS)
        if receiver_seed == sender_seed:
            # The exchange succeeded: both endpoints expand the same δ-biased
            # string, so they share one source and each slot is expanded once
            # per link, as on a CRS link.
            receiver_source = sender_source
        else:
            receiver_source = ExchangedSeedSource(receiver_seed, field_degree, SLOT_CAPACITY_BITS)
        report.seed_sources[(u, v)] = sender_source
        report.seed_sources[(v, u)] = receiver_source
    return report
