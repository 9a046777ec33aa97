"""The inner-product hash family of Definition 2.2.

``h(x, s)`` maps an ``L``-bit input and a ``τ·L``-bit seed to ``τ`` output
bits; output bit ``j`` is the GF(2) inner product of ``x`` with the ``j``-th
disjoint ``L``-bit block of the seed.  For a uniform seed the output of any
non-zero input is uniform (Lemma 2.3), hence the collision probability of two
distinct inputs is exactly ``2^-τ``; for a δ-biased seed the collision
indicator deviates from that by at most δ (Lemma 2.6).

Inputs and seeds are handled as packed integers for speed; helpers accept bit
lists and byte strings as well.

The coding engine normally does not feed entire transcripts to this hash.
Raw transcripts grow as Θ(|Π|·K) bits, which would require impractically long
seeds exactly as the paper discusses; instead the engine first compresses the
transcript to a fixed-width *fingerprint* (see :func:`fingerprint_bits`) and
applies the inner-product hash to the fingerprint.  This keeps the
inner-product/δ-bias structure that the analysis is about while bounding the
seed length (a deliberate substitution for hashing raw transcripts).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence, Tuple

#: Width (in bits) of the pre-hash transcript fingerprint.
FINGERPRINT_BITS = 128


def fingerprint_bits(data: bytes, width: int = FINGERPRINT_BITS) -> int:
    """Compress arbitrary data to a ``width``-bit integer fingerprint.

    Uses BLAKE2b; collisions of the fingerprint stage are negligible compared
    with the ``2^-τ`` inner-product collisions the scheme is designed around.
    """
    if width <= 0 or width % 8 != 0:
        raise ValueError("fingerprint width must be a positive multiple of 8")
    digest = hashlib.blake2b(data, digest_size=width // 8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class InnerProductHash:
    """An inner-product hash with a fixed output length.

    The same object is reused for every input length; the seed must provide
    ``output_bits * input_bits`` bits.
    """

    output_bits: int

    def __post_init__(self) -> None:
        if self.output_bits <= 0:
            raise ValueError("output_bits must be positive")

    def seed_bits_required(self, input_bits: int) -> int:
        """Seed length needed to hash an ``input_bits``-bit input."""
        if input_bits <= 0:
            raise ValueError("input_bits must be positive")
        return self.output_bits * input_bits

    def digest(self, value: int, input_bits: int, seed: int) -> int:
        """Hash a packed ``input_bits``-bit integer with a packed seed.

        Returns the output as a packed ``output_bits``-bit integer.
        """
        if value < 0 or value >= (1 << input_bits):
            raise ValueError("value does not fit in input_bits bits")
        if seed < 0 or seed >= (1 << self.seed_bits_required(input_bits)):
            raise ValueError("seed does not fit in the required seed length")
        mask = (1 << input_bits) - 1
        out = 0
        for j in range(self.output_bits):
            block = (seed >> (j * input_bits)) & mask
            if (block & value).bit_count() & 1:
                out |= 1 << j
        return out

    def digest_many(self, values: Sequence[int], input_bits: int, seed: int) -> Tuple[int, ...]:
        """Hash several packed inputs with the *same* packed seed in one pass.

        The meeting-points exchange hashes three transcript prefixes per
        iteration with one shared seed; extracting each of the seed's
        ``output_bits`` blocks once and applying it to every value amortises
        the big-integer shifts that dominate :meth:`digest`.  Bit-identical to
        ``tuple(digest(v, input_bits, seed) for v in values)`` (pinned by the
        hashing equivalence suite).
        """
        if seed < 0 or seed >= (1 << self.seed_bits_required(input_bits)):
            raise ValueError("seed does not fit in the required seed length")
        cap = 1 << input_bits
        for value in values:
            if value < 0 or value >= cap:
                raise ValueError("value does not fit in input_bits bits")
        mask = cap - 1
        outs = [0] * len(values)
        for j in range(self.output_bits):
            block = (seed >> (j * input_bits)) & mask
            bit = 1 << j
            for index, value in enumerate(values):
                if (block & value).bit_count() & 1:
                    outs[index] |= bit
        return tuple(outs)

    def collision_probability(self) -> float:
        """The nominal collision probability 2^-τ for distinct inputs under uniform seeds."""
        return 2.0 ** (-self.output_bits)
