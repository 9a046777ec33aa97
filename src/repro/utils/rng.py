"""Deterministic randomness utilities.

Every stochastic component of the library (party-local coins, the common
random string, adversary strategies, workload generators) draws from a
``random.Random`` instance that is derived from an explicit integer seed, so
that every experiment in the repository is exactly reproducible.

``fork`` derives independent child generators from a parent seed and a string
label; the derivation is a stable hash of the label, *not* Python's salted
``hash``, so forks are stable across interpreter runs.
"""

from __future__ import annotations

import hashlib
import random
from typing import List


#: Multiplier / mask of the child-seed derivation.  Exposed so callers that
#: compute label hashes incrementally (e.g. the batched CRS seed source) can
#: derive children bit-identical to :func:`fork` / :func:`fork_seed`.
FORK_MULTIPLIER = 0x9E3779B97F4A7C15
FORK_SEED_MASK = (1 << 63) - 1


def stable_label_hash(label: str) -> int:
    """A 64-bit integer derived deterministically from a text label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int) -> random.Random:
    """Create a ``random.Random`` from an integer seed."""
    return random.Random(seed)


def fork(seed: int, label: str) -> random.Random:
    """Derive an independent generator from ``seed`` and a textual ``label``."""
    return random.Random((seed * FORK_MULTIPLIER + stable_label_hash(label)) & FORK_SEED_MASK)


def fork_seed(seed: int, label: str) -> int:
    """Derive a child integer seed (useful when an API wants a seed, not an RNG)."""
    return (seed * FORK_MULTIPLIER + stable_label_hash(label)) & FORK_SEED_MASK


def random_bits(rng: random.Random, count: int) -> List[int]:
    """Draw ``count`` independent uniform bits.

    Draw for draw ``[rng.getrandbits(1) for _ in range(count)]``: each bit is
    the top bit of one 32-bit Mersenne Twister word, and one
    ``getrandbits(32 * count)`` returns those ``count`` words, the first
    lowest, leaving the generator in the same state.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    words = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return [high >> 7 for high in words[3::4]]
