"""Per-link hash-seed management.

Every meeting-points exchange on a link needs fresh hash seeds that both
endpoints agree on.  The paper offers two ways to obtain them:

* a **common random string** (CRS) shared by all parties and unknown to the
  adversary (Algorithm 1 / Theorem 1.1, and Algorithm C), and
* a per-link **randomness exchange** (Algorithm 5): one endpoint samples a
  short uniform seed, sends it through an error-correcting code, and both
  endpoints expand their (hopefully equal) seeds into a long δ-biased string
  (Algorithm A / B).

Both end in the same place: a :class:`SeedSource` carving fixed-capacity
slots out of a δ-biased string (Definition 2.2, Lemma 2.5).  Each iteration
owns a block of :data:`SLOTS_PER_ITERATION` slots; the meeting-points
exchange reads the counter seed from the first and the prefix seed from the
second with one
:meth:`~repro.hashing.small_bias.SmallBiasGenerator.packed_slots` call
(:meth:`SeedSource.seeds_for_iteration`).  Two endpoints produce identical
bits iff they hold identical underlying randomness, which is exactly the
property the analysis needs: a corrupted randomness exchange desynchronises
every subsequent hash comparison on that link (the ``E \\ E'`` case of
Section 5).

The endpoints of a CRS link or of an agreed exchanged link hold one source,
which also memoises the digests computed under the current iteration's
seeds (:meth:`SeedSource.digest_memo`): a pure function of randomness both
endpoints hold, computed once per link and iteration.

The two subclasses only differ in where the generator seed comes from:
:class:`ExchangedSeedSource` expands the seed it received over the wire;
:class:`CrsSeedSource` derives its per-link generator seed from the CRS and
the canonical link label.  (Before 2.0, ``CrsSeedSource`` re-seeded a
``random.Random`` per purpose — a documented behaviour break that the
package major version and the runtime cache/key schema bumps gate.)
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

from repro.hashing.small_bias import SmallBiasGenerator

#: Slots reserved per iteration.  Meeting points reads two (counter and
#: prefix seeds); the third belonged to a purpose that no longer exists and
#: stays reserved because the slot offsets — and with them every pinned seed,
#: golden result and trial key — depend on the stride.
SLOTS_PER_ITERATION = 3


class SeedSource:
    """The counter and prefix seeds of every iteration on one link.

    Iteration ``i`` reads its counter seed at offset
    ``SLOTS_PER_ITERATION * i * slot_capacity_bits`` of the generator's
    δ-biased string and its prefix seed one slot later.  Both endpoints of a
    link compute the same offsets, so no coordination is needed.
    """

    def __init__(self, generator: SmallBiasGenerator, slot_capacity_bits: int) -> None:
        self.generator = generator
        self.slot_capacity_bits = slot_capacity_bits
        #: Slots derived on a cache miss (``repro.obs``).
        self.derivations = 0
        self._cache: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        # Digests under the seeds of iteration ``_memo_iteration``, by seed
        # lengths: counter and prefix digests, each keyed by input value.
        self._memo_iteration = -1
        self._memos: Dict[Tuple[int, int], Tuple[Dict[int, int], Dict[int, int]]] = {}

    def seeds_for_iteration(
        self, iteration: int, counter_bits: int, prefix_bits: int
    ) -> Tuple[int, int]:
        """``(counter_seed, prefix_seed)`` of ``iteration``, packed, of the
        requested lengths."""
        key = (iteration, counter_bits, prefix_bits)
        seeds = self._cache.get(key)
        if seeds is not None:
            return seeds
        if iteration < 0:
            raise ValueError("iteration must be non-negative")
        capacity = self.slot_capacity_bits
        if max(counter_bits, prefix_bits) > capacity:
            raise ValueError(
                f"requested {max(counter_bits, prefix_bits)} seed bits but each slot "
                f"only holds {capacity}"
            )
        offset = SLOTS_PER_ITERATION * iteration * capacity
        counter_seed, prefix_seed = self.generator.packed_slots(
            ((offset, counter_bits), (offset + capacity, prefix_bits))
        )
        self.derivations += 2
        seeds = self._cache[key] = (counter_seed, prefix_seed)
        return seeds

    def digest_memo(
        self, iteration: int, counter_bits: int, prefix_bits: int
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """The ``(counter, prefix)`` digest maps (input value -> digest) under
        the seeds :meth:`seeds_for_iteration` returns for the same arguments.

        Every session reading this source shares the maps, so an input is
        digested once per seed key however many endpoints hash it.  Callers
        fill them; the first read of another iteration drops them all.
        """
        if iteration != self._memo_iteration:
            self._memos.clear()
            self._memo_iteration = iteration
        memo = self._memos.get((counter_bits, prefix_bits))
        if memo is None:
            memo = self._memos[counter_bits, prefix_bits] = ({}, {})
        return memo


class CrsSeedSource(SeedSource):
    """Seeds carved out of a δ-biased string derived from a common random string.

    ``master_seed`` models the CRS; both endpoints of a link construct the
    source with the same master seed and the same canonical link, so they
    derive the identical per-link generator seed (a SHA-256 digest of the
    CRS and the link label) and therefore expand the identical δ-biased
    string.  The adversary never gets access to the object, which models
    obliviousness to the CRS.
    """

    def __init__(
        self,
        master_seed: int,
        link: Tuple[int, int],
        field_degree: int = 64,
        slot_capacity_bits: int = 4096,
    ) -> None:
        label = f"crs|{master_seed}|{link}|link-seed".encode("utf-8")
        digest = hashlib.sha256(label).digest()
        link_seed = int.from_bytes(digest, "little") & ((1 << (2 * field_degree)) - 1)
        super().__init__(SmallBiasGenerator(seed_bits=link_seed, field_degree=field_degree), slot_capacity_bits)


class ExchangedSeedSource(SeedSource):
    """Seeds carved out of a δ-biased string expanded from a short link seed.

    ``link_seed`` is the (decoded) short seed this endpoint holds after the
    randomness exchange; if the exchange was corrupted the two endpoints hold
    different seeds and their hash comparisons will keep failing, which is the
    behaviour Section 5 accounts for.
    """

    def __init__(self, link_seed: int, field_degree: int = 64, slot_capacity_bits: int = 4096) -> None:
        self.link_seed = link_seed
        super().__init__(SmallBiasGenerator(seed_bits=link_seed, field_degree=field_degree), slot_capacity_bits)
