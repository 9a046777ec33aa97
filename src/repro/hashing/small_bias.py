"""δ-biased (small-bias) pseudorandom strings.

Algorithm A/B replace the long common random string with a short seed that
both endpoints of a link expand into a δ-biased string (paper §2.3,
Lemma 2.5, citing Naor–Naor and Alon–Goldreich–Håstad–Peralta).  We implement
the AGHP *powering construction*:

    seed = (x, y) with x, y ∈ GF(2^r);   bit_i = ⟨x, y^i⟩

where ⟨·,·⟩ is the GF(2) inner product of coefficient vectors.  The bias of
the first ℓ bits of this generator is at most ℓ / 2^r, so choosing
``r = Θ(log(ℓ/δ))`` gives a δ-biased distribution from a 2r-bit seed —
matching the seed length ``Θ(log(1/δ) + log ℓ)`` of Lemma 2.5.

:meth:`SmallBiasGenerator.bits` is the definition: one field multiplication
per bit.  The seed manager instead reads a few short slots at large offsets
(:meth:`~SmallBiasGenerator.packed_slots`), and each slot is computed on its
own by LFSR jump-ahead:

* ``s_i = ⟨x, y^i⟩`` is a linear functional of the orbit of the linear map
  ``· y``, so the stream satisfies a linear recurrence of order at most r.
  On the first read the generator computes the first 2r bits and recovers
  the minimal recurrence with Berlekamp–Massey, as a characteristic polynomial
  ``X^shift · conn`` with ``conn(0) = 1`` and ``deg conn = D``.
* Past the ``shift`` head, ``u_t = s_{shift+t}`` obeys ``conn``, so for any o

      u_{o+t} = ⊕_{j ∈ X^o mod conn} u_{t+j}.

  A slot of ℓ bits at offset o costs one polynomial ``X^o mod conn`` and one
  XOR per coefficient: the generator keeps the pre-shifted copies
  ``base >> j`` (j < D) of a base prefix of ``ℓ + D − 1`` bits, built on the
  first jump and rebuilt only when a longer slot is read.  The base prefix
  grows by the same identity, one shift/XOR per coefficient.
* ``X^o mod conn`` is assembled from a table of ``X^(2^m) mod conn``, each
  entry the square of the one before; each slot advances from the power of
  the slot read before it.

Polynomial products cost one Python-int multiply each: every GF(2)
coefficient is spread into a byte of its own, where an integer product
cannot carry into the next coefficient (a byte collects at most r ≤ 128
terms), and the low bit of each byte is the GF(2) product.  Field products
fold the part above X^r back with one more product, products modulo ``conn``
are reduced by Barrett reduction.

Nothing is cached across generator instances: the state of a seed is built
lazily on its first read and lives on the instance, so a generator that
never jumps never builds the pre-shifted table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, count as naturals
from operator import xor
from typing import List, Optional, Sequence, Tuple

from repro.hashing.gf2m import GF2m


_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _byte_ones(width: int) -> int:
    """``width`` bytes of value 1: keeps the GF(2) coefficients of a spread product."""
    return int.from_bytes(b"\x01" * width, "big")


def _spread(value: int, width: int) -> int:
    """``value < 2^width`` with bit ``i`` moved to bit ``8i``."""
    return int.from_bytes(format(value, f"0{width}b").encode(), "big") & _byte_ones(width)


def _reverse(value: int, width: int) -> int:
    """The low ``width`` bits of ``value`` in reverse order."""
    return int(format(value, f"0{width}b")[::-1], 2)


def _poly_floordiv(numerator: int, denominator: int) -> int:
    """Quotient of GF(2)[X] division (bit j = coefficient of X^j)."""
    degree = denominator.bit_length() - 1
    quotient = 0
    top = numerator.bit_length() - 1
    while top >= degree:
        quotient |= 1 << (top - degree)
        numerator ^= denominator << (top - degree)
        top = numerator.bit_length() - 1
    return quotient


def _minimal_connection_polynomial(stream: int, count: int) -> Tuple[int, int]:
    """Berlekamp–Massey over GF(2) on the first ``count`` bits of ``stream``.

    Returns ``(C, L)`` with ``C`` packed (bit ``j`` = coefficient of ``x^j``,
    ``C(0) = 1``) such that ``⊕_{j=0}^{L} C_j · s_{i-j} = 0`` for all
    ``i ≥ L``.  Discrepancies are whole-register popcounts over the
    bit-reversed stream instead of per-term Python loops.
    """
    rbits = _reverse(stream, count)
    connection, backup = 1, 1
    complexity, gap = 0, 1
    for i in range(count):
        discrepancy = (connection & (rbits >> (count - 1 - i))).bit_count() & 1
        if discrepancy == 0:
            gap += 1
        elif 2 * complexity <= i:
            previous = connection
            connection ^= backup << gap
            complexity = i + 1 - complexity
            backup = previous
            gap = 1
        else:
            connection ^= backup << gap
            gap += 1
    return connection, complexity


class _JumpAhead:
    """Powers of X modulo a connection polynomial, kept byte-spread.

    ``power(k)`` is ``X^k mod conn``, one coefficient per byte.  It multiplies
    the previous call's power by table entries ``X^(2^m) mod conn`` (each the
    square of the one before), so increasing offsets cost one product per set
    bit of the gap between them.
    """

    __slots__ = ("degree", "_ones", "_low", "_conn", "_mu", "_table", "_cursor")

    def __init__(self, conn: int, degree: int) -> None:
        self.degree = degree
        self._ones = _byte_ones(2 * degree)
        self._low = _byte_ones(degree)
        self._conn = _spread(conn, degree + 1)
        # Barrett constant: the quotient of X^(2D) by conn (exact over GF(2)[X]
        # for any product of two reduced polynomials).
        self._mu = _spread(_poly_floordiv(1 << (2 * degree), conn), degree + 1)
        self._table: List[int] = [self._reduce(_spread(2, 2))]
        self._cursor: Tuple[int, int] = (0, 1)

    def _reduce(self, product: int) -> int:
        """A spread polynomial of degree < 2D modulo conn."""
        shift = 8 * self.degree
        quotient = (((product >> shift) * self._mu) & self._ones) >> shift
        return (product ^ ((quotient * self._conn) & self._ones)) & self._low

    def _mulmod(self, a: int, b: int) -> int:
        return self._reduce((a * b) & self._ones)

    def entry(self, m: int) -> int:
        """``X^(2^m) mod conn``, spread."""
        table = self._table
        while len(table) <= m:
            table.append(self._mulmod(table[-1], table[-1]))
        return table[m]

    def power(self, k: int) -> int:
        """``X^k mod conn``, spread."""
        start, value = self._cursor
        if k < start:
            start, value = 0, 1
        gap = k - start
        while gap:
            low = gap & -gap
            value = self._mulmod(value, self.entry(low.bit_length() - 1))
            gap ^= low
        self._cursor = (k, value)
        return value


def _xor_shifts(base: int, coefficients: int, degree: int) -> int:
    """``⊕_j c_j · (base >> j)`` for spread ``coefficients``: a jump-ahead
    step for every bit of ``base`` at once."""
    positions = compress(naturals(), coefficients.to_bytes(degree, "little"))
    return reduce(xor, map(base.__rshift__, positions), 0)


def required_field_degree(output_length: int, delta: float) -> int:
    """Smallest supported field degree giving bias <= ``delta`` for ``output_length`` bits."""
    if output_length <= 0:
        raise ValueError("output_length must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    for degree in (8, 16, 32, 64, 128):
        # bias of the first ℓ bits of the powering construction is <= ℓ / 2^r
        if output_length / (2.0 ** degree) <= delta:
            return degree
    raise ValueError("requested bias is too small for the supported field degrees")


def seed_length_bits(field_degree: int) -> int:
    """Number of uniform seed bits consumed by the generator (two field elements)."""
    return 2 * field_degree


@dataclass
class SmallBiasGenerator:
    """AGHP powering-construction generator for a δ-biased bit string."""

    seed_bits: int
    field_degree: int = 64

    def __post_init__(self) -> None:
        self.field = GF2m(self.field_degree)
        mask = self.field.order - 1
        self.x = self.seed_bits & mask
        self.y = (self.seed_bits >> self.field_degree) & mask
        # A zero x would make the whole string zero and a zero y would make it
        # constant after the first bit; both still satisfy the bias bound on
        # average over seeds, but we keep them as-is for faithfulness (the
        # probability of drawing them is 2^-r).
        #
        # Expansion state, built on the first packed read: ``_stream`` holds
        # the first ``_known`` bits, the recurrence is ``X^_shift · conn`` and
        # ``_jumps`` (None when conn = 1, i.e. the stream is zero past the
        # head) computes powers of X modulo conn.
        self._stream = 0
        self._known = 0
        self._shift = 0
        self._degree = 0
        self._jumps: Optional[_JumpAhead] = None
        # ``_shifted[j]`` is ``base >> j`` (j < D) for the base prefix of
        # ``_shifted_length`` bits, the longest any jump has read.
        self._shifted: List[int] = []
        self._shifted_length = 0

    def _bootstrap(self) -> None:
        """Compute 2r bits and find their minimal recurrence (Berlekamp–Massey).

        The stream's linear complexity is at most r, so 2r terms determine
        its minimal connection polynomial, and jump-ahead over it reproduces
        :meth:`bits` exactly.  The 2r terms come from a baby-step/giant-step
        split, ``s_{aB+b} = ⟨w_b, y^(aB)⟩`` with ``w_b`` the adjoint of
        ``· y^b`` applied to x: B + 2r/B field products instead of 2r.  A
        field product is one integer product of byte-spread operands, folded
        back below X^r with another (a byte then holds a small sum, whose low
        bit is the GF(2) coefficient).
        """
        degree = self.field_degree
        count = 2 * degree
        shift = 8 * degree
        head = (1 << shift) - 1
        low = _byte_ones(degree)
        ones = _byte_ones(2 * degree)
        tail = self.field.modulus ^ (1 << degree)
        spread_tail = _spread(tail, degree)

        def multiply(a: int, b: int) -> int:
            product = (a * b) & ones
            # X^r = tail: two folds bring the degree below r.
            product = (product & head) + (product >> shift) * spread_tail
            return ((product & head) + (product >> shift) * spread_tail) & low

        # x'_k = <x, X^k mod f> for k < 2r - 1, so that <x, p mod f> = <x', p>
        # for an unreduced product p: X^k = X^(k-r) · tail.
        extended = self.x
        fresh = degree - tail.bit_length() + 1
        for known in range(degree, 2 * degree - 1, fresh):
            block = _xor_shifts(extended >> (known - degree), spread_tail, degree)
            extended |= (block & ((1 << fresh) - 1)) << known
        spread_x = _spread(extended & ((1 << (2 * degree - 1)) - 1), 2 * degree - 1)
        # Baby steps: w_b with <w_b, z> = <x, y^b · z>, the correlation of x'
        # with y^b.  Giant steps: y^(aB).  Then s_{aB+b} = <w_b, y^(aB)>.
        baby = 1 << (degree.bit_length() // 2)  # a power of two near √r: it divides 2r
        y = _spread(self.y, degree)
        wide = _byte_ones(3 * degree)
        adjoints = []
        power = 1
        for _ in range(baby):
            reverse = int.from_bytes(power.to_bytes(degree, "little"), "big")
            adjoints.append((((spread_x * reverse) & wide) >> (8 * degree - 8)) & low)
            power = multiply(power, y)
        giants = [1]
        for _ in range(count // baby - 1):
            giants.append(multiply(giants[-1], power))
        parities = bytes([(w & g).bit_count() & 1 for g in giants for w in adjoints])
        stream = int(parities[::-1].translate(_BITS_TO_DIGITS), 2)
        self._stream = stream
        self._known = count
        connection, complexity = _minimal_connection_polynomial(stream, count)
        # Characteristic form: bit-reverse C over degree L, then strip the
        # X^shift factor (present exactly when the minimal polynomial has a
        # pre-periodic head, e.g. y = 0) so conn is invertible at 0.
        characteristic = _reverse(connection, complexity + 1)
        self._shift = (characteristic & -characteristic).bit_length() - 1
        conn = characteristic >> self._shift
        self._degree = conn.bit_length() - 1
        if self._degree:
            self._jumps = _JumpAhead(conn, self._degree)

    def _extend(self, length: int) -> None:
        """Grow the known stream prefix to at least ``length`` bits.

        With ``have`` bits known past the head and ``2^m <= have``, the
        identity at ``o = 2^m`` yields ``u_{2^m} .. u_{2^m + have - D}`` from
        the known prefix, i.e. ``2^m - D + 1 >= 1`` new bits.
        """
        jumps = self._jumps
        shift, degree = self._shift, self._degree
        stream, known = self._stream, self._known
        while known < length:
            have = known - shift
            m = have.bit_length() - 1
            fresh = (1 << m) - degree + 1
            block = _xor_shifts(stream >> shift, jumps.entry(m), degree)
            stream |= ((block >> (have - (1 << m))) & ((1 << fresh) - 1)) << known
            known += fresh
        self._stream, self._known = stream, known

    def _read(self, offset: int, count: int) -> int:
        if not self._known:
            self._bootstrap()
        end = offset + count
        if end > self._known and self._jumps is not None:
            base_length = count + self._degree - 1
            start = offset - self._shift
            if start >= base_length:
                # A table built for a longer slot serves this one: the low
                # ``count`` bits of ``base >> j`` (j < D) depend only on the
                # low ``base_length`` bits of the base.
                if base_length > self._shifted_length:
                    self._extend(self._shift + base_length)
                    base = (self._stream >> self._shift) & ((1 << base_length) - 1)
                    self._shifted = [base >> j for j in range(self._degree)]
                    self._shifted_length = base_length
                coefficients = self._jumps.power(start).to_bytes(self._degree, "little")
                block = reduce(xor, compress(self._shifted, coefficients), 0)
                return block & ((1 << count) - 1)
            self._extend(end)
        # Past ``_known`` an eventually-zero stream (no jumps) reads zeros.
        return (self._stream >> offset) & ((1 << count) - 1)

    # -- bit access ---------------------------------------------------------------

    def bit(self, index: int) -> int:
        """The ``index``-th bit of the expanded string (random access)."""
        if index < 0:
            raise ValueError("index must be non-negative")
        power = self.field.pow(self.y, index)
        return GF2m.inner_product_bit(self.x, power)

    def bits(self, offset: int, count: int) -> List[int]:
        """``count`` consecutive bits starting at ``offset`` (the definition)."""
        if offset < 0 or count < 0:
            raise ValueError("offset and count must be non-negative")
        out: List[int] = []
        power = self.field.pow(self.y, offset)
        for _ in range(count):
            out.append(GF2m.inner_product_bit(self.x, power))
            power = self.field.mul(power, self.y)
        return out

    def packed_bits(self, offset: int, count: int) -> int:
        """Same as :meth:`bits` but packed into an integer (bit 0 = first bit).

        Computed by jump-ahead (see the module docstring); bit-identical to
        packing the output of :meth:`bits`.
        """
        if offset < 0 or count < 0:
            raise ValueError("offset and count must be non-negative")
        if count == 0:
            return 0
        return self._read(offset, count)

    def packed_slots(self, offset_lengths: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
        """Read several ``(offset, length)`` slots, each by its own jump.

        Slots must be given in increasing-offset order and must not overlap.
        This is what :class:`~repro.hashing.seeds.SeedSource` uses to pull
        a whole iteration's seed slots out of the δ-biased string in one call.
        """
        values: List[int] = []
        position: Optional[int] = None
        for offset, count in offset_lengths:
            if offset < 0 or count < 0:
                raise ValueError("offset and count must be non-negative")
            if position is not None and offset < position:
                raise ValueError("slots must be given in increasing-offset order")
            values.append(self._read(offset, count) if count else 0)
            position = offset + count
        return tuple(values)


def empirical_bias(bits: List[int]) -> float:
    """|Pr[parity = 0] - 1/2| of the given sample — used by the tests."""
    if not bits:
        raise ValueError("need at least one bit")
    zeros = sum(1 for bit in bits if bit == 0)
    return abs(zeros / len(bits) - 0.5)
