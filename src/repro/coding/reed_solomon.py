"""Reed–Solomon codes over GF(256) with errors-and-erasures decoding.

The randomness exchange of Algorithm A/B (paper Algorithm 5) sends a short
uniform seed encoded with "a standard error-correcting code with constant
rate and constant distance" (Theorem 2.1).  The paper suggests concatenating
Reed–Solomon with a binary code or using Guruswami–Indyk codes; we implement
the Reed–Solomon component here and a binary wrapper in
:mod:`repro.coding.block_code`.

Encoding is systematic (parity symbols followed by message symbols in the
low-degree-first coefficient layout).  The parity is the remainder of
``M(x)·x^p`` by the generator, computed by an LFSR whose register is one
Python integer: each message symbol costs a shift and an XOR with a cached
row ``f·g(x)`` per feedback value ``f``.  Decoding handles both symbol
errors and declared erasures — the latter matter because a *deletion* on a
synchronous, fully-scheduled exchange is perceived by the receiver as an
erasure (paper §3.2, footnote 9).

A word whose systematic part re-encodes to its parity is a codeword and is
accepted as is (equivalent to all syndromes vanishing).  Otherwise the
decoder follows the classical pipeline: syndromes → erasure locator →
modified syndromes → Sugiyama (extended Euclidean) solution of the key
equation → Chien search → Forney error values, all on the log/antilog
tables of :mod:`repro.coding.gf256`.  It corrects any pattern with
``2 * errors + erasures <= n - k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.coding.gf256 import (
    EXP,
    FIELD_SIZE,
    LOG,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_trim,
)

_ORDER = FIELD_SIZE - 1


class DecodingError(Exception):
    """Raised when a received word is not decodable within the code's radius."""


@lru_cache(maxsize=None)
def _generator(parity: int) -> Tuple[int, ...]:
    """g(x) = prod_{i=0}^{p-1} (x - alpha^i), low-degree-first."""
    gen = [1]
    for i in range(parity):
        gen = poly_mul(gen, [EXP[i], 1])
    return tuple(gen)


@lru_cache(maxsize=None)
def _feedback_rows(parity: int) -> Tuple[int, ...]:
    """``f·(g(x) - x^p)`` packed one coefficient per byte, for every symbol f."""
    logs = [LOG[coeff] if coeff else None for coeff in _generator(parity)[:parity]]
    rows = [0] * FIELD_SIZE
    for value in range(1, FIELD_SIZE):
        log_f = LOG[value]
        row = bytes(0 if log_g is None else EXP[log_f + log_g] for log_g in logs)
        rows[value] = int.from_bytes(row, "little")
    return tuple(rows)


@dataclass(frozen=True)
class ReedSolomonCode:
    """A systematic RS(n, k) code over GF(256).

    Parameters
    ----------
    block_length:
        n, the number of codeword symbols (at most 255).
    message_length:
        k, the number of message symbols (1 <= k < n).
    """

    block_length: int
    message_length: int

    def __post_init__(self) -> None:
        if not 1 <= self.message_length < self.block_length <= 255:
            raise ValueError(
                f"invalid RS parameters n={self.block_length}, k={self.message_length}"
            )

    # -- derived parameters ---------------------------------------------------

    @property
    def parity_length(self) -> int:
        return self.block_length - self.message_length

    @property
    def distance(self) -> int:
        """Minimum distance n - k + 1 (RS codes are MDS)."""
        return self.parity_length + 1

    @property
    def rate(self) -> float:
        return self.message_length / self.block_length

    def generator_polynomial(self) -> List[int]:
        """g(x) = prod_{i=0}^{p-1} (x - alpha^i), low-degree-first."""
        return list(_generator(self.parity_length))

    # -- encoding ---------------------------------------------------------------

    def _parity(self, message: bytes) -> bytes:
        """The parity symbols of a ``k``-symbol message (not validated)."""
        parity = self.parity_length
        rows = _feedback_rows(parity)
        top = 8 * (parity - 1)
        mask = (1 << (8 * parity)) - 1
        register = 0
        for symbol in reversed(message):
            register = ((register << 8) & mask) ^ rows[(register >> top) ^ symbol]
        return register.to_bytes(parity, "little")

    def encode(self, message: Sequence[int]) -> List[int]:
        """Encode ``k`` message symbols into ``n`` codeword symbols.

        The codeword layout is ``[parity_0..parity_{p-1}, message_0..message_{k-1}]``
        viewed as coefficients of C(x) = M(x) * x^p + R(x).
        """
        message = list(message)
        if len(message) != self.message_length:
            raise ValueError(
                f"expected {self.message_length} message symbols, got {len(message)}"
            )
        for symbol in message:
            if not 0 <= symbol < 256:
                raise ValueError(f"message symbol {symbol} outside GF(256)")
        return list(self._parity(bytes(message))) + message

    # -- decoding ---------------------------------------------------------------

    def syndromes(self, received: Sequence[int]) -> List[int]:
        """S_j = R(alpha^j) for j = 0..p-1."""
        return [poly_eval(received, EXP[j]) for j in range(self.parity_length)]

    def _is_codeword(self, word: List[int]) -> bool:
        return self._parity(bytes(word[self.parity_length:])) == bytes(word[: self.parity_length])

    def decode(
        self,
        received: Sequence[int],
        erasure_positions: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Correct a received word and return the decoded *message*.

        ``erasure_positions`` are codeword indices known to be unreliable
        (their symbol values are still taken from ``received``; callers
        typically fill them with 0).
        """
        word = list(received)
        if len(word) != self.block_length:
            raise ValueError("received word has the wrong length")
        erasures = sorted(set(erasure_positions or ()))
        for position in erasures:
            if not 0 <= position < self.block_length:
                raise ValueError(f"erasure position {position} out of range")
        if len(erasures) > self.parity_length:
            raise DecodingError("more erasures than parity symbols")

        if self._is_codeword(word):
            return word[self.parity_length:]
        corrected = self._correct(word, self.syndromes(word), erasures)
        if not self._is_codeword(corrected):
            raise DecodingError("residual syndromes after correction")
        return corrected[self.parity_length:]

    # -- internals ---------------------------------------------------------------

    def _solve_key_equation(self, modified_syndrome: List[int], num_erasures: int) -> List[int]:
        """Sugiyama's extended-Euclidean solution of the key equation.

        Returns the error locator Λ with ``Λ * modified_syndrome = Ω (mod x^p)``
        for an evaluator Ω of degree below ``(p + erasures) / 2``.
        """
        parity = self.parity_length
        r_prev: List[int] = [0] * parity + [1]  # x^p
        r_curr: List[int] = poly_trim(modified_syndrome)
        v_prev: List[int] = [0]
        v_curr: List[int] = [1]
        # Continue while deg(r_curr) >= (p + rho) / 2.
        while r_curr != [0] and 2 * poly_deg(r_curr) >= parity + num_erasures:
            quotient, remainder = poly_divmod(r_prev, r_curr)
            r_prev, r_curr = r_curr, remainder
            v_prev, v_curr = v_curr, poly_add(v_prev, poly_mul(quotient, v_curr))
        return poly_trim(v_curr)

    def _correct(self, word: List[int], synd: List[int], erasures: List[int]) -> List[int]:
        parity = self.parity_length
        # Erasure locator Gamma(x) = prod (1 - X_i x) with X_i = alpha^position.
        gamma = [1]
        for position in erasures:
            gamma = poly_mul(gamma, [1, EXP[position]])
        syndrome_poly = poly_trim(synd)
        modified = poly_trim(poly_mul(syndrome_poly, gamma)[:parity])

        if any(modified):
            error_locator = self._solve_key_equation(modified, len(erasures))
            if error_locator == [0]:
                raise DecodingError("degenerate error locator")
        else:
            # All discrepancies are explained by the erasures alone.
            error_locator = [1]

        errata_locator = poly_mul(error_locator, gamma)
        # Chien search over all codeword positions: X_i^{-1} = alpha^(-position).
        positions = [
            position
            for position in range(self.block_length)
            if poly_eval(errata_locator, EXP[_ORDER - position]) == 0
        ]
        if len(positions) != poly_deg(errata_locator):
            raise DecodingError("errata locator does not split over the field")

        # The evaluator must correspond to the full errata locator:
        # Omega(x) = S(x) * Psi(x) mod x^p (scalar factors cancel in Forney).
        omega = poly_trim(poly_mul(syndrome_poly, errata_locator)[:parity])
        # Formal derivative (characteristic 2: only odd-degree terms survive).
        derivative = poly_trim([coeff if k % 2 else 0 for k, coeff in enumerate(errata_locator)][1:] or [0])

        corrected = list(word)
        for position in positions:
            x_inv = EXP[_ORDER - position]
            denominator = poly_eval(derivative, x_inv)
            if denominator == 0:
                raise DecodingError("Forney denominator vanished")
            numerator = poly_eval(omega, x_inv)
            if numerator:
                # X_i * Omega(X_i^-1) / Psi'(X_i^-1)
                corrected[position] ^= EXP[(position + LOG[numerator] - LOG[denominator]) % _ORDER]
        return corrected
