"""Arithmetic in GF(256).

The randomness-exchange step of Algorithms A and B protects a short uniform
seed with a standard error-correcting code (paper Theorem 2.1).  We realise
that code as a Reed–Solomon code over GF(256); this module provides the
finite-field arithmetic it needs.

The field is GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1) (the 0x11D polynomial
familiar from CCSDS / QR-code Reed–Solomon).  Multiplication and inversion go
through log/antilog tables built once at import time from the generator
element 2; the polynomial helpers index the tables inline.
"""

from __future__ import annotations

from typing import List, Sequence

#: The primitive polynomial x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLY = 0x11D
FIELD_SIZE = 256
#: Multiplicative generator used to build the log tables.
GENERATOR = 2


def _build_tables() -> tuple:
    exp = [0] * (2 * FIELD_SIZE)
    log = [0] * FIELD_SIZE
    value = 1
    for power in range(FIELD_SIZE - 1):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & FIELD_SIZE:
            value ^= PRIMITIVE_POLY
    for power in range(FIELD_SIZE - 1, 2 * FIELD_SIZE):
        exp[power] = exp[power - (FIELD_SIZE - 1)]
    return exp, log


#: Antilog table (``EXP[i] = 2^i``, doubled so a sum of two logs needs no
#: reduction) and log table (``LOG[0]`` is unused).
EXP, LOG = _build_tables()


def gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(256)."""
    if a == 0 or b == 0:
        return 0
    return EXP[LOG[a] + LOG[b]]


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(256)."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return EXP[(FIELD_SIZE - 1) - LOG[a]]


# -- polynomial helpers (coefficients listed lowest degree first) -------------


def poly_trim(poly: Sequence[int]) -> List[int]:
    """Drop trailing zero coefficients (keep at least one coefficient)."""
    out = list(poly)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_add(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Add two polynomials over GF(256)."""
    length = max(len(a), len(b))
    out = [0] * length
    for i, coeff in enumerate(a):
        out[i] ^= coeff
    for i, coeff in enumerate(b):
        out[i] ^= coeff
    return poly_trim(out)


def poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Multiply two polynomials over GF(256)."""
    out = [0] * (len(a) + len(b) - 1)
    logs_b = [(j, LOG[coeff_b]) for j, coeff_b in enumerate(b) if coeff_b]
    for i, coeff_a in enumerate(a):
        if coeff_a == 0:
            continue
        log_a = LOG[coeff_a]
        for j, log_b in logs_b:
            out[i + j] ^= EXP[log_a + log_b]
    return poly_trim(out)


def poly_eval(poly: Sequence[int], x: int) -> int:
    """Evaluate a polynomial at ``x`` (Horner's rule, low-degree-first layout)."""
    if x == 0:
        return poly[0] if len(poly) else 0
    log_x = LOG[x]
    result = 0
    for coeff in reversed(poly):
        result = (EXP[LOG[result] + log_x] if result else 0) ^ coeff
    return result


def poly_deg(poly: Sequence[int]) -> int:
    """Degree of the polynomial (degree of the zero polynomial is 0 here)."""
    return len(poly_trim(poly)) - 1


def poly_divmod(numerator: Sequence[int], denominator: Sequence[int]) -> tuple:
    """Polynomial division with remainder over GF(256)."""
    num = poly_trim(numerator)
    den = poly_trim(denominator)
    if den == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [0] * max(1, len(num) - len(den) + 1)
    remainder = list(num)
    den_deg = len(den) - 1
    log_lead_inv = (FIELD_SIZE - 1) - LOG[den[-1]]
    logs_den = [(i, LOG[coeff]) for i, coeff in enumerate(den) if coeff]
    for shift in range(len(num) - len(den), -1, -1):
        top = remainder[shift + den_deg]
        if top == 0:
            continue
        log_coeff = (LOG[top] + log_lead_inv) % (FIELD_SIZE - 1)
        quotient[shift] = EXP[log_coeff]
        for i, log_den in logs_den:
            remainder[shift + i] ^= EXP[log_coeff + log_den]
    return poly_trim(quotient), poly_trim(remainder)
