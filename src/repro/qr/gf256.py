"""GF(2^8) arithmetic and Reed–Solomon codes for QR symbols.

QR error correction uses Reed–Solomon over GF(2^8) with the primitive
polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D) and generator element 2.
This module provides polynomial arithmetic, systematic RS encoding, and
full RS decoding (syndrome computation, Berlekamp–Massey, Chien search,
Forney algorithm), so the decoder genuinely corrects corrupted modules.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

PRIMITIVE_POLY = 0x11D
FIELD_SIZE = 256

# Precomputed exponential / logarithm tables for the generator alpha = 2.
EXP_TABLE = [0] * (FIELD_SIZE * 2)
LOG_TABLE = [0] * FIELD_SIZE

_value = 1
for _power in range(FIELD_SIZE - 1):
    EXP_TABLE[_power] = _value
    LOG_TABLE[_value] = _power
    _value <<= 1
    if _value & 0x100:
        _value ^= PRIMITIVE_POLY
for _power in range(FIELD_SIZE - 1, FIELD_SIZE * 2):
    EXP_TABLE[_power] = EXP_TABLE[_power - (FIELD_SIZE - 1)]
del _value, _power

#: The tables as arrays, for the whole-block syndrome kernel.
_EXP = np.array(EXP_TABLE[: FIELD_SIZE - 1], dtype=np.int64)
_LOG = np.array(LOG_TABLE, dtype=np.int64)


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return EXP_TABLE[LOG_TABLE[a] + LOG_TABLE[b]]


def gf_div(a: int, b: int) -> int:
    """Divide ``a`` by ``b`` (``b`` must be non-zero)."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return EXP_TABLE[(LOG_TABLE[a] - LOG_TABLE[b]) % (FIELD_SIZE - 1)]


def gf_pow(base: int, exponent: int) -> int:
    """Raise ``base`` to ``exponent``."""
    if base == 0:
        if exponent == 0:
            return 1
        return 0
    return EXP_TABLE[(LOG_TABLE[base] * exponent) % (FIELD_SIZE - 1)]


def gf_inverse(a: int) -> int:
    """Multiplicative inverse of a non-zero element."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return EXP_TABLE[(FIELD_SIZE - 1) - LOG_TABLE[a]]


# ----------------------------------------------------------------------
# Polynomial helpers.  Polynomials are lists of coefficients with the
# highest-degree term first, matching the QR specification's convention.
# ----------------------------------------------------------------------
def poly_mul(p: list[int], q: list[int]) -> list[int]:
    """Multiply two polynomials over GF(256)."""
    result = [0] * (len(p) + len(q) - 1)
    for i, coeff_p in enumerate(p):
        if coeff_p == 0:
            continue
        for j, coeff_q in enumerate(q):
            if coeff_q:
                result[i + j] ^= gf_mul(coeff_p, coeff_q)
    return result


def poly_eval(poly: list[int], x: int) -> int:
    """Evaluate a polynomial at ``x`` using Horner's scheme."""
    value = 0
    for coeff in poly:
        value = gf_mul(value, x) ^ coeff
    return value


def rs_generator_poly(n_ec: int) -> list[int]:
    """Return the RS generator polynomial with ``n_ec`` roots alpha^0..alpha^(n-1)."""
    gen = [1]
    for power in range(n_ec):
        gen = poly_mul(gen, [1, gf_pow(2, power)])
    return gen


@lru_cache(maxsize=None)
def _generator_terms(n_ec: int) -> tuple[tuple[int, int], ...]:
    """``(j, log g_j)`` for the non-zero coefficients of the generator, built once."""
    return tuple((j, LOG_TABLE[coeff]) for j, coeff in enumerate(rs_generator_poly(n_ec)) if coeff)


def rs_encode(data: list[int], n_ec: int) -> list[int]:
    """Compute the ``n_ec`` Reed–Solomon parity codewords for ``data``."""
    if n_ec <= 0:
        raise ValueError("n_ec must be positive")
    terms = _generator_terms(n_ec)
    remainder = list(data) + [0] * n_ec
    for i in range(len(data)):
        factor = remainder[i]
        if factor == 0:
            continue
        # gf_mul(g_j, factor) for non-zero g_j, from the tables directly.
        log_factor = LOG_TABLE[factor]
        for j, log_coeff in terms:
            remainder[i + j] ^= EXP_TABLE[log_coeff + log_factor]
    return remainder[len(data):]


class ReedSolomonError(ValueError):
    """Raised when a codeword block has more errors than are correctable."""


def _syndromes(codeword: list[int], n_ec: int) -> list[int]:
    """Syndromes S_j = C(alpha^j) for j in 0..n_ec-1 (QR uses b = 0).

    With ``c_i`` the coefficient of ``x^p``, ``S_j`` is the XOR over the
    non-zero ``c_i`` of ``alpha^((log c_i + j * p) mod 255)``: one table
    lookup per term for all ``j`` at once, the same field elements that
    ``poly_eval`` reaches by Horner's scheme (``tests/test_qr_gf256.py``
    checks the two agree).
    """
    coefficients = np.asarray(codeword, dtype=np.int64)
    nonzero = np.flatnonzero(coefficients)
    powers = len(coefficients) - 1 - nonzero
    exponents = (_LOG[coefficients[nonzero]] + np.arange(n_ec)[:, None] * powers) % (FIELD_SIZE - 1)
    return np.bitwise_xor.reduce(_EXP[exponents], axis=1).tolist()


def _poly_add_low(p: list[int], q: list[int]) -> list[int]:
    """Add two lowest-degree-first polynomials."""
    result = [0] * max(len(p), len(q))
    for i, coeff in enumerate(p):
        result[i] ^= coeff
    for i, coeff in enumerate(q):
        result[i] ^= coeff
    return result


def _eval_low(poly: list[int], x: int) -> int:
    """Evaluate a lowest-degree-first polynomial at ``x``."""
    value = 0
    for coeff in reversed(poly):
        value = gf_mul(value, x) ^ coeff
    return value


def _berlekamp_massey(syndromes: list[int]) -> list[int]:
    """Massey's algorithm: the error locator Lambda(x), lowest-degree first."""
    current = [1]
    backup = [1]
    errors = 0  # L: current number of assumed errors
    shift = 1  # m: steps since backup was taken
    backup_delta = 1  # b: discrepancy when backup was taken
    for n, syndrome in enumerate(syndromes):
        delta = syndrome
        for i in range(1, errors + 1):
            if i < len(current):
                delta ^= gf_mul(current[i], syndromes[n - i])
        if delta == 0:
            shift += 1
            continue
        correction = [0] * shift + [
            gf_mul(gf_div(delta, backup_delta), coeff) for coeff in backup
        ]
        if 2 * errors <= n:
            backup = list(current)
            backup_delta = delta
            errors = n + 1 - errors
            shift = 1
            current = _poly_add_low(current, correction)
        else:
            current = _poly_add_low(current, correction)
            shift += 1
    locator = current[: errors + 1]
    while len(locator) > 1 and locator[-1] == 0:
        locator.pop()
    return locator


def _chien_search(locator: list[int], length: int) -> list[int]:
    """Positions (left-indexed) whose symbols are in error."""
    positions = []
    for index in range(length):
        power = length - 1 - index
        x_inverse = gf_pow(2, (FIELD_SIZE - 1 - power) % (FIELD_SIZE - 1))
        if _eval_low(locator, x_inverse) == 0:
            positions.append(index)
    if len(positions) != len(locator) - 1:
        raise ReedSolomonError(
            f"located {len(positions)} errors but the locator degree is {len(locator) - 1}"
        )
    return positions


def rs_decode(codeword: list[int], n_ec: int) -> list[int]:
    """Correct up to ``n_ec // 2`` byte errors and return the data part.

    ``codeword`` is data followed by parity.  Raises
    :class:`ReedSolomonError` when the block is uncorrectable.
    """
    if len(codeword) <= n_ec:
        raise ValueError("codeword shorter than its parity")
    syndromes = _syndromes(codeword, n_ec)
    if not any(syndromes):
        return codeword[:-n_ec]
    locator = _berlekamp_massey(syndromes)
    n_errors = len(locator) - 1
    if n_errors == 0 or n_errors * 2 > n_ec:
        raise ReedSolomonError(f"{n_errors} errors exceed correction capacity {n_ec // 2}")
    positions = _chien_search(locator, len(codeword))

    # Forney algorithm: Omega(x) = S(x) * Lambda(x) mod x^n_ec, all
    # polynomials lowest-degree first.
    omega = [0] * n_ec
    for i, s_coeff in enumerate(syndromes):
        if s_coeff == 0:
            continue
        for j, l_coeff in enumerate(locator):
            if i + j < n_ec and l_coeff:
                omega[i + j] ^= gf_mul(s_coeff, l_coeff)
    # Formal derivative: in characteristic 2 only odd-power terms survive.
    derivative = [locator[i] if i % 2 == 1 else 0 for i in range(1, len(locator))]
    corrected = list(codeword)
    for position in positions:
        x = gf_pow(2, len(codeword) - 1 - position)
        x_inverse = gf_inverse(x)
        omega_value = _eval_low(omega, x_inverse)
        derivative_value = _eval_low(derivative, x_inverse)
        if derivative_value == 0:
            raise ReedSolomonError("Forney derivative evaluated to zero")
        # With b = 0 the magnitude carries a factor X_k^(1-b) = X_k.
        magnitude = gf_mul(x, gf_div(omega_value, derivative_value))
        corrected[position] ^= magnitude
    if any(_syndromes(corrected, n_ec)):
        raise ReedSolomonError("correction failed to zero the syndromes")
    return corrected[:-n_ec]
