"""Elias delta code for positive integers.

Self-delimiting binary code with |code(i)| = floor(log2 i) +
2*floor(log2(floor(log2 i) + 1)) + 1 bits, i.e. log2 i + O(log log i):
short enough that transmitting an acceptance index costs only a
logarithmic overhead on top of the information it carries.  Codewords are
'0'/'1' strings, most significant bit first, no padding, so the wire
format is unambiguous byte-for-byte.
"""

from __future__ import annotations

import numpy as np


class DecodeError(ValueError):
    """Raised when a bitstring is not exactly one well-formed codeword."""


def whole_number(value, what: str, least: int | None = None) -> int:
    """``value`` as an int; booleans, values that are not whole numbers and values
    below ``least`` (when given) raise ValueError."""
    try:
        whole = not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {int(value)}")
    return int(value)


def elias_delta_encode(i: int) -> str:
    """Codeword for i >= 1; numpy integers encode like the equal int."""
    i = whole_number(i, "an encoded index", 1)
    n = i.bit_length() - 1          # i = 2**n + rest
    m = n + 1
    gamma = "0" * (m.bit_length() - 1) + format(m, "b")
    rest = format(i - (1 << n), f"0{n}b") if n else ""
    return gamma + rest


def elias_delta_decode(bits: str) -> int:
    """Inverse of :func:`elias_delta_encode`; the input must be exactly one codeword.

    Any character other than '0' and '1' is a :class:`DecodeError` (``int(.., 2)``
    alone would skip whitespace, underscores and a sign, and read non-ASCII digits).
    """
    size = len(bits)
    if bits.count("0") + bits.count("1") != size:
        raise DecodeError("a codeword holds only the characters '0' and '1'")
    pos = 0
    while pos < size and bits[pos] == "0":
        pos += 1
    if pos >= size:
        raise DecodeError("ran out of bits while reading the length prefix")
    ell = pos
    if pos + ell + 1 > size:
        raise DecodeError("truncated length field")
    m = int(bits[pos:pos + ell + 1], 2)
    pos += ell + 1
    n = m - 1
    if pos + n > size:
        raise DecodeError("truncated mantissa")
    rest = int(bits[pos:pos + n], 2) if n else 0
    pos += n
    if pos != size:
        raise DecodeError(f"{size - pos} trailing bit(s) after the codeword")
    return (1 << n) + rest


def code_lengths(indices) -> np.ndarray:
    """Vectorized codeword lengths; exact for indices below 2**53.

    frexp on the float image of an integer returns its bit length exactly,
    which avoids the off-by-one hazards of floor(log2).  Booleans, fractions,
    NaN and inf raise ValueError, as in :func:`elias_delta_encode`.
    """
    idx = np.asarray(indices)
    if idx.dtype == bool or (idx.dtype.kind not in "iu" and not np.all(
            (idx >= 1) & (idx < 2.0 ** 63) & (np.floor(idx) == idx))):
        raise ValueError("indices must be whole numbers in [1, 2**63), not booleans")
    idx = idx.astype(np.int64, copy=False)
    if np.any(idx < 1):
        raise ValueError("indices must be positive")
    n = np.frexp(idx.astype(np.float64))[1] - 1
    ell = np.frexp((n + 1).astype(np.float64))[1] - 1
    return (n + 2 * ell + 1).astype(np.int64)


def kraft_sum(max_index: int) -> float:
    """Sum of 2**-|code(i)| for i = 1..max_index; <= 1 for any prefix-free code."""
    lengths = code_lengths(np.arange(1, max_index + 1))
    return float(np.sum(np.exp2(-lengths.astype(np.float64))))
