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


def whole_number(value, what: str) -> int:
    """``value`` as an int; booleans and values that are not whole numbers raise ValueError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if int(value) == value:
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{what} must be a whole number, got {value!r}")


def elias_delta_encode(i: int) -> str:
    """Codeword for i >= 1; numpy integers encode like the equal int."""
    i = whole_number(i, "an encoded index")
    if i < 1:
        raise ValueError(f"can only encode positive integers, got {i}")
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
    which avoids the off-by-one hazards of floor(log2).
    """
    idx = np.asarray(indices, dtype=np.int64)
    if np.any(idx < 1):
        raise ValueError("indices must be positive")
    n = np.frexp(idx.astype(np.float64))[1] - 1
    ell = np.frexp((n + 1).astype(np.float64))[1] - 1
    return (n + 2 * ell + 1).astype(np.int64)


def kraft_sum(max_index: int) -> float:
    """Sum of 2**-|code(i)| for i = 1..max_index; <= 1 for any prefix-free code."""
    lengths = code_lengths(np.arange(1, max_index + 1))
    return float(np.sum(np.exp2(-lengths.astype(np.float64))))
