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

#: indices are whole numbers in [1, 2**63), so a codebook entry's counters 2i and 2i + 1
#: fit in one 64-bit word
_INDEX_LIMIT = 1 << 63
_INDEX_RULE = ("indices must be whole numbers in [1, 2**63), not booleans "
               "(codebook entries are indexed in that range)")


class DecodeError(ValueError):
    """Raised when a bitstring is not exactly one well-formed codeword."""


def whole_number(value, what: str, least: int | None = None) -> int:
    """``value`` as an int; booleans, values that are not whole numbers and values
    below ``least`` (when given) raise ValueError."""
    try:
        # a plain int (never a bool: its type is bool) is whole as it stands
        whole = type(value) is int or (
            not isinstance(value, (bool, np.bool_)) and int(value) == value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {int(value)}")
    return int(value)


def whole_indices(indices):
    """``indices`` under the one index rule: whole numbers in [1, 2**63), no booleans.

    One index (anything of ndim 0) comes back as an int, more as an int64
    array of their shape; anything else raises ValueError.  Whole floats
    count as their int.  Input that is not an array is looked at element by
    element, since numpy turns ``[1, True]`` into ints.
    """
    if isinstance(indices, (int, float, np.generic)) or np.ndim(indices) == 0:
        try:
            i = whole_number(indices, "an index")
        except ValueError:
            raise ValueError(_INDEX_RULE) from None
        if not 1 <= i < _INDEX_LIMIT:
            raise ValueError(_INDEX_RULE)
        return i
    raw = np.asarray(indices)
    kind = raw.dtype.kind
    if not isinstance(indices, np.ndarray) and kind in "iu" and any(
            isinstance(i, (bool, np.bool_)) for i in np.asarray(indices, dtype=object).flat):
        raise ValueError(_INDEX_RULE)
    if kind == "f":
        ok = np.all((raw >= 1) & (raw < _INDEX_LIMIT) & (np.floor(raw) == raw))  # NaN fails
    else:   # only unsigned words can pass the limit; they are compared as integers
        ok = kind in "iu" and (raw.size == 0 or raw.min() >= 1 and (
            kind == "i" or raw.max() < _INDEX_LIMIT))
    if not ok:
        raise ValueError(_INDEX_RULE)
    return raw.astype(np.int64, copy=False)


def elias_delta_encode(i: int) -> str:
    """Codeword for one index (:func:`whole_indices`); numpy integers encode like the int."""
    i = whole_indices(i)
    n = i.bit_length() - 1          # i = 2**n + rest
    m = n + 1
    gamma = "0" * (m.bit_length() - 1) + format(m, "b")
    rest = format(i - (1 << n), f"0{n}b") if n else ""
    return gamma + rest


def elias_delta_decode(bits: str) -> int:
    """Inverse of :func:`elias_delta_encode`; the input must be exactly one codeword,
    of an index in [1, 2**63).

    Any character other than '0' and '1' is a :class:`DecodeError` (``int(.., 2)``
    alone would skip whitespace, underscores and a sign, and read non-ASCII digits),
    and so is any input that is not a str (a list of characters would pass the
    character check).
    """
    if not isinstance(bits, str):
        raise DecodeError("a codeword is a str of '0'/'1' characters")
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
    if m > _INDEX_LIMIT.bit_length() - 1:
        raise DecodeError("the codeword's index is not below 2**63")
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
    """Vectorized codeword lengths, equal to ``len(elias_delta_encode(i))`` for every index.

    n = floor(log2 i) is the frexp exponent of the float image of i, less
    one.  Past 2**53 that image can round up to the next power of two, so
    n is lowered by one where ``i >> n`` is 0.  Indices that break the rule
    of :func:`whole_indices` raise ValueError.
    """
    idx = np.asarray(whole_indices(indices))
    n = np.frexp(idx.astype(np.float64))[1] - 1
    n -= np.right_shift(idx, n) == 0
    ell = np.frexp((n + 1).astype(np.float64))[1] - 1
    return (n + 2 * ell + 1).astype(np.int64)

