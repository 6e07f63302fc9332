"""Deterministic counter-based random words.

Every piece of protocol-level randomness (the shared codebook, per-trial
sub-seeds, the sender's private acceptance coins) is a pure function of a
64-bit key and an integer counter, built from the splitmix64 finalizer.
That gives O(1) random access to any word in any stream, bit-identical
results on both ends of the channel, and statistics that never depend on
evaluation order, batch size, or worker count.

Generic Monte Carlo sampling elsewhere in the package uses numpy's
``Generator``; this module is only for streams that must be addressable
by counter.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)

#: 2**-53, turns the top 53 bits of a word into a float in [0, 1).
_INV53 = float(2.0 ** -53)


def finalize64(z: int) -> int:
    """splitmix64 finalizer: a fixed bijection on 64-bit integers."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def mix(key: int, n: int) -> int:
    """The n-th 64-bit word of the counter stream identified by ``key``.

    ``finalize64(finalize64(key + GOLDEN * n) ^ key)`` with ``key`` and
    ``n`` taken mod 2**64: the key is xored back in after the finalizer so
    that streams with different keys are not shifted copies of one another.
    Both finalizer passes are written out in this one body, on Python ints
    with :func:`finalize64`'s masks, since the wire path calls it several
    times a round.
    """
    key &= _MASK
    z = (key + GOLDEN * n) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    z ^= (z >> 31) ^ key
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def mix_vec(key, n, *, out=None, scratch=None) -> np.ndarray:
    """Vectorized :func:`mix`; ``key`` and ``n`` broadcast as uint64 arrays.

    Two scalars give one ``np.uint64`` word.  The first step broadcasts the
    two into the result; every later step writes into it or into one
    scratch array; for arrays, ``out`` and ``scratch`` may give those two
    (uint64, of the broadcast shape).  Only ``n`` and ``scratch`` may overlap.
    """
    key = np.asarray(key, dtype=np.uint64)
    n = np.asarray(n, dtype=np.uint64)
    if key.ndim == n.ndim == 0:
        # numpy scalar arithmetic warns on overflow; array arithmetic wraps, as the hash needs
        return mix_vec(key.reshape(1), n)[0]
    if out is None:
        out = np.empty(np.broadcast_shapes(key.shape, n.shape), dtype=np.uint64)
    z = np.multiply(n, _U_GOLDEN, out=out)
    z += key
    scratch = np.empty_like(z) if scratch is None else scratch
    _finalize_into(z, scratch)
    z ^= key
    _finalize_into(z, scratch)
    return z


def _finalize_into(z: np.ndarray, scratch: np.ndarray) -> None:
    """:func:`finalize64` of every word of ``z``, in place; ``scratch`` is overwritten."""
    z ^= np.right_shift(z, _U30, scratch)
    z *= _U_MIX1
    z ^= np.right_shift(z, _U27, scratch)
    z *= _U_MIX2
    z ^= np.right_shift(z, _U31, scratch)


def to_unit(word) -> np.ndarray | float:
    """Map 64-bit words to floats in the half-open interval [0, 1)."""
    if isinstance(word, (int, np.integer)):
        return float(int(word) >> 11) * _INV53
    unit = (np.asarray(word, dtype=np.uint64) >> _U11).astype(np.float64)
    unit *= _INV53
    return unit


def counter_uniforms(key: int):
    """Endless stream of uniforms in [0, 1): ``to_unit(mix(key, i))`` for i = 1, 2, ..."""
    i = 1
    while True:
        yield to_unit(mix(key, i))
        i += 1
