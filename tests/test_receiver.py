"""An independent receiver, written from README's "Determinism and wire format" alone.

It takes the master seed, the trial index and the bitstring, decodes the
Elias delta codeword itself and rebuilds codebook entry i from its own
splitmix64 double finalizer on Python ints: z from word 2i and the azimuth
from word 2i + 1 of the trial's codebook key.  Nothing here uses the
package's hash, point formula or decoder, so a change to the hash, the word
layout or the float steps fails these tests, which compare the package's
receiver with this one bit for bit.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from kschannel import Codebook, Measurement, bob_receive, elias_delta_encode, trial_codebook

WIRE = json.loads((Path(__file__).parent / "golden" / "model.json").read_text())["wire"]

TRIAL_SALT, SUB_CODEBOOK = 0x747269616C, 1   # the salt is "trial" in ASCII
WORD = (1 << 64) - 1


def finalizer(z):
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & WORD
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & WORD
    return z ^ z >> 31


def mix(key, n):
    key &= WORD
    return finalizer(finalizer((key + 0x9E3779B97F4A7C15 * n) & WORD) ^ key)


def codebook_key(master_seed, trial):
    return mix(mix(mix(master_seed, TRIAL_SALT), trial), SUB_CODEBOOK)


def decode(bits):
    """L zeros, the L + 1 bits of N + 1, then the N bits below the index's leading 1."""
    zeros = len(bits) - len(bits.lstrip("0"))
    n = int(bits[zeros:2 * zeros + 1], 2) - 1
    rest = bits[2 * zeros + 1:]
    assert len(rest) == n
    return 1 << n | int(rest or "0", 2)


def entry(key, i):
    u, u2 = ((mix(key, w) >> 11) * 2.0**-53 for w in (2 * i, 2 * i + 1))
    z, phi = 2.0 * u - 1.0, 2.0 * math.pi * u2
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return np.array([r * np.cos(phi), r * np.sin(phi), z])


def outcome(x, m):
    return 1 if 0.0 + x[0] * m[0] + x[1] * m[1] + x[2] * m[2] >= 0.0 else -1


@pytest.mark.parametrize("name", sorted(WIRE))
def test_wire_vectors(name):
    case = WIRE[name]
    seed, trial, m = case["inputs"]["master_seed"], case["inputs"]["trial"], case["inputs"]["meas"]
    key = codebook_key(seed, trial)
    assert trial_codebook(seed, trial) == Codebook(seed=key)
    index = decode(case["bits"])
    assert index == case["index"]
    x = entry(key, index)
    assert Codebook(seed=key).entry(index).tobytes() == x.tobytes()
    assert bob_receive(case["bits"], Codebook(seed=key), Measurement(m)) == outcome(x, m)


@pytest.mark.parametrize("index", [1, 2, 3, 8, 9, 1378, 2**32 + 1, 2**63 - 1])
@pytest.mark.parametrize("seed, trial", [(7, 0), (11, 382), (2**64 - 1, 2**64 - 1)])
def test_entries_and_outcomes(seed, trial, index):
    key = codebook_key(seed, trial)
    codebook, x, bits = Codebook(seed=key), entry(key, index), elias_delta_encode(index)
    assert decode(bits) == index
    assert codebook.entry(index).tobytes() == x.tobytes()
    assert codebook.entries([index, 1])[0].tobytes() == x.tobytes()
    for m in ([0.6, 0.0, 0.8], [-0.36, 0.48, -0.8], x):
        assert bob_receive(bits, codebook, Measurement(m)) == outcome(x, m)


# known answers, computed with rngstream.mix as it was when both finalizer passes were
# still calls to rngstream.finalize64
@pytest.mark.parametrize("key, n, word", [
    (0, 0, 0x0),
    (0, 1, 0x48218226FF3CD4BF),
    (7, 1, 0x89B20F67D556B50A),
    (2**64 + 7, 1, 0x89B20F67D556B50A),
    (-1, 3, 0x19F8EE999D5F927A),
    (2**64 - 1, 0, 0xD6BDF7544574C9CB),
    (2**64 - 1, 2**64 - 1, 0xEECD27369F7EC29A),
    (TRIAL_SALT, 12345, 0x5C815643DEEFB7A0),
    (0xDEADBEEF, 2**63, 0xA4668D96A9D21EE9),
])
def test_hash_known_answers(key, n, word):
    assert mix(key, n) == word


@pytest.mark.parametrize("seed, trial, key", [(7, 0, 0x5998C132721D2E2),
                                              (11, 382, 0x517F3DA5E665BE4),
                                              (2**64 - 1, 2**64 - 1, 0x6F301ED061DCCDDC)])
def test_codebook_key_known_answers(seed, trial, key):
    assert codebook_key(seed, trial) == key == trial_codebook(seed, trial).seed
