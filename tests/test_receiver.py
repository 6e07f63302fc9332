"""An independent receiver, written from README's "Determinism and wire format" alone.

It takes the master seed, the trial index and the bitstring, decodes the
Elias delta codeword itself and rebuilds codebook entry i from `rngstream.mix`
on Python ints: z from word 2i and the azimuth from word 2i + 1 of the
trial's codebook key.  Nothing here uses the package's point formula or
decoder, so a change to the word layout or the float steps fails these
tests, which compare the package's receiver with this one bit for bit.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from kschannel import Codebook, Measurement, bob_receive, elias_delta_encode, trial_codebook
from kschannel.rngstream import mix

WIRE = json.loads((Path(__file__).parent / "golden" / "model.json").read_text())["wire"]

TRIAL_SALT, SUB_CODEBOOK = 0x747269616C, 1   # the salt is "trial" in ASCII


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
