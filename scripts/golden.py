#!/usr/bin/env python3
"""Golden digests of the commands' results and of `run_trials` rows.

Runs each pinned `kschannel verify` / `mi` / `simulate` / `cost`
invocation in-process and hashes its `results` block (the JSON report
without config, runtime and version, serialized with sorted keys), and
hashes the per-trial rows of each pinned `protocol.run_trials` call, answered
on its pinned measurement (the dtype, shape and bytes of the accepted index,
code length, outcome and Born rows, in that order).  The
digests are floating-point outputs, so they are recorded together with the
numpy version and the platform tag (OS, machine and the SIMD targets numpy
dispatches to) they were produced on; `tests/test_golden.py` compares only
where both match.  The wire vectors pin the two-party path in the clear:
for each pinned sender input, the bitstring and index `alice_send`
transmits, the outcome `bob_receive` answers, and the codebook entry the
receiver regenerates, as hex floats.  The quadrature block pins
`born_plus_integral` over the acceptance suite's 13x13 angle grid, as hex
floats.

    PYTHONPATH=src python scripts/golden.py            # print this tree's digests
    PYTHONPATH=src python scripts/golden.py --write    # rewrite tests/golden/model.json

A change that means to move one of these outputs regenerates the file and
says why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from kschannel import Measurement, cli, protocol, sphere_from_zphi
from kschannel.quadrature import born_plus_integral
from kschannel.rngstream import counter_uniforms

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "model.json"

_PINNED = ["--state", "0.6,0,-0.8", "--meas", "-0.36,0.48,0.8"]

CASES = {
    **{f"verify_grid_seed{seed}": ["verify", "--trials", "50000", "--seed", str(seed)]
       for seed in (7, 11)},
    **{f"verify_pinned_seed{seed}": ["verify", "--trials", "50000", "--seed", str(seed), *_PINNED]
       for seed in (7, 11)},
    "mi_seed7": ["mi", "--trials", "300000", "--seed", "7"],
    **{f"{cmd}_bins{bins}_seed{seed}": [cmd, "--trials", "20000", "--seed", str(seed),
                                        "--bins", str(bins)]
       for cmd in ("simulate", "cost") for seed in (7, 11) for bins in (4, 64, 4096)},
    **{f"{cmd}_pinned_workers4": [cmd, "--trials", "20000", "--seed", "7", "--bins", "64",
                                  *_PINNED, "--workers", "4"]
       for cmd in ("simulate", "cost")},
    # 20001 trials asking for three workers: one span at the 2**15-trial thread grain
    **{f"{cmd}_bins4096_workers3": [cmd, "--trials", "20001", "--seed", "7", "--bins", "4096",
                                    "--workers", "3"]
       for cmd in ("simulate", "cost")},
    # a threaded split at the 2**15-trial thread grain: spans of 32768, 32768 and 32769 trials
    **{f"{cmd}_bins4096_trials98305_workers3": [cmd, "--trials", "98305", "--seed", "7",
                                                "--bins", "4096", "--workers", "3"]
       for cmd in ("simulate", "cost")},
    # mi's blocks on one and on three threads: the second chunk of 300000 samples holds
    # 37856 rows (verify takes no --workers; it counts on one thread)
    **{f"mi_seed7_workers{workers}": ["mi", "--trials", "300000", "--seed", "7",
                                      "--workers", str(workers)]
       for workers in (1, 3)},
}


#: `run_trials` keyword arguments and the measurement `answer` takes, ``meas``; the pinned
#: state and measurement are the CLI's `_PINNED`
ROW_CASES = {
    f"rows_bins{bins}_workers{workers}_{inputs}": {
        "master_seed": 7, "n_trials": 20001, "bins": bins, "workers": workers,
        **({"state": [0.6, 0.0, -0.8], "meas": [-0.36, 0.48, 0.8]} if inputs == "pinned" else {})}
    for bins in (2, 64, 4096) for workers in (1, 3) for inputs in ("random", "pinned")
}
# both sides of the scan's bin-width rule: 2**14 bins take the float32 estimate, 2**20 do not
ROW_CASES.update({
    f"rows_bins{bins}_workers{workers}_random": {
        "master_seed": 7, "n_trials": 20001, "bins": bins, "workers": workers}
    for bins in (1 << 14, 1 << 20) for workers in (1, 3)
})


_V1, _M1 = [0.6, 0.0, -0.8], [-0.36, 0.48, 0.8]
_V2, _M2 = [0.0, 0.0, 1.0], [0.6, 0.0, 0.8]
_V3 = [0.48, -0.6, 0.64]

#: `alice_send` on trial `trial`'s codebook with the counter coins of `coin_key`, then
#: `bob_receive` of its bitstring; the comments give the accepted index
WIRE_CASES = {
    f"wire_bins{bins}_seed{seed}_trial{trial}": {
        "master_seed": seed, "trial": trial, "bins": bins, "state": state, "meas": meas,
        "coin_key": key}
    for seed, trial, bins, state, meas, key in [
        (7, 0, 4, _V1, _M1, 5),          # 1
        (7, 32, 4, _V1, _M1, 5),         # 9
        (11, 31, 64, _V2, _M2, 6),       # 33
        (11, 382, 64, _V2, _M2, 6),      # 201
        (7, 0, 4096, _V3, _M1, 2024),    # 5
        (7, 28, 4096, _V3, _M1, 2024),   # 74
        (7, 4469, 4096, _V3, _M1, 2024), # 1378
    ]
}


#: state and measurement polar angles linspace(0, pi, QUADRATURE_ANGLES) at azimuth 0
QUADRATURE_ANGLES = 13


def platform_tag() -> str:
    """OS and machine, plus the SIMD targets this numpy build dispatches to here."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = ",".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    except ImportError:
        simd = "unknown"
    return f"{sys.platform}-{platform.machine()} simd={simd}"


def results_digest(argv: list[str]) -> str:
    """sha256 of the `results` block of one CLI run (the exit code is not part of it)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        if cli.main([*argv, "--out", path]) not in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED):
            raise RuntimeError(f"kschannel {' '.join(argv)} did not produce a report")
        with open(path, encoding="utf-8") as fh:
            results = json.load(fh)["results"]
    text = json.dumps(results, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def rows_digest(kwargs: dict) -> str:
    """sha256 over the name, dtype, shape and bytes of each row array of one `run_trials` batch.

    ``kwargs`` are `run_trials`' with the measurement beside them, ``meas``, which goes to
    the batch's `answer`.  The rows are the accepted index, code length, outcome and Born
    probability, in that order.
    """
    kwargs = dict(kwargs)
    meas = kwargs.pop("meas", None)
    batch = protocol.run_trials(**kwargs)
    outcome, born = batch.answer(meas)
    digest = hashlib.sha256()
    for name, values in (("accepted_index", batch.accepted_index), ("code_bits", batch.code_bits),
                         ("outcome", outcome), ("born", born)):
        values = np.ascontiguousarray(values)
        digest.update(f"{name}:{values.dtype.str}:{values.shape}".encode())
        digest.update(values.tobytes())
    return digest.hexdigest()


def wire_vector(case: dict) -> dict:
    """What one pinned trial puts on the wire and what the receiver makes of it."""
    codebook = protocol.trial_codebook(case["master_seed"], case["trial"])
    bits, report = protocol.alice_send(case["state"], codebook, case["bins"],
                                       counter_uniforms(case["coin_key"]))
    outcome = protocol.bob_receive(bits, codebook, Measurement(case["meas"]))
    return {"bits": bits, "index": report.accepted_index, "outcome": outcome,
            "entry": [float(c).hex() for c in codebook.entry(report.accepted_index)]}


def quadrature_grid(angles: int) -> list[list[str]]:
    """`born_plus_integral(v, m)` as hex floats: one row per state angle, one column per
    measurement angle."""
    points = [sphere_from_zphi(np.cos(a), 0.0) for a in np.linspace(0.0, np.pi, angles)]
    return [[float(born_plus_integral(v, m)).hex() for m in points] for v in points]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN_PATH.name}")
    args = parser.parse_args()
    golden = {
        "numpy": np.__version__,
        "platform": platform_tag(),
        "cases": {name: {"argv": argv, "sha256": results_digest(argv)}
                  for name, argv in CASES.items()},
        "rows": {name: {"run_trials": kwargs, "sha256": rows_digest(kwargs)}
                 for name, kwargs in ROW_CASES.items()},
        "wire": {name: {"inputs": case, **wire_vector(case)} for name, case in WIRE_CASES.items()},
        "quadrature": {"angles": QUADRATURE_ANGLES,
                       "born_plus": quadrature_grid(QUADRATURE_ANGLES)},
    }
    text = json.dumps(golden, indent=2) + "\n"
    if args.write:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(text, encoding="utf-8")
    sys.stdout.write(text)


if __name__ == "__main__":
    main()
