"""Pinned outputs: every command's results and every pinned `run_trials` batch
must hash to tests/golden/model.json, and every pinned wire trial must send,
answer and regenerate what it records.

The digests are of floating-point reports, so they are compared only on the
numpy version and platform they were recorded on; anywhere else the tests
skip and say why, rather than fall back to a tolerance.  Regenerate with
``scripts/golden.py --write`` when a change means to move an output.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RECORDED = json.loads(golden.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert {name: case["argv"] for name, case in RECORDED["cases"].items()} == golden.CASES
    assert {name: case["run_trials"] for name, case in RECORDED["rows"].items()} == golden.ROW_CASES
    assert {name: case["inputs"] for name, case in RECORDED["wire"].items()} == golden.WIRE_CASES


def _require_recorded_platform():
    here = (np.__version__, golden.platform_tag())
    there = (RECORDED["numpy"], RECORDED["platform"])
    if here != there:
        pytest.skip(f"golden digests were recorded on numpy {there[0]} / {there[1]}; "
                    f"this is numpy {here[0]} / {here[1]}")


@pytest.mark.parametrize("name", sorted(RECORDED["cases"]))
def test_model_results_match_golden(name):
    _require_recorded_platform()
    case = RECORDED["cases"][name]
    assert golden.results_digest(case["argv"]) == case["sha256"]


@pytest.mark.parametrize("name", sorted(RECORDED["rows"]))
def test_run_trials_rows_match_golden(name):
    _require_recorded_platform()
    case = RECORDED["rows"][name]
    assert golden.rows_digest(case["run_trials"]) == case["sha256"]


@pytest.mark.parametrize("name", sorted(RECORDED["wire"]))
def test_wire_vectors_match_golden(name):
    _require_recorded_platform()
    case = dict(RECORDED["wire"][name])
    assert golden.wire_vector(case.pop("inputs")) == case
