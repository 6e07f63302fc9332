"""Smoke runs of the scripts under scripts/ and of the benchmark's smoke test under
perfbench/, so they cannot rot when the package API moves, and a check that the mutation
registry in scripts/mutants.py still applies to src/."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name, args, headers", [
    ("headline_numbers.py", ["--trials", "2000", "--bins", "64"],
     ["closed forms (bits)", "Monte Carlo I(X:Psi) at n=2000",
      "one-shot protocol over 2000 trials, 64 bins",
      "reference single-qubit simulation costs (bits)"]),
    ("bin_sweep.py", ["--trials", "2000", "--bins", "4", "16"],
     ["bins  worst Born err  mean bits    P(k=1)  binned 7/16"]),
])
def test_script_runs(name, args, headers):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    for header in headers:
        assert any(line.startswith(header) for line in lines), header
    if name == "bin_sweep.py":
        assert [line.split()[0] for line in lines[1:]] == ["4", "16"]


@pytest.mark.parametrize("name, args", [
    ("headline_numbers.py", ["--trials", "10"]),
    ("headline_numbers.py", ["--bins", "3"]),
    ("headline_numbers.py", ["--seed", "-1"]),
    ("headline_numbers.py", ["--seed", "1.5"]),
    ("bin_sweep.py", ["--bins", "3"]),
    ("bin_sweep.py", ["--bins", "4", "4.0"]),
    ("bin_sweep.py", ["--seed", "-1"]),
    ("bin_sweep.py", ["--seed", str(2**64)]),
    ("bin_sweep.py", ["--trials", "0"]),
])
def test_script_rejects_bad_arguments(name, args):
    # a usage error, before any work: exit 2 and argparse's message, not a traceback
    proc = run_script(name, *args)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


def test_benchmark_smoke_test_passes():
    # perfbench calls alice_send, Codebook.entries, trial_codebook and the cli's argv as
    # they stand; a signature change must fail here, not only in a benchmark run
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke test passed" in proc.stdout


def test_every_registered_mutant_edits_its_file_in_one_place():
    # a refactor that moves the code a mutant edits must move the mutant too; the mutants
    # themselves run only under `python scripts/mutants.py`, never here
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert m.file.startswith("src/") and m.old != m.new, m.name
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
        for node in m.tests:   # each node id names a test that is there
            path, *names = node.split("::")
            text = (ROOT / path).read_text()
            assert all(re.search(rf"^\s*(def|class) {name}\b", text, re.M) for name in names), node
