"""Smoke runs of the scripts under scripts/, so they cannot rot when the package API moves."""

import os
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
