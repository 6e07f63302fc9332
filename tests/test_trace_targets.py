"""The benchmark's span tracer still finds and counts what it targets in the package.

perfbench/tracer.py wraps kschannel functions by name and reads some of their
arguments (mi's sample count from ``kwargs["n"]``, else ``args[1]``), so a
rename or a changed call in the package would make the benchmark fail or read
0.  This runs the tracer as it is, loaded from its path, over in-process CLI runs.
"""

import importlib.util
import sys
from pathlib import Path

from kschannel import cli

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target_and_counts_mi_samples(monkeypatch):
    tracer_module = _load_tracer(monkeypatch)
    with tracer_module.Tracer() as tracer:
        mi_code = cli.main(["mi", "--trials", "1000", "--workers", "2"])
        sim_code = cli.main(["simulate", "--trials", "64", "--bins", "64"])
    assert (mi_code, sim_code) == (0, 0)
    assert tracer.missing == []
    assert tracer.aggregates()["info.mc_mutual_information"].elements == 1000


def test_tracer_counts_the_trials_of_both_batch_commands(monkeypatch):
    # the observers read the sender's fields of run_trials' and _run_chunk's results;
    # simulate answers its batch and cost does not, and each adds its trials
    tracer_module = _load_tracer(monkeypatch)
    with tracer_module.Tracer() as tracer:
        codes = (cli.main(["simulate", "--trials", "64", "--bins", "64"]),
                 cli.main(["cost", "--trials", "64", "--bins", "64", "--workers", "2"]))
    assert codes == (0, 0)
    counters = tracer.counters()
    assert counters["protocol.trials"] == 64 + 64
    assert counters["protocol.points_drawn"] >= 128 and counters["protocol.rounds"] >= 2
    assert counters["coding.bits_sent"] >= 128
