"""Smoke test of the benchmark: every workload at minimal size.

Usage (from the repository root): python3 perfbench/smoke.py

For each workload it makes one untraced run and two traced runs of one
seed, then asserts that every metric named in BENCHMARK.json is present,
finite and carries its unit, that no operation failed, that the traced and
untraced results digests agree (the tracer's wrappers are transparent), and
that the exact counts repeat exactly between the two traced runs.  Exits 1
on the first failed assertion.
"""

from __future__ import annotations

import json
import math
import sys

from run import ROOT, measure
from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER
from workloads import SMOKE, WORKLOADS

SEED = 11
SECONDS = 0.2


def check_metrics(line: dict, spec, label: str) -> None:
    metrics = line["metrics"]
    assert set(metrics) == {name for name, *_ in spec}, f"{label}: metric names differ from the spec"
    for name, unit, *_ in spec:
        value = metrics[name]
        assert value["unit"] == unit, f"{label}: {name} has unit {value['unit']!r}, not {unit!r}"
        assert math.isfinite(value["value"]), f"{label}: {name} is not finite"
    assert line["correct"] and line["failed"] == 0, f"{label}: failed operations"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS), "workload names differ"
    spec_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    spec_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert spec_e2e == [(n, u) for n, u, _ in END_TO_END], "end_to_end differs from metrics.py"
    assert spec_layer == [(n, u) for n, u, _, _ in PER_LAYER], "per_layer differs from metrics.py"

    for name in WORKLOADS:
        plain = measure(name, SEED, SECONDS, trace=False, size=SMOKE)
        check_metrics(plain["line"], spec_e2e, f"{name} untraced")
        traced = [measure(name, SEED, SECONDS, trace=True, size=SMOKE) for _ in range(2)]
        for i, report in enumerate(traced):
            check_metrics(report["line"], spec_layer, f"{name} traced run {i + 1}")
            assert report["results_digest"] == plain["results_digest"], \
                f"{name}: traced digest {report['results_digest']} != untraced {plain['results_digest']}"
        first, second = (r["line"]["metrics"] for r in traced)
        for count in EXACT_COUNTS:
            assert first[count]["value"] == second[count]["value"], \
                f"{name}: {count} {first[count]['value']} != {second[count]['value']}"
        protocol = name != "model_checks"
        assert (first["protocol.rounds"]["value"] > 0) == protocol, f"{name}: protocol.rounds"
        assert (first["model.ks_density.calls"]["value"] > 0) == (not protocol), \
            f"{name}: model.ks_density.calls"
        print(f"ok {name}: digest {plain['results_digest'][:16]}, "
              + ", ".join(f"{c}={first[c]['value']:g}" for c in EXACT_COUNTS))
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"smoke test FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
