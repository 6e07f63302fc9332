"""kschannel benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
in fresh processes, an untimed warm-up pass, timed passes with fresh inputs
for ``--seconds`` seconds, and a final repeat of the warm-up pass that must
reproduce its outputs.  ``--trace 1`` alternates untraced and traced passes
of the warm-up inputs for ``--seconds`` seconds and reports the per-layer
metrics of the traced ones (medians over traced passes).

Human-readable lines (seeds, machine, every metric with its unit, the
results digest, failures) come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A copy of the full report goes to
``.bench_build/perfbench/``.  Exits 2 without a result when the program
under ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

#: timed passes a run makes even when --seconds is shorter than they take
MIN_PASSES = 3
#: traced passes a --trace 1 run makes at least
MIN_TRACED = 2
PROBE_TIMEOUT_S = 60.0


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def weighted_percentile(pairs, q: float) -> float:
    """Percentile ``q`` (0-100) of values given as (value, weight) pairs."""
    pairs = sorted(pairs)
    if not pairs:
        return 0.0
    total = sum(w for _, w in pairs)
    cut = q / 100.0 * total
    acc = 0
    for value, weight in pairs:
        acc += weight
        if acc >= cut:
            return float(value)
    return float(pairs[-1][0])


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_times(name: str, seed: int, count: int) -> tuple[list[tuple], list[str]]:
    """(seconds to import kschannel and make the workload's first call, calibration seconds),
    one fresh process each."""
    times, problems = [], []
    for _ in range(count):
        try:
            proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            problems.append(f"set-up probe exceeded {PROBE_TIMEOUT_S:g} s")
            break
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}")
            elapsed, kernel = proc.stdout.strip().splitlines()[-1].split()
            times.append((float(elapsed), float(kernel)))
        except (ValueError, IndexError) as exc:
            problems.append(f"set-up probe failed: {exc}: {proc.stderr.strip()[-300:]}")
            break
    return times, problems


class Run:
    """Counts operations and failures over every pass of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.flagged: list[str] = []

    def add(self, res) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        self.flagged.extend(res.flagged)
        for messages in res.failures.values():
            self.failures.extend(messages)

    def problem(self, what: str, ops: int = 1) -> None:
        """A failure found outside a pass (set-up, a digest or count mismatch, a timeout)."""
        self.attempted += ops
        self.failed += ops
        self.failures.append(what)


def measure(name: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Run one workload and return its report; ``report['line']`` is the final JSON line."""
    import workloads
    from metrics import END_TO_END, PER_LAYER

    size = size or workloads.FULL
    workload = workloads.WORKLOADS[name](seed, size)
    run = Run()
    report = {"workload": name, "seeds": workload.seeds(),
              "seconds": seconds, "trace": int(trace), "machine": machine_info()}
    try:
        if trace:
            values, extra = _traced(workload, seconds, run)
            units = {n: u for n, u, _, _ in PER_LAYER}
            report["moves"] = {n: m for n, _, _, m in PER_LAYER}
        else:
            values, extra = _untraced(workload, seconds, run)
            units = {n: u for n, u, _ in END_TO_END}
    except workloads.OpTimeout as exc:
        run.problem(f"timeout: {exc}")
        values, extra = {}, {}
        units = {n: u for n, u, *_ in (PER_LAYER if trace else END_TO_END)}
    metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u} for n, u in units.items()}
    report.update(extra)
    report["error_rate"] = run.failed / run.attempted if run.attempted else 1.0
    report["failures"] = run.failures[:50]
    report["checks_flagged"] = run.flagged[:50]
    report["line"] = {"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": max(run.attempted, 1), "failed": run.failed,
                      "metrics": metrics}
    return report


def _checked_pass(workload, index: int, run: Run, reference: str | None, tracer=None):
    t0 = time.perf_counter()
    if tracer is None:
        res = workload.run_pass(index)
    else:
        with tracer:
            res = workload.run_pass(index)
    wall = time.perf_counter() - t0
    workload.check(res, index)
    if reference is not None and res.digest != reference:
        res.fail(f"pass {index}: results digest {res.digest[:16]} differs from {reference[:16]}")
    run.add(res)
    return res, wall


def _untraced(workload, seconds: float, run: Run) -> tuple[dict, dict]:
    from workloads import Calibration

    probes, problems = setup_times(workload.name, workload.seed, workload.size.probes)
    run.attempted += len(probes)
    for problem in problems:
        run.problem(problem)

    first, _ = _checked_pass(workload, 0, run, None)   # warm-up, not timed
    workload.calibration = Calibration()
    timed = []
    start = time.perf_counter()
    while len(timed) < MIN_PASSES or time.perf_counter() - start < seconds:
        res, _ = _checked_pass(workload, len(timed) + 1, run, None)
        timed.append(res)
    workload.calibration = None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _checked_pass(workload, 0, run, first.digest)   # same inputs, same outputs

    values, raw = (_timings(timed, probes, k) for k in (True, False))
    values["peak_rss_mb"] = rss_mb
    factors = [op.factor for r in timed for op in r.ops]
    bits = first.code_bits
    extra = {
        "results_digest": first.digest,
        "passes": len(timed),
        "trials": sum(r.trials for r in timed),
        "code_bits_mean": sum(b * n for b, n in bits) / sum(n for _, n in bits) if bits else None,
        "latency_tail_us": {k: values[k] for k in ("trial_latency_p90_us", "trial_latency_p99_us")},
        "unscaled": raw,
        "scale_factor": {"median": median(factors), "min": min(factors), "max": max(factors)},
        "setup_samples_s": probes,
        "pass_op_s": [r.op_s() for r in timed],
        "stage_s": {part: median(r.parts().get(part, 0.0) for r in timed) for part in first.parts()},
    }
    return values, extra


def _timings(timed, probes, scaled: bool) -> dict:
    """The timing metrics of a run, scaled to the reference machine speed or as measured."""
    from workloads import REFERENCE_S

    if not scaled:
        probes = [(elapsed, REFERENCE_S) for elapsed, _ in probes]
    latencies = [pair for r in timed for pair in r.latencies(scaled)]
    return {
        # a median over passes: the chunk times of simulate_4096 are too heavy-tailed for a mean
        "trials_per_s": median(r.trials / r.trial_s(scaled) for r in timed if r.trial_s(scaled)),
        "trial_latency_p50_us": 1e6 * weighted_percentile(latencies, 50),
        "trial_latency_p90_us": 1e6 * weighted_percentile(latencies, 90),
        "trial_latency_p99_us": 1e6 * weighted_percentile(latencies, 99),
        "pass_s": median(r.op_s(scaled) for r in timed),
        "setup_s": median(elapsed * REFERENCE_S / kernel for elapsed, kernel in probes),
    }


def _traced(workload, seconds: float, run: Run) -> tuple[dict, dict]:
    from metrics import EXACT_COUNTS
    from tracer import Tracer, layer_metrics

    first, _ = _checked_pass(workload, 0, run, None)   # warm-up, not timed
    reference = first.digest
    plain, traced, layers, spans, missing = [], [], [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - start < seconds:
        res, wall = _checked_pass(workload, 0, run, reference)
        plain.append((res, wall))
        tracer = Tracer()
        res, wall = _checked_pass(workload, 0, run, reference, tracer)
        traced.append(wall)
        layer = layer_metrics(tracer.aggregates(), tracer.counters(), workload.workers)
        if layers and any(layer.get(k, 0) != layers[0].get(k, 0) for k in EXACT_COUNTS):
            run.problem(f"exact counts differ between traced passes: "
                        f"{ {k: (layers[0].get(k, 0), layer.get(k, 0)) for k in EXACT_COUNTS} }")
        layers.append(layer)
        spans, missing = tracer.span_log(), tracer.missing

    names = {k for layer in layers for k in layer}
    values = {k: median(layer.get(k, 0.0) for layer in layers) for k in names}
    values["trace.overhead_s"] = median(traced) - median(w for _, w in plain)
    for metric, part in (("cli.cmd_verify.wall_s", "verify"), ("cli.cmd_mi.wall_s", "mi"),
                         ("quadrature.born_plus_integral.wall_s", "born_quadrature")):
        values[metric] = median(r.parts().get(part, 0.0) for r, _ in plain)
    extra = {
        "results_digest": reference,
        "traced_passes": len(traced),
        "exact_counts": {k: layers[0].get(k, 0) for k in EXACT_COUNTS},
        "untraced_targets": missing,
        "spans": spans,
    }
    return values, extra


def print_report(report: dict) -> None:
    line = report["line"]
    print(f"workload {report['workload']}")
    print(f"seeds {json.dumps(report['seeds'])}")
    print(f"machine {json.dumps(report['machine'])}")
    for key in ("results_digest", "passes", "traced_passes", "trials", "latency_tail_us",
                "unscaled", "scale_factor", "code_bits_mean", "checks_flagged",
                "setup_samples_s", "stage_s", "exact_counts", "untraced_targets"):
        if key in report:
            print(f"{key} {json.dumps(report[key])}")
    moves = report.get("moves", {})
    for name, metric in line["metrics"].items():
        note = f"  (moves {moves[name]})" if name in moves else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(f"  error_rate = {report['error_rate']:.6g} ({line['failed']}/{line['attempted']} "
          f"operations failed)")
    for failure in report["failures"][:10]:
        print(f"  failure: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program under {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    report.pop("spans", None)
    print_report(report)
    print(json.dumps(report["line"]), flush=True)
    if threading.active_count() > 1:
        # a timed-out operation left worker threads running; they cannot be joined
        sys.stderr.flush()
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
