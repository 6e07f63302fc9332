"""Command-line harness: verification sweeps, protocol runs, and cost accounting.

Subcommands
-----------
verify    direct-model sweep over a grid of state/measurement angles,
          empirical "+" rates against the Born rule
simulate  full sender -> bitstring -> receiver pipeline per trial, Born
          conformance plus code-length statistics
mi        exact and Monte Carlo mutual information, with the two entropies
cost      accepted-index and code-length histograms, plug-in entropy, and
          the reference communication costs from the literature

Reports are JSON (default) or flat CSV with identical numbers; every
statistic carries its sample count.  Runs are deterministic given --seed
for any worker count.  Exit codes: 0 success, 1 a requested check failed,
2 usage error, 3 runtime/protocol failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .geometry import (BLOCK, Measurement, born_from_dot, random_unit_vec, require_unit,
                       rotate_to_frame, sphere_from_zphi, unit_vector)
from .greedy import ProtocolFailure
from .info import (MIN_MI_SAMPLES, conditional_entropy_ks, exact_ks_mi, marginal_entropy_ks,
                   mc_mutual_information)
from .model import _plus_count, ks_draws
from .protocol import _MAX_BINS, _TRIALS_PER_THREAD, _bin_count, ks_bin_masses, run_trials
from .rngstream import mix

EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_RUNTIME = 0, 1, 2, 3

_DEFAULT_SEED = 7
_DEFAULT_TRIALS = {"verify": 1_000_000, "simulate": 100_000, "mi": 1_000_000, "cost": 100_000}
_DEFAULT_BINS = 4096
_GRID_ANGLES = 13

_VERIFY_SALT = 0x766679
_MI_SALT = 0x6D69

#: reference one-shot / amortized costs (bits) for single-qubit simulation
REFERENCE_COSTS = (
    {"protocol": "hemisphere_model_parallel_limit", "bits": exact_ks_mi(),
     "note": "amortized limit = I(X:Psi)"},
    {"protocol": "toner_bacon_single_shot", "bits": 2.0, "note": "exactly 2 bits per realization"},
    {"protocol": "toner_bacon_amortized", "bits": 1.85, "note": "parallel simulations"},
    {"protocol": "cerf_gisin_massar_average", "bits": 2.19, "note": "average over realizations"},
)

#: guaranteed one-shot cost bracket in bits, [I, I + 2 log2(I + 1) + 2 log2 e] for I = I(X:Psi)
COST_BRACKET = (exact_ks_mi(),
                float(exact_ks_mi() + 2.0 * np.log2(exact_ks_mi() + 1.0) + 2.0 * np.log2(np.e)))


def round1_acceptance_binned(bins: int) -> float:
    """Exact round-1 acceptance rate of the binned protocol: the sum over bins of min(1/K, t_b)."""
    return float(np.sum(np.minimum(1.0 / bins, ks_bin_masses(bins))))


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: one subcommand plus its sampling budget and streams; a field
    whose flag the command does not take is None."""

    command: str
    trials: int
    seed: int
    bins: int | None
    state: tuple[float, float, float] | None
    meas: tuple[float, float, float] | None
    out: str | None
    format: str
    workers: int | None


def _vector_arg(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'x,y,z', got {text!r}")
    try:
        return tuple(unit_vector(*map(float, parts)).tolist())
    except ValueError as exc:   # a non-numeric or non-finite component, or the zero vector
        raise argparse.ArgumentTypeError(f"bad vector {text!r}: {exc}") from None


def _bounded_int(text: str, what: str, low: int, high: int | None = None) -> int:
    """``text`` as an int in [low, high]; anything else raises ArgumentTypeError (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}") from None
    if value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise argparse.ArgumentTypeError(f"{what} must be {span}, got {value}")
    return value


def _bins_arg(text: str) -> int:
    # protocol._bin_count owns the rule (even, in [2, _MAX_BINS]); here it is only an exit 2
    try:
        return _bin_count(_bounded_int(text, "bins", 2))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed_arg(text: str) -> int:
    # the counter streams read the seed as a 64-bit word; wider seeds would alias
    return _bounded_int(text, "seed", 0, (1 << 64) - 1)


def _positive_int(text: str) -> int:
    return _bounded_int(text, "value", 1)


def _mi_trials(text: str) -> int:
    return _bounded_int(text, "mi trials", MIN_MI_SAMPLES)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kschannel",
        description="Classical one-shot simulation of a qubit channel from the hemisphere model.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes only the flags it reads
    for name, help_text in (
            ("verify", "direct-model Born-rule sweep over a polar-angle grid"),
            ("simulate", "full sender/receiver protocol with code-length statistics"),
            ("mi", "exact and Monte Carlo mutual information"),
            ("cost", "communication-cost histograms and reference comparison")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--trials", type=_mi_trials if name == "mi" else _positive_int,
                       default=_DEFAULT_TRIALS[name],
                       help="samples per cell / trials (default %(default)s)")
        p.add_argument("--seed", type=_seed_arg, default=_DEFAULT_SEED,
                       help=f"64-bit master seed in [0, 2**64) (default {_DEFAULT_SEED})")
        if name in ("simulate", "cost"):
            p.add_argument("--bins", type=_bins_arg, default=_DEFAULT_BINS,
                           help=f"height bins for the protocol, even, at most {_MAX_BINS} "
                                f"(default {_DEFAULT_BINS})")
        if name != "mi":
            p.add_argument("--state", type=_vector_arg, default=None, metavar="X,Y,Z",
                           help="fix the prepared Bloch vector (normalized on ingest)")
            p.add_argument("--meas", type=_vector_arg, default=None, metavar="X,Y,Z",
                           help="fix the measurement direction (normalized on ingest)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if name != "verify":
            p.add_argument("--workers", type=_positive_int, default=_usable_cpus(),
                           help=f"worker threads, at most one per {_TRIALS_PER_THREAD} trials "
                                f"for simulate and cost and one per {BLOCK}-sample block for mi; "
                                "never changes results (default: the CPUs this process may use, "
                                "%(default)s here)")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**({f.name: None for f in fields(RunConfig)} | vars(args)))


def _binomial_sigma(p: float, n: int) -> float:
    return float(np.sqrt(max(0.0, p * (1.0 - p)) / n))


def cmd_verify(cfg: RunConfig) -> tuple[dict, bool]:
    """Direct-model sweep: sample the conditional density, answer the measurement.

    Each cell checks its state and builds its measurement's frame vector
    once, then draws its samples BLOCK at a time, each block's heights and
    then its azimuths (:func:`model.ks_draws`), and counts each block's "+"
    answers as it is drawn, by :func:`model._plus`, the kernel the protocol's
    receiver answers with: a sample is decided from a float32 estimate of
    x.m, and its exact float64 point is built only within
    :data:`geometry.ESTIMATE_BAND` of the tie.  No array longer than a block
    is made, so a cell's time does not hang on how the allocator serves
    multi-megabyte arrays.  The counts are exact integers.
    It runs on one thread: a pool was slower than one thread on this kernel.
    """
    if cfg.state is not None and cfg.meas is not None:
        grid = [None]  # both directions pinned: a single cell at their actual angle
    else:
        grid = np.linspace(-1.0, 1.0, _GRID_ANGLES).tolist()
    root = mix(cfg.seed, _VERIFY_SALT)
    cells = []
    for j, target_dot in enumerate(grid):
        rng = np.random.default_rng(mix(root, j))
        if target_dot is None:
            v = np.asarray(cfg.state, float)
            m = np.asarray(cfg.meas, float)
        else:
            pole = np.asarray(cfg.state, float) if cfg.state is not None else random_unit_vec(rng)
            tilt = sphere_from_zphi(target_dot, 0.0)
            m = rotate_to_frame(tilt, pole)
            v = pole
            if cfg.meas is not None:
                # fixed measurement: sweep the state around it instead
                m, v = np.asarray(cfg.meas, float), rotate_to_frame(tilt, np.asarray(cfg.meas, float))
        meas = Measurement(m)
        # ks_sample's draws: the count of "+" answers is exact, so count / n is the
        # mean of the whole response array
        plus = _plus_count(ks_draws(rng, cfg.trials), require_unit(v, "state v"), meas)
        empirical = plus / cfg.trials
        born = float(born_from_dot(np.sum(v * m)))
        sigma = _binomial_sigma(born, cfg.trials)
        cells.append({
            "v_dot_m": float(np.sum(v * m)),
            "born": born,
            "empirical": empirical,
            "abs_error": abs(empirical - born),
            "std_error": sigma,
            "n": cfg.trials,
            "passed": bool(abs(empirical - born) <= 3.0 * sigma),
        })
    all_passed = all(c["passed"] for c in cells)
    results = {
        "cells": cells,
        "checks": [{"name": "born_rule_3sigma_all_cells", "passed": all_passed,
                    "detail": f"{sum(c['passed'] for c in cells)}/{len(cells)} cells within 3 sigma"}],
    }
    return results, all_passed


def _percentiles(values: np.ndarray, qs) -> list[float]:
    """``np.percentile(values, qs).tolist()`` of a non-empty 1-D integer array, bit for bit.

    numpy's default (linear) rule: at h = (n - 1) (q / 100), j = floor(h) and t = h - j,
    with the order statistics a = x_(j), b = x_(j+1) and d = b - a, the percentile is
    a + d t, or b - d (1 - t) when t >= 1/2, and the largest value once h >= n - 1.
    Python floats take numpy's steps in its order, each rounded once (q / 100, times
    n - 1, the integer d times t, the add or subtract), so every value is numpy's.  One
    np.partition places the order statistics, without np.percentile's ~0.26 ms a call
    or its np.unique, which imports numpy.ma on a process's first call.
    """
    n = values.size
    spots = [(n - 1) * (q / 100) for q in qs]
    lows = [min(math.floor(h), n - 1) for h in spots]
    part = np.partition(values, sorted({*lows, *(min(j + 1, n - 1) for j in lows)}))
    out = []
    for h, j in zip(spots, lows):
        a, b = int(part[j]), int(part[min(j + 1, n - 1)])
        d, t = b - a, h - j
        out.append(float(b) if h >= n - 1 else a + d * t if t < 0.5 else b - d * (1 - t))
    return out


def _code_bit_stats(code_bits: np.ndarray) -> dict:
    n = int(code_bits.size)
    mean = float(np.mean(code_bits))
    p50, p99 = _percentiles(code_bits, (50, 99))
    return {
        "mean": mean,
        "std_error": float(np.std(code_bits, ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
        "p50": p50,
        "p99": p99,
        "max": int(np.max(code_bits)),
        "n": n,
    }


def _cost_sandwich(stats: dict) -> dict:
    mi, upper = COST_BRACKET
    slack = 3.0 * stats["std_error"]
    passed = (mi - slack) <= stats["mean"] <= (upper + slack)
    return {"lower_bits": mi, "upper_bits": upper, "mean_bits": stats["mean"],
            "slack_3se": slack, "passed": bool(passed)}


def cmd_simulate(cfg: RunConfig) -> tuple[dict, bool]:
    """Full protocol pipeline; Born conformance plus code-length statistics."""
    batch = run_trials(cfg.seed, cfg.trials, cfg.bins, state=cfg.state, workers=cfg.workers)
    outcome, born = batch.answer(cfg.meas)
    plus = (outcome == 1).astype(float)
    empirical = float(np.mean(plus))
    born_mean = float(np.mean(born))
    err = plus - born
    se = float(np.std(err, ddof=1) / np.sqrt(batch.n)) if batch.n > 1 else 0.0
    discretization = 1.0 / (2.0 * cfg.bins)
    conformance_tol = 3.0 * se + discretization
    born_ok = abs(empirical - born_mean) <= conformance_tol
    stats = _code_bit_stats(batch.code_bits)
    sandwich = _cost_sandwich(stats)
    results = {
        "empirical_plus": empirical,
        "born_plus": born_mean,
        "abs_error": abs(empirical - born_mean),
        "conformance_tolerance": conformance_tol,
        "n": batch.n,
        "code_bits": stats,
        "mean_index": float(np.mean(batch.accepted_index)),
        "cost_sandwich": sandwich,
        "checks": [
            {"name": "born_conformance", "passed": bool(born_ok),
             "detail": f"|{empirical:.5f} - {born_mean:.5f}| <= {conformance_tol:.5f}"},
            {"name": "cost_sandwich", "passed": sandwich["passed"],
             "detail": f"mean {stats['mean']:.4f} bits in "
                       f"[{sandwich['lower_bits']:.4f}, {sandwich['upper_bits']:.4f}] +/- 3se"},
        ],
    }
    return results, born_ok and sandwich["passed"]


def cmd_mi(cfg: RunConfig) -> tuple[dict, bool]:
    """Exact entropies and the Monte Carlo mutual-information estimate."""
    rng = np.random.default_rng(mix(cfg.seed, _MI_SALT))
    # n by keyword: perfbench/tracer.py counts mi's samples from kwargs["n"], else args[1]
    est = mc_mutual_information(n=cfg.trials, rng=rng, workers=cfg.workers)
    exact = exact_ks_mi()
    bracket = est.brackets(exact)
    results = {
        "exact_bits": exact,
        "conditional_entropy_bits": conditional_entropy_ks(),
        "marginal_entropy_bits": marginal_entropy_ks(),
        "mc": {"value": est.value, "std_error": est.std_error, "n": est.n_samples},
        "checks": [{"name": "mc_brackets_exact_3se", "passed": bool(bracket),
                    "detail": f"{est.value:.5f} +/- 3*{est.std_error:.5f} vs {exact:.5f}"}],
    }
    return results, bool(bracket)


def cmd_cost(cfg: RunConfig) -> tuple[dict, bool]:
    """Index/code-length histograms, plug-in entropy, and reference costs."""
    batch = run_trials(cfg.seed, cfg.trials, cfg.bins, state=cfg.state, workers=cfg.workers)
    counts = np.bincount(batch.accepted_index)
    probs = counts[counts > 0].astype(float) / batch.n
    plugin_entropy = 0.0 - float(np.sum(probs * np.log2(probs)))   # 0.0, not -0.0, at one index
    stats = _code_bit_stats(batch.code_bits)
    bit_counts = np.bincount(batch.code_bits)

    round1_exact_binned = round1_acceptance_binned(cfg.bins)
    round1_emp = float(counts[1] / batch.n)   # indices start at 1, so counts has a [1]
    sigma1 = _binomial_sigma(round1_exact_binned, batch.n)
    round1_ok = abs(round1_emp - round1_exact_binned) <= 4.0 * sigma1
    entropy_ok = plugin_entropy <= stats["mean"] + 1e-12

    results = {
        "index_histogram": {str(i): int(c) for i, c in enumerate(counts) if c},
        "code_bits_histogram": {str(i): int(c) for i, c in enumerate(bit_counts) if c},
        "code_bits": stats,
        "plugin_entropy_bits": plugin_entropy,
        "round1_acceptance": {
            "empirical": round1_emp,
            "exact_binned": round1_exact_binned,
            "exact_continuum": 7.0 / 16.0,
            "n": batch.n,
        },
        "cost_sandwich": _cost_sandwich(stats),
        "reference_costs": [dict(row) for row in REFERENCE_COSTS],
        "checks": [
            {"name": "round1_acceptance_rate", "passed": bool(round1_ok),
             "detail": f"{round1_emp:.5f} vs {round1_exact_binned:.5f} +/- {4 * sigma1:.5f}"},
            {"name": "plugin_entropy_below_mean_code_length", "passed": bool(entropy_ok),
             "detail": f"{plugin_entropy:.4f} <= {stats['mean']:.4f}"},
        ],
    }
    return results, round1_ok and entropy_ok


_COMMANDS = {"verify": cmd_verify, "simulate": cmd_simulate, "mi": cmd_mi, "cost": cmd_cost}


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _flatten(item, f"{prefix}{i}.")
    else:
        yield prefix[:-1], obj


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["metric", "value"])
    for key, value in _flatten(report):
        if value is None:
            value = ""
        elif isinstance(value, bool):
            value = str(value)
        elif isinstance(value, float):
            value = repr(float(value))  # shortest round-trip representation
        writer.writerow([key, value])
    return buf.getvalue()


def render_report(report: dict, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(report)
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _join_vector_values(argv: list[str]) -> list[str]:
    """Attach the token after --state/--meas (or a prefix of them) to it, so that
    argparse does not read a value with a leading minus (``--state -0.3,0.4,0.5``)
    as an option."""
    joined = []
    tokens = iter(argv)
    for token in tokens:
        vector_flag = len(token) > 2 and ("--state".startswith(token) or
                                          "--meas".startswith(token))
        value = next(tokens, None) if vector_flag else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`'s parser, built on the first :func:`main` call and then reused
    (building it takes ~0.8 ms, a share of a short command)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(_join_vector_values(sys.argv[1:] if argv is None else list(argv)))
    cfg = config_from_args(args)
    start = time.perf_counter()
    try:
        results, ok = _COMMANDS[cfg.command](cfg)
        report = {
            "config": asdict(cfg),
            "results": results,
            "runtime_seconds": time.perf_counter() - start,
            "version": __version__,
        }
        text = render_report(report, cfg.format)  # ValueError on a non-finite number
    except (ProtocolFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RUNTIME
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report to {cfg.out}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
