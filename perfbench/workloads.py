"""The benchmark's four workloads and the checks on their outputs.

Every workload reaches kschannel only through public entry points:
``kschannel.cli.main([...])`` for the commands, and ``trial_codebook`` /
``alice_send`` / ``bob_receive`` for the two-party wire path.  Calls go
through module attributes (``cli.main``, ``protocol.alice_send``) so that a
traced pass sees the tracer's wrappers.

A workload runs in *passes*; pass ``i`` draws fresh inputs from the
benchmark seed and ``i``, so a run averages over many inputs and one seed
always gives the same passes.  Each operation (one command, one trial, one
quadrature call) is bounded by a timeout.  An operation fails on an
exception, a timeout, a non-zero exit code, a failed ``checks[]`` entry, or
a wrong output.

The one exception: the CLI's Monte Carlo checks compare an estimate with
its exact value at 3 (or 4) standard errors, so a correct program fails a
3-sigma check on about 1 in 370 seeds, and a run makes hundreds of such
commands.  A failed check of that kind is re-judged from the report's own
numbers at 6 standard errors (about 1 in 5e8); within that it is counted
as *flagged*, beyond it as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import kschannel  # noqa: E402
from kschannel import cli, protocol, quadrature, rngstream  # noqa: E402

if Path(kschannel.__file__).resolve().parent != (ROOT / "src" / "kschannel").resolve():
    raise ImportError(f"kschannel was imported from {kschannel.__file__}, not from {ROOT / 'src'}")

#: seconds one operation may take before it counts as failed
OP_TIMEOUT_S = 30.0


class OpTimeout(Exception):
    """An operation overran ``OP_TIMEOUT_S``."""


@contextlib.contextmanager
def op_deadline(seconds: float):
    """Raise OpTimeout in the main thread once ``seconds`` pass, then every second.

    The repeat interrupts a main thread that is stuck joining a hung worker
    pool after the first OpTimeout.
    """

    def expire(_signum, _frame):
        raise OpTimeout(f"operation exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: seconds the calibration kernel takes at the reference machine speed
REFERENCE_S = 0.008
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(31)
_V3 = np.array([0.3, 0.4, 0.5])


def calibration_s() -> float:
    """Seconds for a fixed mix of array numpy, small-call numpy and interpreter work.

    The kernel touches no kschannel code, so only the machine changes its
    time.  The host this benchmark was built on runs the same code up to
    1.6x faster or slower from one second to the next; each operation's time
    is scaled by ``REFERENCE_S`` over the kernel's time measured just before
    and just after it, which cancels most of that drift (see README.md).
    The three parts are the three kinds of work the workloads do; their sum
    tracked every workload better than any one of them alone.
    """
    t0 = time.perf_counter()
    words = np.arange(1 << 14, dtype=np.uint64)
    acc = 0
    for i in range(60):   # array work with a Python loop around it
        z = (words + np.uint64(i)) * _GOLDEN
        z ^= z >> _SHIFT
        acc += int(np.count_nonzero(z.astype(np.float64) < 9.2e18))
        for j in range(150):
            acc = (acc * 31 + j) & 0xFFFFF
    small = np.zeros(16)
    for j in range(400):   # calls on tiny arrays, where numpy's call overhead dominates
        small = small + np.float64(j)
        acc += int(np.dot(_V3, _V3) > 0.0) + int(np.sqrt(small[:3])[0] >= 0.0)
    for j in range(6000):   # plain interpreter work on integers and strings
        acc = (acc * 31 + j) & 0xFFFFF
        if j % 50 == 0:
            acc += len(format(acc, "b").lstrip("0"))
    return time.perf_counter() - t0


class Calibration:
    """The calibration kernel timed between operations, shared by the timed passes of a run."""

    def __init__(self):
        self.kernel = calibration_s()   # seconds of the latest timing

    def factor(self) -> float:
        """Time the kernel; the factor for the operations timed since the previous timing."""
        previous, self.kernel = self.kernel, calibration_s()
        return 2.0 * REFERENCE_S / (previous + self.kernel)


def derive_seed(seed: int, *labels) -> int:
    """A 63-bit seed from the benchmark seed and labels; the program sees only these."""
    text = "/".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Size:
    """Work per pass; ``FULL`` for measurement, ``SMOKE`` for the smoke test."""

    simulate_trials: int
    cost_trials: int
    wire_trials: int
    verify_trials: int
    verify_calls: int
    mi_trials: int
    quad_dots: tuple
    probes: int


FULL = Size(simulate_trials=8_192, cost_trials=16_384, wire_trials=1_000,
            verify_trials=2_000_000, verify_calls=8, mi_trials=1_000_000,
            quad_dots=(-0.8, -0.3, 0.3, 0.8), probes=5)
SMOKE = Size(simulate_trials=256, cost_trials=16_384, wire_trials=40,
             verify_trials=20_000, verify_calls=2, mi_trials=20_000, quad_dots=(0.5,), probes=1)


@dataclass
class Op:
    """One timed operation: its seconds, the trials it answered and its calibration factor."""

    seconds: float
    trials: int = 0
    part: str | None = None
    latency: float = 0.0     # seconds each of its trials waited for an answer
    factor: float = 1.0      # REFERENCE_S over the calibration kernel's time around it


@dataclass
class PassResult:
    """What one pass did, how long its operations took, and what went wrong.

    With a ``calibration``, each ``calibrate()`` times the kernel and scales
    the operations timed since the previous timing by the kernel times on
    either side of them.
    """

    calibration: Calibration | None = None
    attempted: int = 0
    failures: dict = field(default_factory=dict)      # operation -> what went wrong
    flagged: list = field(default_factory=list)      # statistical checks within 6 sigma
    outputs: list = field(default_factory=list)      # canonical output per operation
    ops: list = field(default_factory=list)          # Op per timed operation
    code_bits: list = field(default_factory=list)
    _scaled: int = 0                                 # ops[:_scaled] have their factor

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()

    def fail(self, what: str, op=None) -> None:
        """Record a wrong result of operation ``op``, or of the whole pass when None."""
        self.failures.setdefault(op, []).append(what)

    @property
    def failed(self) -> int:
        """Failed operations; a failure of the whole pass fails all of them."""
        return self.attempted if None in self.failures else len(self.failures)

    def calibrate(self) -> None:
        """Time the kernel and scale the operations timed since the last call by it."""
        if self.calibration is None or self._scaled == len(self.ops):
            return
        factor = self.calibration.factor()
        for op in self.ops[self._scaled:]:
            op.factor = factor
        self._scaled = len(self.ops)

    def timed(self, seconds: float, trials: int = 0, part: str | None = None,
              latency: float | None = None) -> None:
        self.ops.append(Op(seconds, trials, part, seconds if latency is None else latency))

    @property
    def trials(self) -> int:
        return sum(op.trials for op in self.ops)

    def op_s(self, scaled: bool = True) -> float:
        return sum(op.seconds * (op.factor if scaled else 1.0) for op in self.ops)

    def trial_s(self, scaled: bool = True) -> float:
        """Time in the operations that answer trials."""
        return sum(op.seconds * (op.factor if scaled else 1.0) for op in self.ops if op.trials)

    def latencies(self, scaled: bool = True) -> list:
        """(seconds, trials that waited that long) per trial-answering operation."""
        return [(op.latency * (op.factor if scaled else 1.0), op.trials)
                for op in self.ops if op.trials]

    def parts(self, scaled: bool = True) -> dict:
        """Seconds per named stage."""
        out = {}
        for op in self.ops:
            if op.part:
                out[op.part] = out.get(op.part, 0.0) + op.seconds * (op.factor if scaled else 1.0)
        return out

    def command(self, argv: list[str], trials: int, part: str) -> dict | None:
        """Run one ``kschannel`` command line; returns its ``results`` block if it succeeded."""
        self.attempted += 1
        op = self.attempted
        out, err = io.StringIO(), io.StringIO()
        with op_deadline(OP_TIMEOUT_S), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code
            except OpTimeout:
                raise
            except Exception as exc:  # noqa: BLE001 - any crash is a failed operation
                self.fail(f"{argv[0]}: {type(exc).__name__}: {exc}", op)
                return None
            seconds = time.perf_counter() - t0
        self.timed(seconds, trials, part)
        self.calibrate()
        if code not in (0, 1):   # 1 means a check failed; those are judged below
            self.fail(f"{argv[0]}: exit code {code}: {err.getvalue().strip()[-200:]}", op)
            return None
        try:
            results = json.loads(out.getvalue())["results"]
        except (ValueError, KeyError) as exc:
            self.fail(f"{argv[0]}: unreadable report: {exc}", op)
            return None
        failed = [c["name"] for c in results.get("checks", []) if not c["passed"]]
        if (code == 1) != bool(failed):
            self.fail(f"{argv[0]}: exit code {code} with failed checks {failed}", op)
        flagged = [name for name in failed if _within_six_sigma(name, results, argv)]
        self.flagged.extend(f"{argv[0]}: {name}" for name in flagged)
        if len(flagged) < len(failed):
            self.fail(f"{argv[0]}: checks failed: {', '.join(sorted(set(failed) - set(flagged)))}", op)
        self.outputs.append(canonical(results))
        return results if op not in self.failures else None


def _within_six_sigma(check: str, results: dict, argv: list[str]) -> bool:
    """Whether a failed Monte Carlo check of the CLI holds at 6 standard errors."""
    if check == "born_conformance":   # simulate: 3 se plus the binning slack
        binning = 1.0 / (2.0 * _argv_value(argv, "--bins"))
        se = (results["conformance_tolerance"] - binning) / 3.0
        return results["abs_error"] <= 6.0 * se + binning
    if check == "born_rule_3sigma_all_cells":   # verify
        return all(c["abs_error"] <= 6.0 * c["std_error"] for c in results["cells"])
    if check == "mc_brackets_exact_3se":   # mi
        mc = results["mc"]
        return abs(mc["value"] - results["exact_bits"]) <= 6.0 * mc["std_error"]
    if check == "round1_acceptance_rate":   # cost, at 4 sigma
        r = results["round1_acceptance"]
        p = r["exact_binned"]
        return abs(r["empirical"] - p) <= 6.0 * math.sqrt(p * (1.0 - p) / r["n"])
    return False


def _argv_value(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


class Workload:
    """A named set of inputs derived from the benchmark seed."""

    name = ""
    #: worker threads the workload asks for
    workers = 1
    #: set for the timed untraced passes, which scale their times by the calibration kernel
    calibration: Calibration | None = None

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.input_seed = derive_seed(seed, self.name, "inputs")

    def cli_seed(self, index: int) -> int:
        """The --seed of pass ``index``."""
        return derive_seed(self.seed, self.name, "cli", index)

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult, index: int) -> None:
        """Checks that need calls into the program; run outside any traced pass."""

    def minimal(self) -> None:
        """The smallest call of this workload, timed by the set-up probe."""
        raise NotImplementedError

    def seeds(self) -> dict:
        return {"benchmark": self.seed, "cli_pass0": self.cli_seed(0), "inputs": self.input_seed}


class Simulate4096(Workload):
    """The default user run: random state and measurement per trial, 4096 bins, one worker.

    The wide, long-tailed schedule puts the RNG, geometry and greedy rounds on the path.
    """

    name = "simulate_4096"

    def argv(self, trials: int, index: int) -> list[str]:
        return ["simulate", "--trials", str(trials), "--bins", "4096", "--workers", "1",
                "--seed", str(self.cli_seed(index))]

    def run_pass(self, index: int) -> PassResult:
        res = PassResult(self.calibration)
        n = self.size.simulate_trials
        results = res.command(self.argv(n, index), n, "simulate")
        if results is not None:
            if results["n"] != n:
                res.fail(f"simulate: reported n={results['n']}, asked for {n}", 1)
            res.code_bits.append((results["code_bits"]["mean"], n))
        return res

    def minimal(self) -> None:
        cli.main(self.argv(1, 0))


class Cost64FixedW2(Workload):
    """A narrow 64-bin schedule at a fixed state and measurement on 2 worker threads.

    Per-round overhead, the thread pool and the cli histograms dominate.
    """

    name = "cost_64_fixed_w2"
    workers = 2

    def argv(self, trials: int, index: int) -> list[str]:
        return ["cost", "--trials", str(trials), "--bins", "64", "--state", "0,0,1",
                "--meas", "0.6,0,0.8", "--workers", str(self.workers),
                "--seed", str(self.cli_seed(index))]

    def run_pass(self, index: int) -> PassResult:
        res = PassResult(self.calibration)
        n = self.size.cost_trials
        results = res.command(self.argv(n, index), n, "cost")
        if results is not None:
            if results["code_bits"]["n"] != n:
                res.fail(f"cost: reported n={results['code_bits']['n']}, asked for {n}", 1)
            res.code_bits.append((results["code_bits"]["mean"], n))
        return res

    def minimal(self) -> None:
        cli.main(self.argv(1, 0))


def _unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _coins(key: int):
    """The sender's private coins: the counter stream of ``key``, as run_trial draws them."""
    i = 1
    while True:
        yield rngstream.to_unit(rngstream.mix(key, i))
        i += 1


def elias_delta_reference(bits: str) -> int | None:
    """Independent decoder of one Elias delta codeword; None if malformed."""
    zeros = len(bits) - len(bits.lstrip("0"))
    if 2 * zeros + 1 > len(bits):
        return None
    length = int(bits[zeros:2 * zeros + 1], 2)
    mantissa = bits[2 * zeros + 1:]
    if len(mantissa) != length - 1:
        return None
    return int("1" + mantissa, 2)


#: wire trials between two timings of the calibration kernel (a trial takes well under 1 ms)
WIRE_CALIBRATE_EVERY = 40


class WireOneShot(Workload):
    """The scalar two-party path, one trial at a time, at 4096 bins.

    The only workload on greedy_one_shot, Codebook.entry and the Elias encode/decode.
    """

    name = "wire_one_shot"
    bins = 4096

    def inputs(self, index: int):
        k = self.size.wire_trials
        rng = np.random.default_rng([self.input_seed, index])
        trials = np.arange(index * k, (index + 1) * k)
        return trials, _unit_rows(rng, k), _unit_rows(rng, k), rng.integers(0, 2**63, size=k)

    def run_pass(self, index: int) -> PassResult:
        res = PassResult(self.calibration)
        trials, states, meas, keys = self.inputs(index)
        clock = time.perf_counter
        for t, v, m, key in zip(trials.tolist(), states, meas, keys.tolist()):
            res.attempted += 1
            try:
                with op_deadline(OP_TIMEOUT_S):
                    t0 = clock()
                    codebook = protocol.trial_codebook(self.cli_seed(0), t)
                    t1 = clock()
                    bits, report = protocol.alice_send(v, codebook, self.bins, _coins(key))
                    outcome = protocol.bob_receive(bits, codebook, kschannel.Measurement(m))
                    t2 = clock()
            except OpTimeout:
                raise
            except Exception as exc:  # noqa: BLE001 - any crash is a failed operation
                res.fail(f"trial {t}: {type(exc).__name__}: {exc}", t)
                res.outputs.append(canonical([t, None]))
                continue
            res.timed(t2 - t0, 1, latency=t2 - t1)
            res.outputs.append(canonical([t, codebook.seed, int(report.accepted_index),
                                          bits, int(outcome)]))
            if res.attempted % WIRE_CALIBRATE_EVERY == 0:
                res.calibrate()
        res.calibrate()
        return res

    def check(self, res: PassResult, index: int) -> None:
        _, states, meas, _ = self.inputs(index)
        plus = born = var = 0.0
        n = 0
        for line, v, m in zip(res.outputs, states, meas):
            row = json.loads(line)
            if row[1] is None:
                continue
            t, cb_seed, accepted, bits, outcome = row
            if elias_delta_reference(bits) != accepted:
                res.fail(f"trial {t}: bits {bits!r} do not encode index {accepted}", t)
                continue
            x = protocol.Codebook(seed=cb_seed).entries([accepted])[0]
            if float(np.dot(x, v)) < -1e-12:
                res.fail(f"trial {t}: accepted point lies off the state's hemisphere", t)
            if outcome != (1 if float(np.dot(x, m)) >= 0.0 else -1):
                res.fail(f"trial {t}: outcome {outcome} disagrees with the regenerated point", t)
            p = 0.5 + 0.5 * float(np.clip(np.dot(v, m), -1.0, 1.0))
            plus += outcome == 1
            born += p
            var += p * (1.0 - p)
            n += 1
            res.code_bits.append((len(bits), 1))
        # Born conformance of the block at 5 standard errors plus the binning bias
        if n and abs(plus - born) / n > 5.0 * math.sqrt(var) / n + 1.0 / (2 * self.bins):
            res.fail(f"wire block {index}: '+' rate {plus / n:.4f} vs Born {born / n:.4f}")

    def minimal(self) -> None:
        codebook = protocol.trial_codebook(self.cli_seed(0), 0)
        v = np.array([0.0, 0.0, 1.0])
        bits, _ = protocol.alice_send(v, codebook, self.bins, _coins(self.input_seed))
        protocol.bob_receive(bits, codebook, kschannel.Measurement(np.array([0.6, 0.0, 0.8])))


def _tilted(pole: np.ndarray, dot: float, phi: float) -> np.ndarray:
    """The unit vector at ``dot`` to ``pole`` and azimuth ``phi`` about it."""
    helper = np.array([1.0, 0.0, 0.0]) if abs(pole[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(pole, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(pole, e1)
    r = math.sqrt(1.0 - dot * dot)
    u = dot * pole + r * (math.cos(phi) * e1 + math.sin(phi) * e2)
    return u / np.linalg.norm(u)


def _vec_arg(v: np.ndarray) -> str:
    return ",".join(repr(float(c)) for c in v)


class ModelChecks(Workload):
    """verify and mi through the cli plus Born quadrature on an angle grid.

    Only model, info, quadrature and rotate_to_frame run, so a protocol change
    must leave this workload unchanged.
    """

    name = "model_checks"

    def inputs(self, index: int):
        """Pinned verify directions and the (v, m) quadrature grid of pass ``index``."""
        rng = np.random.default_rng([self.input_seed, index])
        state, meas, pole = _unit_rows(rng, 3)
        phis = rng.uniform(0.0, 2.0 * math.pi, size=len(self.size.quad_dots))
        return state, meas, [(pole, _tilted(pole, d, phi))
                             for d, phi in zip(self.size.quad_dots, phis)]

    def verify_argv(self, trials: int, index: int, call: int) -> list[str]:
        # both directions pinned: one cell, at the angle between them
        state, meas, _ = self.inputs(index)
        seed = derive_seed(self.seed, self.name, "cli", index, "verify", call)
        # the "=" form keeps argparse from taking a leading minus sign for an option
        return ["verify", "--trials", str(trials), f"--state={_vec_arg(state)}",
                f"--meas={_vec_arg(meas)}", "--seed", str(seed)]

    def mi_argv(self, trials: int, index: int) -> list[str]:
        return ["mi", "--trials", str(trials), "--seed", str(self.cli_seed(index))]

    def run_pass(self, index: int) -> PassResult:
        res = PassResult(self.calibration)
        size = self.size
        per_call = size.verify_trials // size.verify_calls
        for call in range(size.verify_calls):
            res.command(self.verify_argv(per_call, index, call), per_call, "verify")
        res.command(self.mi_argv(size.mi_trials, index), size.mi_trials, "mi")
        for v, m in self.inputs(index)[2]:
            res.attempted += 1
            try:
                with op_deadline(OP_TIMEOUT_S):
                    t0 = time.perf_counter()
                    value = quadrature.born_plus_integral(v, m)
                    seconds = time.perf_counter() - t0
            except OpTimeout:
                raise
            except Exception as exc:  # noqa: BLE001 - any crash is a failed operation
                res.fail(f"born_plus_integral: {type(exc).__name__}: {exc}", res.attempted)
                continue
            res.timed(seconds, part="born_quadrature")
            res.calibrate()
            res.outputs.append(canonical(value))
            born = 0.5 + 0.5 * float(np.dot(v, m))
            if not abs(value - born) <= 1e-6:   # acceptance criterion 2's tolerance
                res.fail(f"born_plus_integral: {value!r} vs Born {born!r}", res.attempted)
        return res

    def minimal(self) -> None:
        cli.main(self.verify_argv(1000, 0, 0))
        cli.main(self.mi_argv(1000, 0))
        quadrature.born_plus_integral(*self.inputs(0)[2][0])


WORKLOADS = {w.name: w for w in (Simulate4096, Cost64FixedW2, WireOneShot, ModelChecks)}
