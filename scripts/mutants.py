#!/usr/bin/env python3
"""A registry of hand-made faults the tests must catch, and a runner that checks they do.

Each entry names a file under `src/`, a piece of its text that occurs there
exactly once, the text that replaces it, and the pytest node ids that must
each fail on the changed copy.  A mutant's ids run together in one pytest
process, and each case's outcome is read from pytest's `-rA` summary lines.
An id that names a parametrized test or a class fails when one of its cases
does.  A mutant counts as caught only when every listed id fails,
and a run that runs out of time catches nothing.  Each mutant runs on its
own copy of `src/`, `tests/` and `pyproject.toml` in a temporary directory;
the tree itself is never changed.  All the registered node ids are first
run once on an unchanged copy, where they must pass.

    python scripts/mutants.py

A run gets TIMEOUT_S seconds per id it lists.  Exit status: 0 when every
mutant is caught, 1 when one is missed by some id, 2 when an entry's old
text does not occur exactly once, a node id is not found or not run, or
the unchanged copy fails.

A fault known to be equivalent is recorded here, not registered: `<` for
`<=` in `require_unit`'s one-vector branch.  |v.v - 1| is a multiple of
2**-53 below 1 and of 2**-52 above it, so it never equals UNIT_ATOL = 1e-12,
and a vector the branch does not pass falls through to the array check,
which decides as before; the fault changes only speed.  So is `ks_sample`
stopping after its last block instead of running `ks_draws` to the end:
nothing runs in `ks_draws` after its last `yield`.

`run_trials`, `TrialBatch.answer`, `alice_send` and the tests' reference
`run_trial` (`tests/oracles.py`) check a given state or measurement on one
shared line (`protocol._given`), `alice_send` and `greedy_one_shot` check
coins by one function (`greedy._coin`), `verify`'s count and the protocol's
outcomes answer by one sign kernel (`model._plus`), and that kernel and the
scan trust the float32 estimate outside one band (`geometry.ESTIMATE_BAND`);
each fault there is one entry, listed with the tests of every path that
runs it.
`estimate_scratch_over_the_heights` lists only the test that positions a
workspace's own draws there: under it the scan's positions are wrong but
finite, and a run whose draws never reach an accepting bin would draw on
toward the round cap.
`coins_for_every_draw` moves no row of `run_trials`, whose coins are
addressed by run and round; only a test that records the coins the scan
asks for can catch it.  `floor_override_dropped` lists the law table and
the scan tests that lower the round cap, which then fail at once: without
the override, the other scan tests' runs that reach the floor round draw on
to the round cap, and time out.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: seconds a run may take per node id it lists; each registered id fails in a few seconds
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    file: str           # relative to the repository root
    old: str            # must occur exactly once in ``file``
    new: str
    tests: tuple        # pytest node ids, relative to the repository root


_GRID = "tests/test_greedy.py::TestSchedule::test_decide_matches_the_law_table"
_SCAN_STUB = "tests/test_greedy.py::TestScanDecision::test_scan_reads_the_law_only_through_decide"
_EVERY_DRAW = "tests/test_greedy.py::TestScanDecision::test_every_draw_is_decided_as_accept_prob"
_EDGE_BINS = "tests/test_protocol.py::TestHeightBins::test_equals_the_exact_bins_around_every_edge"
_TIE_OUTCOMES = "tests/test_protocol.py::TestAnswersOnRead::test_tie_draws_take_the_exact_answer"
_EXACT_COUNT = "tests/test_model.py::TestKsPlusCount::test_equals_the_exact_count"
_CUT_EDGES = "tests/test_protocol.py::TestCutEdges::test_draws_at_the_cuts_take_the_exact_bin"
_KS_DRAWS = "tests/test_blocked.py::TestKsDrawBlocks::test_blocks_are_ks_draws"
_MI_EDGES = "tests/test_blocked.py::TestModelCommandsAtBlockEdges::test_mc_mutual_information"

MUTANTS = [
    Mutant("hit_before_k_minus_1", "src/kschannel/greedy.py",
           "hit = rounds < k\n", "hit = rounds < k - 1\n", (_GRID, _EVERY_DRAW)),
    Mutant("hit_at_k", "src/kschannel/greedy.py",
           "hit = rounds < k\n", "hit = rounds <= k\n", (_GRID, _EVERY_DRAW)),
    Mutant("coin_at_p", "src/kschannel/greedy.py",
           "coins(active[col[tossed]], rounds[row[tossed]]) < p",
           "coins(active[col[tossed]], rounds[row[tossed]]) <= p",
           (_SCAN_STUB, _EVERY_DRAW)),
    Mutant("floor_override_one_row_late", "src/kschannel/greedy.py",
           "past = np.flatnonzero(rounds >= self.floor_round)",
           "past = np.flatnonzero(rounds > self.floor_round)", (_GRID, _EVERY_DRAW)),
    Mutant("zero_fraction_tossed", "src/kschannel/greedy.py",
           "        if not p.all():", "        if False:", (_GRID, _EVERY_DRAW)),
    Mutant("floor_override_dropped", "src/kschannel/greedy.py",
           "        if self.floor_round <= last:", "        if False:",
           (_GRID, _EVERY_DRAW, "tests/test_greedy.py::TestSchedule::"
                   "test_unordered_law_accepts_at_the_floor_round_by_decide")),
    Mutant("draws_not_sliced_to_a_block", "src/kschannel/greedy.py",
           "for start in range(0, active.size, BLOCK):",
           "for start in range(0, active.size, active.size):",
           (_SCAN_STUB, "tests/test_greedy.py::TestSchedule::test_no_draw_call_draws_more_than_a_block")),
    Mutant("require_unit_without_abs", "src/kschannel/geometry.py",
           "if abs(0.0 + x * x + y * y + z * z - 1.0) <= UNIT_ATOL:",
           "if 0.0 + x * x + y * y + z * z - 1.0 <= UNIT_ATOL:",
           ("tests/test_geometry.py::TestRequireUnitBranches",)),
    Mutant("mix_without_key_xor", "src/kschannel/rngstream.py",
           "z ^= (z >> 31) ^ key\n", "z ^= z >> 31\n",
           ("tests/test_protocol.py::TestCodebook::test_mix_is_the_finalizer_applied_twice",
            "tests/test_receiver.py::test_codebook_key_known_answers")),
    Mutant("given_vector_kept_as_given", "src/kschannel/protocol.py",
           "return _row(require_unit(vec, name), name).copy()",
           "return require_unit(vec, name)",
           ("tests/test_protocol.py::TestTrials::test_fixed_1_by_3_inputs_run_as_their_rows",
            "tests/test_protocol.py::TestScalarPaths::"
            "test_run_trial_takes_a_1_by_3_state_as_its_row",
            "tests/test_protocol.py::TestScalarPaths::"
            "test_alice_send_keeps_a_1_by_3_state_as_its_row")),
    Mutant("given_vector_checked_only_for_its_shape", "src/kschannel/protocol.py",
           "_row(require_unit(vec, name), name)", "_row(np.array(vec, float), name)",
           ("tests/test_protocol.py::TestScalarPaths::"
            "test_run_trial_checks_the_measurement_before_the_sender_runs",)),
    Mutant("answer_only_the_first_span", "src/kschannel/protocol.py",
           "rows[0] if len(rows) == 1 else tuple(np.concatenate(c) for c in zip(*rows))",
           "rows[0]",
           ("tests/test_protocol.py::TestTrials::test_uneven_spans_match_one_worker",
            "tests/test_protocol.py::TestAnswersOnRead::"
            "test_each_answer_call_runs_each_span_once")),
    Mutant("answer_ignores_its_measurement", "src/kschannel/protocol.py",
           "lambda receive: receive(meas)", "lambda receive: receive(None)",
           ("tests/test_protocol.py::TestTrials::test_fixed_state_and_meas_are_broadcast",
            "tests/test_protocol.py::TestTrials::test_perfectly_aligned_measurement_always_plus")),
    Mutant("fixed_born_from_the_state_alone", "src/kschannel/protocol.py",
           "born_from_dot(dot3(v, m))", "born_from_dot(dot3(v, v))",
           ("tests/test_protocol.py::TestTrials::test_fixed_state_and_meas_are_broadcast",)),
    Mutant("coin_draws_decided_as_hits", "src/kschannel/greedy.py",
           "decided[tossed] = coins(active[col[tossed]], rounds[row[tossed]]) < p",
           "decided[tossed] = p > 0.0", (_SCAN_STUB, _EVERY_DRAW)),
    Mutant("coins_for_every_draw", "src/kschannel/greedy.py",
           "if tossed.size:\n                    decided[tossed] = "
           "coins(active[col[tossed]], rounds[row[tossed]]) < p\n",
           "if True:\n                    decided[tossed] = "
           "coins(active[col], rounds[row])[tossed] < p\n",
           (_SCAN_STUB,)),
    Mutant("elias_length_one_short", "src/kschannel/coding.py",
           "return (n + 2 * ell + 1).astype(np.int64)", "return (n + 2 * ell).astype(np.int64)",
           ("tests/test_coding.py::test_vectorized_lengths_match_codewords",)),
    Mutant("uniform_bin_law_on_the_hemisphere", "src/kschannel/protocol.py",
           "return edges[1:] ** 2 - edges[:-1] ** 2", "return edges[1:] - edges[:-1]",
           ("tests/test_protocol.py::TestBinning::test_binned_target_tv_error_bound",)),
    Mutant("estimate_band_zero", "src/kschannel/geometry.py",
           "ESTIMATE_BAND = 2.0 ** -17\n", "ESTIMATE_BAND = 0.0\n",
           (_EXACT_COUNT, _TIE_OUTCOMES, _EDGE_BINS, _CUT_EDGES)),
    Mutant("estimate_band_below_the_error", "src/kschannel/geometry.py",
           "ESTIMATE_BAND = 2.0 ** -17\n", "ESTIMATE_BAND = 2.0 ** -24\n",
           ("tests/test_protocol.py::TestHeightBins::"
            "test_estimate_error_is_far_inside_the_band",)),
    Mutant("exact_bins_from_the_estimate", "src/kschannel/protocol.py",
           "bin_index(dot3(sphere_from_zphi(z.ravel()[cells], phi.ravel()[cells]),\n" + " " * 37
           + "v[cells % z.shape[-1]] if v.ndim > 1 else v), bins)",
           "np.clip(t.ravel()[cells].astype(np.int64), 0, bins - 1)",
           (_EDGE_BINS, _CUT_EDGES)),
    Mutant("toss_zone_floor_everywhere", "src/kschannel/protocol.py",
           "        if near.size:\n            cells = cells[near]\n",
           "        if False:\n            cells = cells[near]\n", (_EDGE_BINS, _CUT_EDGES)),
    Mutant("estimate_scratch_over_the_heights", "src/kschannel/protocol.py",
           "t = dot_estimate(z, phi, v, work[0])",
           "t = dot_estimate(z, phi, v, work[1].view(np.uint64))",
           ("tests/test_protocol.py::TestHeightBins::"
            "test_positions_read_the_draws_in_their_workspace",)),
    Mutant("cut_hi_one_symbol_low", "src/kschannel/greedy.py",
           'hi = np.searchsorted(self.saturation, rounds, side="right")\n',
           'hi = np.searchsorted(self.saturation, rounds, side="right") - 1\n',
           (_GRID, _CUT_EDGES)),
    Mutant("scan_band_zero", "src/kschannel/protocol.py",
           "schedule.scan(trial.size, draw, coins, ESTIMATE_BAND * bins / 2)",
           "schedule.scan(trial.size, draw, coins, 0.0)", (_CUT_EDGES,)),
    Mutant("toss_zone_decided_as_misses", "src/kschannel/greedy.py",
           "(part >= (lo - band)", "(part >= (hi - band)", (_SCAN_STUB, _EVERY_DRAW, _CUT_EDGES)),
    Mutant("floor_rows_keep_their_last_cuts", "src/kschannel/greedy.py",
           "        lo[past] = hi[past] = self._first\n", "", (_GRID, _CUT_EDGES)),
    Mutant("sign_without_fallback", "src/kschannel/model.py",
           "    if tie.size:\n", "    if False:\n", (_EXACT_COUNT, _TIE_OUTCOMES)),
    Mutant("fallback_rows_misplaced", "src/kschannel/model.py",
           "plus[tie] = exact(tie)", "plus[:tie.size] = exact(tie)",
           ("tests/test_model.py::TestPlusKernel::test_asks_exact_for_the_tie_rows_alone",)),
    Mutant("exact_tie_to_minus", "src/kschannel/model.py",
           "exact(tie) >= 0.0", "exact(tie) > 0.0",
           ("tests/test_model.py::TestKsPlusCount::test_exact_zero_is_plus",
            "tests/test_protocol.py::TestAnswersOnRead::test_exact_zero_is_plus")),
    Mutant("outcome_fallback_rows_not_offset", "src/kschannel/protocol.py",
           "mb[tie] if mb.ndim > 1", "m[tie] if mb.ndim > 1", (_TIE_OUTCOMES,)),
    Mutant("azimuths_drawn_before_heights", "src/kschannel/model.py",
           "        u = rng.random(size)\n"
           "        np.subtract(1.0, u, out=u)  # (0, 1]: keeps every sample strictly on the open "
           "hemisphere\n"
           "        yield np.sqrt(u, out=u), rng.uniform(0.0, 2.0 * np.pi, size=size)\n",
           "        phi = rng.uniform(0.0, 2.0 * np.pi, size=size)\n"
           "        u = rng.random(size)\n"
           "        np.subtract(1.0, u, out=u)\n"
           "        yield np.sqrt(u, out=u), phi\n",
           (_KS_DRAWS, _MI_EDGES)),
    Mutant("last_block_draws_a_whole_block", "src/kschannel/model.py",
           "rng.uniform(0.0, 2.0 * np.pi, size=size)",
           "rng.uniform(0.0, 2.0 * np.pi, size=BLOCK)[:size]", (_KS_DRAWS, _MI_EDGES)),
    Mutant("coin_type_unchecked", "src/kschannel/greedy.py",
           "isinstance(u, bool) or not isinstance(u, numbers.Real) or not", "not",
           ("tests/test_protocol.py::TestSender::test_coins_must_be_numbers",)),
    Mutant("percentiles_without_upper_branch", "src/kschannel/cli.py",
           "a + d * t if t < 0.5 else b - d * (1 - t)", "a + d * t",
           ("tests/test_cli.py::TestCodeBitStats::"
            "test_percentiles_are_numpy_percentile_bit_for_bit",)),
    Mutant("plugin_entropy_negative_zero", "src/kschannel/cli.py",
           "0.0 - float(np.sum(probs * np.log2(probs)))", "float(-np.sum(probs * np.log2(probs)))",
           ("tests/test_cli.py::TestCost::test_plugin_entropy_is_never_negative_zero",)),
]


def _within(nodeid: str, test: str) -> bool:
    """Whether the case ``nodeid`` is the node id ``test`` or one of its cases."""
    return nodeid == test or nodeid.startswith((test + "::", test + "["))


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file; a valid entry has exactly one."""
    return (ROOT / mutant.file).read_text().count(mutant.old)


def run(tests, mutant: Mutant | None = None) -> list:
    """'killed', 'survived', 'not run', 'timeout' or 'error (pytest exit N)' for each node id in
    ``tests``, all run by one pytest on one copy of the tree with ``mutant`` applied (none:
    the unchanged copy).  An id is killed when one of its cases is reported failed or in
    error, and survives when its cases all ran and passed."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if mutant is not None:
            path = tmp / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests]
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S * len(tests))
        except subprocess.TimeoutExpired:
            return ["timeout"] * len(tests)
    if proc.returncode not in (0, 1):
        return [f"error (pytest exit {proc.returncode})"] * len(tests)
    failed = {}   # case node id -> whether it failed, from lines "PASSED <id>", "FAILED <id> - ..."
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            case = rest.split(" - ")[0]
            failed[case] = failed.get(case, False) or word != "PASSED"
    outcomes = []
    for test in tests:
        cases = [bad for case, bad in failed.items() if _within(case, test)]
        outcomes.append("killed" if any(cases) else "survived" if cases else "not run")
    return outcomes


def main() -> None:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    broken = [m.name for m in MUTANTS if occurrences(m) != 1]
    if broken:
        print("old text not found exactly once: " + ", ".join(broken), file=sys.stderr)
        sys.exit(2)
    # a mutant counts as caught only if its tests pass without it
    tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    baseline = [(test, outcome) for test, outcome in zip(tests, run(tests))
                if outcome != "survived"]
    if baseline:
        print("the unchanged copy does not pass the registered tests: "
              + ", ".join(f"{test} ({outcome})" for test, outcome in baseline), file=sys.stderr)
        sys.exit(2)
    failed = errors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcomes = run(mutant.tests, mutant)
        missed = [(test, outcome) for test, outcome in zip(mutant.tests, outcomes)
                  if outcome != "killed"]
        failed += bool(missed)
        errors += any(outcome.startswith("error") or outcome == "not run" for outcome in outcomes)
        print(f"{'MISSED' if missed else 'caught'}  {mutant.name:42s} {len(outcomes):2d} ids "
              f"{time.perf_counter() - start:6.1f} s", flush=True)
        for test, outcome in missed:
            print(f"        {outcome:10s} {test}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants caught")
    sys.exit(2 if errors else 1 if failed else 0)


if __name__ == "__main__":
    main()
