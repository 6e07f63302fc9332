import csv
import io
import json

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from kschannel import cli, require_unit


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--bins", "3"],
        ["simulate", "--bins", "0"],
        ["verify", "--state", "0,0,0"],
        ["verify", "--state", "1,2"],
        ["mi", "--trials", "-5"],
        ["cost", "--format", "xml"],
        ["notacommand"],
        ["simulate", "--state", "nan,0,1"],
        ["simulate", "--meas", "inf,0,1"],
        ["verify", "--state", "1e309,0,0"],
        ["simulate", "--bins", "1000000000"],
        ["simulate", "--bins", str(cli._MAX_BINS + 2)],
        ["verify", "--state"],
        ["mi", "--trials", "999"],
        ["mi", "--trials", "1"],
        *([command, "--seed", seed] for command in ("verify", "simulate", "mi", "cost")
          for seed in ("-1", str(1 << 64), str((1 << 65) - 1), "7.5", "x")),
    ])
    def test_bad_arguments_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1e200,1e200,0", "1e308,1e308,0"])
    def test_vector_with_overflowing_square_norm_parses(self, text):
        # the plain norm overflows; the direction is that of 1,1,0, bit for bit
        assert cli._vector_arg(text) == cli._vector_arg("1,1,0")
        assert cli._vector_arg(text) == pytest.approx((math.sqrt(0.5), math.sqrt(0.5), 0.0),
                                                      abs=1e-15)

    @pytest.mark.parametrize("text, want", [
        ("1e-300,0,0", (1.0, 0.0, 0.0)),
        ("1e-13,0,0", (1.0, 0.0, 0.0)),
        ("0,-5e-324,0", (0.0, -1.0, 0.0)),
        ("1e-300,1e-300,0", cli._vector_arg("1,1,0")),
    ])
    def test_tiny_vector_parses(self, text, want):
        # a norm below 1e-12 is scaled by the largest component first, as an overflowing one is
        assert cli._vector_arg(text) == want

    @pytest.mark.parametrize("text", ["0,0,0", "-0,0,-0"])
    def test_zero_vector_exits_2(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", f"--state={text}"])
        assert exc.value.code == 2
        assert "nonzero length" in capsys.readouterr().err

    def test_seed_range_ends_are_accepted(self):
        assert cli._seed_arg("0") == 0
        assert cli._seed_arg(str((1 << 64) - 1)) == (1 << 64) - 1

    def test_largest_bin_count_is_accepted(self):
        assert cli._bins_arg(str(cli._MAX_BINS)) == cli._MAX_BINS

    def test_negative_vector_components_parse(self, capsys):
        code, report = run_json(capsys, ["verify", "--trials", "4000", "--seed", "3",
                                         "--state", "-0.6,0,-0.8", "--mea", "-1,0,0"])
        assert code == 0
        assert report["config"]["state"] == [-0.6, 0.0, -0.8]
        assert report["config"]["meas"] == [-1.0, 0.0, 0.0]
        assert report["results"]["cells"][0]["born"] == pytest.approx(0.8, abs=1e-12)


class TestFlags:
    """Each command takes only the flags it reads."""

    _TAKES = {
        "verify": {"--trials", "--seed", "--state", "--meas", "--out", "--format"},
        "simulate": {"--trials", "--seed", "--bins", "--state", "--meas", "--out", "--format",
                     "--workers"},
        "mi": {"--trials", "--seed", "--out", "--format", "--workers"},
        "cost": {"--trials", "--seed", "--bins", "--state", "--meas", "--out", "--format",
                 "--workers"},
    }

    def test_each_command_takes_exactly_its_flags(self):
        commands = next(action.choices for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        takes = {name: {flag for action in sub._actions for flag in action.option_strings
                        if flag not in ("-h", "--help")}
                 for name, sub in commands.items()}
        assert takes == self._TAKES
        assert sum(map(len, takes.values())) == 27

    @pytest.mark.parametrize("argv", [["verify", "--bins", "64"], ["verify", "--workers", "2"],
                                      ["mi", "--bins", "64"], ["mi", "--state", "0,0,1"],
                                      ["mi", "--meas", "-0.6,0,0.8"]],
                             ids=["verify_bins", "verify_workers", "mi_bins", "mi_state",
                                  "mi_meas"])
    def test_a_flag_the_command_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: unrecognized arguments" in err and "Traceback" not in err

    def test_flags_a_command_lacks_are_null_in_its_config(self, capsys):
        _, verify = run_json(capsys, ["verify", "--trials", "1000"])
        _, mi = run_json(capsys, ["mi", "--trials", "1000"])
        assert (verify["config"]["bins"], verify["config"]["workers"]) == (None, None)
        assert (mi["config"]["bins"], mi["config"]["state"], mi["config"]["meas"]) == (None,) * 3

    def test_cost_results_do_not_read_meas(self, capsys):
        # cost keeps --meas although its results ignore it: a pinned benchmark run passes it
        argv = ["cost", "--trials", "3000", "--bins", "64", "--seed", "5", "--state", "0,0,1"]
        _, without = run_json(capsys, argv)
        _, pinned = run_json(capsys, [*argv, "--meas", "0.6,0,0.8"])
        assert pinned["config"]["meas"] == [0.6, 0.0, 0.8]
        assert without["results"] == pinned["results"]


# text the parsers meet: numbers in many spellings, their separators, and anything else
_NUMBERY = st.text(alphabet="0123456789+-.,eEinfatyINFATY_ \t\u0661\u00b2", max_size=40)
_ARG_TEXT = st.one_of(st.text(max_size=40), _NUMBERY,
                      st.builds(lambda *c: ",".join(map(repr, c)), st.floats(), st.floats(),
                                st.floats()),
                      st.integers().map(str))


def _parsed_or_rejected(parse, text):
    """parse(text), or None when it raises ArgumentTypeError (any other exception propagates)."""
    try:
        return parse(text)
    except argparse.ArgumentTypeError:
        return None


class TestArgumentFuzz:
    @settings(max_examples=400)
    @given(_ARG_TEXT)
    def test_vector_arg(self, text):
        v = _parsed_or_rejected(cli._vector_arg, text)
        if v is not None:
            assert isinstance(v, tuple) and len(v) == 3
            assert all(isinstance(c, float) and math.isfinite(c) for c in v)
            require_unit(np.array(v))

    @settings(max_examples=400)
    @given(_ARG_TEXT)
    def test_bins_arg(self, text):
        bins = _parsed_or_rejected(cli._bins_arg, text)
        if bins is not None:
            assert isinstance(bins, int) and bins % 2 == 0 and 2 <= bins <= cli._MAX_BINS

    @pytest.mark.parametrize("parse, least", [(cli._positive_int, 1),
                                              (cli._mi_trials, cli.MIN_MI_SAMPLES)])
    @settings(max_examples=400)
    @given(text=_ARG_TEXT)
    def test_trial_counts(self, parse, least, text):
        value = _parsed_or_rejected(parse, text)
        if value is not None:
            assert isinstance(value, int) and value >= least


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, report = run_json(capsys, ["verify", "--trials", "4000", "--seed", "3"])
        assert code == 0
        cells = report["results"]["cells"]
        assert len(cells) == 13
        assert cells[0]["v_dot_m"] == pytest.approx(-1.0, abs=1e-12)
        assert cells[-1]["born"] == pytest.approx(1.0, abs=1e-12)
        for cell in cells:
            assert cell["n"] == 4000
            assert cell["passed"]
        assert report["version"] == "0.1.0"
        assert report["config"]["command"] == "verify"

    def test_fixed_state_and_meas_single_cell(self, capsys):
        # v.m = 0.6 pins the Born column at 0.8
        code, report = run_json(capsys, [
            "verify", "--trials", "4000", "--state", "0,0,1", "--meas", "0.8,0,0.6"])
        assert code == 0
        cells = report["results"]["cells"]
        assert len(cells) == 1
        assert cells[0]["born"] == pytest.approx(0.8, abs=1e-12)
        assert cells[0]["abs_error"] <= 3.0 * cells[0]["std_error"]

    def test_fixed_meas_sweeps_the_state_instead(self, capsys):
        code, report = run_json(capsys, ["verify", "--trials", "4000", "--meas", "0,1,0"])
        assert code == 0
        cells = report["results"]["cells"]
        assert len(cells) == 13
        dots = [c["v_dot_m"] for c in cells]
        assert dots == pytest.approx(list(np.linspace(-1, 1, 13)), abs=1e-9)

    def test_full_budget_sweep_all_cells_within_3sigma(self, capsys):
        code, report = run_json(capsys, ["verify", "--trials", "1000000", "--seed", "19"])
        assert code == 0
        assert all(c["passed"] for c in report["results"]["cells"])


class TestSimulate:
    def test_report_shape_and_checks(self, capsys):
        code, report = run_json(capsys, [
            "simulate", "--trials", "4000", "--bins", "1024", "--seed", "12"])
        assert code == 0
        res = report["results"]
        assert res["n"] == 4000
        assert {"mean", "p50", "p99", "max", "n"} <= res["code_bits"].keys()
        assert res["cost_sandwich"]["lower_bits"] == pytest.approx(1.2786524795555183)
        assert res["cost_sandwich"]["upper_bits"] == pytest.approx(6.5404, abs=1e-3)
        assert all(c["passed"] for c in res["checks"])

    def test_deterministic_given_seed(self, capsys):
        _, a = run_json(capsys, ["simulate", "--trials", "3000", "--seed", "77"])
        _, b = run_json(capsys, ["simulate", "--trials", "3000", "--seed", "77"])
        a.pop("runtime_seconds"), b.pop("runtime_seconds")
        assert a == b

    def test_workers_do_not_change_output(self, capsys):
        # simulate: 98304 trials are three 2**15-trial spans at four workers; mi: 300000
        # are two chunks, the second of 37856 rows (verify takes no --workers)
        for argv in (["simulate", "--trials", str(3 << 15), "--seed", "5"],
                     ["mi", "--trials", "300000", "--seed", "5"]):
            _, a = run_json(capsys, [*argv, "--workers", "1"])
            _, b = run_json(capsys, [*argv, "--workers", "4"])
            assert a["results"] == b["results"], argv[0]
            assert (a["config"]["workers"], b["config"]["workers"]) == (1, 4)
            assert a["config"]["seed"] == b["config"]["seed"]


class TestCodeBitStats:
    def test_percentiles_are_numpy_percentile_bit_for_bit(self):
        # every size from 1 to 400 (code lengths, small and wide ranges) and the trial
        # counts of the benchmark and of the default run, against np.percentile
        rng = np.random.default_rng(50)
        arrays = [rng.integers(1, high, size=n)
                  for n in range(1, 401) for high in (3, 30, 2**40)]
        arrays += [rng.integers(1, 40, size=n) for n in (8192, 16384, 10**5)]
        arrays += [np.full(7, 5), np.arange(-3, 3), np.array([2**53, -2**53, 17])]
        for x in arrays:
            for qs in ([50, 99], [0, 25, 75, 100]):
                want = np.percentile(x, qs)
                got = np.array(cli._percentiles(x, qs))
                assert got.tobytes() == want.tobytes(), (x.size, qs)
        assert len(arrays) >= 1000


class TestWorkers:
    """--workers on every command that takes it: its default, and how many threads each
    run asks for.

    The serial pool records each thread pool a run asks for and starts no thread."""

    _PINNED = ["--state", "0.6,0,-0.8", "--meas", "-0.36,0.48,0.8"]

    def test_default_is_the_usable_cpu_count(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        for command in ("simulate", "mi", "cost"):
            assert cli.build_parser().parse_args([command]).workers == cpus
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert cli.build_parser().parse_args(["mi"]).workers == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli.build_parser().parse_args(["mi"]).workers == 1

    def test_verify_starts_no_pool(self, capsys, serial_pool):
        # 16 blocks in the one cell, all counted on the calling thread
        code, _ = run_json(capsys, ["verify", "--trials", "250000", "--seed", "3", *self._PINNED])
        assert code == 0
        assert serial_pool == []

    def test_mi_chunks_ask_at_most_one_thread_per_block(self, capsys, serial_pool):
        _, split = run_json(capsys, ["mi", "--trials", "300000", "--seed", "3",
                                     "--workers", "1000000"])
        # one pool per chunk: 262144 rows (16 blocks), then 37856 rows (3 blocks, the
        # last one short)
        assert serial_pool == [16, 3]
        _, serial = run_json(capsys, ["mi", "--trials", "300000", "--seed", "3", "--workers", "1"])
        assert split["results"] == serial["results"]

    @pytest.mark.parametrize("argv", [["verify", "--trials", "1000"],
                                      ["verify", "--trials", "1000", *_PINNED],
                                      ["mi", "--trials", "1000", "--workers", "4"],
                                      ["simulate", "--trials", "1000", "--workers", "4"],
                                      ["cost", "--trials", "1000", "--bins", "64",
                                       "--workers", "4"]],
                             ids=["verify", "verify_pinned", "mi", "simulate", "cost"])
    def test_one_block_runs_start_no_pool(self, capsys, serial_pool, argv):
        code, _ = run_json(capsys, argv)
        assert code == 0
        assert serial_pool == []


class TestMi:
    def test_fields_and_bracket(self, capsys):
        code, report = run_json(capsys, ["mi", "--trials", "50000", "--seed", "2"])
        assert code == 0
        res = report["results"]
        assert res["exact_bits"] == pytest.approx(1.2786524795555183, abs=1e-12)
        assert res["conditional_entropy_bits"] == pytest.approx(2.37284365, abs=1e-6)
        assert res["marginal_entropy_bits"] == pytest.approx(3.65149613, abs=1e-6)
        assert res["mc"]["n"] == 50000
        assert abs(res["mc"]["value"] - res["exact_bits"]) <= 3 * res["mc"]["std_error"]


class TestCost:
    def test_histograms_and_references(self, capsys):
        code, report = run_json(capsys, ["cost", "--trials", "20000", "--seed", "4"])
        assert code == 0
        res = report["results"]
        hist = res["index_histogram"]
        assert sum(hist.values()) == 20000
        assert res["plugin_entropy_bits"] <= res["code_bits"]["mean"]
        ref_bits = {row["protocol"]: row["bits"] for row in res["reference_costs"]}
        assert ref_bits["toner_bacon_single_shot"] == 2.0
        assert ref_bits["toner_bacon_amortized"] == 1.85
        assert ref_bits["cerf_gisin_massar_average"] == 2.19
        assert ref_bits["hemisphere_model_parallel_limit"] == pytest.approx(1.27865248, abs=1e-8)
        assert res["round1_acceptance"]["exact_continuum"] == 7 / 16

    @pytest.mark.parametrize("trials", [1, 2])
    def test_plugin_entropy_is_never_negative_zero(self, capsys, trials):
        # with every trial accepted at one index the sum of p log p is 0.0, which the
        # entropy printed as -0.0
        code, out = run_cli(capsys, ["cost", "--trials", str(trials), "--bins", "64",
                                     "--format", "json"])
        assert code in (0, 1)
        report = json.loads(out)
        assert math.copysign(1.0, report["results"]["plugin_entropy_bits"]) == 1.0
        assert "-0.0" not in out


class TestOutputFormats:
    def test_csv_and_json_contain_the_same_numbers(self, capsys):
        _, report = run_json(capsys, ["cost", "--trials", "3000", "--seed", "8"])
        code, out = run_cli(capsys, ["cost", "--trials", "3000", "--seed", "8",
                                     "--format", "csv"])
        assert code == 0
        skip = {"runtime_seconds", "config.format"}  # legitimately differ between the runs
        rows = dict(csv.reader(io.StringIO(out)))
        rows.pop("metric")  # header
        for key in skip:
            rows.pop(key)
        flat = {k: v for k, v in cli._flatten(report) if k not in skip}
        assert set(rows) == set(flat)
        for key, value in flat.items():
            if isinstance(value, bool):
                assert rows[key] == str(value)
            elif isinstance(value, float):
                assert float(rows[key]) == value
            elif value is None:
                assert rows[key] == ""
            else:
                assert rows[key] == str(value)

    def test_out_file_written(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = cli.main(["mi", "--trials", "2000", "--out", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["config"]["command"] == "mi"

    def test_unwritable_out_path_exits_3(self, capsys):
        code = cli.main(["mi", "--trials", "2000", "--out", "/nonexistent/dir/report.json"])
        assert code == 3

    def test_check_failure_maps_to_exit_1(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "mi", lambda cfg: ({"checks": []}, False))
        assert cli.main(["mi"]) == 1

    def test_protocol_failure_maps_to_exit_3(self, capsys, monkeypatch):
        def boom(cfg):
            raise cli.ProtocolFailure("no acceptance")
        monkeypatch.setitem(cli._COMMANDS, "simulate", boom)
        assert cli.main(["simulate"]) == 3

    def test_memory_error_maps_to_exit_3(self, capsys, monkeypatch):
        def boom(cfg):
            raise MemoryError
        monkeypatch.setitem(cli._COMMANDS, "simulate", boom)
        assert cli.main(["simulate"]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_non_finite_result_is_not_written_as_json(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "mi", lambda cfg: ({"value": float("nan")}, True))
        assert cli.main(["mi"]) == 3
        assert capsys.readouterr().out == ""


def test_mean_index_consistency(capsys):
    # the simulate report's mean index and code-bit mean come from the same trials
    _, report = run_json(capsys, ["simulate", "--trials", "5000", "--seed", "31"])
    res = report["results"]
    assert res["mean_index"] >= 1.0
    assert res["code_bits"]["mean"] >= 1.0


_NO_SCIPY_RUN = """
import contextlib, io, sys
from kschannel import (Measurement, cli, conditional_entropy_ks, exact_ks_mi,
                       marginal_entropy_ks, unit_vector)
from kschannel.protocol import alice_send, bob_receive, trial_codebook
from kschannel.rngstream import counter_uniforms

with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["verify", "--trials", "1000"], ["mi", "--trials", "1000"],
                 ["simulate", "--trials", "64", "--bins", "64"],
                 ["cost", "--trials", "64", "--bins", "64"]):
        assert cli.main(argv) == 0, argv
cb = trial_codebook(7, 0)
bits, _ = alice_send(unit_vector(0.3, 0.2, 0.5), cb, 64, counter_uniforms(1))
bob_receive(bits, cb, Measurement(unit_vector(0, 0, 1)))
exact_ks_mi(), conditional_entropy_ks(), marginal_entropy_ks()
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_commands_and_wire_trial_never_import_scipy():
    # scipy is only a test dependency: every command, the wire trial and the closed
    # forms run on numpy alone; a fresh process keeps imports made by other tests out
    # of sys.modules
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_NO_MASKED_ARRAYS_RUN = """
import contextlib, io, sys
from kschannel import cli

with contextlib.redirect_stdout(io.StringIO()):
    for command in ("simulate", "cost"):   # one trial may fail a check (exit 1), not run
        assert cli.main([command, "--trials", "1", "--bins", "64"]) in (0, 1), command
print("numpy.ma" in sys.modules)
"""


def test_protocol_commands_never_import_masked_arrays():
    # np.percentile's np.unique imported numpy.ma on a process's first call; the code-bit
    # percentiles come from one np.partition instead
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
