"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single ``[acceptance] <name>: PASS/FAIL`` line (run
pytest with ``-s`` or ``-v`` to see them) and asserts the stated tolerance.
Budgets: every criterion here finishes in well under its allotted runtime
on a desktop.  The slowest is criterion 7 (about 2 s on a 2-vCPU VM); the
13x13 Born quadrature of criterion 2 takes about 1 s.
"""

import json
import time

import numpy as np
from scipy.integrate import quad

from kschannel import (Measurement, born_probability, code_lengths, elias_delta_decode,
                       elias_delta_encode, exact_ks_mi, mc_mutual_information, run_trials,
                       sphere_from_zphi)
from kschannel.cli import RunConfig, cmd_cost, cmd_mi, cmd_simulate, cmd_verify
from kschannel.quadrature import born_plus_integral
from oracles import greedy_sample_batch
from test_greedy import dp_output_distribution, random_rational_pair, total_variation

MI_EXACT = 1.2786524795555183


def check(name: str, passed: bool, detail: str):
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def test_criterion_1_mutual_information():
    start = time.perf_counter()
    exact = exact_ks_mi()
    closed_form_ok = abs(exact - (2.0 - 1.0 / (2.0 * np.log(2.0)))) <= 1e-12 \
        and abs(exact - MI_EXACT) <= 1e-12
    est = mc_mutual_information(1_000_000, np.random.default_rng(20250808))
    bracket_ok = abs(est.value - exact) <= 3.0 * est.std_error
    elapsed = time.perf_counter() - start
    check("1 mutual information",
          closed_form_ok and bracket_ok and elapsed <= 60.0,
          f"exact={exact:.12f}, mc={est.value:.5f}+/-{est.std_error:.5f}, {elapsed:.1f}s")


def test_criterion_2_born_rule_equivalence_quadrature():
    start = time.perf_counter()
    worst = 0.0
    angles = np.linspace(0.0, np.pi, 13)
    for a in angles:
        v = sphere_from_zphi(np.cos(a), 0.0)
        for b in angles:
            m = sphere_from_zphi(np.cos(b), 0.0)
            lhs = born_plus_integral(v, m)
            rhs = born_probability(v, Measurement(m))
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    check("2 Born-rule equivalence (13x13 quadrature)",
          worst <= 1e-6,
          f"max |quad - Born| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_end_to_end_protocol_fidelity():
    start = time.perf_counter()
    worst = 0.0
    details = []
    for dot in (-1.0, -0.5, 0.0, 0.5, 1.0):
        m = (float(np.sqrt(max(0.0, 1.0 - dot * dot))), 0.0, float(dot))
        cfg = RunConfig(command="simulate", trials=100_000, seed=1905, bins=4096,
                        state=(0.0, 0.0, 1.0), meas=m, out=None, format="json", workers=1)
        results, _ = cmd_simulate(cfg)
        err = abs(results["empirical_plus"] - results["born_plus"])
        worst = max(worst, err)
        details.append(f"{dot:+.1f}:{err:.4f}")
    elapsed = time.perf_counter() - start
    check("3 end-to-end protocol fidelity",
          worst <= 0.01 and elapsed <= 120.0,
          f"errors {' '.join(details)}, {elapsed:.1f}s")


def test_criterion_4_one_shot_cost_sandwich():
    start = time.perf_counter()
    batch = run_trials(62831853, 100_000, 4096)
    mean = float(np.mean(batch.code_bits))
    se = float(np.std(batch.code_bits, ddof=1) / np.sqrt(batch.n))
    upper = MI_EXACT + 2.0 * np.log2(MI_EXACT + 1.0) + 2.0 * np.log2(np.e)
    lo, hi = MI_EXACT - 3.0 * se, upper + 3.0 * se
    elapsed = time.perf_counter() - start
    check("4 one-shot cost sandwich",
          lo <= mean <= hi,
          f"mean={mean:.4f} bits in [{lo:.4f}, {hi:.4f}] (upper const {upper:.4f}), {elapsed:.1f}s")


def test_criterion_5_greedy_sampler_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(271828)
    worst_dp = 0.0
    worst_emp = 0.0
    for _ in range(100):
        target, proposal = random_rational_pair(rng)
        dist, residual = dp_output_distribution(target.masses, proposal.masses)
        assert residual < 1e-9
        worst_dp = max(worst_dp, total_variation(dist, target.masses) - residual)
        _, symbols = greedy_sample_batch(target, proposal, 100_000, rng)
        empirical = np.bincount(symbols, minlength=target.n) / 100_000
        worst_emp = max(worst_emp, total_variation(empirical, dist))
    elapsed = time.perf_counter() - start
    check("5 greedy sampler exactness (100 pairs)",
          worst_dp <= 1e-12 and worst_emp <= 0.01 and elapsed <= 300.0,
          f"max TV(dp,target)-residual = {worst_dp:.2e}, max TV(emp,dp) = {worst_emp:.4f}, "
          f"{elapsed:.1f}s")


def test_criterion_6_round1_acceptance_constant():
    # the constant is verifiable by quadrature independently of the protocol: the overlap
    # of rho(x) and rho(x|v), the integral of min(1/2, 2z) over heights z in [0, 1]
    quad_value = quad(lambda z: min(0.5, 2.0 * z), 0.0, 1.0, points=[0.25])[0]
    batch = run_trials(16180339, 100_000, 4096)
    rate = float(np.mean(batch.accepted_index == 1))
    check("6 round-1 acceptance constant",
          abs(quad_value - 7.0 / 16.0) <= 1e-9 and abs(rate - 7.0 / 16.0) <= 0.005,
          f"quadrature={quad_value:.6f}, empirical={rate:.4f} vs 7/16={7 / 16:.4f}")


def test_criterion_7_coding_layer():
    start = time.perf_counter()
    roundtrip_ok = all(elias_delta_decode(elias_delta_encode(i)) == i
                       for i in range(1, 1_000_001))
    lengths = (len(elias_delta_encode(1)), len(elias_delta_encode(2)),
               len(elias_delta_encode(15)))
    vector_lengths_ok = np.array_equal(
        code_lengths(np.arange(1, 65537)),
        [len(elias_delta_encode(i)) for i in range(1, 65537)])
    kraft = np.exp2(-code_lengths(np.arange(1, 2**16 + 1))).sum()
    elapsed = time.perf_counter() - start
    check("7 coding layer",
          roundtrip_ok and lengths == (1, 4, 8) and vector_lengths_ok and kraft <= 1.0,
          f"identity on 1..10^6, lengths(1,2,15)={lengths}, kraft(2^16)={kraft:.6f}, "
          f"{elapsed:.1f}s")


def test_criterion_8_determinism():
    outcomes = {}
    for command, runner in (("simulate", cmd_simulate), ("verify", cmd_verify),
                            ("mi", cmd_mi), ("cost", cmd_cost)):
        results = []
        for workers in (1, 4):
            cfg = RunConfig(command=command, trials=20_000, seed=424242, bins=512,
                            state=None, meas=None, out=None, format="json",
                            workers=workers)
            results.append(json.dumps(runner(cfg)[0], sort_keys=True))
        outcomes[command] = results[0] == results[1]
    check("8 determinism across runs and worker counts",
          all(outcomes.values()),
          "; ".join(f"{cmd} workers 1 vs 4 identical: {same}"
                    for cmd, same in outcomes.items()))
