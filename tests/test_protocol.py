import itertools
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from scipy.stats import kstest

from kschannel import (Codebook, Measurement, ProtocolFailure, born_probability,
                       elias_delta_decode, elias_delta_encode, greedy_one_shot,
                       random_unit_vec, rotate_to_frame, sphere_from_zphi, unit_vector)
from kschannel import protocol
from kschannel.protocol import (_SUB_ACCEPT, _SUB_CODEBOOK, _SUB_STATE, TrialBatch,
                                _ks_schedule, _sphere_point, _trial_keys, alice_send,
                                bin_index, bob_receive, discretize_ks, ks_bin_masses,
                                run_trial, run_trials, trial_codebook)
from kschannel.quadrature import min_overlap_integral
from kschannel.rngstream import counter_uniforms, mix, mix_vec


class TestBinning:
    def test_masses_sum_to_one(self):
        for bins in (2, 6, 16, 4096):
            assert abs(ks_bin_masses(bins).sum() - 1.0) <= 1e-12

    def test_two_bins_reduce_to_half_half_proposal(self):
        v = unit_vector(0.0, 0.0, 1.0)
        target, proposal, _ = discretize_ks(v, 2)
        assert np.array_equal(target.masses, [0.0, 1.0])
        assert np.array_equal(proposal.masses, [0.5, 0.5])

    def test_rejects_odd_or_tiny(self):
        for bad in (1, 3, 0):
            with pytest.raises(ValueError):
                ks_bin_masses(bad)

    def test_bin_index_edges(self):
        assert bin_index(-1.0, 8) == 0
        assert bin_index(1.0, 8) == 7
        assert bin_index(0.0, 8) == 4
        assert np.array_equal(bin_index(np.array([-0.999, 0.999]), 8), [0, 7])
        # heights a rounded dot product can reach just past [-1, 1], and far outside it
        tiny = np.nextafter(0.0, 1.0)
        edges = [np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0), -1e3, 1e3,
                 -tiny, 0.0, tiny, -1.0, 1.0]
        for bins in (2, 8, 4096):
            def clipped(z):
                idx = np.floor((np.asarray(z, dtype=float) + 1.0) * (bins / 2.0)).astype(np.int64)
                return np.clip(idx, 0, bins - 1)
            for z in edges:
                assert bin_index(z, bins) == clipped(z)
                assert type(bin_index(z, bins)) is type(clipped(z))
            got, want = bin_index(np.array(edges), bins), clipped(np.array(edges))
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert bin_index(np.nextafter(1.0, 2.0), bins) == bins - 1
            assert bin_index(np.nextafter(-1.0, -2.0), bins) == 0

    @pytest.mark.parametrize("bins", [16, 256, 4096])
    def test_binned_target_tv_error_bound(self, bins):
        # piecewise-constant approximation of the height density 2z on (0, 1]
        z = np.linspace(-1.0, 1.0, 2_000_001)[:-1] + 0.5e-6
        exact = np.where(z > 0, 2.0 * z, 0.0)
        masses = ks_bin_masses(bins)
        approx = masses[bin_index(z, bins)] * (bins / 2.0)
        tv = 0.5 * np.mean(np.abs(exact - approx)) * 2.0  # integral over [-1, 1]
        assert tv <= 1.0 / bins

    def test_binned_round1_acceptance_approaches_continuum(self):
        assert min_overlap_integral() == pytest.approx(7.0 / 16.0, abs=1e-9)
        for bins, tol in ((16, 2e-2), (256, 1e-4), (4096, 1e-6)):
            binned = np.minimum(1.0 / bins, ks_bin_masses(bins)).sum()
            assert binned == pytest.approx(7.0 / 16.0, abs=tol)


class TestCodebook:
    def test_entries_are_unit(self):
        cb = Codebook(seed=123456789)
        x = cb.entries(np.arange(1, 2001))
        assert np.max(np.abs(np.sum(x * x, axis=1) - 1.0)) <= 1e-12

    def test_bit_identical_across_instances(self):
        rng = np.random.default_rng(55)
        seeds = rng.integers(0, 2**63, size=100)
        idx = rng.integers(1, 2**31, size=100)
        for s, i in zip(seeds, idx):
            a = Codebook(seed=int(s)).entry(int(i))
            b = Codebook(seed=int(s)).entry(int(i))
            assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key, ctr", [(5, 3), (np.uint64(5), np.uint64(3)),
                                          (2**64 - 1, 2**64 - 1),
                                          (np.uint64(2**64 - 1), np.uint64(2**64 - 1))])
    def test_scalar_words_wrap_silently(self, key, ctr):
        # numpy scalar uint64 arithmetic warns on overflow where array arithmetic wraps
        word = mix_vec(key, ctr)
        assert isinstance(word, np.uint64) and word == mix(int(key), int(ctr))
        assert mix_vec(np.asarray(key), [ctr])[0] == word

    def test_scalar_and_vector_words_agree(self):
        rng = np.random.default_rng(56)
        keys = rng.integers(0, 2**63, size=10_000)
        ctrs = rng.integers(0, 2**62, size=10_000)
        vec = mix_vec(keys.astype(np.uint64), ctrs.astype(np.uint64))
        for k, c, w in zip(keys, ctrs, vec):
            assert mix(int(k), int(c)) == int(w)

    def test_random_access_matches_batch(self):
        cb = Codebook(seed=42)
        batch = cb.entries(np.arange(1, 101))
        for i in (1, 7, 50, 100):
            assert np.array_equal(cb.entry(i), batch[i - 1])

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            Codebook(seed=1).entry(0)

    @pytest.mark.parametrize("index", [0, -1, 2**63, 2**63 + 1, 2**64])
    def test_rejects_indices_outside_the_counter_range(self, index):
        # the counters 2i and 2i + 1 must not wrap around 2**64
        cb = trial_codebook(7, 0)
        with pytest.raises(ValueError, match="indexed in"):
            cb.entry(index)
        with pytest.raises(ValueError, match="indexed in"):
            cb.entries([1, index])
        if index >= 1:
            with pytest.raises(ValueError, match="indexed in"):
                bob_receive(elias_delta_encode(index), cb, Measurement(unit_vector(0, 0, 1)))

    def test_rejects_wrapped_unsigned_and_nan_indices(self):
        with pytest.raises(ValueError, match="indexed in"):
            Codebook(seed=1).entries(np.array([1, 2**63], dtype=np.uint64))
        with pytest.raises(ValueError, match="indexed in"):
            Codebook(seed=1).entries(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("index", [1.5, 2.9999, np.float64(3.5)])
    def test_rejects_fractional_indices(self, index):
        # truncating would hand out the entry of the integer below
        cb = trial_codebook(7, 0)
        with pytest.raises(ValueError, match="whole numbers"):
            cb.entry(index)
        with pytest.raises(ValueError, match="whole numbers"):
            cb.entries([1, index])

    @pytest.mark.parametrize("indices", [[True], np.array([True]), [1, True], (True, 2),
                                         [3, np.True_]],
                             ids=["list", "array", "mixed-list", "mixed-tuple", "numpy-bool"])
    def test_rejects_boolean_indices(self, indices):
        # numpy cannot compare a bool array with the 2**63 limit, so bools need their own check
        cb = trial_codebook(7, 0)
        with pytest.raises(ValueError, match="whole numbers"):
            cb.entries(indices)
        with pytest.raises(ValueError, match="whole numbers"):
            cb.entry(next(i for i in indices if isinstance(i, (bool, np.bool_))))

    def test_integral_floats_index_like_integers(self):
        cb = trial_codebook(7, 0)
        assert np.array_equal(cb.entries([1.0, 3.0]), cb.entries([1, 3]))
        assert np.array_equal(cb.entry(np.float64(2.0)), cb.entry(2))

    def test_largest_index_is_accepted(self):
        cb = trial_codebook(7, 0)
        top = 2**63 - 1
        assert np.array_equal(cb.entry(top), cb.entries(np.array([top], dtype=np.uint64))[0])
        assert not np.array_equal(cb.entry(top), cb.entry(1))


class TestSenderReceiver:
    def test_bitstring_reproducible(self):
        v = unit_vector(0.3, 0.2, 0.5)
        out = set()
        for _ in range(3):
            cb = Codebook(seed=777)
            bits, _ = alice_send(v, cb, 256, counter_uniforms(999))
            out.add(bits)
        assert len(out) == 1

    def test_wire_format_roundtrip(self):
        cb = trial_codebook(2024, 5)
        v = random_unit_vec(np.random.default_rng(1))
        bits, report = alice_send(v, cb, 512, counter_uniforms(3))
        assert set(bits) <= {"0", "1"}
        assert elias_delta_decode(bits) == report.accepted_index
        assert report.code_bits == len(bits) == len(elias_delta_encode(report.accepted_index))
        assert report.outcome is None and report.meas is None

    def test_receiver_uses_decoded_entry(self):
        cb = trial_codebook(2024, 9)
        v = random_unit_vec(np.random.default_rng(2))
        bits, report = alice_send(v, cb, 512, counter_uniforms(4))
        m = Measurement(random_unit_vec(np.random.default_rng(3)))
        outcome = bob_receive(bits, cb, m)
        x = cb.entry(report.accepted_index)
        assert outcome == (1 if float(x @ m.direction) >= 0.0 else -1)

    def test_accepted_point_lands_on_positive_heights(self):
        cb = trial_codebook(31337, 0)
        v = random_unit_vec(np.random.default_rng(4))
        bits, report = alice_send(v, cb, 512, counter_uniforms(5))
        assert float(cb.entry(report.accepted_index) @ v) > 0.0


class TestTrials:
    def test_scalar_matches_batch_rows(self):
        batch = run_trials(5150, 50, 1024)
        for t in range(50):
            rep = run_trial(5150, t, 1024)
            assert rep.accepted_index == batch.accepted_index[t]
            assert rep.code_bits == batch.code_bits[t]
            assert rep.outcome == batch.outcome[t]
            assert np.array_equal(rep.state, batch.states[t])
            assert np.array_equal(rep.meas, batch.meas[t])

    def test_worker_count_never_changes_results(self):
        a = run_trials(8888, 20_000, 512)
        b = run_trials(8888, 20_000, 512, workers=4)
        for field in ("states", "meas", "accepted_index", "code_bits", "outcome", "born",
                      "points"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_fixed_state_and_meas_are_broadcast(self):
        v = unit_vector(0.0, 0.6, 0.8)
        m = unit_vector(1.0, 0.0, 0.0)
        batch = run_trials(1, 100, 64, state=v, meas=m)
        assert np.all(batch.states == v)
        assert np.all(batch.meas == m)
        assert np.all(batch.born == born_probability(v, Measurement(m)))

    @pytest.mark.parametrize("dot", [-0.5, 0.0, 0.5])
    def test_end_to_end_born_conformance_quick(self, dot):
        rng = np.random.default_rng(60)
        v = random_unit_vec(rng)
        m = rotate_to_frame(sphere_from_zphi(dot, 0.0), v)
        batch = run_trials(414243, 20_000, 4096, state=v, meas=m)
        empirical = np.mean(batch.outcome == 1)
        assert empirical == pytest.approx(born_probability(v, Measurement(m)), abs=0.015)

    def test_perfectly_aligned_measurement_always_plus(self):
        v = unit_vector(0.1, -0.2, 0.3)
        batch = run_trials(9, 5_000, 4096, state=v, meas=v)
        assert np.all(batch.outcome == 1)

    def test_antipodal_measurement_always_minus(self):
        v = unit_vector(0.1, -0.2, 0.3)
        batch = run_trials(10, 5_000, 4096, state=v, meas=-v)
        assert np.all(batch.outcome == -1)

    def test_round1_acceptance_rate_quick(self):
        batch = run_trials(2718, 20_000, 4096)
        rate = np.mean(batch.accepted_index == 1)
        assert rate == pytest.approx(7.0 / 16.0, abs=0.015)

    def test_code_bits_match_elias_lengths(self):
        batch = run_trials(11, 2_000, 256)
        assert np.array_equal(batch.code_bits,
                              [len(elias_delta_encode(int(k))) for k in batch.accepted_index])

    def test_azimuth_about_state_is_uniform(self):
        # conditioned on any accepted bin the azimuth is untouched, so it is
        # uniform unconditionally; binning error lives only in the height
        v = random_unit_vec(np.random.default_rng(61))
        batch = run_trials(5050, 100_000, 64, state=v)
        e1 = rotate_to_frame(np.array([1.0, 0.0, 0.0]), v)
        e2 = rotate_to_frame(np.array([0.0, 1.0, 0.0]), v)
        phi = np.arctan2(batch.points @ e2, batch.points @ e1)
        stat = kstest(phi, "uniform", args=(-np.pi, 2 * np.pi)).statistic
        assert stat < 1.628 / np.sqrt(phi.size)

    def test_batch_points_are_the_codebook_entries(self):
        batch = run_trials(5050, 50, 64)
        for t in range(50):
            entry = trial_codebook(5050, t).entry(int(batch.accepted_index[t]))
            assert np.array_equal(batch.points[t], entry)

    def test_round_cap_propagates(self):
        with pytest.raises(ProtocolFailure):
            run_trials(3, 100, 4096, cap=1)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("fixed", [False, True], ids=["random", "fixed"])
    def test_zero_trials_give_empty_fields(self, workers, fixed):
        kw = ({"state": unit_vector(0.0, 0.6, 0.8), "meas": unit_vector(1.0, 0.0, 0.0)}
              if fixed else {})
        batch = run_trials(7, 0, 64, workers=workers, **kw)
        assert batch.n == 0
        for field, shape, dtype in [("states", (0, 3), np.float64), ("meas", (0, 3), np.float64),
                                    ("accepted_index", (0,), np.int64),
                                    ("code_bits", (0,), np.int64), ("outcome", (0,), np.int64),
                                    ("born", (0,), np.float64), ("points", (0, 3), np.float64)]:
            value = getattr(batch, field)
            assert (value.shape, value.dtype) == (shape, dtype), field

    @pytest.mark.parametrize("n, workers", [(0, 4), (1, 4), (8193, 2), (20_001, 3)])
    @pytest.mark.parametrize("fixed", [False, True], ids=["random", "fixed"])
    def test_uneven_spans_match_one_worker(self, n, workers, fixed):
        kw = ({"state": unit_vector(0.0, 0.6, 0.8), "meas": unit_vector(1.0, 0.0, 0.0)}
              if fixed else {})
        serial = run_trials(7, n, 64, workers=1, **kw)
        split = run_trials(7, n, 64, workers=workers, **kw)
        for field in fields(TrialBatch):
            a, b = getattr(serial, field.name), getattr(split, field.name)
            assert (a.shape, a.dtype) == (b.shape, b.dtype), field.name
            assert np.array_equal(a, b), field.name

    def test_threads_are_bounded_by_the_trial_count(self, monkeypatch):
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(protocol, "ThreadPoolExecutor", SerialPool)
        split = run_trials(7, 20_000, 64, workers=10**6)
        serial = run_trials(7, 20_000, 64, workers=1)
        assert asked == [3]   # ceil(20 000 / 8192) spans, not one per requested worker
        for field in fields(TrialBatch):
            assert np.array_equal(getattr(split, field.name), getattr(serial, field.name))


class TestBlockScan:
    # seed 19: trial 704 of the first 2000 accepts at round 1041 at 4096 bins, so
    # the scan runs wide multi-round blocks over bins that saturate late
    SEED = 19

    @pytest.mark.parametrize("bins", [4, 64, 4096])
    @pytest.mark.parametrize("fixed", [False, True])
    def test_rows_match_scalar_path(self, bins, fixed):
        kw = {"state": unit_vector(0.1, -0.2, 0.3), "meas": unit_vector(0.6, 0.0, 0.8)} \
            if fixed else {}
        batch = run_trials(self.SEED, 2000, bins, **kw)
        if bins == 4096 and not fixed:
            assert batch.accepted_index.max() > 1000
        deepest = np.argsort(batch.accepted_index, kind="stable")[-4:]
        for t in [*range(16), *deepest.tolist()]:
            rep = run_trial(self.SEED, t, bins, **kw)
            assert rep.accepted_index == batch.accepted_index[t]
            assert rep.code_bits == batch.code_bits[t]
            assert rep.outcome == batch.outcome[t]
            assert np.array_equal(rep.state, batch.states[t])
            assert np.array_equal(rep.meas, batch.meas[t])
            entry = trial_codebook(self.SEED, t).entry(rep.accepted_index)
            assert np.array_equal(batch.points[t], entry)
            # the wire sender reads the same schedule as the batch rows
            _, codebook, key = trial_inputs(self.SEED, t)
            _, sent = alice_send(rep.state, codebook, bins, counter_uniforms(key))
            assert sent.accepted_index == rep.accepted_index

    def test_round_cap_boundary(self):
        batch = run_trials(self.SEED, 2000, 4096)
        deepest = int(batch.accepted_index.max())
        capped = run_trials(self.SEED, 2000, 4096, cap=deepest)
        assert np.array_equal(capped.accepted_index, batch.accepted_index)
        with pytest.raises(ProtocolFailure):
            run_trials(self.SEED, 2000, 4096, cap=deepest - 1)


def trial_inputs(seed, t):
    """The state, codebook and coin key that run_trial derives for trial t."""
    trial = _trial_keys(seed, np.array([t], dtype=np.uint64))
    return (_sphere_point(mix_vec(trial, _SUB_STATE), 1)[0],
            Codebook(seed=int(mix_vec(trial, _SUB_CODEBOOK)[0])),
            int(mix_vec(trial, _SUB_ACCEPT)[0]))


class CountingCoins:
    """The counter coin stream of ``key``, counting the coins taken."""

    def __init__(self, key):
        self.taken = 0
        self._it = counter_uniforms(key)

    def __iter__(self):
        return self

    def __next__(self):
        self.taken += 1
        return next(self._it)


def reference_send(v, codebook, bins, coins, cap=1 << 32):
    """greedy_one_shot on the binned codebook stream, one round at a time."""
    target, proposal, binner = discretize_ks(v, bins)
    stream = (int(binner(codebook.entry(i))) for i in itertools.count(1))
    return greedy_one_shot(target, proposal, stream, coins, cap=cap)[0]


class TestTrialCodebook:
    def test_matches_the_vector_key_derivation(self):
        rng = np.random.default_rng(71)
        seeds = rng.integers(0, 2**63, size=50, dtype=np.uint64).tolist()
        trials = [0, 1, 2**63, 2**64 - 1,
                  *rng.integers(0, 2**64, size=200, dtype=np.uint64, endpoint=False).tolist()]
        for seed in seeds:
            want = mix_vec(_trial_keys(seed, np.array(trials, dtype=np.uint64)), _SUB_CODEBOOK)
            for t, key in zip(trials, want.tolist()):
                assert trial_codebook(seed, t).seed == key

    def test_accepts_numpy_integers(self):
        assert trial_codebook(5, np.uint64(2**64 - 1)) == trial_codebook(5, 2**64 - 1)
        assert trial_codebook(7, 3.0) == trial_codebook(7, 3)   # whole floats, as Codebook.entries

    @pytest.mark.parametrize("t", [-1, 2**64])
    def test_rejects_out_of_range_indices(self, t):
        with pytest.raises(ValueError):
            trial_codebook(5, t)

    @pytest.mark.parametrize("t", [1.5, True, np.True_, float("nan"), "1"])
    def test_rejects_non_integral_indices(self, t):
        # int() would truncate 1.5 to trial 1 and read True as trial 1
        with pytest.raises(ValueError, match="whole number"):
            trial_codebook(7, t)


class TestSender:
    SEED = 23

    @pytest.mark.parametrize("bins", [2, 64, 4096])
    def test_matches_scalar_reference(self, bins):
        # the first 200 trials plus the three deepest of 5000, whose indices pass 64
        deep = np.argsort(run_trials(self.SEED, 5000, bins).accepted_index, kind="stable")[-3:]
        indices = []
        for t in [*range(200), *deep.tolist()]:
            v, codebook, key = trial_inputs(self.SEED, t)
            sent, want = CountingCoins(key), CountingCoins(key)
            bits, report = alice_send(v, codebook, bins, sent)
            index = reference_send(v, codebook, bins, want)
            assert report.accepted_index == index
            assert bits == elias_delta_encode(index)
            assert sent.taken == want.taken == index
            indices.append(index)
        if bins > 2:
            assert max(indices) > 64

    def deep_trial(self):
        for t in itertools.count():
            v, codebook, key = trial_inputs(self.SEED, t)
            _, report = alice_send(v, codebook, 4096, counter_uniforms(key))
            if report.accepted_index >= 20:
                return v, codebook, key, report.accepted_index

    def test_round_cap(self):
        v, codebook, key, index = self.deep_trial()
        _, report = alice_send(v, codebook, 4096, counter_uniforms(key), cap=index)
        assert report.accepted_index == index
        for cap in (index - 1, 8, 1, 0):
            with pytest.raises(ProtocolFailure, match="no acceptance"):
                alice_send(v, codebook, 4096, counter_uniforms(key), cap=cap)

    def test_finite_coins(self):
        v, codebook, key, index = self.deep_trial()
        coins = list(itertools.islice(counter_uniforms(key), index))
        _, report = alice_send(v, codebook, 4096, coins)
        assert report.accepted_index == index
        for n in (index - 1, 8, 0):
            with pytest.raises(ProtocolFailure, match="exhausted"):
                alice_send(v, codebook, 4096, coins[:n])


class TestSharedSchedule:
    def test_one_schedule_per_bin_count(self):
        assert _ks_schedule(64) is _ks_schedule(64)
        assert _ks_schedule(64) is not _ks_schedule(4096)

    @pytest.mark.parametrize("bins", [64, 4096])
    def test_built_no_deeper_than_the_deepest_acceptance(self, bins):
        for seed in (19, 301):
            _ks_schedule.cache_clear()   # build the schedule from round 0
            batch = run_trials(seed, 10_000, bins)
            schedule = _ks_schedule(bins)
            assert schedule.depth == schedule.rounds == batch.accepted_index.max()
        _ks_schedule.cache_clear()
        deepest = 0
        for t in range(300):
            v, codebook, key = trial_inputs(7, t)
            _, report = alice_send(v, codebook, bins, counter_uniforms(key))
            deepest = max(deepest, report.accepted_index)
            assert _ks_schedule(bins).rounds == deepest

    def test_concurrent_senders_match_a_serial_run(self):
        def send(t):
            v, codebook, key = trial_inputs(31, t)
            bits, _ = alice_send(v, codebook, 4096, counter_uniforms(key))
            return bits

        def worker(k):
            for t in range(k, 400, 4):
                out[t] = send(t)

        _ks_schedule.cache_clear()
        serial = [send(t) for t in range(400)]
        _ks_schedule.cache_clear()
        out = {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # interleave the threads as finely as possible
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        finally:
            sys.setswitchinterval(switch)
        assert [out[t] for t in range(400)] == serial

    def test_worker_threads_match_a_serial_run(self):
        _ks_schedule.cache_clear()
        serial = run_trials(19, 20_000, 4096)
        _ks_schedule.cache_clear()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_trials(19, 20_000, 4096, workers=4)   # three spans, one thread each
        finally:
            sys.setswitchinterval(switch)
        for field in ("states", "meas", "accepted_index", "code_bits", "outcome", "born",
                      "points"):
            assert np.array_equal(getattr(serial, field), getattr(threaded, field))
