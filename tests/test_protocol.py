import itertools
import json
import sys
import threading
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from kschannel import (Codebook, Measurement, ProtocolFailure, born_probability,
                       elias_delta_decode, elias_delta_encode, greedy_one_shot,
                       random_unit_vec, rotate_to_frame, sphere_from_zphi, unit_vector)
from kschannel import cli, protocol
from kschannel.geometry import BLOCK, ESTIMATE_BAND, born_from_dot, dot3, dot_estimate
from kschannel.greedy import DiscreteDistribution
from kschannel.model import ks_density, ks_response, ks_sample
from kschannel.protocol import (_SUB_ACCEPT, _SUB_CODEBOOK, _SUB_MEAS, _SUB_STATE,
                                TrialBatch, _ks_laws, _ks_schedule, _sphere_point, _trial_root,
                                alice_send, bin_index, bob_receive, ks_bin_masses,
                                run_trials, trial_codebook)
from kschannel.rngstream import GOLDEN, counter_uniforms, finalize64, mix, mix_vec
import oracles
from oracles import run_trial


def rows(batch, meas=None):
    """A batch's four per-trial row arrays by name: the sender's two, then ``answer(meas)``'s."""
    outcome, born = batch.answer(meas)
    return {"accepted_index": batch.accepted_index, "code_bits": batch.code_bits,
            "outcome": outcome, "born": born}


#: every public entry point that takes one vector, called with ``vec`` in that place
VECTOR_ENTRY_POINTS = {
    "run_trials": lambda vec: run_trials(1, 3, 64, state=vec),
    "answer": lambda vec: run_trials(1, 3, 64).answer(vec),
    "alice_send": lambda vec: alice_send(vec, trial_codebook(1, 0), 64, itertools.repeat(0.5)),
    "Measurement": Measurement,
    "born_probability": lambda vec: born_probability(vec, Measurement([0.0, 0.0, 1.0])),
    "ks_density": lambda vec: ks_density([0.0, 0.0, 1.0], vec),
    "ks_sample": lambda vec: ks_sample(vec, np.random.default_rng(0), 3),
}


@pytest.mark.parametrize("entry", list(VECTOR_ENTRY_POINTS))
@pytest.mark.parametrize("vec", [Measurement([0.0, 0.0, 1.0]), {"x": 1.0}, object()],
                         ids=["Measurement", "dict", "object"])
def test_vectors_that_are_not_numbers_raise_value_error(entry, vec):
    # numpy raised its TypeError for these, though the rule is ValueError; a Measurement
    # is refused as a vector too, where bob_receive takes one as the measurement
    with pytest.raises(ValueError, match="must be numbers"):
        VECTOR_ENTRY_POINTS[entry](vec)


class TestBinning:
    def test_masses_sum_to_one(self):
        for bins in (2, 6, 16, 4096):
            assert abs(ks_bin_masses(bins).sum() - 1.0) <= 1e-12

    def test_two_bins_reduce_to_half_half_proposal(self):
        target, proposal = _ks_laws(2)
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
        # round 1 accepts with probability the overlap of rho(x) and rho(x|v) on the sphere,
        # the integral of min(1/2, 2z) over heights z in [0, 1]
        overlap = quad(lambda z: min(0.5, 2.0 * z), 0.0, 1.0, points=[0.25])[0]
        assert overlap == pytest.approx(7.0 / 16.0, abs=1e-9)
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

    @pytest.mark.parametrize("key, n", [
        (2**64 - 12345, np.arange(7, dtype=np.uint64)),
        (np.arange(5, dtype=np.uint64), 2**63 + 3),
        (np.arange(9, dtype=np.uint64), np.arange(2 * 4, dtype=np.uint64).reshape(2, 4, 1)),
        (np.arange(3, dtype=np.uint64), np.zeros((2, 0, 1), dtype=np.uint64)),
        (np.zeros(0, dtype=np.uint64), 5),
    ], ids=["scalar_key", "scalar_counter", "counter_2_w_1", "no_rows", "no_keys"])
    def test_out_and_scratch_keep_the_words(self, key, n):
        # given buffers of leftover words, the hash writes the words of mix_vec(key, n) into
        # out and returns it; the counters may be read from the scratch's own leading words,
        # as the codebook draws pass them
        rng = np.random.default_rng(58)
        key = np.asarray(key, dtype=np.uint64) * np.uint64(GOLDEN)
        want = mix_vec(key, n)
        ctr = np.asarray(n, dtype=np.uint64)
        for shared in (False, True):
            out, scratch = rng.integers(0, 2**64, (2, want.size + ctr.size), dtype=np.uint64,
                                        endpoint=False)
            counters = scratch[:ctr.size].reshape(ctr.shape) if shared else ctr.copy()
            counters[...] = ctr
            into = out[:want.size].reshape(want.shape)
            got = mix_vec(key, counters, out=into, scratch=scratch[:want.size].reshape(want.shape))
            assert got is into and np.array_equal(got, want)

    def test_mix_is_the_finalizer_applied_twice(self):
        # mix writes both finalize64 passes out in one body; keys and counters count mod
        # 2**64, so words past it and negative ones hash as their residues
        rng = np.random.default_rng(57)
        keys = [0, 1, 2**63, 2**64 - 1, 2**64, 2**64 + 5, 2**70 + 3, -1, -2**63, -2**64 - 7,
                *rng.integers(0, 2**64, size=150, dtype=np.uint64, endpoint=False).tolist()]
        ctrs = [0, 1, 2**63, 2**64 - 1, 2**64, -1,
                *rng.integers(0, 2**64, size=150, dtype=np.uint64, endpoint=False).tolist()]
        for key in keys:
            for n in ctrs:
                word = mix(key, n)
                assert type(word) is int and 0 <= word < 2**64
                assert word == finalize64(finalize64(key + GOLDEN * n) ^ key), (key, n)

    def test_scalar_and_vector_words_agree(self):
        rng = np.random.default_rng(56)
        keys = rng.integers(0, 2**63, size=10_000)
        ctrs = rng.integers(0, 2**62, size=10_000)
        vec = mix_vec(keys.astype(np.uint64), ctrs.astype(np.uint64))
        for k, c, w in zip(keys, ctrs, vec):
            assert mix(int(k), int(c)) == int(w)

    @pytest.mark.parametrize("key_shape, ctr_shape", [((), ()), ((), (40,)), ((7,), (2, 5, 7))])
    def test_in_place_hash_matches_mix_and_leaves_its_inputs(self, key_shape, ctr_shape):
        # 0-d words; one key over many counters; the (active,) keys over the
        # (2, width, active) counter words of a codebook block
        rng = np.random.default_rng(sum(ctr_shape) + 1)
        keys = rng.integers(0, 2**64, size=key_shape, dtype=np.uint64, endpoint=False)
        ctrs = rng.integers(0, 2**64, size=ctr_shape, dtype=np.uint64, endpoint=False)
        keys_before, ctrs_before = keys.copy(), ctrs.copy()
        words = mix_vec(keys, ctrs)
        assert np.shape(words) == np.broadcast_shapes(key_shape, ctr_shape)
        assert np.array_equal(keys, keys_before) and np.array_equal(ctrs, ctrs_before)
        for (k, c), w in zip(np.broadcast(keys, ctrs), np.ravel(words)):
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


class TestScalarPaths:
    """The wire path's Python-float point and answer equal the numpy ones bit for bit."""

    def test_entry_matches_entries(self):
        rng = np.random.default_rng(81)
        cb = Codebook(seed=int(rng.integers(2**63)))
        indices = [*rng.integers(1, 2**63, size=5000).tolist(),
                   *rng.integers(1, 2**16, size=5000).tolist(), 1, 2, 2**62, 2**63 - 1]
        batch = cb.entries(indices)
        for i, want in zip(indices, batch, strict=True):
            assert cb.entry(i).tobytes() == want.tobytes()

    def test_receiver_matches_ks_response(self):
        rng = np.random.default_rng(82)
        cb = trial_codebook(82, 0)
        indices = rng.integers(1, 2**16, size=2000)
        points = cb.entries(indices)
        # measurements at random, and orthogonal to the point, where x.m is a few ulp
        # either side of 0 and the tie rule (0 answers +1) decides
        rows = len(points)
        crossed = np.cross(points, random_unit_vec(rng, rows))
        level = np.stack([-points[:, 1], points[:, 0], np.zeros(rows)], axis=1)
        for meas in (random_unit_vec(rng, rows), crossed, level):
            meas = meas / np.linalg.norm(meas, axis=1, keepdims=True)
            want = ks_response(points, Measurement(meas))
            got = [bob_receive(elias_delta_encode(int(i)), cb, Measurement(m))
                   for i, m in zip(indices, meas)]
            assert got == want.tolist()
            assert set(got) == {1, -1}

    def test_one_vector_of_shape_3_or_1_by_3(self):
        v, codebook, key = trial_inputs(5, 0)
        m = unit_vector(0.6, 0.0, 0.8)
        bits, _ = alice_send(v, codebook, 64, counter_uniforms(key))
        outcome = bob_receive(bits, codebook, Measurement(m))
        assert alice_send(v[None], codebook, 64, counter_uniforms(key))[0] == bits
        assert bob_receive(bits, codebook, Measurement(m[None])) == outcome
        with pytest.raises(ValueError):   # None is no state, though run_trial draws one for it
            alice_send(None, codebook, 64, counter_uniforms(key))
        for shape in ((2, 3), (1, 1, 3), (0, 3)):
            with pytest.raises(ValueError):
                alice_send(np.broadcast_to(v, shape), codebook, 64, counter_uniforms(key))
            with pytest.raises(ValueError):
                bob_receive(bits, codebook, Measurement(np.broadcast_to(m, shape)))

    def test_alice_send_keeps_a_1_by_3_state_as_its_row(self):
        # the report kept the (1, 3) state as given, where run_trial keeps its (3,) row
        v, codebook, key = trial_inputs(5, 0)
        want = alice_send(v, codebook, 64, counter_uniforms(key))
        got = alice_send(v[None], codebook, 64, counter_uniforms(key))
        assert got[0] == want[0] and got[1].accepted_index == want[1].accepted_index
        assert got[1].state.shape == want[1].state.shape == (3,)
        assert got[1].state.tobytes() == v.tobytes() and got[1].state is not v

    @pytest.mark.parametrize("bins", [2, 64, 4096])
    def test_run_trial_takes_a_1_by_3_state_as_its_row(self, bins):
        # a (1, 3) state raised TypeError: int() of the one-element array of each bin
        v = unit_vector(0.36, -0.48, 0.8)
        want = run_trial(7, 3, bins, state=v)
        got = run_trial(7, 3, bins, state=v[None])
        assert got.state.shape == (3,) and got.state.tobytes() == want.state.tobytes()
        assert got.meas.tobytes() == want.meas.tobytes()
        assert ((got.accepted_index, got.code_bits, got.outcome)
                == (want.accepted_index, want.code_bits, want.outcome))
        for shape in ((2, 3), (1, 1, 3), (0, 3)):
            with pytest.raises(ValueError):
                run_trial(7, 3, bins, state=np.broadcast_to(v, shape))
        # and a (1, 3) measurement, which the report kept as given
        m = unit_vector(0.6, 0.0, -0.8)
        want = run_trial(7, 3, bins, state=v, meas=m)
        got = run_trial(7, 3, bins, state=v[None], meas=m[None])
        assert got.meas.shape == (3,) and got.meas.tobytes() == want.meas.tobytes()
        assert got.state.tobytes() == want.state.tobytes()
        assert ((got.accepted_index, got.code_bits, got.outcome)
                == (want.accepted_index, want.code_bits, want.outcome))
        for shape in ((2, 3), (1, 1, 3), (0, 3)):
            with pytest.raises(ValueError, match="measurement"):
                run_trial(7, 3, bins, state=v, meas=np.broadcast_to(m, shape))

    @pytest.mark.parametrize("meas", [[0, 0, 2], [[0.0, 0.0, 1.0]] * 2], ids=["non_unit", "2_by_3"])
    def test_run_trial_checks_the_measurement_before_the_sender_runs(self, monkeypatch, meas):
        # the sender loop can run long, so a bad measurement must fail before it starts
        def sender(*_):
            raise AssertionError("the sender ran before the measurement was checked")

        monkeypatch.setattr(oracles, "greedy_one_shot", sender)
        with pytest.raises(ValueError, match="measurement"):
            run_trial(7, 0, 64, meas=meas)


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
        outcome, born = batch.answer()
        for t in range(50):
            rep = run_trial(5150, t, 1024)
            assert rep.accepted_index == batch.accepted_index[t]
            assert rep.code_bits == batch.code_bits[t]
            assert rep.outcome == outcome[t]
            # the batch keeps no inputs: its Born row holds them to the scalar path's, bit
            # for bit
            assert born[t] == born_from_dot(dot3(rep.state, rep.meas))

    def test_worker_count_never_changes_results(self):
        a = rows(run_trials(8888, 20_000, 512))
        b = rows(run_trials(8888, 20_000, 512, workers=4))
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_fixed_state_and_meas_are_broadcast(self):
        v = unit_vector(0.0, 0.6, 0.8)
        m = unit_vector(1.0, 0.0, 0.0)
        batch = run_trials(1, 100, 64, state=v)
        outcome, born = batch.answer(m)
        # the batch keeps no inputs: each row's Born probability and outcome are those of
        # the fixed pair, the outcome the receiver's answer from the accepted entry
        assert born.shape == (100,) and born.dtype == np.float64
        assert np.all(born == born_probability(v, Measurement(m)))
        for t in range(100):
            i = int(batch.accepted_index[t])
            answer = bob_receive(elias_delta_encode(i), trial_codebook(1, t), Measurement(m))
            assert outcome[t] == answer

    @pytest.mark.parametrize("bins", [64, 4096])
    def test_fixed_1_by_3_inputs_run_as_their_rows(self, bins):
        # a (1, 3) state raised IndexError in the scan's exact fallback, which took it for
        # one state per run; a (2, 3) state raised numpy's broadcast error
        v = unit_vector(0.0, 0.0, 1.0)
        m = unit_vector(0.6, 0.0, -0.8)
        want = rows(run_trials(7, 4000, bins, state=v), m)
        for state, meas in ((v[None], m), (v, m[None]), (v[None], m[None])):
            got = rows(run_trials(7, 4000, bins, state=state), meas)
            for name, b in want.items():
                a = got[name]
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for shape in ((2, 3), (1, 1, 3)):
            with pytest.raises(ValueError, match="^state must be one vector"):
                run_trials(7, 10, bins, state=np.broadcast_to(v, shape))
            with pytest.raises(ValueError, match="^measurement direction must be one vector"):
                run_trials(7, 10, bins).answer(np.broadcast_to(m, shape))

    @pytest.mark.parametrize("dot", [-0.5, 0.0, 0.5])
    def test_end_to_end_born_conformance_quick(self, dot):
        rng = np.random.default_rng(60)
        v = random_unit_vec(rng)
        m = rotate_to_frame(sphere_from_zphi(dot, 0.0), v)
        outcome, _ = run_trials(414243, 20_000, 4096, state=v).answer(m)
        empirical = np.mean(outcome == 1)
        assert empirical == pytest.approx(born_probability(v, Measurement(m)), abs=0.015)

    def test_perfectly_aligned_measurement_always_plus(self):
        v = unit_vector(0.1, -0.2, 0.3)
        outcome, _ = run_trials(9, 5_000, 4096, state=v).answer(v)
        assert np.all(outcome == 1)

    def test_antipodal_measurement_always_minus(self):
        v = unit_vector(0.1, -0.2, 0.3)
        outcome, _ = run_trials(10, 5_000, 4096, state=v).answer(-v)
        assert np.all(outcome == -1)

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
        points = np.array([trial_codebook(5050, t).entry(i)
                           for t, i in enumerate(batch.accepted_index.tolist())])
        e1 = rotate_to_frame(np.array([1.0, 0.0, 0.0]), v)
        e2 = rotate_to_frame(np.array([0.0, 1.0, 0.0]), v)
        phi = np.arctan2(points @ e2, points @ e1)
        stat = kstest(phi, "uniform", args=(-np.pi, 2 * np.pi)).statistic
        assert stat < 1.628 / np.sqrt(phi.size)

    def test_batch_points_are_the_codebook_entries(self):
        # (name kept so its id stays stable; the batch no longer carries the points)
        # each outcome is the receiver's answer from the accepted entry, which the
        # vector and the scalar entry paths build bit for bit
        batch = run_trials(5050, 50, 64)
        outcome, _ = batch.answer()
        for t in range(50):
            codebook, i = trial_codebook(5050, t), int(batch.accepted_index[t])
            assert np.array_equal(codebook.entries(i), codebook.entry(i))
            m = run_trial(5050, t, 64).meas   # the batch keeps no measurements
            answer = bob_receive(elias_delta_encode(i), codebook, Measurement(m))
            assert outcome[t] == answer

    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 65) - 1, True, 7.5])
    def test_seed_outside_64_bits_raises(self, seed):
        # mix masks its key to 64 bits, so these would alias seeds in range
        with pytest.raises(ValueError, match="master seed"):
            run_trials(seed, 10, 64)
        with pytest.raises(ValueError, match="master seed"):
            run_trial(seed, 0, 64)
        with pytest.raises(ValueError, match="master seed"):
            trial_codebook(seed, 0)

    @pytest.mark.parametrize("n", [-1, 10.5, True, np.True_, "10"])
    def test_trial_count_must_be_a_whole_number(self, n):
        with pytest.raises(ValueError, match="trial count"):
            run_trials(7, n, 64)

    def test_seed_range_ends_and_integral_counts_run(self):
        for seed in (0, (1 << 64) - 1, np.uint64((1 << 64) - 1)):
            assert run_trials(seed, 3, 64).n == 3
        assert run_trials(7, 3.0, 64).n == run_trials(7, np.int64(3), 64).n == 3

    @pytest.mark.parametrize("workers", [1.5, "2", None, 0, -5, True, np.True_])
    def test_worker_count_must_be_a_whole_number_from_one(self, workers):
        # 1.5, "2" and None raised a raw TypeError at 70 000 trials; 0, -5 and True ran
        # on one thread
        for n in (10, 70_000):
            with pytest.raises(ValueError, match="workers"):
                run_trials(1, n, 4, workers=workers)

    def test_whole_worker_counts_run_as_their_int(self):
        want = run_trials(7, 20, 64)
        for workers in (2.0, np.int64(2), np.float32(1)):
            got = run_trials(7, 20, 64, workers=workers)
            assert np.array_equal(got.accepted_index, want.accepted_index)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("fixed", [False, True], ids=["random", "fixed"])
    def test_zero_trials_give_empty_fields(self, workers, fixed):
        state, meas = ((unit_vector(0.0, 0.6, 0.8), unit_vector(1.0, 0.0, 0.0)) if fixed
                       else (None, None))
        batch = run_trials(7, 0, 64, state=state, workers=workers)
        assert batch.n == 0
        assert [f.name for f in fields(TrialBatch)] == ["accepted_index", "code_bits", "receivers"]
        want = {"accepted_index": ((0,), np.int64), "code_bits": ((0,), np.int64),
                "outcome": ((0,), np.int64), "born": ((0,), np.float64)}
        got = rows(batch, meas)
        assert list(got) == list(want)
        for name, (shape, dtype) in want.items():
            assert (got[name].shape, got[name].dtype) == (shape, dtype), name

    @pytest.mark.parametrize("n, workers", [(0, 4), (1, 4), (8193, 2), (20_001, 3)])
    @pytest.mark.parametrize("fixed", [False, True], ids=["random", "fixed"])
    def test_uneven_spans_match_one_worker(self, monkeypatch, n, workers, fixed):
        # a 4096-trial grain splits these small runs: 8193 trials into 4096 + 4097
        monkeypatch.setattr(protocol, "_TRIALS_PER_THREAD", 4096)
        spans = {0: 1, 1: 1, 8193: 2, 20_001: 3}[n]
        state, meas = ((unit_vector(0.0, 0.6, 0.8), unit_vector(1.0, 0.0, 0.0)) if fixed
                       else (None, None))
        serial = rows(run_trials(7, n, 64, state=state, workers=1), meas)
        split_into = []
        parallel_map = protocol.parallel_map

        def recording_map(work, items, threads):
            split_into.append(len(items))
            return parallel_map(work, items, threads)

        monkeypatch.setattr(protocol, "parallel_map", recording_map)
        batch = run_trials(7, n, 64, state=state, workers=workers)
        assert split_into == [spans] and len(batch.receivers) == spans
        split = rows(batch, meas)
        assert split_into == [spans, spans]   # the spans answer on their own threads too
        for name, a in serial.items():
            b = split[name]
            assert (a.shape, a.dtype) == (b.shape, b.dtype), name
            assert np.array_equal(a, b), name

    def test_threads_are_bounded_by_the_trial_count(self, monkeypatch, serial_pool):
        monkeypatch.setattr(protocol, "_TRIALS_PER_THREAD", 1 << 15)   # the rule on shorter runs
        n = 3 * protocol._TRIALS_PER_THREAD + 5
        split = run_trials(7, n, 64, workers=10**6)
        serial = run_trials(7, n, 64, workers=1)
        assert serial_pool == [3]   # whole 2**15-trial spans, not one per requested worker
        split, serial = rows(split), rows(serial)
        assert serial_pool == [3, 3]
        for name in serial:
            assert np.array_equal(split[name], serial[name]), name

    def test_every_thread_gets_a_whole_grain_of_trials(self, monkeypatch, serial_pool):
        assert protocol._TRIALS_PER_THREAD == 1 << 17
        run_trials(7, 100_000, 64, workers=2)
        assert serial_pool == []    # the default run of 100 000 trials is one span
        monkeypatch.setattr(protocol, "_TRIALS_PER_THREAD", 1 << 15)   # the rule on shorter runs
        run_trials(7, (1 << 16) - 1, 64, workers=2)
        assert serial_pool == []    # one span: two would each hold fewer than 2**15 trials
        run_trials(7, 1 << 16, 64, workers=2)
        assert serial_pool == [2]


class TestBlockScan:
    # seed 19: trial 704 of the first 2000 accepts at round 1041 at 4096 bins, so
    # the scan runs wide multi-round blocks over bins that saturate late
    SEED = 19

    @pytest.mark.parametrize("bins", [4, 64, 4096])
    @pytest.mark.parametrize("fixed", [False, True])
    def test_rows_match_scalar_path(self, bins, fixed):
        kw = {"state": unit_vector(0.1, -0.2, 0.3), "meas": unit_vector(0.6, 0.0, 0.8)} \
            if fixed else {}
        batch = run_trials(self.SEED, 2000, bins, state=kw.get("state"))
        outcome, born = batch.answer(kw.get("meas"))
        if bins == 4096 and not fixed:
            assert batch.accepted_index.max() > 1000
        deepest = np.argsort(batch.accepted_index, kind="stable")[-4:]
        for t in [*range(16), *deepest.tolist()]:
            rep = run_trial(self.SEED, t, bins, **kw)
            assert rep.accepted_index == batch.accepted_index[t]
            assert rep.code_bits == batch.code_bits[t]
            assert rep.outcome == outcome[t]
            # the batch keeps no inputs: its Born row holds them to the scalar path's
            assert born[t] == born_from_dot(dot3(rep.state, rep.meas))
            codebook = trial_codebook(self.SEED, t)
            assert np.array_equal(codebook.entries(rep.accepted_index),
                                  codebook.entry(rep.accepted_index))
            # the wire sender reads the same schedule as the batch rows
            _, codebook, key = trial_inputs(self.SEED, t)
            _, sent = alice_send(rep.state, codebook, bins, counter_uniforms(key))
            assert sent.accepted_index == rep.accepted_index


#: bin counts from 2 to protocol._MAX_BINS = 2**20
EDGE_BINS = [2, 4, 64, 4096, 1 << 14, 1 << 15, 1 << 16, 1 << 20]
#: fixed states for the height-bin tests; None gives every point its own random state
EDGE_STATES = {
    "north": [0.0, 0.0, 1.0],
    "south": [0.0, 0.0, -1.0],
    "near_north": unit_vector(1e-5, -2e-5, 1.0),   # v_z > 1 - 1e-9
    "near_south": unit_vector(-3e-5, 1e-5, -1.0),
    "equator": unit_vector(0.6, -0.8, 0.0),
    "random": random_unit_vec(np.random.default_rng(5)),
    "per_point": None,
}


def edge_draws(state, bins, jitter, rng, sample=4096):
    """(z, phi, v) of points whose height v.x lies ``jitter`` from the bin edges of ``bins``.

    Every edge from v.x = -1 (t = 0) to v.x = 1 (t = bins) when there are at most
    ``sample`` of them, else both ends and ``sample`` random ones; each at a random
    azimuth about v.  Heights past +-1 are clipped onto the poles.  ``state`` None
    gives each point its own random v, returned as an (n, 3) array.
    """
    edges = (np.arange(bins + 1) if bins <= sample
             else np.concatenate([[0, bins], rng.integers(1, bins, sample)]))
    h = np.clip(2.0 * edges / bins - 1.0 + jitter, -1.0, 1.0)
    v = random_unit_vec(rng, h.size) if state is None else np.asarray(state)
    x = rotate_to_frame(sphere_from_zphi(h, rng.uniform(0.0, 2.0 * np.pi, h.size)), v)
    phi = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * np.pi)
    return np.clip(x[:, 2], -1.0, 1.0), phi, v


def exact_bins(z, phi, v, bins):
    return bin_index(dot3(sphere_from_zphi(z, phi), v), bins)


def assert_on_the_bins_side(t, bins_of, bins):
    """Each position t, against every whole c within two of it, is on c's side as its exact
    bin is, wherever the scan trusts it: t >= c + band only if the bin is >= c, and t < c -
    band only if it is < c, with c +- band rounded to t's float32 as the scan rounds it."""
    band = ESTIMATE_BAND * bins / 2
    for d in (-2, -1, 0, 1, 2):
        c = np.floor(t.astype(np.float64)) + d
        assert not np.any((t >= (c + band).astype(t.dtype)) & (bins_of < c))
        assert not np.any((t < (c - band).astype(t.dtype)) & (bins_of >= c))


class TestHeightBins:
    """protocol._positions must place every draw on the side of each cut its float64 bin is."""

    @pytest.mark.parametrize("bins", EDGE_BINS)
    @pytest.mark.parametrize("state", sorted(EDGE_STATES))
    def test_equals_the_exact_bins_around_every_edge(self, bins, state):
        # the draws as one row of a block; exact() of every cell, and of every third cell
        # (the cells the scan would ask about), is the float64 point's bin
        rng = np.random.default_rng(bins)
        band = ESTIMATE_BAND
        work = protocol._workspace()
        for jitter in (0.0, 1e-9, -1e-9, 1e-7, -1e-7, 2 * band, -2 * band):
            z, phi, v = edge_draws(EDGE_STATES[state], bins, jitter, rng)
            exact = exact_bins(z, phi, v, bins)
            vs = [v] if v.ndim > 1 else [v, np.broadcast_to(v, z.shape + (3,)).copy()]
            for vv in vs:   # a fixed state also once per point, as random states reach it
                t, exact_of = protocol._positions(z[None], phi[None], vv, bins, work)
                assert t.dtype == np.float32 and t.shape == (1, z.size)
                assert_on_the_bins_side(t[0], exact, bins)
                cells = np.arange(0, z.size, 3)
                assert np.array_equal(exact_of(np.arange(z.size)), exact)
                assert np.array_equal(exact_of(cells), exact[cells])

    @pytest.mark.parametrize("bins", EDGE_BINS)
    def test_codebook_bins_are_the_bins_of_the_points(self, monkeypatch, bins):
        # past BLOCK trials the scan draws its first rounds in BLOCK-trial slices and joins
        # them: every draw call's positions are on the side of each cut their float64 bins
        # are, the cells it is asked about bin as the float64 points do, none holds more
        # than BLOCK draws, and the joined rows line up with their trials (checked against
        # run_trial); one state per trial, then one for all
        positions, shapes = protocol._positions, []

        def checked_positions(z, phi, v, k, work):
            t, exact_of = positions(z, phi, v, k, work)
            vv = np.broadcast_to(v, z.shape + (3,)) if v.ndim > 1 else v
            assert_on_the_bins_side(t, exact_bins(z, phi, vv, k), k)
            shapes.append(z.shape)

            def checked_exact(cells):
                got = exact_of(cells)
                rows, cols = np.divmod(cells, z.shape[1])
                vc = v[cols] if v.ndim > 1 else v
                assert np.array_equal(got, exact_bins(z[rows, cols], phi[rows, cols], vc, k))
                return got

            return t, checked_exact

        n = 2 * BLOCK + 7
        for state in (None, unit_vector(0.1, -0.2, 0.3)):
            shapes.clear()
            monkeypatch.setattr(protocol, "_positions", checked_positions)
            batch = run_trials(5, n, bins, state=state)
            assert shapes[:3] == [(1, BLOCK), (1, BLOCK), (1, 7)]
            assert max(rows * cols for rows, cols in shapes) <= BLOCK
            monkeypatch.setattr(protocol, "_positions", positions)
            for t in (0, BLOCK - 1, BLOCK, 2 * BLOCK, n - 1):
                assert run_trial(5, t, bins, state=state).accepted_index == batch.accepted_index[t]

    def test_estimate_error_is_far_inside_the_band(self):
        # a 2048 x 2048 (z, phi) grid, 4M points, 64k at a time; even blocks give each
        # point its own random state, odd blocks one random state for the block
        rng = np.random.default_rng(3)
        heights = np.linspace(-1.0, 1.0, 2048)
        azimuths = np.linspace(0.0, 2.0 * np.pi, 2048)
        worst = 0.0
        for k in range(0, heights.size, 32):
            z, phi = np.repeat(heights[k:k + 32], azimuths.size), np.tile(azimuths, 32)
            v = random_unit_vec(rng, z.size if k % 64 == 0 else None)
            s = dot_estimate(z, phi, v)
            worst = max(worst, float(np.abs(s - dot3(sphere_from_zphi(z, phi), v)).max()))
        assert worst <= ESTIMATE_BAND / 8

    @pytest.mark.parametrize("bins", [64, 4096])
    def test_positions_read_the_draws_in_their_workspace(self, bins):
        # a scan block's draws, 27 rounds of 600 runs, as _sphere_zphi leaves them in a
        # workspace and _positions reads them there: the positions and the exact bins of
        # every cell equal those of copies of the draws positioned apart, bit for bit
        rng = np.random.default_rng(bins)
        keys = rng.integers(0, 2**64, 600, dtype=np.uint64, endpoint=False)
        ctr = 2 * np.arange(1, 28, dtype=np.uint64)[:, None]
        for v in (unit_vector(0.36, -0.48, 0.8), random_unit_vec(rng, keys.size)):
            work = protocol._workspace()
            z, phi = protocol._sphere_zphi(keys, ctr, work)
            apart = z.copy(), phi.copy()
            t, exact = protocol._positions(z, phi, v, bins, work)
            want_t, want_exact = protocol._positions(*apart, v, bins, protocol._workspace())
            cells = np.arange(z.size)
            assert np.array_equal(t.view(np.uint32), want_t.view(np.uint32))
            vv = np.broadcast_to(v, z.shape + (3,)) if v.ndim > 1 else v
            assert np.array_equal(exact(cells), want_exact(cells))
            assert np.array_equal(exact(cells), exact_bins(*apart, vv, bins).ravel())

    def test_estimate_in_a_workspace_is_bit_for_bit(self):
        # the error test's grid, with one state per point on even blocks and one state on
        # odd ones, and a (width, active) block with one state per column: the estimate
        # with its temporaries in a workspace of leftover words equals the one that
        # allocates them, bit for bit, and writes only the first 16 z.size bytes
        rng = np.random.default_rng(3)
        heights = np.linspace(-1.0, 1.0, 2048)
        azimuths = np.linspace(0.0, 2.0 * np.pi, 2048)
        fill = np.random.default_rng(4).integers(0, 2**64, 2 * 32 * 2048 + 64, dtype=np.uint64,
                                                 endpoint=False)
        cases = []
        for k in range(0, heights.size, 32):
            z, phi = np.repeat(heights[k:k + 32], azimuths.size), np.tile(azimuths, 32)
            cases.append((z, phi, random_unit_vec(rng, z.size if k % 64 == 0 else None)))
        cases.append((cases[0][0].reshape(64, 1024), cases[0][1].reshape(64, 1024),
                      random_unit_vec(rng, 1024)))
        for z, phi, v in cases:
            work = fill.copy()
            got = dot_estimate(z, phi, v, work)
            want = dot_estimate(z, phi, v)
            assert got.dtype == want.dtype == np.float32 and got.shape == z.shape
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
            assert np.array_equal(work[2 * z.size:], fill[2 * z.size:])

    def test_float32_trig_error_on_every_1024th_float32_azimuth(self):
        # the trig term of dot_estimate's error over the float32 azimuths themselves: every
        # 1024th bit pattern from 0 to float32(2 pi), which phi = 2 pi u rounds up to, and
        # that last value, ~1.06M of the 1 086 918 620; cos and sin of each in float32 are
        # compared with float64's at the same azimuth
        top = int(np.float32(2.0 * np.pi).view(np.uint32))
        phi32 = np.append(np.arange(0, top + 1, 1024), top).astype(np.uint32).view(np.float32)
        assert phi32.size == top // 1024 + 2 and phi32[-1] == np.float32(2.0 * np.pi)
        phi = phi32.astype(np.float64)
        worst = max(np.max(np.abs(np.cos(phi32) - np.cos(phi))),
                    np.max(np.abs(np.sin(phi32) - np.sin(phi))))
        assert worst <= ESTIMATE_BAND / 8

    @pytest.mark.parametrize("bins", [64, 1 << 16, 1 << 20])
    def test_few_draws_reach_the_exact_formula(self, monkeypatch, bins):
        # the scan asks exact() about the draws near a cut or between the cuts, where a coin
        # may decide (1-6% of the draws); of those, exactly the ones within the band of a whole
        # number, t < float32(c + band) or t >= float32(c + 1 - band) for c = floor(t), are
        # binned from their float64 points, in order: few at 64 bins, all at 2**20
        band = ESTIMATE_BAND * bins / 2
        positions, binned = protocol._positions, protocol.bin_index
        want, seen, counts = [], [], {"draws": 0, "asked": 0, "near": 0}

        def checked_positions(z, phi, v, k, work):
            counts["draws"] += z.size
            t, exact = positions(z, phi, v, k, work)

            def checked_exact(cells):
                at = t.ravel()[cells]
                c = np.floor(at.astype(np.float64))
                near = cells[(at < (c + band).astype(np.float32)) |
                             (at >= (c + 1 - band).astype(np.float32))]
                points = sphere_from_zphi(z.ravel()[near], phi.ravel()[near])
                want.append(dot3(points, v[near % z.shape[-1]] if v.ndim > 1 else v))
                counts["asked"] += cells.size
                counts["near"] += near.size
                return exact(cells)

            return t, checked_exact

        def recording_bins(h, k):
            seen.append(np.array(h, copy=True))
            return binned(h, k)

        monkeypatch.setattr(protocol, "_positions", checked_positions)
        monkeypatch.setattr(protocol, "bin_index", recording_bins)
        run_trials(7, 16384, bins)
        assert counts["draws"] > 16384
        assert 0.01 * counts["draws"] < counts["asked"] < 0.06 * counts["draws"]
        assert np.array_equal(np.concatenate(seen), np.concatenate(want))
        if bins == 64:
            assert counts["near"] < 0.01 * counts["asked"]
        if bins == 1 << 20:
            assert counts["near"] == counts["asked"]


class TestSpanWorkspaces:
    @pytest.mark.parametrize("fixed", [False, True], ids=["random", "fixed"])
    def test_three_spans_match_one(self, monkeypatch, fixed):
        # three 2**15-trial spans (the last five longer) each draw in their own workspace,
        # side by side on their threads, and answer in new ones: every row is one span's
        monkeypatch.setattr(protocol, "_TRIALS_PER_THREAD", 1 << 15)
        n = 3 * (1 << 15) + 5
        state, meas = ((unit_vector(0.0, 0.6, 0.8), unit_vector(1.0, 0.0, 0.0)) if fixed
                       else (None, None))
        serial = run_trials(11, n, 64, state=state)
        split = run_trials(11, n, 64, state=state, workers=3)
        assert len(serial.receivers) == 1 and len(split.receivers) == 3
        for name, a in rows(serial, meas).items():
            assert np.array_equal(a, rows(split, meas)[name]), name


class TestLargeBinCounts:
    """At 2**17 and 2**20 bins, where the scan's band spans ~1 and ~8 bins about each cut."""

    @pytest.mark.parametrize("bins", [1 << 17, 1 << 20])
    @pytest.mark.parametrize("fixed", [False, True], ids=["random", "pinned"])
    def test_rows_match_the_per_round_references(self, bins, fixed):
        # every row against the wire sender, which reads the schedule one round at a time,
        # and the first rows, the deepest included, against run_trial's full per-round loop
        # (a round of it costs ~25 ms at 2**20 bins)
        kw = {"state": unit_vector(0.1, -0.2, 0.3), "meas": unit_vector(0.6, 0.0, 0.8)} \
            if fixed else {}
        n = 320
        batch = run_trials(3, n, bins, state=kw.get("state"))
        outcome, _ = batch.answer(kw.get("meas"))
        for t in range(n):
            v, codebook, key = trial_inputs(3, t)
            _, sent = alice_send(kw.get("state", v), codebook, bins, counter_uniforms(key))
            assert sent.accepted_index == batch.accepted_index[t], t
        deepest = int(np.argmax(batch.accepted_index))
        for t in sorted({*range(8 if bins == 1 << 20 else 40), deepest}):
            rep = run_trial(3, t, bins, **kw)
            assert (rep.accepted_index, rep.outcome) == (batch.accepted_index[t], outcome[t]), t


class TestCutEdges:
    """Draws placed at the cuts of the scan, where its float32 positions cannot tell the side."""

    @pytest.mark.parametrize("bins", [64, 4096])
    @pytest.mark.parametrize("per_trial", [False, True], ids=["one", "per_trial"])
    def test_draws_at_the_cuts_take_the_exact_bin(self, monkeypatch, bins, per_trial):
        # through a stub codebook, trial j draws a sure miss (height -1/2 about its state)
        # before its round r_j, where it draws within 1e-9 of a cut c_j of that round, and
        # the real codebook after it: both cuts of rounds 1-3, and the one cut of the floor
        # round.  run_trials' accepted rows must be the per-round reference's, run_trial
        # with the same stub entries.  At the 4096-bin floor round, 87 333 rounds deep,
        # where run_trial's full-width rounds take seconds a trial, the floor law itself is
        # the reference: the edge draw is accepted iff its float64 bin is wanted
        seed = 17
        schedule = _ks_schedule(bins)
        schedule.extend(1 << 20)   # to the floor round, as the floor trials will
        floor = schedule.floor_round
        rounds = np.array([1, 2, 3, floor])
        # the cuts as the scalar reader states the law: the first bin with p > 0, and the
        # first of the bins with p = 1 from there to the top
        law = np.array([[schedule.accept_prob_at(b, r) for b in range(bins)] for r in rounds])
        lo = np.argmax(law > 0.0, axis=1)
        hi = bins - np.argmax(law[:, ::-1] < 1.0, axis=1)
        assert lo[-1] == hi[-1] == bins // 2
        plan = [(r, c, jitter) for r, *cuts in zip(rounds.tolist(), lo.tolist(), hi.tolist())
                for c in sorted(set(cuts)) for jitter in (-1e-9, -3e-10, 0.0, 3e-10, 1e-9)
                for _ in range(2 if r == floor else 6)]
        start, cut, jitter = (np.array(col) for col in zip(*plan))
        n = start.size
        rng = np.random.default_rng(bins)
        trial = mix_vec(_trial_root(seed), np.arange(n, dtype=np.uint64))
        fixed = unit_vector(0.36, -0.48, 0.8)
        v = _sphere_point(mix_vec(trial, _SUB_STATE), 1) if per_trial else np.tile(fixed, (n, 1))

        def about_v(h):
            x = rotate_to_frame(sphere_from_zphi(h, rng.uniform(0.0, 2.0 * np.pi, n)), v)
            return np.clip(x[:, 2], -1.0, 1.0), np.mod(np.arctan2(x[:, 1], x[:, 0]), 2 * np.pi)

        edge_z, edge_phi = about_v(2.0 * cut / bins - 1.0 + jitter)
        miss_z, miss_phi = about_v(np.full(n, -0.5))
        keys = mix_vec(trial, _SUB_CODEBOOK)
        order = np.argsort(keys)
        of_key = dict(zip(keys.tolist(), range(n)))
        edge_x, miss_x = (sphere_from_zphi(*zphi).tolist()
                          for zphi in ((edge_z, edge_phi), (miss_z, miss_phi)))
        real_zphi, real_entry = protocol._sphere_zphi, protocol._entry_point

        def stub_zphi(k, ctr, work):
            z, phi = real_zphi(k, ctr, work)
            if ctr.ndim == 2:   # the scan's (rounds, 1) counters over its runs' keys
                j = order[np.searchsorted(keys, k, sorter=order)]
                r = (ctr // np.uint64(2)).astype(np.int64)
                for table, out in ((edge_z, z), (edge_phi, phi)):
                    np.copyto(out, table[j], where=r == start[j])
                for table, out in ((miss_z, z), (miss_phi, phi)):
                    np.copyto(out, table[j], where=r < start[j])
            return z, phi

        def stub_entry(key, i):
            j = of_key[key]
            return (real_entry(key, i) if i > start[j] else
                    tuple(edge_x[j] if i == start[j] else miss_x[j]))

        monkeypatch.setattr(protocol, "_sphere_zphi", stub_zphi)
        monkeypatch.setattr(protocol, "_entry_point", stub_entry)
        batch = run_trials(seed, n, bins, state=None if per_trial else fixed)
        accepted = batch.accepted_index
        assert np.all(accepted >= start)
        # the stub is where the law says: a draw past hi by 1e-9 is a hit
        at_hi = (cut == hi[np.searchsorted(rounds, start)]) & (jitter == 1e-9)
        assert np.array_equal(accepted[at_hi], start[at_hi])
        wanted = exact_bins(edge_z, edge_phi, v, bins) >= bins // 2
        for j in range(n):
            if start[j] == floor and bins == 4096:
                assert (accepted[j] == floor) == wanted[j], (j, jitter[j])
            else:
                want = run_trial(seed, j, bins, state=None if per_trial else fixed).accepted_index
                assert accepted[j] == want, (j, start[j], cut[j], jitter[j])


def trial_inputs(seed, t):
    """The state, codebook and coin key that run_trial derives for trial t."""
    trial = mix_vec(_trial_root(seed), np.array([t], dtype=np.uint64))
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


def reference_send(v, codebook, bins, coins):
    """greedy_one_shot on the binned codebook stream, one round at a time."""
    stream = (int(bin_index(dot3(codebook.entry(i), v), bins)) for i in itertools.count(1))
    return greedy_one_shot(*_ks_laws(bins), stream, coins)[0]


class TestTrialCodebook:
    def test_matches_the_vector_key_derivation(self):
        rng = np.random.default_rng(71)
        seeds = rng.integers(0, 2**63, size=50, dtype=np.uint64).tolist()
        trials = [0, 1, 2**63, 2**64 - 1,
                  *rng.integers(0, 2**64, size=200, dtype=np.uint64, endpoint=False).tolist()]
        for seed in seeds:
            want = mix_vec(mix_vec(_trial_root(seed), np.array(trials, dtype=np.uint64)),
                           _SUB_CODEBOOK)
            for t, key in zip(trials, want.tolist()):
                assert trial_codebook(seed, t).seed == key

    def test_hashes_the_trial_root_once_per_seed(self, monkeypatch):
        # mix(seed, _TRIAL_SALT) is cached for the last seed, and the vector paths read
        # the same cache; a new seed replaces it
        rooted = []

        def counting_mix(key, n):
            if n == protocol._TRIAL_SALT:
                rooted.append(key)
            return mix(key, n)

        protocol._trial_root.cache_clear()
        monkeypatch.setattr(protocol, "mix", counting_mix)
        keys = [trial_codebook(5, t).seed for t in range(4)]
        words = mix_vec(mix_vec(_trial_root(5), np.arange(4, dtype=np.uint64)), _SUB_CODEBOOK)
        assert keys == words.tolist() and rooted == [5]
        for seed in (6, 6, 5):
            trial_codebook(seed, 1)
        assert rooted == [5, 6, 5]
        assert trial_codebook(6, 2).seed == int(
            mix_vec(mix_vec(mix(6, protocol._TRIAL_SALT), 2), _SUB_CODEBOOK))

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

    @pytest.mark.parametrize("t", [-1, 2**64, 1.5, True, np.True_, float("nan"), "1"])
    def test_run_trial_checks_its_index_as_the_codebook_does(self, t):
        # a uint64 array would overflow on -1 and 2**64 and read 1.5 and True as trial 1
        with pytest.raises(ValueError, match="trial index"):
            run_trial(7, t, 64)

    def test_run_trial_takes_whole_floats_as_their_int(self):
        a, b = run_trial(7, 2.0, 64), run_trial(7, 2, 64)
        for f in fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, np.True_, float("nan"), "1"])
    def test_codebook_checks_its_seed(self, seed):
        # 1.5, True and "1" gave seed 1's entries; -1 and 2**64 raised OverflowError
        with pytest.raises(ValueError, match="codebook seed"):
            Codebook(seed=seed)

    def test_codebook_takes_whole_seeds_as_their_int(self):
        assert Codebook(seed=3.0) == Codebook(seed=np.uint64(3)) == Codebook(seed=3)
        assert type(Codebook(seed=np.uint64(2**64 - 1)).seed) is int


class TestRunTrialDerivation:
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_matches_the_vector_derivation_at_the_word_edges(self, seed, monkeypatch):
        # run_trial hashes trial t's keys one word at a time; each must be the word the
        # vector chain mix_vec(mix_vec(root, [t]), _SUB_...) gives, bit for bit
        keys = []

        def recording_codebook(seed):
            keys.append(("codebook", seed))
            return Codebook(seed=seed)

        def recording_coins(key):
            keys.append(("coins", key))
            return counter_uniforms(key)

        monkeypatch.setattr(oracles, "Codebook", recording_codebook)
        monkeypatch.setattr(oracles, "counter_uniforms", recording_coins)
        root = mix_vec(np.uint64(seed), protocol._TRIAL_SALT)
        for t in (0, 1, 2**63, 2**64 - 1):
            keys.clear()
            report = run_trial(seed, t, 64)
            trial = mix_vec(root, np.array([t], dtype=np.uint64))
            state = _sphere_point(mix_vec(trial, _SUB_STATE), 1)[0]
            meas = _sphere_point(mix_vec(trial, _SUB_MEAS), 1)[0]
            assert report.state.shape == report.meas.shape == (3,)
            assert report.state.tobytes() == state.tobytes()
            assert report.meas.tobytes() == meas.tobytes()
            assert keys == [("codebook", int(mix_vec(trial, _SUB_CODEBOOK)[0])),
                            ("coins", int(mix_vec(trial, _SUB_ACCEPT)[0]))]

    def test_report_keeps_copies_of_the_inputs(self):
        # the report must not follow a later change to the caller's arrays
        v, m = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
        report = run_trial(7, 3, 64, state=v, meas=m)
        v[:] = 5.0
        m[:] = 5.0
        assert report.state.tolist() == [0.0, 0.0, 1.0]
        assert report.meas.tolist() == [1.0, 0.0, 0.0]


class TestBinCount:
    def outputs(self, bins):
        v, codebook, key = trial_inputs(7, 3)
        return (list(rows(run_trials(7, 50, bins)).values()),
                alice_send(v, codebook, bins, counter_uniforms(key))[0],
                run_trial(7, 3, bins).accepted_index)

    @pytest.mark.parametrize("bins", [4.0, np.int64(4), np.float32(4)])
    def test_whole_values_run_as_their_int(self, bins):
        _ks_schedule.cache_clear()
        rows, bits, index = self.outputs(4)
        schedule = _ks_schedule(4)
        got_rows, got_bits, got_index = self.outputs(bins)
        assert _ks_schedule(4) is schedule   # the same cache entry
        assert all(np.array_equal(a, b) for a, b in zip(rows, got_rows, strict=True))
        assert (got_bits, got_index) == (bits, index)

    @pytest.mark.parametrize("bins", [0, 3, -2, 4.5, "4", True, np.True_, float("nan"),
                                      float("inf"), 2**40, protocol._MAX_BINS + 2])
    def test_rejects_bad_bin_counts(self, bins):
        # 4.5 and "4" raised a raw TypeError, and 2**40 a MemoryError
        v, codebook, key = trial_inputs(7, 3)
        for run in (lambda: run_trials(7, 10, bins),
                    lambda: alice_send(v, codebook, bins, counter_uniforms(key)),
                    lambda: run_trial(7, 3, bins)):
            with pytest.raises(ValueError, match="bins"):
                run()


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

    def test_round_cap(self, monkeypatch):
        # the guard is fixed at DEFAULT_ROUND_CAP; lowering the module's constant reaches it
        v, codebook, key, index = self.deep_trial()
        monkeypatch.setattr(protocol, "DEFAULT_ROUND_CAP", index)
        _, report = alice_send(v, codebook, 4096, counter_uniforms(key))
        assert report.accepted_index == index
        for cap in (index - 1, 8, 1, 0):
            monkeypatch.setattr(protocol, "DEFAULT_ROUND_CAP", cap)
            with pytest.raises(ProtocolFailure, match=f"no acceptance within {cap} rounds"):
                alice_send(v, codebook, 4096, counter_uniforms(key))

    @pytest.mark.parametrize("bad", [-0.5, -1e-300, 1.0, 1.5, float("nan"), float("inf"),
                                     float("-inf")])
    def test_rejects_coins_outside_the_unit_interval(self, bad):
        # v = +z at 64 bins: a coin of -0.5 accepted draws in zero-mass bins, below the
        # state's hemisphere, and a NaN or a coin >= 1 never accepted
        _, codebook, key = trial_inputs(self.SEED, 0)
        v = np.array([0.0, 0.0, 1.0])
        first = alice_send(v, codebook, 64, counter_uniforms(key))[1].accepted_index
        for at in {0, first - 1}:   # the first coin, and the coin of the accepting round
            coins = [*itertools.islice(counter_uniforms(key), at), bad, *[0.5] * 64]
            with pytest.raises(ValueError, match=r"coins must lie in \[0, 1\)"):
                alice_send(v, codebook, 64, coins)

    def test_report_keeps_a_copy_of_the_state(self):
        v, codebook, key = trial_inputs(self.SEED, 0)
        want = v.copy()
        _, report = alice_send(v, codebook, 64, counter_uniforms(key))
        v[:] = 5.0
        assert np.array_equal(report.state, want)

    def test_finite_coins(self):
        v, codebook, key, index = self.deep_trial()
        coins = list(itertools.islice(counter_uniforms(key), index))
        _, report = alice_send(v, codebook, 4096, coins)
        assert report.accepted_index == index
        for n in (index - 1, 8, 0):
            with pytest.raises(ProtocolFailure, match="exhausted"):
                alice_send(v, codebook, 4096, coins[:n])

    @pytest.mark.parametrize("coin", ["0.0", b"0.0", False, np.False_],
                             ids=["str", "bytes", "bool", "np_bool"])
    @pytest.mark.parametrize("send", ["alice_send", "greedy_one_shot"])
    def test_coins_must_be_numbers(self, send, coin):
        # float() reads each of these as the coin 0.0, so both loops ran them; Python
        # and numpy floats still run, to the same round
        _, codebook, _ = trial_inputs(self.SEED, 0)
        law = DiscreteDistribution(np.array([0.25, 0.75]))

        def run(c):
            if send == "alice_send":
                return alice_send(unit_vector(0.0, 0.0, 1.0), codebook, 64,
                                  itertools.repeat(c))[1].accepted_index
            return greedy_one_shot(law, law, itertools.repeat(1), itertools.repeat(c))[0]

        with pytest.raises(ValueError, match=r"coins must lie in \[0, 1\) as numbers"):
            run(coin)
        assert run(0.5) == run(np.float32(0.5)) >= 1


class TestSharedSchedule:
    def test_one_schedule_per_bin_count(self):
        assert _ks_schedule(64) is _ks_schedule(64)
        assert _ks_schedule(64) is not _ks_schedule(4096)

    @pytest.mark.parametrize("bins", [64, 4096])
    def test_built_no_deeper_than_the_deepest_acceptance(self, bins):
        # run_trials builds through the end of its last block, which holds the deepest
        # acceptance and, by the scan's width rule, ends by round 2 (deepest - 1)
        for seed in (19, 301):
            _ks_schedule.cache_clear()   # build the schedule from round 0
            deepest = int(run_trials(seed, 10_000, bins).accepted_index.max())
            assert deepest <= _ks_schedule(bins).rounds <= max(1, 2 * (deepest - 1))
        # alice_send builds one round at a time, exactly through the deepest accepted round;
        # once the floor round is known the schedule holds the rounds before it
        _ks_schedule.cache_clear()
        built = 0
        for t in range(300):
            v, codebook, key = trial_inputs(7, t)
            _, report = alice_send(v, codebook, bins, counter_uniforms(key))
            schedule = _ks_schedule(bins)
            built = min(max(built, report.accepted_index), schedule.floor_round - 1)
            assert schedule.rounds == built

    @pytest.mark.parametrize("bins", [64, 4096])
    @pytest.mark.parametrize("fixed", [False, True], ids=["random", "fixed"])
    def test_rows_do_not_depend_on_how_far_the_schedule_is_built(self, monkeypatch, bins, fixed):
        # built rounds let the scan's blocks reach three times the rounds done, where a cold
        # schedule doubles them; draws and coins are addressed by (run, round), so the rows
        # are the cold ones, on one span and on three.  64 bins are built through their
        # floor round (every round is then answered), 4096 past the deepest acceptance
        monkeypatch.setattr(protocol, "_TRIALS_PER_THREAD", 3000)
        state, meas = ((unit_vector(0.0, 0.6, 0.8), unit_vector(1.0, 0.0, 0.0)) if fixed
                       else (None, None))
        for workers in (1, 3):
            _ks_schedule.cache_clear()
            cold = rows(run_trials(23, 9001, bins, state=state, workers=workers), meas)
            _ks_schedule.cache_clear()
            _ks_schedule(bins).extend(1 << 20 if bins == 64 else 4 * cold["accepted_index"].max())
            assert (_ks_schedule(bins).floor_round < 1 << 20) == (bins == 64)
            warm = rows(run_trials(23, 9001, bins, state=state, workers=workers), meas)
            for name, a in cold.items():
                assert np.array_equal(a, warm[name]), (workers, name)

    def test_a_built_schedule_takes_fewer_draw_calls(self, monkeypatch):
        # simulate's default shape, 8192 runs at 4096 bins: the second run scans rounds the
        # first one built, in fewer and fuller blocks, and gets the same rows
        calls, positions = [], protocol._positions
        monkeypatch.setattr(protocol, "_positions", lambda *args: calls.append(1) or
                            positions(*args))
        _ks_schedule.cache_clear()
        cold = run_trials(3, 8192, 4096).accepted_index
        built, cold_calls = _ks_schedule(4096).rounds, len(calls)
        calls.clear()
        assert np.array_equal(run_trials(3, 8192, 4096).accepted_index, cold)
        assert len(calls) < cold_calls
        assert _ks_schedule(4096).rounds == built   # and builds no further

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

    def test_worker_threads_match_a_serial_run(self, monkeypatch):
        _ks_schedule.cache_clear()
        serial = run_trials(19, 20_000, 4096)
        _ks_schedule.cache_clear()
        monkeypatch.setattr(protocol, "_TRIALS_PER_THREAD", 20_000 // 3)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # three spans, one thread each, to scan and to answer
            threaded = rows(run_trials(19, 20_000, 4096, workers=4))
        finally:
            sys.setswitchinterval(switch)
        serial = rows(serial)
        for name in serial:
            assert np.array_equal(serial[name], threaded[name]), name


def tie_draws(rng, m, n):
    """n (height, azimuth) pairs within ~1e-9 of the circle where x.m = 0.

    ``m`` is one (3,) direction or one per pair; each pair lies about its own row.
    """
    u1 = np.cross(m, random_unit_vec(rng, n))
    u1 /= np.linalg.norm(u1, axis=-1, keepdims=True)
    u2 = np.cross(m, u1)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)[:, None]
    x = np.cos(theta) * u1 + np.sin(theta) * u2
    z = np.clip(x[:, 2] + rng.uniform(-1e-9, 1e-9, n), -1.0, 1.0)
    phi = np.mod(np.arctan2(x[:, 1], x[:, 0]) + rng.uniform(-1e-9, 1e-9, n), 2.0 * np.pi)
    return z, phi


class TestAnswersOnRead:
    """The receiver's rows: computed on each answer call, from the float32 estimate."""

    @pytest.mark.parametrize("per_trial", [False, True], ids=["one", "per_trial"])
    def test_tie_draws_take_the_exact_answer(self, monkeypatch, per_trial):
        # the stub codebook's entry for key k is tie draw k, so every accepted point lies
        # within ~1e-9 of perpendicular to its measurement, where the estimate's sign is
        # a coin flip; the answers must still be the float64 points', row for row
        rng = np.random.default_rng(31)
        n = 2 * BLOCK + 5
        m = random_unit_vec(rng, n) if per_trial else unit_vector(0.36, -0.48, 0.8)
        z, phi = tie_draws(rng, m, n)
        monkeypatch.setattr(protocol, "_sphere_zphi",
                            lambda keys, ctr, work: (z[keys], phi[keys]))
        keys, accepted = np.arange(n, dtype=np.uint64), np.ones(n, dtype=np.int64)
        want = np.where(dot3(sphere_from_zphi(z, phi), m) >= 0.0, 1, -1)
        guess = np.where(dot_estimate(z, phi, m) >= 0.0, 1, -1)
        assert np.count_nonzero(guess != want) > 100   # the estimate alone would be wrong
        got = protocol._outcomes(keys, accepted, m)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        for lo in range(0, 4096, 32):
            rows = slice(lo, lo + 32)
            got = protocol._outcomes(keys[rows], accepted[rows], m[rows] if per_trial else m)
            assert np.array_equal(got, want[rows]), lo

    @pytest.mark.parametrize("per_trial", [False, True], ids=["one", "per_trial"])
    def test_exact_zero_is_plus(self, monkeypatch, per_trial):
        # entries on the equator measured along z-hat: x.m is an exact float64 zero,
        # which the tie rule answers "+"
        n = BLOCK + 64
        phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        monkeypatch.setattr(protocol, "_sphere_zphi",
                            lambda keys, ctr, work: (np.zeros(keys.size), phi[keys]))
        zhat = unit_vector(0.0, 0.0, 1.0)
        m = np.tile(zhat, (n, 1)) if per_trial else zhat
        keys, accepted = np.arange(n, dtype=np.uint64), np.ones(n, dtype=np.int64)
        assert not np.any(dot3(sphere_from_zphi(np.zeros(n), phi), m))
        assert np.array_equal(protocol._outcomes(keys, accepted, m), np.ones(n))

    def test_cost_never_answers(self, monkeypatch, tmp_path):
        def results(argv):
            path = tmp_path / "report.json"
            assert cli.main([*argv, "--out", str(path)]) == cli.EXIT_OK
            return json.loads(path.read_text())["results"]

        monkeypatch.setattr(protocol, "_TRIALS_PER_THREAD", 1 << 15)   # two spans
        argv = ["cost", "--trials", "70000", "--bins", "64", "--seed", "5", "--workers", "2"]
        want = results(argv)

        def no_answers(*args):
            raise AssertionError("cost ran the receiver")

        monkeypatch.setattr(protocol, "_answers", no_answers)
        assert results(argv) == want

    @pytest.mark.parametrize("fixed", [False, True], ids=["random", "fixed"])
    def test_each_answer_call_runs_each_span_once(self, monkeypatch, fixed):
        # the sender's run answers nothing; each answer call runs each span's receiver
        # once and computes its rows anew, and the batch is frozen
        state, meas = ((unit_vector(0.0, 0.6, 0.8), unit_vector(1.0, 0.0, 0.0)) if fixed
                       else (None, None))
        calls, answers = [], protocol._answers

        def counted(trial, *args):
            calls.append(trial.size)
            return answers(trial, *args)

        monkeypatch.setattr(protocol, "_answers", counted)
        monkeypatch.setattr(protocol, "_TRIALS_PER_THREAD", 1 << 15)   # two spans
        batch = run_trials(7, 70_001, 64, state=state, workers=3)
        assert calls == [] and len(batch.receivers) == 2
        first = batch.answer(meas)
        assert sorted(calls) == [35_000, 35_001]
        assert first[0].shape == first[1].shape == (70_001,)
        second = batch.answer(meas)
        assert sorted(calls) == [35_000, 35_000, 35_001, 35_001]
        assert all(a is not b and np.array_equal(a, b) for a, b in zip(first, second, strict=True))
        with pytest.raises(FrozenInstanceError):
            batch.outcome = first[0]

    def test_threads_answering_one_batch_get_the_serial_rows(self, monkeypatch):
        # four threads (more than the cores) answer one 3-span batch at once, with fast
        # switching, each at its own measurement or a random one: every thread gets the
        # rows a serial call gives
        monkeypatch.setattr(protocol, "_TRIALS_PER_THREAD", 3000)
        batch = run_trials(11, 9000, 64, workers=3)
        assert len(batch.receivers) == 3
        directions = [None, unit_vector(0.6, 0.0, 0.8), None, unit_vector(0.0, -0.6, 0.8)]
        serial = [batch.answer(m) for m in directions]
        seen = [None] * 4

        def answer(k):
            seen[k] = batch.answer(directions[k])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=answer, args=(k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        for k, (got, want) in enumerate(zip(seen, serial, strict=True)):
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True)), k
