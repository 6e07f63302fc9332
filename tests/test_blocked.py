"""Blocked evaluation at block edges: ks_sample, verify and mi evaluate their
samples BLOCK rows at a time (mi on one thread or several), and none of it may
move a bit against the frozen whole-array forms, whose model draws are taken in
block order; the one-path kernels are checked at the same row counts."""

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kschannel
from kschannel import cli, ks_sample, mc_mutual_information, random_unit_vec
from kschannel.geometry import BLOCK, parallel_map, rotate_to_frame, sphere_from_zphi
from kschannel import protocol
from kschannel.greedy import GreedySchedule
from kschannel.model import ks_draws
from kschannel.protocol import _sphere_point, run_trials
from kschannel.rngstream import mix, mix_vec, to_unit
from test_geometry import (_awkward_poles, _stacked_dot3, _stacked_rotate_to_frame,
                           _stacked_sphere_from_zphi, _with_zeros, assert_bit_identical,
                           assert_fresh_vectors)

EDGE_ROWS = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7]

_CAP = _stacked_sphere_from_zphi(1.0 - 5e-10, 0.7)  # |pz| > 1 - 1e-9
SPECIAL_POLES = [_CAP, -_CAP, [0.0, 0.0, 1.0], [-0.0, 0.0, -1.0], [0.0, -0.0, 1.0],
                 [-1.0, 0.0, -0.0]]


def _at_block_edges(x, values):
    """x with ``values`` written into the rows around every multiple of BLOCK
    (and at its end), so the special rows sit on both sides of each edge."""
    x = np.array(x)
    n, k = len(x), len(values)
    for edge in list(range(BLOCK, n + 1, BLOCK)) + [n]:
        for row, value in zip(range(edge - k // 2, edge - k // 2 + k), values):
            if 0 <= row < n:
                x[row] = value
    return x


class TestParallelMap:
    def test_results_keep_the_order_of_the_items(self):
        assert parallel_map(lambda i: i * i, range(7), 3) == [i * i for i in range(7)]
        assert parallel_map(lambda i: i, [], 3) == []

    def test_an_item_error_is_raised_to_the_caller(self):
        def work(i):
            if i == 5:
                raise ValueError("item 5")
            return i

        with pytest.raises(ValueError, match="item 5"):
            parallel_map(work, range(8), 2)

    def test_more_threads_than_cores_with_fast_switching(self):
        # nine threads share one chunk's log-ratio array, switching as often as the
        # interpreter allows; each writes only its own block's rows, so no bit may move
        n = 8 * BLOCK + 5
        want = mc_mutual_information(n, np.random.default_rng(9), workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = mc_mutual_information(n, np.random.default_rng(9), workers=9)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("items, workers, asked", [(range(1), 4, []), (range(5), 1, []),
                                                       (range(3), 10**6, [3]),
                                                       (range(9), 2, [2])])
    def test_threads_are_bounded_by_the_items(self, serial_pool, items, workers, asked):
        assert parallel_map(lambda i: -i, items, workers) == [-i for i in items]
        assert serial_pool == asked


class TestKernelsAtBlockEdges:
    @pytest.mark.parametrize("n", EDGE_ROWS)
    def test_random_unit_vec(self, n):
        draws = np.random.default_rng(n)
        want = _stacked_sphere_from_zphi(draws.uniform(-1.0, 1.0, n),
                                         draws.uniform(0.0, 2 * np.pi, n))
        rng = np.random.default_rng(n)
        out = random_unit_vec(rng, n)
        assert_bit_identical(out, want)
        assert_fresh_vectors(out, (n, 3))
        assert rng.random() == draws.random()  # the generator was consumed the same way

    @pytest.mark.parametrize("n", EDGE_ROWS)
    def test_sphere_from_zphi(self, n):
        rng = np.random.default_rng(n)
        z = _at_block_edges(_with_zeros(rng, rng.uniform(-1.0, 1.0, n)),
                            [1.0, -1.0, 0.0, -0.0, 1.0 - 1e-16, -0.0])
        phi = _at_block_edges(_with_zeros(rng, rng.uniform(0.0, 2 * np.pi, n)),
                              [-0.0, 0.0, np.pi, -0.0, 0.0, 2 * np.pi])
        for p in (phi, phi[0], np.float64(-0.0)):
            out = sphere_from_zphi(z, p)
            assert_bit_identical(out, _stacked_sphere_from_zphi(z, p))
            assert_fresh_vectors(out, (n, 3))

    @pytest.mark.parametrize("n", EDGE_ROWS)
    def test_rotate_to_frame_per_row_poles(self, n):
        rng = np.random.default_rng(n + 1)
        poles = _at_block_edges(_awkward_poles(rng, n), SPECIAL_POLES)
        local = _at_block_edges(_with_zeros(rng, random_unit_vec(rng, n)),
                                [[-0.0, -0.0, -0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                                 [0.0, -0.0, -1.0], [-0.0, 1.0, 0.0], [0.6, -0.0, -0.8]])
        for lo in (local, local[0], local[None, 3]):
            out = rotate_to_frame(lo, poles)
            assert_bit_identical(out, _stacked_rotate_to_frame(lo, poles))
            assert_fresh_vectors(out, (n, 3))

    @pytest.mark.parametrize("n", EDGE_ROWS)
    @pytest.mark.parametrize("pole", SPECIAL_POLES + [[0.36, -0.48, 0.8]])
    def test_rotate_to_frame_single_pole(self, n, pole):
        rng = np.random.default_rng(n + 2)
        local = _at_block_edges(_with_zeros(rng, random_unit_vec(rng, n)),
                                [[-0.0, -0.0, -0.0], [0.0, 0.0, -1.0], [1.0, -0.0, 0.0]])
        for po in (np.array(pole), np.array([pole])):
            out = rotate_to_frame(local, po)
            assert_bit_identical(out, _stacked_rotate_to_frame(local, po))
            assert_fresh_vectors(out, (n, 3))

    def test_rows_beyond_the_leading_axis_are_not_split(self):
        rng = np.random.default_rng(3)
        local = random_unit_vec(rng, 2 * (BLOCK + 3)).reshape(2, BLOCK + 3, 3)
        poles = _awkward_poles(rng, BLOCK + 3)
        assert_bit_identical(rotate_to_frame(local, poles), _stacked_rotate_to_frame(local, poles))
        z = local[..., 2]
        assert_bit_identical(sphere_from_zphi(z, 0.25), _stacked_sphere_from_zphi(z, 0.25))


# Frozen whole-array forms of the two model commands before they were blocked.

def _whole_array_sphere_point(keys, ctr):
    keys = np.asarray(keys, dtype=np.uint64)
    ctr = np.asarray(ctr, dtype=np.uint64)
    u = to_unit(mix_vec(keys, np.stack([ctr, ctr + np.uint64(1)])))
    return _stacked_sphere_from_zphi(2.0 * u[0] - 1.0, 2.0 * np.pi * u[1])


class TestSpherePointAtBlockEdges:
    @pytest.mark.parametrize("n", EDGE_ROWS)
    def test_one_key_per_point(self, n):
        keys = np.random.default_rng(n).integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        ctr = 2 * np.arange(1, n + 1, dtype=np.uint64)
        out = _sphere_point(keys, ctr)
        assert_bit_identical(out, _whole_array_sphere_point(keys, ctr))
        assert_fresh_vectors(out, (n, 3))

    @pytest.mark.parametrize("n", EDGE_ROWS)
    def test_one_key_many_counters(self, n):
        ctr = 2 * np.arange(1, n + 1, dtype=np.uint64)
        assert_bit_identical(_sphere_point(12345, ctr), _whole_array_sphere_point(12345, ctr))

    @pytest.mark.parametrize("rows, cols", [(1, BLOCK + 1), (1, 3 * BLOCK), (3, BLOCK // 2 + 1),
                                            (7, 2 * BLOCK // 7 + 1)])
    def test_scan_blocks_of_rounds_by_trials(self, rows, cols):
        # the protocol's draws: (cols,) trial keys over (rows, 1) round counters; a
        # block edge falls inside a row
        keys = np.random.default_rng(rows).integers(0, 2**64, cols, dtype=np.uint64,
                                                    endpoint=False)
        ctr = 2 * np.arange(5, 5 + rows, dtype=np.uint64)[:, None]
        out = _sphere_point(keys, ctr)
        assert_bit_identical(out, _whole_array_sphere_point(keys, ctr))
        assert_fresh_vectors(out, (rows, cols, 3))

    @pytest.mark.parametrize("keys, ctr", [(12345, 1), (np.arange(5), np.ones(1)),
                                           (12345, np.zeros(0)), (np.arange(3), np.ones((2, 0, 1)))])
    def test_small_and_empty_broadcasts(self, keys, ctr):
        # one path for every size: a scalar gives one (3,) point, and no points an empty result
        assert_bit_identical(_sphere_point(keys, ctr), _whole_array_sphere_point(keys, ctr))

    def test_holds_one_block_of_temporaries(self):
        # result (24 bytes/point) + 8 bytes/point of slack; the whole-array form
        # holds the words, their hash and the heights and azimuths at once (88)
        m = 1 << 18
        keys = np.random.default_rng(3).integers(0, 2**64, m, dtype=np.uint64, endpoint=False)
        ctr = 2 * np.arange(1, m + 1, dtype=np.uint64)
        tracemalloc.start()
        try:
            _sphere_point(keys, ctr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / m < 32


class _FirstRoundDrawn(Exception):
    """Ends a scan once its first round is drawn, with the traced peak and the rounds to build."""


class TestCodebookBinsAtBlockEdges:
    @pytest.mark.parametrize("bins", [4096, 1 << 16])   # the estimate, and the float64 point
    @pytest.mark.parametrize("per_run", [False, True], ids=["fixed", "random"])
    def test_holds_one_block_of_temporaries(self, monkeypatch, bins, per_run):
        # the first round of a 2**18-trial span, traced from its first codebook hash (the
        # scan's counters are a (rounds, 1) column; the states' are one word) to its first
        # decide, on the draws of the round that the cuts leave: each BLOCK-trial slice is
        # kept as its bool hits and the cells left to decide (~1/8 of the round at 24 bytes
        # each), and their joins peak at ~9 bytes/point; holding each slice's float32
        # positions to the join as well peaked at ~17; drawn whole, the words, hash,
        # heights, azimuths and estimate need 48-80
        m = 1 << 18
        sphere_zphi, positions, slices = protocol._sphere_zphi, protocol._positions, []

        def traced_zphi(keys, ctr, work):
            if ctr.ndim == 2 and not tracemalloc.is_tracing():
                tracemalloc.start()
            return sphere_zphi(keys, ctr, work)

        def recorded_positions(z, phi, v, k, work):
            t, exact = positions(z, phi, v, k, work)
            slices.append(t.shape)
            return t, exact

        def first_round_decided(schedule, symbols, rounds):
            raise _FirstRoundDrawn(tracemalloc.get_traced_memory()[1], int(rounds.max()))

        monkeypatch.setattr(protocol, "_sphere_zphi", traced_zphi)
        monkeypatch.setattr(protocol, "_positions", recorded_positions)
        monkeypatch.setattr(GreedySchedule, "decide", first_round_decided)
        try:
            with pytest.raises(_FirstRoundDrawn) as drawn:
                run_trials(4, m, bins, state=None if per_run else [0.0, 0.6, 0.8])
        finally:
            tracemalloc.stop()
        peak, built = drawn.value.args
        rows, cols = zip(*slices)
        shape = (max(rows), sum(cols))   # the BLOCK-trial slices of one round, side by side
        assert built == 1 and set(rows) == {1}
        assert shape == (1, m)
        assert peak / m < 12


class TestFixedInputRun:
    @pytest.mark.parametrize("bins", [64, 4096])
    def test_holds_no_per_trial_copy_of_fixed_inputs(self, bins):
        # a fixed state and measurement stay one (3,) row each from run_trials and answer
        # down to the kernels: a 16384-trial run and its answer peak at ~96 bytes/trial;
        # (n, 3) float64 copies of both, returned with the batch, took a run to ~153
        m = 16384
        v, meas = [0.0, 0.6, 0.8], [0.6, 0.0, 0.8]
        run_trials(3, 1, bins, state=v)   # the shared schedule, built untraced
        tracemalloc.start()
        try:
            run_trials(3, m, bins, state=v).answer(meas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / m < 128


_WARM_CALL_FAULTS = """
import resource, statistics
from kschannel.protocol import run_trials

def faults(r):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_trials(r, 16384, 64, state=(0, 0, 1))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

for r in range(5):
    run_trials(r, 16384, 64, state=(0, 0, 1))
print(statistics.median(faults(r) for r in range(5, 35)))
"""


class TestWarmCallFaults:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the count follows glibc's dynamic mmap and trim thresholds")
    def test_cost_shape_keeps_its_pages(self):
        # the cost shape, 5 warm calls and then 30, in a fresh process with glibc's allocator
        # at its defaults: with each block's hash, scratch and heights allocated afresh,
        # glibc gave their pages back between blocks and calls, ~400 minor faults a call;
        # one workspace a span, reused block after block, takes ~0
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(kschannel.__file__).parents[1]), env.get("PYTHONPATH", "")])
        run = subprocess.run([sys.executable, "-c", _WARM_CALL_FAULTS], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        assert float(run.stdout) <= 40


class TestSenderRun:
    @pytest.mark.parametrize("bins", [64, 4096])
    def test_sender_holds_no_measurements(self, bins):
        # with random inputs a 16384-trial run peaks at ~144 bytes/trial: the measurements
        # are drawn only when the batch is answered, after the scan; drawn before it,
        # their (n, 3) float64 rows were held through every round (~168)
        m = 16384
        run_trials(3, 1, bins)   # the shared schedule, built untraced
        tracemalloc.start()
        try:
            run_trials(3, m, bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / m < 150


def _block_order_draws(rng, n):
    """The n model heights and azimuths in block order: each BLOCK's heights, then its azimuths."""
    z, phi = [np.empty(0)], [np.empty(0)]
    for lo in range(0, n, BLOCK):
        size = min(BLOCK, n - lo)
        z.append(np.sqrt(1.0 - rng.random(size)))
        phi.append(rng.uniform(0.0, 2.0 * np.pi, size=size))
    return np.concatenate(z), np.concatenate(phi)


def _whole_array_ks_sample(v, rng, n):
    z, phi = _block_order_draws(rng, 1 if n is None else n)
    if n is None:
        z, phi = z[0], phi[0]
    return _stacked_rotate_to_frame(_stacked_sphere_from_zphi(z, phi), v)


def _whole_array_verify(state, meas, seed, n):
    """cells' empirical "+" rates of ``verify`` with state and/or measurement pinned."""
    root = mix(seed, cli._VERIFY_SALT)
    grid = [None] if state is not None and meas is not None else np.linspace(-1, 1, 13).tolist()
    rates = []
    for j, target_dot in enumerate(grid):
        rng = np.random.default_rng(mix(root, j))
        if target_dot is None:
            v, m = np.array(state), np.array(meas)
        else:
            v = np.array(state)
            m = _stacked_rotate_to_frame(_stacked_sphere_from_zphi(target_dot, 0.0), v)
        x = _whole_array_ks_sample(v, rng, n)
        rates.append(float(np.mean(np.where(_stacked_dot3(x, m) >= 0.0, 1, -1) == 1)))
    return rates


def _whole_array_mi(n, rng, chunk):
    total = total_sq = 0.0
    done = 0
    while done < n:
        m = min(chunk, n - done)
        states = _stacked_sphere_from_zphi(rng.uniform(-1.0, 1.0, m),
                                           rng.uniform(0.0, 2.0 * np.pi, m))
        d = _stacked_dot3(_whole_array_ks_sample(states, rng, m), states)
        # d times 1/pi, as the model scales it: d / pi differs in the last bit on ~8% of rows
        w = np.log2(np.where(d > 0.0, d * (1.0 / np.pi), 0.0) / np.full(m, 1.0 / (4.0 * np.pi)))
        total += float(np.sum(w))
        total_sq += float(np.sum(w * w))
        done += m
    mean = total / n
    return mean, float(np.sqrt(max(0.0, (total_sq - n * mean * mean) / (n - 1)) / n))


class TestKsSampleAtBlockEdges:
    @staticmethod
    def _assert_matches_whole_array(v, n, seed):
        rng, frozen_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = ks_sample(v, rng, n)
        want = _whole_array_ks_sample(np.asarray(v), frozen_rng, len(v) if n is None else n)
        assert_bit_identical(out, want)
        assert_fresh_vectors(out, want.shape)
        assert rng.random() == frozen_rng.random()  # the generator was consumed the same way

    @pytest.mark.parametrize("n", EDGE_ROWS)
    @pytest.mark.parametrize("pole", SPECIAL_POLES + [[0.36, -0.48, 0.8]])
    def test_single_pole(self, n, pole):
        self._assert_matches_whole_array(np.array(pole), n, n)

    def test_single_sample(self):
        rng, frozen_rng = np.random.default_rng(4), np.random.default_rng(4)
        v = np.array([0.36, -0.48, 0.8])
        assert_bit_identical(ks_sample(v, rng), _whole_array_ks_sample(v, frozen_rng, None))
        assert rng.random() == frozen_rng.random()

    @pytest.mark.parametrize("pole", [SPECIAL_POLES[0], [0.36, -0.48, 0.8]])
    def test_one_row_pole_is_shared(self, pole):
        self._assert_matches_whole_array(np.array([pole]), 2 * BLOCK + 7, 9)

    @pytest.mark.parametrize("n", EDGE_ROWS)
    def test_per_row_poles(self, n):
        poles = _at_block_edges(_awkward_poles(np.random.default_rng(n + 3), n), SPECIAL_POLES)
        self._assert_matches_whole_array(poles, None, n + 4)

    def test_holds_no_array_of_local_points(self):
        # result (24 bytes/row) + one block's temporaries and slack; the draws held
        # whole would cost 16 more, a whole (m, 3) array of local points 24 more
        m = 1 << 18
        states = random_unit_vec(np.random.default_rng(6), m)
        rng = np.random.default_rng(7)
        tracemalloc.start()
        try:
            ks_sample(states, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / m < 36


def _verify_rates(state, meas, seed, n):
    cfg = cli.RunConfig(command="verify", trials=n, seed=seed, bins=None, state=state, meas=meas,
                        out=None, format="json", workers=None)
    results, _ = cli.cmd_verify(cfg)
    return [cell["empirical"] for cell in results["cells"]]


class TestKsDrawBlocks:
    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 250_000])
    @pytest.mark.parametrize("spare", [False, True], ids=["fresh", "spare_word"])
    def test_blocks_are_ks_draws(self, n, spare):
        # joined, the blocks are the generator's block-order heights and azimuths bit for
        # bit, and the generator ends where those draws leave it, a spare 32-bit word included
        rng, frozen_rng = np.random.default_rng(n), np.random.default_rng(n)
        if spare:
            rng.integers(0, 1 << 32, dtype=np.uint32)
            frozen_rng.integers(0, 1 << 32, dtype=np.uint32)
        blocks = list(ks_draws(rng, n))
        z, phi = _block_order_draws(frozen_rng, n)
        assert all(zb.size == phib.size <= BLOCK for zb, phib in blocks)
        assert len(blocks) == -(-n // BLOCK)
        assert_bit_identical(np.concatenate([np.empty(0)] + [zb for zb, _ in blocks]), z)
        assert_bit_identical(np.concatenate([np.empty(0)] + [pb for _, pb in blocks]), phi)
        assert rng.bit_generator.state == frozen_rng.bit_generator.state

    @pytest.mark.parametrize("bits", [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                                      np.random.MT19937, np.random.SFC64],
                             ids=lambda bits: bits.__name__)
    def test_bit_generators(self, bits):
        # the draws use the generator as it is, so every numpy bit generator gives its
        # block-order draws and ends where they leave it, and ks_sample and mi run on it
        n = BLOCK + 1
        rng, frozen_rng = (np.random.Generator(bits(5)) for _ in range(2))
        blocks = list(ks_draws(rng, n))
        z, phi = _block_order_draws(frozen_rng, n)
        assert_bit_identical(np.concatenate([zb for zb, _ in blocks]), z)
        assert_bit_identical(np.concatenate([pb for _, pb in blocks]), phi)
        np.testing.assert_equal(rng.bit_generator.state, frozen_rng.bit_generator.state)
        pole = np.array([0.36, -0.48, 0.8])
        assert_bit_identical(ks_sample(pole, rng, n), _whole_array_ks_sample(pole, frozen_rng, n))
        est = mc_mutual_information(1000, rng)
        assert (est.value, est.std_error) == _whole_array_mi(1000, frozen_rng, 1 << 18)
        np.testing.assert_equal(rng.bit_generator.state, frozen_rng.bit_generator.state)


class TestModelCommandsAtBlockEdges:
    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK + 1, (1 << 18) + BLOCK + 1])
    def test_verify_pinned(self, n):
        state, meas = (0.6, 0.0, -0.8), (-0.36, 0.48, 0.8)
        want = _whole_array_verify(state, meas, 11, n)
        assert _verify_rates(state, meas, 11, n) == want

    def test_verify_holds_one_block_of_draws(self):
        # a 250k-sample cell peaks at ~2.6 bytes/sample: one block's draws and estimates;
        # drawn whole, the cell's heights and azimuths alone took 16
        n = 250_000
        _verify_rates((0.6, 0.0, -0.8), (-0.36, 0.48, 0.8), 11, BLOCK)   # imports, untraced
        tracemalloc.start()
        try:
            _verify_rates((0.6, 0.0, -0.8), (-0.36, 0.48, 0.8), 11, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 4

    def test_verify_grid_about_a_fixed_state(self):
        state = (0.0, -0.6, 0.8)
        n = 2 * BLOCK + 3
        want = _whole_array_verify(state, None, 7, n)
        assert _verify_rates(state, None, 7, n) == want

    # chunk: the 2^18 pairs mc_mutual_information draws at a time; the first n ends
    # on an unaligned last chunk
    @pytest.mark.parametrize("n, chunk", [((1 << 18) + BLOCK + 1, 1 << 18),
                                          (BLOCK - 1, 1 << 18)])
    def test_mc_mutual_information(self, n, chunk):
        for workers in (1, 3):
            rng, frozen_rng = np.random.default_rng(5), np.random.default_rng(5)
            est = mc_mutual_information(n, rng, workers=workers)
            assert (est.value, est.std_error) == _whole_array_mi(n, frozen_rng, chunk)
            assert rng.random() == frozen_rng.random()  # the generator was consumed the same way

    def test_mi_holds_no_array_of_points(self):
        # one chunk: the draws (32 bytes/row) and the log-ratios (8), plus slack
        # smaller than one 24-byte/row (m, 3) array of states or points
        m = 1 << 18
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            mc_mutual_information(m, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / m < 64
