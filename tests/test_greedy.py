import hashlib
import itertools
import sys
import threading

import numpy as np
import pytest

from kschannel import DiscreteDistribution, ProtocolFailure, greedy_one_shot
from kschannel import greedy
from kschannel.geometry import BLOCK
from kschannel.greedy import GreedySchedule
from kschannel.protocol import ks_bin_masses
from kschannel.rngstream import mix_vec, to_unit
from oracles import greedy_sample_batch, scan_symbols


def dp_output_distribution(target, proposal, tol=1e-9, max_rounds=10**6):
    """Independent oracle: accumulate the per-round claimed mass directly.

    P(output = a) = sum_i delta_i(a); truncated once the remaining mass
    drops below ``tol``.  Returns (distribution, residual mass).
    """
    t = np.asarray(target, float)
    p = np.asarray(proposal, float)
    s = np.zeros_like(t)
    out = np.zeros_like(t)
    for _ in range(max_rounds):
        remaining = 1.0 - s.sum()
        if remaining <= tol:
            break
        delta = np.minimum(remaining * p, t - s)
        out += delta
        s += delta
    return out, 1.0 - s.sum()


def random_rational_pair(rng, denominator=64):
    """Random (target, proposal) on <= 8 symbols with masses k/denominator."""
    n = int(rng.integers(2, 9))
    p_counts = rng.multinomial(denominator - n, np.ones(n) / n) + 1  # full support
    t_counts = rng.multinomial(denominator, np.ones(n) / n)          # zeros allowed
    return (DiscreteDistribution(t_counts / denominator),
            DiscreteDistribution(p_counts / denominator))


def uniform_stream(rng):
    while True:
        yield rng.random()


def proposal_stream(proposal, rng):
    cdf = np.cumsum(proposal.masses)
    while True:
        yield int(np.searchsorted(cdf, rng.random(), side="right"))


def total_variation(a, b):
    return 0.5 * float(np.sum(np.abs(np.asarray(a) - np.asarray(b))))


class TestValidation:
    def test_distribution_rejects_negative_masses(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.5, 0.6, -0.1]))

    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.5, 0.4]))

    # NaN passes both the sign and the sum check; greedy_one_shot then accepts symbol 0 at round 1
    @pytest.mark.parametrize("masses", [[np.nan, 1.0], [1.0, np.nan, 0.0], [np.nan], [np.inf, 0.0]])
    def test_distribution_rejects_non_finite_masses(self, masses):
        with pytest.raises(ValueError, match="finite"):
            DiscreteDistribution(np.array(masses))

    @pytest.mark.parametrize("bad", [True, 2.5, -1, "3", None])
    def test_batch_rejects_run_counts_that_are_not_whole(self, bad):
        # True, 2.5 and 3.0 raised a bare TypeError from np.zeros, -1 numpy's "negative dimensions"
        d = DiscreteDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="run count"):
            greedy_sample_batch(d, d, bad, np.random.default_rng(0))
        for runs in (3.0, np.int64(3), 0):
            idx, sym = greedy_sample_batch(d, d, runs, np.random.default_rng(0))
            assert idx.shape == sym.shape == (int(runs),) and np.all(idx == 1)

    def test_support_mismatch_rejected(self):
        target = DiscreteDistribution(np.array([0.5, 0.5]))
        proposal = DiscreteDistribution(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="never emits"):
            greedy_one_shot(target, proposal, iter([0]), iter([0.5]))


class TestSingleShot:
    def test_identical_distributions_accept_first_draw(self):
        d = DiscreteDistribution(np.array([0.25, 0.75]))
        # acceptance probability is exactly 1, so even a coin of 1-eps accepts
        idx, sym = greedy_one_shot(d, d, iter([1]), iter([1.0 - 1e-16]))
        assert (idx, sym) == (1, 1)

    def test_hand_computed_two_symbol_trace(self):
        # target (1, 0), proposal (1/2, 1/2): draws of symbol 1 can never be
        # accepted; the first draw of symbol 0 always is.
        target = DiscreteDistribution(np.array([1.0, 0.0]))
        proposal = DiscreteDistribution(np.array([0.5, 0.5]))
        idx, sym = greedy_one_shot(target, proposal, iter([1, 1, 0]),
                                   iter([0.0, 0.0, 0.999]))
        assert (idx, sym) == (3, 0)

    def test_round_cap_raises(self, monkeypatch):
        # the guard is fixed at DEFAULT_ROUND_CAP; lowering the module's constant reaches it
        target = DiscreteDistribution(np.array([1.0, 0.0]))
        proposal = DiscreteDistribution(np.array([0.5, 0.5]))
        monkeypatch.setattr(greedy, "DEFAULT_ROUND_CAP", 64)
        with pytest.raises(ProtocolFailure, match="within 64 rounds"):
            greedy_one_shot(target, proposal, itertools.repeat(1, 100), itertools.repeat(0.5))
        assert greedy_one_shot(target, proposal, [1] * 63 + [0], itertools.repeat(0.5)) == (64, 0)

    @pytest.mark.parametrize("bad", [-1, 2, 3, 1.7, -0.5, True, float("nan"), "1"])
    def test_rejects_symbols_outside_the_alphabet(self, bad):
        # a symbol of -1 was read as the last symbol and accepted as (1, -1); 1.7 was read as 1
        target = DiscreteDistribution(np.array([0.0, 1.0]))
        proposal = DiscreteDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="symbol must"):
            greedy_one_shot(target, proposal, iter([bad, 1]), iter([0.5, 0.5]))
        # whole floats and numpy integers count as their int
        assert greedy_one_shot(target, proposal, iter([1.0]), iter([0.5])) == (1, 1)
        assert greedy_one_shot(target, proposal, iter([np.int64(0), np.uint8(1)]),
                               iter([0.5, 0.5])) == (2, 1)

    @pytest.mark.parametrize("bad", [-0.5, -1e-300, 1.0, 1.5, float("nan"), float("inf")])
    def test_rejects_coins_outside_the_unit_interval(self, bad):
        # symbol 1 has no target mass: a coin of -0.5 accepted it, a NaN never accepted
        target = DiscreteDistribution(np.array([1.0, 0.0]))
        proposal = DiscreteDistribution(np.array([0.5, 0.5]))
        for symbols in ([1, 0], [0]):
            with pytest.raises(ValueError, match=r"coins must lie in \[0, 1\)"):
                greedy_one_shot(target, proposal, iter(symbols), iter([bad, 0.5]))

    def test_exhausted_stream_raises(self):
        target = DiscreteDistribution(np.array([1.0, 0.0]))
        proposal = DiscreteDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ProtocolFailure, match="exhausted"):
            greedy_one_shot(target, proposal, iter([1, 1]), iter([0.5] * 2))


class TestOutputLaw:
    def test_dp_oracle_matches_target(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            target, proposal = random_rational_pair(rng)
            dist, residual = dp_output_distribution(target.masses, proposal.masses)
            assert residual < 1e-9
            assert total_variation(dist, target.masses) <= residual + 1e-12

    def test_two_symbol_expected_index(self):
        # accepted index is geometric(1/2): mean 2
        target = DiscreteDistribution(np.array([0.0, 1.0]))
        proposal = DiscreteDistribution(np.array([0.5, 0.5]))
        idx, sym = greedy_sample_batch(target, proposal, 100_000,
                                       np.random.default_rng(8))
        assert np.all(sym == 1)
        assert np.mean(idx) == pytest.approx(2.0, abs=0.02)

    def test_batch_empirical_matches_oracle(self):
        rng = np.random.default_rng(90)
        target, proposal = random_rational_pair(rng)
        dist, _ = dp_output_distribution(target.masses, proposal.masses)
        _, sym = greedy_sample_batch(target, proposal, 100_000, rng)
        empirical = np.bincount(sym, minlength=target.n) / 100_000
        assert total_variation(empirical, dist) <= 0.01

    def test_scalar_empirical_matches_target(self):
        rng = np.random.default_rng(13)
        target = DiscreteDistribution(np.array([0.125, 0.5, 0.375]))
        proposal = DiscreteDistribution(np.array([1 / 3, 1 / 3, 1 / 3]))
        counts = np.zeros(3)
        for _ in range(3000):
            _, sym = greedy_one_shot(target, proposal,
                                     proposal_stream(proposal, rng),
                                     uniform_stream(rng))
            counts[sym] += 1
        assert total_variation(counts / 3000, target.masses) <= 0.03


def per_round_loop(target, proposal, max_rounds=None):
    """Reference acceptance law from the plain per-round loop, one round at a time.

    Yields (round, acceptance probability of every symbol, S after the
    round's update); stops after ``max_rounds`` rounds or after the first
    round whose remainder is at most 1e-15, where every symbol with t > 0 is
    accepted outright.
    """
    t = target.masses
    p = proposal.masses
    s = np.zeros_like(t)
    total = 0.0
    for i in itertools.count(1):
        if max_rounds is not None and i > max_rounds:
            return
        remainder = max(0.0, 1.0 - total)
        delta = np.minimum(remainder * p, t - s)
        if remainder <= 1e-15:
            yield i, (t > 0.0).astype(float), None
            return
        p_accept = np.minimum(1.0, delta / (remainder * p))
        s += delta
        total = float(np.sum(s))
        yield i, p_accept, total


def law_table(target, proposal, last):
    """The law of rounds 1..last from :func:`per_round_loop`, one row per round.

    Row r - 1 holds the acceptance probability of every symbol drawn at round r;
    rows past the floor round repeat the floor round's row.
    """
    table = np.empty((last, target.n))
    for i, p_accept, _ in per_round_loop(target, proposal, last):
        table[i - 1] = p_accept
    table[i:] = p_accept
    return table


def assert_decided_as(schedule, symbols, rounds, want):
    """On a block of draws, one row per round: ``schedule.decide``, draw by draw in
    row-major order, marks the draws whose p in ``want`` is 1 and tosses exactly those
    with 0 < p < 1 at that p, and ``schedule.cuts`` puts no draw with p < 1 at or above
    hi, and none with p > 0 below lo."""
    hit, tossed, p = schedule.decide(symbols.ravel(), np.repeat(rounds, symbols.shape[1]))
    assert hit.dtype == bool and np.array_equal(hit, want.ravel() == 1.0)
    assert np.array_equal(tossed, np.flatnonzero((want > 0.0) & (want < 1.0)))
    assert np.array_equal(p, want.flat[tossed])
    lo, hi = schedule.cuts(rounds)
    assert lo.shape == hi.shape == rounds.shape and np.all(lo <= hi)
    assert np.all(want[symbols >= hi[:, None]] == 1.0)
    assert np.all(want[symbols < lo[:, None]] == 0.0)


def positions(symbols):
    """A draw's return for the scan: the symbols are their own positions and exact values."""
    return symbols, symbols.ravel().take


def _bin_laws(bins):
    return (DiscreteDistribution(ks_bin_masses(bins)),
            DiscreteDistribution(np.full(bins, 1.0 / bins)))


#: a small pair whose floor round (57) comes early: symbol 0 is never wanted, symbol 3
#: saturates at round 1 and symbol 1 at round 4, each with 0 < f < 1, and symbol 2 never does
EARLY_FLOOR = (DiscreteDistribution(np.array([0, 5, 9, 2]) / 16),
               DiscreteDistribution(np.array([1, 4, 7, 4]) / 16))

#: a pair whose order breaks at round 2: symbol 1 saturates at round 1 and symbol 3 at
#: round 2 (f = 0.4 and 0.9), while symbol 2 never does; the floor round is 118
LATE_BREAK = (DiscreteDistribution(np.array([0.0, 0.1, 0.56, 0.34])),
              DiscreteDistribution(np.full(4, 0.25)))

_LAWS = {"bins2": _bin_laws(2), "bins4": _bin_laws(4), "bins64": _bin_laws(64),
         "bins4096": _bin_laws(4096), "early_floor": EARLY_FLOOR, "late_break": LATE_BREAK}

#: the last round of each law's (symbol, round) grid: floor_round + 2, or round 3000 at
#: 4096 bins, whose floor round is 87 333
_GRID_LAST = {"bins2": 53, "bins4": 122, "bins64": 1879, "early_floor": 59, "bins4096": 3000,
              "late_break": 120}


class TestSchedule:
    # rounds=None runs to the floor round (24,656 rounds at 1024 bins)
    @pytest.mark.parametrize("bins,rounds", [(2, None), (4, None), (64, None), (256, None),
                                             (1024, None), (4096, 3000)])
    def test_matches_per_round_loop(self, bins, rounds):
        target = DiscreteDistribution(ks_bin_masses(bins))
        proposal = DiscreteDistribution(np.full(bins, 1.0 / bins))
        schedule = GreedySchedule(target, proposal)
        symbols = np.arange(bins)
        never = np.iinfo(np.int64).max
        k = np.full(bins, never)
        f = np.ones(bins)
        fractional = np.zeros(bins, dtype=int)
        floor = never
        for i, p_accept, total in per_round_loop(target, proposal, rounds):
            # one round's block, decided while the schedule is built a round at a time
            assert_decided_as(schedule, symbols[None], np.array([i]), p_accept[None])
            if total is None:
                floor = i
                break
            assert schedule.total == total
            cut = (p_accept < 1.0) & (k == never)
            k[cut] = i
            f[cut] = p_accept[cut]
            # after its saturation round a symbol is never accepted again
            assert np.all(p_accept[(k < i)] == 0.0)
            fractional += (p_accept > 0.0) & (p_accept < 1.0)
        assert schedule.floor_round == floor
        assert np.array_equal(schedule.saturation, k)
        assert np.array_equal(schedule.fraction, f)
        # one round at most strictly between 0 and 1 (a claim can also close
        # the gap exactly, which leaves f = 0 at the following round)
        assert np.all(fractional <= 1)
        positive = target.masses > 0.0
        saturated = positive & (k < never)
        assert np.array_equal(schedule._s[saturated], target.masses[saturated])
        if rounds is None:
            assert floor < never
            # only the largest bins are still taking full claims at the floor round
            assert 1 <= np.count_nonzero(positive & (k == never)) <= 2

    def test_accepted_mass_bookkeeping(self):
        target = DiscreteDistribution(np.array([1.0, 0.0]))
        proposal = DiscreteDistribution(np.array([0.5, 0.5]))
        schedule = GreedySchedule(target, proposal)
        previous = schedule.total
        for i in range(1, 5):
            schedule.extend(i)
            # S after round i is 1 - 2^-i for this pair
            assert schedule.total == 1.0 - 2.0 ** -i
            assert np.all(schedule._s <= target.masses)
            assert schedule.total >= previous
            previous = schedule.total

    @pytest.mark.parametrize("bins", [2, 4])
    def test_scalar_read_matches_accept_prob_through_the_floor(self, bins):
        # the name predates decide and law_table; it is kept so the test id stays stable
        # round by round as the sender reads it: built through round i, then read
        target, proposal = _bin_laws(bins)
        law = law_table(target, proposal, {2: 53, 4: 122}[bins])
        schedule = GreedySchedule(target, proposal)
        i = 0
        while i < schedule.floor_round + 2:   # floor_round is huge until it is known
            i += 1
            schedule.extend(i)
            got = [schedule.accept_prob_at(b, i) for b in range(bins)]
            assert all(type(p) is float for p in got)
            assert got == law[i - 1].tolist()
        assert i == schedule.floor_round + 2 == {2: 53, 4: 122}[bins]

    @pytest.mark.parametrize("bins", [4, 64])
    def test_scalar_read_builds_what_it_reads(self, bins):
        # on a fresh schedule, accept_prob_at(b, i) builds through round i itself: the rounds
        # built are those of extend(i), and the values the law's
        target, proposal = _bin_laws(bins)
        probe = GreedySchedule(target, proposal)
        probe.extend(10**6)
        floor = probe.floor_round   # 120 at 4 bins, 1877 at 64
        law = law_table(target, proposal, floor + 40)
        for i in (1, 2, 7, floor - 1, floor, floor + 1, floor + 40):
            built = GreedySchedule(target, proposal)
            built.extend(i)
            want = law[i - 1].tolist()
            fresh = GreedySchedule(target, proposal)
            assert fresh.accept_prob_at(0, i) == want[0]
            assert (fresh.rounds, fresh.floor_round) == (built.rounds, built.floor_round)
            assert [fresh.accept_prob_at(b, i) for b in range(bins)] == want

    def test_scalar_read_matches_accept_prob_on_sampled_rounds(self):
        # the name predates decide and law_table; it is kept so the test id stays stable
        bins = 64
        target, proposal = _bin_laws(bins)
        schedule = GreedySchedule(target, proposal)
        schedule.extend(10**6)   # stops at the floor round, 1877
        floor = schedule.floor_round
        law = law_table(target, proposal, floor + 2)
        rng = np.random.default_rng(64)
        rounds = {1, 2, floor - 1, floor, floor + 1, floor + 2,
                  *rng.integers(1, floor + 3, size=200).tolist()}
        for k in schedule.saturation[schedule.saturation < floor].tolist():
            rounds |= {k - 1, k, k + 1} - {0}
        for i in sorted(rounds):
            got = [schedule.accept_prob_at(b, i) for b in range(bins)]
            assert got == law[i - 1].tolist()

    @pytest.mark.parametrize("name", _GRID_LAST)
    def test_decide_matches_the_law_table(self, name):
        # every (symbol, round) of the grid in one block, from a fresh schedule
        target, proposal = _LAWS[name]
        last = _GRID_LAST[name]
        schedule = GreedySchedule(target, proposal)
        grid = np.broadcast_to(np.arange(target.n), (last, target.n))
        assert_decided_as(schedule, grid, np.arange(1, last + 1),
                          law_table(target, proposal, last))
        if name != "bins4096":
            assert last == schedule.floor_round + 2

    @pytest.mark.parametrize("name", ["bins64", "early_floor"])
    def test_scalar_read_matches_the_law_table(self, name):
        # every (symbol, round) through floor_round + 2, round by round from a fresh schedule
        # (test_scalar_read_matches_accept_prob_through_the_floor reads 2 and 4 bins so)
        target, proposal = _LAWS[name]
        last = _GRID_LAST[name]
        schedule = GreedySchedule(target, proposal)
        got = [[schedule.accept_prob_at(a, i) for a in range(target.n)]
               for i in range(1, last + 1)]
        assert got == law_table(target, proposal, last).tolist()
        assert last == schedule.floor_round + 2

    def test_batch_sampler_keeps_its_draws_and_outputs(self):
        # replay the batch sampler's draws through a recording draw and coins: every run
        # is asked for rounds 1, 2, ... in order with no gap, is dropped after the block of
        # its acceptance, is tossed a coin for just its draws with 0 < p < 1, and ends at
        # the first round whose draw has p = 1 or a coin below p
        rng = np.random.default_rng(123)
        for _ in range(10):
            target, proposal = random_rational_pair(rng)
            law = [p_accept for _, p_accept, _ in per_round_loop(target, proposal)]
            seed = int(rng.integers(2**32))
            idx, sym = greedy_sample_batch(target, proposal, 500, np.random.default_rng(seed))
            draws = np.random.default_rng(seed)
            cdf = np.cumsum(proposal.masses)
            seen = [[] for _ in range(500)]   # (round, symbol) per run
            tossed = {}                       # (run, round) -> coin

            def draw(active, rounds):
                a = np.minimum(np.searchsorted(cdf, draws.random((rounds.size, active.size)),
                                               side="right"), target.n - 1)
                for col, run in enumerate(active.tolist()):
                    seen[run] += zip(rounds.tolist(), a[:, col].tolist())
                return positions(a)   # (width, active)

            def coins(runs, rounds):
                u = draws.random(runs.size)
                tossed.update(zip(zip(runs.tolist(), rounds.tolist()), u.tolist()))
                return u

            got = scan_symbols(GreedySchedule(target, proposal), 500, draw, coins)
            assert np.array_equal(got[0], idx) and np.array_equal(got[1], sym)
            for run in range(500):
                rounds, a = zip(*seen[run])
                assert rounds == tuple(range(1, len(rounds) + 1))
                assert len(rounds) <= max(1, 2 * (idx[run] - 1))
                p = [law[min(i, len(law)) - 1][a[i - 1]] for i in rounds]
                assert [(run, i) in tossed for i in rounds] == [0.0 < q < 1.0 for q in p]
                hits = [i for i, q in zip(rounds, p) if q == 1.0 or tossed.get((run, i), 1.0) < q]
                assert (idx[run], sym[run]) == (hits[0], a[hits[0] - 1])

    @pytest.mark.parametrize("bins", [2, 64, 4096])
    def test_first_accept_is_the_first_hit_and_builds_only_that_deep(self, bins):
        target, proposal = _bin_laws(bins)
        for built in (0, 5, 60):
            keys = mix_vec(bins * 1000 + built, np.arange(1, 501))
            ends = []

            def draw(active, rounds):
                # counter-addressed: a run's draws at a round never depend on the block;
                # one row per round, one column per run
                ends.append(int(rounds[-1]))
                words = mix_vec(keys[active], 2 * rounds.astype(np.uint64)[:, None])
                return positions((words % np.uint64(bins)).astype(np.int64))

            def coins(runs, rounds):
                return to_unit(mix_vec(keys[runs], 2 * rounds.astype(np.uint64) + 1))

            lazy = GreedySchedule(target, proposal)
            lazy.extend(built)
            index, symbol = scan_symbols(lazy, 500, draw, coins)
            last_end = ends[-1]
            rounds = np.arange(1, index.max() + 1)
            symbols, _ = draw(np.arange(500), rounds)
            # every draw's coin, asked for or not: a coin in [0, 1) decides p = 0 and 1 alike
            p = law_table(target, proposal, rounds[-1])[rounds[:, None] - 1, symbols]
            hit = coins(np.arange(500), rounds[:, None]) < p
            assert hit.any(axis=0).all()
            first = np.argmax(hit, axis=0)
            assert np.array_equal(index, rounds[first])
            assert np.array_equal(symbol, symbols[first, np.arange(500)])
            # built through the last round of the last block drawn, which holds the
            # deepest acceptance, and no deeper; the build stops short at the floor
            # round (about round 50 at 2 bins)
            assert last_end == max(ends) >= index.max()
            assert lazy.rounds == min(max(built, last_end), lazy.floor_round - 1)

    @pytest.mark.parametrize("bins", [4, 64, 4096])
    def test_coins_are_asked_for_exactly_the_draws_with_fractional_p(self, bins):
        # each block's coin call lists its draws with 0 < p < 1 round by round, runs
        # ascending within a round; at 4 bins every p is 0 or 1 and no coin is asked for
        target, proposal = _bin_laws(bins)
        keys = mix_vec(bins, np.arange(1, 2001))
        blocks, asked = [], []

        def draw(active, rounds):
            symbols = (mix_vec(keys[active], 2 * rounds.astype(np.uint64)[:, None])
                       % np.uint64(bins)).astype(np.int64)
            blocks.append((active, rounds, symbols))
            return positions(symbols)

        def coins(runs, rounds):
            asked.append((runs.copy(), rounds.copy()))
            return to_unit(mix_vec(keys[runs], 2 * rounds.astype(np.uint64) + 1))

        scan_symbols(GreedySchedule(target, proposal), 2000, draw, coins)
        law = law_table(target, proposal, max(int(rounds[-1]) for _, rounds, _ in blocks))
        want = []
        for active, rounds, symbols in blocks:
            p = law[rounds[:, None] - 1, symbols]
            row, col = ((p > 0.0) & (p < 1.0)).nonzero()
            if row.size:
                want.append((active[col], rounds[row]))
        assert len(asked) == len(want)
        for (runs, rounds), (want_runs, want_rounds) in zip(asked, want):
            assert np.array_equal(runs, want_runs) and np.array_equal(rounds, want_rounds)
        tossed = sum(runs.size for runs, _ in asked)
        if bins == 4:
            assert tossed == 0
        else:   # a few percent of the draws
            assert 0 < tossed < 0.1 * sum(symbols.size for _, _, symbols in blocks)

    def test_no_draw_call_draws_more_than_a_block(self, monkeypatch):
        # 2**18 runs: the first rounds (width 1) are drawn in BLOCK-run slices and joined,
        # and the result is the unsliced scan's; counter-addressed draws make the block
        # shapes irrelevant to the outcome
        target = DiscreteDistribution(ks_bin_masses(64))
        proposal = DiscreteDistribution(np.full(64, 1.0 / 64))
        runs = 1 << 18
        keys = mix_vec(3, np.arange(runs))
        sizes = []

        def draw(active, rounds):
            sizes.append(rounds.size * active.size)
            words = mix_vec(keys[active], 2 * rounds.astype(np.uint64)[:, None])
            return positions((words % np.uint64(64)).astype(np.int64))

        def coins(runs, rounds):
            return to_unit(mix_vec(keys[runs], 2 * rounds.astype(np.uint64) + 1))

        index, symbol = scan_symbols(GreedySchedule(target, proposal), runs, draw, coins)
        assert max(sizes) == BLOCK and sizes[:runs // BLOCK] == [BLOCK] * (runs // BLOCK)
        monkeypatch.setattr(greedy, "BLOCK", 2 * runs)
        sizes.clear()
        whole = scan_symbols(GreedySchedule(target, proposal), runs, draw, coins)
        assert sizes[0] == runs
        assert np.array_equal(whole[0], index) and np.array_equal(whole[1], symbol)

    def test_first_accept_reaches_the_floor_round_through_saturated_draws(self):
        # at 4 bins symbol 0 is never wanted, symbol 2 saturates at round 2 and
        # symbol 3 never does; every run draws symbol 0 up to round 99 and
        # symbol 2 after it, which only the floor round (120) accepts
        target = DiscreteDistribution(ks_bin_masses(4))
        proposal = DiscreteDistribution(np.full(4, 0.25))
        full = GreedySchedule(target, proposal)
        full.extend(1000)
        assert full.floor_round == 120 and full.saturation[2] == 2
        # 40-round blocks once 27 rounds are done: through the 99 rounds built, blocks reach
        # three times the rounds done, so 108..147 holds 120 and 131
        runs = BLOCK // 40
        symbols = np.zeros((200, runs), dtype=np.int64)   # one row per round
        symbols[99:] = 2
        coins = np.random.default_rng(4).random((runs, 200)).T
        for late_unsaturated in (False, True):
            symbols[130:, 1] = 3 if late_unsaturated else 2
            blocks = []

            def draw(active, rounds):
                blocks.append((rounds[0], rounds[-1]))
                return positions(symbols[rounds - 1][:, active])

            lazy = GreedySchedule(target, proposal)
            lazy.extend(99)
            index, symbol = scan_symbols(lazy, runs, draw, lambda r, i: coins[i - 1, r])
            assert (108, 147) in blocks
            assert np.all(index == 120) and np.all(symbol == 2)
            # the build stops at the floor round, not at the end (147) of the block holding it
            assert lazy.rounds == 119 and lazy.floor_round == 120

    def test_scan_raises_at_the_cap_and_draws_no_further(self, monkeypatch):
        # target (1, 0), proposal (1/2, 1/2): symbol 1 is never accepted, symbol 0
        # always; every run draws symbol 1 until round 70 and symbol 0 there.  The guard
        # is fixed at DEFAULT_ROUND_CAP; lowering the module's constant reaches it
        target = DiscreteDistribution(np.array([1.0, 0.0]))
        proposal = DiscreteDistribution(np.array([0.5, 0.5]))
        asked = []

        def draw(active, rounds):
            asked.append(int(rounds[-1]))
            return positions(np.tile(np.where(rounds == 70, 0, 1)[:, None], (1, active.size)))

        def no_coins(runs, rounds):   # every p here is 0 or 1
            raise AssertionError("a coin was asked for")

        for cap in (70, 71, 1000):
            monkeypatch.setattr(greedy, "DEFAULT_ROUND_CAP", cap)
            index, symbol = scan_symbols(GreedySchedule(target, proposal), 5, draw, no_coins)
            assert np.all(index == 70) and np.all(symbol == 0)
        for cap in (69, 1, 0):
            monkeypatch.setattr(greedy, "DEFAULT_ROUND_CAP", cap)
            asked.clear()
            with pytest.raises(ProtocolFailure, match=f"within {cap} rounds"):
                scan_symbols(GreedySchedule(target, proposal), 5, draw, no_coins)
            assert max(asked, default=0) == cap

    def test_unordered_law_accepts_at_the_floor_round_by_decide(self, monkeypatch):
        # target (0.7, 0.3), proposal (1/2, 1/2): symbol 1 saturates at round 1 (f = 0.6)
        # above the live symbol 0, so the law is unordered and its cuts (0, 2) leave every
        # draw to decide.  Every run draws symbol 1 with coin 0.99, so it misses every
        # round until the floor round (50), where decide's floor rule accepts it.  The cap
        # is lowered to the floor round + 64, so a scan without that rule fails at once
        target = DiscreteDistribution(np.array([0.7, 0.3]))
        proposal = DiscreteDistribution(np.array([0.5, 0.5]))
        full = GreedySchedule(target, proposal)
        full.extend(1000)
        floor = full.floor_round
        assert floor == 50 and not full._ordered and full.saturation[1] == 1
        lo, hi = full.cuts(np.arange(1, floor + 64))
        assert np.all(lo == 0) and np.all(hi == 2)
        monkeypatch.setattr(greedy, "DEFAULT_ROUND_CAP", floor + 64)

        def draw(active, rounds):
            return positions(np.ones((rounds.size, active.size), dtype=np.int64))

        for runs in (1, 5, BLOCK + 3):
            index, symbol = scan_symbols(GreedySchedule(target, proposal), runs, draw,
                                         lambda r, i: np.full(r.size, 0.99))
            assert np.all(index == floor) and np.all(symbol == 1)

    def test_concurrent_readers_see_the_serial_schedule(self):
        # four threads (more than cores) extend one shared schedule a round
        # at a time; a lost or interleaved update changes some round's law
        target = DiscreteDistribution(ks_bin_masses(4096))
        proposal = DiscreteDistribution(np.full(4096, 1.0 / 4096))
        serial = GreedySchedule(target, proposal)
        serial.extend(1500)
        shared = GreedySchedule(target, proposal)
        symbols = np.arange(4096)
        wrong = []

        def read(k):
            for i in range(1 + k, 1501, 4):
                rounds = np.full(4096, i)
                got, want = ((*s.decide(symbols, rounds), *s.cuts(rounds[:1]))
                             for s in (shared, serial))
                if not all(np.array_equal(a, b) for a, b in zip(got, want)):
                    wrong.append(i)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        finally:
            sys.setswitchinterval(switch)
        assert wrong == []
        assert shared.rounds == serial.rounds and shared.total == serial.total
        assert np.array_equal(shared.saturation, serial.saturation)
        assert np.array_equal(shared.fraction, serial.fraction)

    def test_zero_target_symbols_are_never_accepted(self):
        target = DiscreteDistribution(np.array([0.0, 0.25, 0.75, 0.0]))
        proposal = DiscreteDistribution(np.array([0.25, 0.25, 0.25, 0.25]))
        schedule = GreedySchedule(target, proposal)
        hit, tossed, _ = schedule.decide(np.tile([0, 3], 500), np.repeat(np.arange(1, 501), 2))
        assert not hit.any() and tossed.size == 0 and schedule.floor_round < 500
        assert schedule.accept_prob_at(0, 1) == schedule.accept_prob_at(3, 500) == 0.0


class TestScanDecision:
    def test_scan_reads_the_law_only_through_decide(self, monkeypatch):
        # a stub law that has nothing but cuts, decide and the count of rounds it answers
        # without building (12 of them), read from a fixed (round, symbol) table of p: its
        # cuts cover every symbol, so every draw goes to decide.  The scan
        # itself slices the draws, tosses the coins, finds each first hit and keeps the
        # round guard, and any read of a schedule field fails here.  20 runs over a BLOCK of
        # 8 draws: the first rounds are drawn in 8-run slices and joined.  Coins of exactly
        # p miss
        monkeypatch.setattr(greedy, "BLOCK", 8)
        runs, depth = 20, 40
        rng = np.random.default_rng(26)
        table = rng.choice([0.0, 0.25, 0.5, 1.0], p=[0.4, 0.2, 0.2, 0.2], size=(depth, 5))
        table[-1] = 1.0   # every run is accepted by round `depth`
        symbols = rng.integers(0, 5, size=(depth, runs))   # one row per round
        coins = rng.choice([0.0, 0.25, 0.4, 0.5, 0.9], size=(depth, runs))
        p_drawn = table[np.arange(depth)[:, None], symbols]
        hits = (p_drawn == 1.0) | (coins < p_drawn)
        first = np.argmax(hits, axis=0) + 1
        assert 1 < first.max() < depth

        class Law:
            ready = 12

            def cuts(self, rounds):
                return np.zeros(rounds.size, dtype=np.int64), np.full(rounds.size, 5)

            def decide(self, drawn, rounds):
                decided.append((drawn.copy(), rounds.copy()))
                p = table[rounds - 1, drawn]
                tossed = np.flatnonzero((p > 0.0) & (p < 1.0))
                return p == 1.0, tossed, p[tossed]

        def draw(active, rounds):
            slices.append((active.copy(), rounds.copy()))
            return positions(symbols[rounds - 1][:, active])

        def toss(runs, rounds):
            asked.append((runs.copy(), rounds.copy()))
            return coins[rounds - 1, runs]

        decided, slices, asked = [], [], []
        index, symbol = scan_symbols(Law(), runs, draw, toss)
        assert np.array_equal(index, first)
        assert np.array_equal(symbol, symbols[first - 1, np.arange(runs)])
        # no slice holds more than BLOCK draws; each block's slices cover its active runs in
        # order, and decide gets their joined draws and their rounds, row-major
        assert max(a.size * r.size for a, r in slices) <= 8
        assert [a.size for a, _ in slices[:3]] == [8, 8, 4]
        blocks = []
        for active, rounds in slices:
            if blocks and np.array_equal(blocks[-1][1], rounds):
                blocks[-1][0] = np.concatenate([blocks[-1][0], active])
            else:
                blocks.append([active, rounds])
        assert len(decided) == len(blocks)
        waiting, done = np.arange(runs), 0
        for (drawn, rounds), (active, block_rounds) in zip(decided, blocks):
            assert np.array_equal(rounds, np.repeat(block_rounds, active.size))
            assert np.array_equal(block_rounds,
                                  np.arange(done + 1, done + block_rounds.size + 1))
            done = int(block_rounds[-1])
            assert np.array_equal(active, waiting)
            assert np.array_equal(drawn, symbols[block_rounds - 1][:, active].ravel())
            waiting = active[first[active] > block_rounds[-1]]
        # the coins: exactly the draws with 0 < p < 1, row-major (rounds, then runs ascending)
        want = []
        for active, rounds in blocks:
            p = p_drawn[rounds - 1][:, active]
            row, col = ((p > 0.0) & (p < 1.0)).nonzero()
            if row.size:
                want.append((active[col], rounds[row]))
        assert len(asked) == len(want)
        for (got_runs, got_rounds), (want_runs, want_rounds) in zip(asked, want):
            assert np.array_equal(got_runs, want_runs) and np.array_equal(got_rounds, want_rounds)
        # the guard: a run still waiting at the cap raises, and no round past it is drawn
        cap = int(first.max()) - 1
        monkeypatch.setattr(greedy, "DEFAULT_ROUND_CAP", cap)
        slices.clear()
        with pytest.raises(ProtocolFailure, match=f"within {cap} rounds"):
            scan_symbols(Law(), runs, draw, toss)
        assert max(int(r[-1]) for _, r in slices) == cap
        monkeypatch.setattr(greedy, "DEFAULT_ROUND_CAP", cap + 1)
        assert np.array_equal(scan_symbols(Law(), runs, draw, toss)[0], first)

    @pytest.mark.parametrize("name", ["bins2", "bins4", "bins64", "early_floor", "late_break"])
    def test_every_draw_is_decided_as_accept_prob(self, monkeypatch, name):
        # the name predates decide and law_table; it is kept so the test id stays stable
        # every (symbol, round) through floor_round + 2 is drawn by a run that reaches it on
        # misses alone.  A run draws a never-wanted symbol before its start round, its own
        # symbol from there through round `last`, and a wanted symbol after it (accepted,
        # being past the floor).  Chains of runs start at round 1 and just after each p = 1
        # round of their symbol, so each ends at the next one; their coins, asked at
        # 0 < p < 1, are p itself, which misses.  One more run per such draw starts there
        # with the float below p as its coin, which hits.  Every run ends by round last + 1,
        # so the cap is lowered to last + 64: a scan that keeps a run waiting past it raises
        # at once instead of drawing on toward 2^32 rounds
        target, proposal = _LAWS[name]
        full = GreedySchedule(target, proposal)
        full.extend(1 << 20)
        last = full.floor_round + 2
        assert last == _GRID_LAST[name]
        assert np.all(full.fraction[full.saturation <= full.rounds] < 1.0)
        law = law_table(target, proposal, last)   # past `last` every round has the floor's law
        monkeypatch.setattr(greedy, "DEFAULT_ROUND_CAP", last + 64)

        def p_of(symbols, rounds):
            return law[np.minimum(rounds, last) - 1, symbols]

        never = int(np.flatnonzero(target.masses == 0.0)[0])
        wanted = int(np.flatnonzero(target.masses > 0.0)[0])
        plan = []   # (symbol, start round, coin below p, accepted round) of each run
        for a in range(target.n):
            start = 1
            while start <= last:
                ones = np.flatnonzero(law[start - 1:, a] == 1.0)
                end = start + int(ones[0]) if ones.size else last + 1
                plan.append((a, start, False, end))
                start = end + 1
            tossed = np.flatnonzero((law[:, a] > 0.0) & (law[:, a] < 1.0)) + 1
            plan += [(a, j, True, j) for j in tossed.tolist()]
        symbol, start, low, end = (np.array(col) for col in zip(*plan))

        def drawn(runs, rounds):
            return np.where(rounds < start[runs], never,
                            np.where(rounds <= last, symbol[runs], wanted))

        fractional, asked = [], []

        def draw(active, rounds):
            symbols = drawn(active, rounds[:, None])
            p = p_of(symbols, rounds[:, None])
            row, col = ((p > 0.0) & (p < 1.0)).nonzero()
            if row.size:
                fractional.append((active[col], rounds[row]))
            return positions(symbols)

        def coins(runs, rounds):
            asked.append((runs.copy(), rounds.copy()))
            p = p_of(drawn(runs, rounds), rounds)
            return np.where(low[runs], np.nextafter(p, 0.0), p)

        index, accepted = scan_symbols(GreedySchedule(target, proposal), end.size, draw, coins)
        assert np.array_equal(index, end)
        assert np.array_equal(accepted, np.where(end <= last, symbol, wanted))
        # a coin for exactly the drawn (run, round) pairs with 0 < p < 1, in each block's
        # row-major order; at 2 and 4 bins every p is 0 or 1
        assert len(asked) == len(fractional)
        assert (not asked) == (name in ("bins2", "bins4"))
        for (runs, rounds), (want_runs, want_rounds) in zip(asked, fractional):
            assert np.array_equal(runs, want_runs) and np.array_equal(rounds, want_rounds)

    # sha256 of the (index, symbol) arrays of greedy_sample_batch(target, proposal, 20000,
    # default_rng(seed)) for seeds 0, 1 and 2, pinned while the scan still decided each
    # block through one accept_prob call: the scan must ask the Generator for the same
    # draws and coins in the same order
    @pytest.mark.parametrize("name,digest", [
        ("bins2", "c4a446716ca12378"), ("bins4", "e1ee9bcce597aa2e"),
        ("bins64", "d23e513e43a87aa0"), ("bins4096", "07f092977063cc26"),
        ("early_floor", "3ac54d02b205460e"), ("late_break", "ec0084de3e411827")])
    def test_batch_sampler_outputs_are_pinned(self, name, digest):
        target, proposal = _LAWS[name]
        h = hashlib.sha256()
        for seed in (0, 1, 2):
            index, symbol = greedy_sample_batch(target, proposal, 20000,
                                                np.random.default_rng(seed))
            h.update(index.astype("<i8").tobytes())
            h.update(symbol.astype("<i8").tobytes())
        assert h.hexdigest()[:16] == digest


def scan_against_the_law(target, proposal, runs, seed):
    """``GreedySchedule.scan`` on counter-addressed draws and coins, and the first hits that
    ``law_table`` gives the same draws and coins, as (index, symbol) pairs."""
    keys = mix_vec(seed, np.arange(1, runs + 1))

    def symbols(active, rounds):
        words = mix_vec(keys[active], 2 * rounds.astype(np.uint64)[:, None])
        return (words % np.uint64(target.n)).astype(np.int64)

    def coins(active, rounds):
        return to_unit(mix_vec(keys[active], 2 * rounds.astype(np.uint64) + 1))

    got = scan_symbols(GreedySchedule(target, proposal), runs,
                       lambda a, r: positions(symbols(a, r)), coins)
    rounds = np.arange(1, got[0].max() + 1)
    drawn = symbols(np.arange(runs), rounds)
    p = law_table(target, proposal, rounds[-1])[rounds[:, None] - 1, drawn]
    hit = coins(np.arange(runs), rounds[:, None]) < p
    first = np.argmax(hit, axis=0)
    assert hit.any(axis=0).all()
    return got, (rounds[first], drawn[first, np.arange(runs)])


class TestCuts:
    @pytest.mark.parametrize("bins", [2, 4, 8, 64, 4096])
    def test_bin_laws_saturate_in_symbol_order(self, bins):
        # built to the floor round: the lower half never wanted (k = 1, f = 0), and k does
        # not decrease over the upper half, so each round's law is its two cuts; from the
        # floor round on both cuts are the first upper bin
        schedule = GreedySchedule(*_bin_laws(bins))
        schedule.extend(1 << 20)
        floor = schedule.floor_round
        assert floor < 1 << 20 and schedule._ordered
        k, f = schedule.saturation, schedule.fraction
        assert np.all(k[:bins // 2] == 1) and np.all(f[:bins // 2] == 0.0)
        assert np.all(np.diff(k[bins // 2:]) >= 0)
        rounds = np.arange(1, floor + 3)
        lo, hi = schedule.cuts(rounds)
        assert np.all(lo[floor - 1:] == bins // 2) and np.all(hi[floor - 1:] == bins // 2)
        assert np.all(np.diff(lo[:floor - 1]) >= 0) and np.all(np.diff(hi[:floor - 1]) >= 0)
        symbol = np.arange(bins)
        for r in np.unique(np.concatenate([[1, 2, floor - 1], k[k < floor]])).tolist():
            want = [schedule.accept_prob_at(b, r) for b in range(bins)]
            assert np.all(np.array(want)[symbol >= hi[r - 1]] == 1.0)
            assert np.all(np.array(want)[symbol < lo[r - 1]] == 0.0)
            assert np.all(k[lo[r - 1]:hi[r - 1]] == r)

    @pytest.mark.parametrize("name", ["early_floor", "late_break", "zero_mass_inside"])
    def test_unordered_laws_leave_every_symbol_to_decide(self, name):
        # a law that saturates a symbol above a live one, or wants a symbol above one it
        # never wants, gets cuts (0, n) on every round from then on, and the scan still
        # accepts each run where the law table does
        target, proposal = _LAWS.get(name) or (DiscreteDistribution(np.array([0.5, 0.0, 0.5])),
                                               DiscreteDistribution(np.full(3, 1.0 / 3)))
        schedule = GreedySchedule(target, proposal)
        if name == "late_break":   # ordered through round 1, where symbol 1 alone saturates
            assert [c.tolist() for c in schedule.cuts(np.array([1]))] == [[1], [2]]
        rounds = np.arange(1, 200)
        lo, hi = schedule.cuts(rounds)
        assert not schedule._ordered
        assert np.all(lo == 0) and np.all(hi == target.n)
        got, want = scan_against_the_law(target, proposal, 3000, target.n)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_random_laws_scan_as_their_law_tables(self):
        # small random pairs, ordered or not: the order flag is the order of saturation
        # built to the floor round, and the scan's first hits are the law table's
        rng = np.random.default_rng(31)
        ordered = 0
        for j in range(40):
            target, proposal = random_rational_pair(rng)
            got, want = scan_against_the_law(target, proposal, 500, j)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            full = GreedySchedule(target, proposal)
            full.extend(1 << 20)
            positive = np.flatnonzero(target.masses > 0.0)
            k = np.where(target.masses > 0.0, full.saturation, 0)
            assert full._ordered == (positive[0] + positive.size == target.n
                                     and bool(np.all(np.diff(k) >= 0)))
            ordered += full._ordered
        assert 0 < ordered < 40
