"""Greedy one-shot steering of a shared proposal stream onto a target law.

Both parties watch the same i.i.d. stream a_1, a_2, ... drawn from a
proposal distribution p.  The sender tracks, per symbol, how much target
mass has already been covered: starting from s_0 = 0, round i claims

    delta_i(a) = min( (1 - S_{i-1}) p(a),  t(a) - s_{i-1}(a) ),
    s_i = s_{i-1} + delta_i,      S_i = sum_a s_i(a),

and accepts the drawn symbol a_i with probability
delta_i(a_i) / ((1 - S_{i-1}) p(a_i)).  The chance of surviving to round i
is exactly 1 - S_{i-1}, so the unconditional law of the accepted symbol is
sum_i delta_i = t: the receiver, who only learns the accepted round index,
ends up holding a sample distributed exactly by the target.

The mass schedule s_i depends on the two laws only, so it is built once,
lazily, and shared by every run and thread (:class:`GreedySchedule`), which
states its law draw by draw and as two cut symbols a round.  Its ``scan``
runs many loops at once on (rounds, runs) arrays of draw positions and
returns their accepted indices alone; the sender reads the law one round
at a time, and :func:`greedy_one_shot` is the per-round scalar reference.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .coding import whole_number
from .geometry import BLOCK

#: rounds allowed before the protocol is declared broken
DEFAULT_ROUND_CAP = 1 << 32

#: below this remaining target mass the next wanted symbol is accepted outright
_REMAINDER_FLOOR = 1e-15

#: saturation round of a symbol that has not saturated (yet)
_UNSATURATED = np.iinfo(np.int64).max


class ProtocolFailure(RuntimeError):
    """Acceptance did not happen within the round cap (or the stream ended)."""


@dataclass(eq=False)
class DiscreteDistribution:
    """Probability vector over symbols 0..n-1; validated on construction."""

    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("masses must be a non-empty 1-D vector")
        if not np.all(np.isfinite(m)):
            raise ValueError("masses must be finite")
        if np.any(m < 0.0):
            raise ValueError("masses must be nonnegative")
        if abs(float(m.sum()) - 1.0) > 1e-12:
            raise ValueError(f"masses must sum to 1, got {float(m.sum())!r}")
        self.masses = m

    @property
    def n(self) -> int:
        return self.masses.size


def _advance(s: np.ndarray, remainder: float, target: np.ndarray,
             proposal: np.ndarray) -> np.ndarray:
    """Mass claimed this round: min((1-S) p(a), t(a) - s(a)) per symbol."""
    return np.minimum(remainder * proposal, target - s)


def _coin(u) -> float:
    """``u`` as a float in [0, 1); anything else, booleans and strings too, raises ValueError."""
    if not (type(u) is float and 0.0 <= u < 1.0) and (   # the counter streams' coins pass here
            isinstance(u, bool) or not isinstance(u, numbers.Real) or not 0.0 <= float(u) < 1.0):
        raise ValueError(f"coins must lie in [0, 1) as numbers, got {u!r}")
    return float(u)


def _check_support(target: np.ndarray, proposal: np.ndarray) -> None:
    if np.any((proposal == 0.0) & (target > 0.0)):
        raise ValueError("target puts mass on a symbol the proposal never emits")


class GreedySchedule:
    """The acceptance law of every round, shared by all runs on one (target, proposal).

    Built lazily, one round at a time, with the arithmetic of the scalar
    loop: ``delta = _advance(s, 1 - S, t, p)``, ``s += delta``,
    ``S = sum(s)``.  Per symbol it records the saturation round k (the
    first round whose claim is cut by the target, ``delta < (1 - S) p``)
    and the acceptance probability f = delta / ((1 - S) p) at that round,
    which is below 1: a float over a larger float is at most 1 - 2**-53.
    A symbol claims nothing after its saturation round, because it then
    holds s == t exactly: at k = 1 the claim is t itself, and at k > 1
    s >= p (its round-1 claim) >= (1 - S) p > delta = t - s, so s > t / 2,
    the difference t - s is exact and s + (t - s) is exactly t.  Saturated
    symbols are therefore left out of the update without changing any
    value.  ``floor_round`` is the first round whose remainder is at most
    ``_REMAINDER_FLOOR``.  :meth:`decide` states the acceptance law these
    fields give.

    The law is *ordered* (:meth:`extend` checks it) when the positive-mass
    symbols are a suffix and each round saturates the lowest unsaturated
    ones, so ``saturation`` does not decrease.  The bin laws are: every
    unsaturated bin has claimed the same mass, so they saturate in t order.

    One schedule may serve several threads.  :meth:`extend` holds a lock
    and publishes ``rounds`` only after every value of those rounds is
    written; :meth:`cuts`, :meth:`decide` and :meth:`accept_prob_at` extend
    it through the rounds they read (all are built once ``floor_round`` is
    known) and then read without the lock: a saturation round seen beyond
    them only tells that the symbol is still accepted in full.
    """

    def __init__(self, target: DiscreteDistribution, proposal: DiscreteDistribution):
        t = target.masses
        p = proposal.masses
        _check_support(t, p)
        self.target = t
        #: round at which each symbol saturates; ``_UNSATURATED`` until it does
        self.saturation = np.where(t > 0.0, _UNSATURATED, 1)
        #: acceptance probability at the saturation round
        self.fraction = np.where(t > 0.0, 1.0, 0.0)
        self.floor_round = _UNSATURATED
        self.rounds = 0      # rounds built so far
        self.total = 0.0     # S after the last built round
        self._s = np.zeros_like(t)
        self._live = np.flatnonzero(t > 0.0)
        self._live_t = t[self._live]
        self._live_p = p[self._live]
        self._live_s = np.zeros(self._live.size)
        self._first = t.size - self._live.size   # the first positive-mass symbol
        self._ordered = bool(self._live[0] == self._first)
        self._lock = threading.Lock()

    def extend(self, rounds: int) -> None:
        """Build the schedule through round ``rounds``; a no-op once the floor round is known."""
        if rounds <= self.rounds or self.floor_round != _UNSATURATED:
            return
        with self._lock:
            s, live = self._s, self._live
            t, p, s_live = self._live_t, self._live_p, self._live_s
            i, total = self.rounds, self.total
            while i < rounds and self.floor_round == _UNSATURATED:
                remainder = max(0.0, 1.0 - total)
                if remainder <= _REMAINDER_FLOOR:
                    self.floor_round = i + 1
                    break
                i += 1
                delta = _advance(s_live, remainder, t, p)
                step = remainder * p
                s_live += delta
                s[live] = s_live
                cut = (delta < step).nonzero()[0]
                if cut.size:
                    self._ordered &= bool(cut[-1] == cut.size - 1)   # the lowest live ones
                    self.saturation[live[cut]] = i
                    self.fraction[live[cut]] = delta[cut] / step[cut]
                    keep = np.ones(live.size, dtype=bool)
                    keep[cut] = False
                    live, t, p, s_live = live[keep], t[keep], p[keep], s_live[keep]
                total = float(s.sum())
            self.rounds, self.total = i, total
            self._live, self._live_t, self._live_p, self._live_s = live, t, p, s_live

    def cuts(self, rounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per round r = ``rounds[j]``: below lo[j] every symbol has p = 0, from hi[j] on p = 1.

        Builds through the last round first.  On an ordered law hi is the first
        symbol with k > r and lo the first positive-mass one with k >= r, and
        from ``floor_round`` on both are the first positive-mass symbol; on any
        other law lo = 0 and hi = n.
        """
        self.extend(int(rounds.max()))
        if not self._ordered:
            return np.zeros(rounds.size, dtype=np.int64), np.full(rounds.size, self.target.size)
        lo = np.maximum(np.searchsorted(self.saturation, rounds, side="left"), self._first)
        hi = np.searchsorted(self.saturation, rounds, side="right")
        past = rounds >= self.floor_round
        lo[past] = hi[past] = self._first
        return lo, hi

    def decide(self, symbols: np.ndarray,
               rounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decide draws one by one: ``symbols[j]`` drawn at round ``rounds[j]`` (1-D ints).

        Builds through the last round first.  The law: symbol a drawn at round
        r has p = 1 before its saturation round k_a, f_a at r = k_a and 0 after
        it; from ``floor_round`` on (where no k lies), p = 1 where t(a) > 0 and
        0 elsewhere.  Returns ``hit``, marking the draws with p = 1, and
        ``tossed`` and ``p``: the ascending indices of the draws with 0 < p < 1
        (f > 0 at r = k, as f < 1) and their p, for coins that hit below p.
        """
        last = int(rounds.max(initial=0))
        self.extend(last)
        k = self.saturation[symbols]
        hit = rounds < k
        tossed = np.flatnonzero(rounds == k)
        p = self.fraction[symbols[tossed]]
        if not p.all():   # f = 0: the claim closed the gap exactly
            tossed, p = tossed[p > 0.0], p[p > 0.0]
        if self.floor_round <= last:
            past = np.flatnonzero(rounds >= self.floor_round)
            hit[past] = self.target[symbols[past]] > 0.0
        return hit, tossed, p

    def accept_prob_at(self, symbol: int, i: int) -> float:
        """The p of :meth:`decide`'s law for one symbol drawn at round i, as a float.

        Like :meth:`decide` it builds the schedule through round i first;
        that build can be the one that finds the floor round.
        """
        if i > self.rounds:
            self.extend(i)
        if i >= self.floor_round:
            return 1.0 if self.target.item(symbol) > 0.0 else 0.0
        k = self.saturation.item(symbol)
        return 1.0 if i < k else self.fraction.item(symbol) if i == k else 0.0

    @property
    def ready(self) -> int:
        """Rounds read without building: those built, or all once floor_round is known."""
        return self.rounds if self.floor_round == _UNSATURATED else DEFAULT_ROUND_CAP

    def scan(self, runs: int, draw, coins, band: float = 0.0) -> np.ndarray:
        """Accepted round index of each of ``runs`` independent runs.

        ``draw(active, rounds)`` returns ``(t, exact)`` for the active runs at
        the next width rounds: t (width, active), one row per round, holds the
        draws' positions and ``exact(cells)`` the symbols at row-major flat
        indices of t; t >= c + ``band`` only where the symbol is >= c, and
        t < c - band only where it is < c, for every whole c.  Against its
        round's :meth:`cuts`, t >= hi + band hits and t < lo - band misses; the
        rest go to ``exact`` and :meth:`decide`, and its coin draws to
        ``coins(runs, rounds)`` in row-major order, for coins in [0, 1) that
        hit below p.  A run ends at its first hit, or raises ProtocolFailure
        past :data:`DEFAULT_ROUND_CAP` rounds.  The width is a BLOCK draw budget
        capped at the rounds done, or at twice them through the rounds :attr:`ready`
        counts; a block that builds rounds at most doubles the rounds done, as on a
        fresh schedule, and a stale count only narrows it.  Past BLOCK runs it slices.
        A draw's ``exact`` may read buffers that the next draw overwrites, so
        it is called on each slice before the next slice is drawn.
        """
        cap = DEFAULT_ROUND_CAP
        index = np.zeros(runs, dtype=np.int64)
        active = np.arange(runs)
        done = 0
        while active.size:
            if done >= cap:
                raise ProtocolFailure(f"no acceptance within {cap} rounds")
            width = min(max(1, BLOCK // active.size),
                        max(1, done, min(2 * done, self.ready - done)), cap - done)
            rounds = np.arange(done + 1, done + width + 1)
            done += width
            lo, hi = self.cuts(rounds)
            parts = []
            for start in range(0, active.size, BLOCK):
                part, exact = draw(active[start:start + BLOCK], rounds)
                above = part >= (hi + band).astype(part.dtype)[:, None]
                cells = np.flatnonzero((part >= (lo - band).astype(part.dtype)[:, None]) ^ above)
                # two or more slices only at width 1, where a slice's flat cell is its column
                parts.append((above, cells + start, exact(cells)))
                del part, exact   # frees the draw's own arrays before the next slice's
            hit, near, symbols = (column[0] if len(parts) == 1 else
                                  np.concatenate(column, axis=-1) for column in zip(*parts))
            if near.size:
                row, col = np.divmod(near, active.size)
                decided, tossed, p = self.decide(symbols, rounds[row])
                if tossed.size:
                    decided[tossed] = coins(active[col[tossed]], rounds[row[tossed]]) < p
                hit.flat[near] = decided
            if width == 1:   # the first rounds, over the most runs: no reduction to make
                won, rows_won, lost = hit[0].nonzero()[0], 0, ~hit[0]
            else:
                first = np.where(hit, np.arange(width)[:, None], width).min(axis=0)
                won = (first < width).nonzero()[0]
                rows_won, lost = first[won], first == width
            index[active[won]] = rounds[rows_won]
            active = active.compress(lost)   # 3x a boolean index's speed here
        return index


def greedy_one_shot(target: DiscreteDistribution, proposal: DiscreteDistribution,
                    symbols, uniforms) -> tuple[int, int]:
    """Run the acceptance loop on explicit symbol and coin streams.

    ``symbols`` yields proposal draws (symbol indices), ``uniforms`` yields
    the sender's private coins in [0, 1); one of each is consumed per round.
    Returns (accepted round index, accepted symbol), 1-based index.  Raises
    :class:`ProtocolFailure` if either stream ends or nothing is accepted
    within :data:`DEFAULT_ROUND_CAP` rounds, and ValueError on a coin that
    is not a number in [0, 1) (:func:`_coin`), a symbol that is not a whole
    number in [0, n), or a target the proposal misses.
    """
    t = target.masses
    p = proposal.masses
    _check_support(t, p)
    s = np.zeros_like(t)
    total = 0.0
    sym_it = iter(symbols)
    coin_it = iter(uniforms)
    i = 0
    while True:
        i += 1
        if i > DEFAULT_ROUND_CAP:
            raise ProtocolFailure(f"no acceptance within {DEFAULT_ROUND_CAP} rounds")
        try:
            a = next(sym_it)
            u = _coin(next(coin_it))
        except StopIteration:
            raise ProtocolFailure(f"stream exhausted after {i - 1} rounds") from None
        a = whole_number(a, "symbol", 0)
        if a >= t.size:
            raise ValueError(f"symbol must be < {t.size}, got {a}")
        remainder = max(0.0, 1.0 - total)
        delta = _advance(s, remainder, t, p)
        denom = remainder * p[a]
        if remainder <= _REMAINDER_FLOOR or denom <= 0.0:
            # target mass is exhausted to float precision: terminate on the
            # next wanted symbol instead of chasing a vanishing remainder
            p_accept = 1.0 if t[a] > 0.0 else 0.0
        else:
            p_accept = min(1.0, float(delta[a]) / denom)
        if u < p_accept:
            return i, a
        s += delta
        total = float(np.sum(s))
