"""Finite-communication simulation of the qubit prepare/measure channel.

One trial: the sender knows the Bloch vector v, both parties hold the same
seeded codebook of uniform sphere points (the shared randomness), and the
sender steers the stream onto the conditional density of the hemisphere
model by greedy rejection over height bins, transmitting only the Elias
delta code of the accepted round index.  The receiver decodes the index,
regenerates that codebook entry, and answers the measurement with the
hemisphere response.  The receiver's point is then distributed exactly by
the bin-averaged conditional density, so the simulation error is purely
the 1-D binning of the height z = v.x, of order 1/bins.

The bin laws do not depend on the state, so one :class:`GreedySchedule`
per bin count (:func:`_ks_schedule`) is built once per process and serves
every trial and worker thread; it is extended, under its lock, only as
deep as the deepest first acceptance asks.  :func:`run_trials` hands each
worker's span of trials to :meth:`GreedySchedule.scan`, which asks for
blocks of rounds: the span draws the bins of the codebook points and the
coins of rounds done+1 .. done+R for every still-active trial as
(active, R) arrays, and the scan ends each trial at its first accepting
round.  The receiver's point is then regenerated once per trial from its
accepted index, by the formula :func:`bob_receive` uses.
:func:`alice_send` scans one trial in blocks of 8, 16, 32, ... rounds,
taking one coin per round up to its acceptance.  Every draw is the counter
word the one-round-at-a-time reference (:func:`greedy.greedy_one_shot`,
which :func:`run_trial` uses) reads, so all paths give the same trial bit
for bit.

Wire format: the raw Elias delta bitstring of the accepted index, most
significant bit first, no padding.  Everything is deterministic given the
64-bit master seed; trial t uses sub-streams keyed off mix(master, t), so
results are independent of how trials are split across worker threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .coding import code_lengths, elias_delta_decode, elias_delta_encode, whole_number
from .geometry import Measurement, born_from_dot, dot3, require_unit, sphere_from_zphi
from .greedy import (DEFAULT_ROUND_CAP, DiscreteDistribution, GreedySchedule,
                     ProtocolFailure, greedy_one_shot)
from .model import ks_response
from .rngstream import counter_uniforms, mix, mix_vec, to_unit

_TWO_PI = 2.0 * np.pi

#: salt separating the trial-key stream from other uses of the master seed
_TRIAL_SALT = 0x747269616C
#: per-trial sub-stream indices
_SUB_CODEBOOK, _SUB_ACCEPT, _SUB_STATE, _SUB_MEAS = 1, 2, 3, 4

#: fewest trials per worker thread: a run never starts more threads than its
#: trial count has 8192-trial blocks
_TRIALS_PER_THREAD = 8192
#: rounds in the sender's first block; each later block doubles
_SEND_BLOCK = 8
#: codebook entries are indexed in [1, 2**63), so the counters 2i and 2i + 1 fit in 64 bits
_ENTRY_LIMIT = 1 << 63
_INDEX_RANGE = "codebook entries are indexed in [1, 2**63)"
_WHOLE_INDEX = "codebook indices must be whole numbers"
_BOOL_INDEX = "codebook indices must be whole numbers, not booleans"


@dataclass(frozen=True)
class Codebook:
    """Shared stream of uniform sphere points, random-access by entry index.

    Entry i in [1, 2**63) is the :func:`_sphere_point` of the counter
    words (2i, 2i+1) of the seed's stream.  Both parties reconstruct any
    entry independently, bit for bit.  Indices outside that range,
    booleans and non-integral floats raise ValueError.
    """

    seed: int

    def entries(self, indices) -> np.ndarray:
        raw = np.asarray(indices)
        # numpy turns a list mixing ints and bools into ints, so look at the elements too
        if raw.dtype == bool or (isinstance(indices, (list, tuple))
                                 and any(isinstance(i, (bool, np.bool_)) for i in indices)):
            raise ValueError(_BOOL_INDEX)
        if not np.all((raw >= 1) & (raw < _ENTRY_LIMIT)):  # NaN fails too
            raise ValueError(_INDEX_RANGE)
        if raw.dtype.kind not in "iu" and np.any(raw % 1 != 0):  # integer arrays skip this
            raise ValueError(_WHOLE_INDEX)
        return _sphere_point(self.seed, 2 * raw.astype(np.uint64))

    def entry(self, i: int) -> np.ndarray:
        """Entry i alone: the checks of :meth:`entries` on one Python scalar."""
        if isinstance(i, (bool, np.bool_)):
            raise ValueError(_BOOL_INDEX)
        if not 1 <= i < _ENTRY_LIMIT:  # NaN fails too
            raise ValueError(_INDEX_RANGE)
        if i % 1 != 0:
            raise ValueError(_WHOLE_INDEX)
        return _sphere_point(self.seed, 2 * int(i))


@dataclass(eq=False)
class TrialReport:
    """One simulated trial; ``meas``/``outcome`` stay None on the sender side."""

    state: np.ndarray
    meas: np.ndarray | None
    accepted_index: int
    code_bits: int
    outcome: int | None


@dataclass(eq=False)
class TrialBatch:
    """Per-trial arrays for a batch of simulated trials."""

    states: np.ndarray          # (n, 3)
    meas: np.ndarray            # (n, 3)
    accepted_index: np.ndarray  # (n,) int64
    code_bits: np.ndarray       # (n,) int64
    outcome: np.ndarray         # (n,) +1 / -1
    born: np.ndarray            # (n,) quantum "+" probability per trial
    points: np.ndarray          # (n, 3) the codebook entry the receiver regenerates

    @property
    def n(self) -> int:
        return self.accepted_index.size


def ks_bin_masses(bins: int) -> np.ndarray:
    """Target mass per height bin: integral of 2z over the bin's overlap with (0, 1].

    Bins partition z in [-1, 1] uniformly; ``bins`` must be even so that an
    edge falls exactly on z = 0 and no bin straddles the support boundary.
    """
    if bins < 2 or bins % 2:
        raise ValueError(f"bins must be even and >= 2, got {bins}")
    j = np.arange(bins + 1, dtype=float)
    edges = np.clip((2.0 * j - bins) / bins, 0.0, 1.0)
    return edges[1:] ** 2 - edges[:-1] ** 2


def bin_index(z, bins: int) -> np.ndarray:
    """Map height values in [-1, 1] to bin indices 0..bins-1."""
    idx = np.floor((np.asarray(z, dtype=float) + 1.0) * (bins / 2.0)).astype(np.int64)
    return np.minimum(np.maximum(idx, 0), bins - 1)   # np.clip, without its Python wrapper


def _ks_laws(bins: int) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Target and proposal bin laws; neither depends on the state."""
    return (DiscreteDistribution(ks_bin_masses(bins)),
            DiscreteDistribution(np.full(bins, 1.0 / bins)))


@lru_cache(maxsize=1)   # every caller in the package uses one bin count per process
def _ks_schedule(bins: int) -> GreedySchedule:
    """The greedy schedule of the bin laws, one per bin count, shared by every trial and thread."""
    return GreedySchedule(*_ks_laws(bins))


def discretize_ks(v, bins: int):
    """Height-bin reduction of the steering problem for state v.

    Returns (target, proposal, binner): the bin law of z = v.x under the
    conditional density, the uniform bin law it has under the codebook
    stream (z is uniform for uniform sphere points), and a function mapping
    sphere points to their bin.
    """
    v = require_unit(v, "state v")
    target, proposal = _ks_laws(bins)

    def binner(x) -> np.ndarray:
        return bin_index(dot3(x, v), bins)

    return target, proposal, binner


def alice_send(state, codebook: Codebook, bins: int, accept_uniforms,
               cap: int = DEFAULT_ROUND_CAP) -> tuple[str, TrialReport]:
    """Sender half of one trial: steer the codebook onto rho(.|state).

    ``accept_uniforms`` supplies the sender's private coins (an iterable of
    floats in [0, 1)); exactly one is taken per round up to the accepted
    one.  Returns the transmitted bitstring and the sender-side report.
    Raises :class:`ProtocolFailure` if nothing is accepted within ``cap``
    rounds or the coins run out first.
    """
    state = require_unit(state, "state")
    schedule = _ks_schedule(bins)
    coins = iter(accept_uniforms)
    done, width = 0, _SEND_BLOCK
    while True:
        width = min(width, cap - done)
        if width <= 0:
            raise ProtocolFailure(f"no acceptance within {cap} rounds")
        rounds = np.arange(done + 1, done + width + 1)
        bidx = bin_index(dot3(_sphere_point(codebook.seed, 2 * rounds), state), bins)
        known = int(np.searchsorted(rounds, schedule.depth, side="right"))
        prob = schedule.accept_prob(bidx[:known], rounds[:known]).tolist() if known else []
        for j in range(width):
            # past the built rounds the schedule is extended one round at a time
            p = prob[j] if j < known else float(schedule.accept_prob(bidx[j], rounds[j]))
            try:
                u = float(next(coins))
            except StopIteration:
                raise ProtocolFailure(f"stream exhausted after {done + j} rounds") from None
            if u < p:
                index = done + j + 1
                bits = elias_delta_encode(index)
                return bits, TrialReport(state=state, meas=None, accepted_index=index,
                                         code_bits=len(bits), outcome=None)
        done += width
        width *= 2


def bob_receive(bits: str, codebook: Codebook, meas: Measurement) -> int:
    """Receiver half: decode the index, regenerate the point, answer the measurement."""
    index = elias_delta_decode(bits)
    return int(ks_response(codebook.entry(index), meas))


def _trial_keys(master_seed: int, indices: np.ndarray) -> np.ndarray:
    """Root word of each trial; its sub-streams are keyed ``mix_vec(trial, _SUB_...)``."""
    return mix_vec(mix(master_seed, _TRIAL_SALT), indices)


def _sphere_point(keys, ctr) -> np.ndarray:
    """Uniform sphere point from the counter words ctr and ctr + 1 of the ``keys`` streams.

    z = 2 u - 1 from the first word, azimuth = 2 pi u' from the second;
    ``keys`` and ``ctr`` broadcast as in :func:`mix_vec`.  Both words of
    every point are hashed in one :func:`mix_vec` call, over a leading axis
    of length 2 whose two halves, the z words and the azimuth words, are
    each contiguous.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    ctr = np.asarray(ctr, dtype=np.uint64)
    words = np.empty((2, *np.broadcast(keys, ctr).shape), dtype=np.uint64)
    words[0] = ctr
    np.add(ctr, 1, out=words[1:])
    u = to_unit(mix_vec(keys, words))
    return sphere_from_zphi(2.0 * u[0] - 1.0, _TWO_PI * u[1])


def trial_codebook(master_seed: int, trial_index: int) -> Codebook:
    """The per-trial codebook both parties derive from the shared master seed.

    The scalar image of the codebook key ``mix_vec(trial, _SUB_CODEBOOK)``.
    Booleans and non-integral trial indices raise ValueError.
    """
    trial_index = whole_number(trial_index, "trial index")
    if not 0 <= trial_index < 1 << 64:
        raise ValueError(f"trial index must be in [0, 2**64), got {trial_index}")
    return Codebook(seed=mix(mix(mix(master_seed, _TRIAL_SALT), trial_index), _SUB_CODEBOOK))


def run_trial(master_seed: int, trial_index: int, bins: int,
              state=None, meas=None, cap: int = DEFAULT_ROUND_CAP) -> TrialReport:
    """Reference scalar path for one complete trial (sender then receiver).

    The sender is the per-round loop :func:`greedy.greedy_one_shot` over
    the binned codebook stream, independent of the shared schedule that
    :func:`alice_send` and :func:`run_trials` read.  Bit-identical to the
    corresponding row of :func:`run_trials`.
    """
    trial = _trial_keys(master_seed, np.array([trial_index], dtype=np.uint64))
    v = (np.asarray(state, float) if state is not None
         else _sphere_point(mix_vec(trial, _SUB_STATE), 1)[0])
    m = (np.asarray(meas, float) if meas is not None
         else _sphere_point(mix_vec(trial, _SUB_MEAS), 1)[0])
    codebook = Codebook(seed=int(mix_vec(trial, _SUB_CODEBOOK)[0]))
    target, proposal, binner = discretize_ks(v, bins)

    def binned_stream():
        i = 1
        while True:
            yield int(binner(codebook.entry(i)))
            i += 1

    index, _ = greedy_one_shot(target, proposal, binned_stream(),
                               counter_uniforms(int(mix_vec(trial, _SUB_ACCEPT)[0])), cap=cap)
    bits = elias_delta_encode(index)
    outcome = bob_receive(bits, codebook, Measurement(m))
    return TrialReport(state=v, meas=m, accepted_index=index,
                       code_bits=len(bits), outcome=outcome)


def _run_chunk(master_seed: int, start: int, count: int, bins: int,
               state, meas, cap: int, schedule: GreedySchedule) -> TrialBatch:
    trial = _trial_keys(master_seed, np.arange(start, start + count, dtype=np.uint64))
    if state is not None:
        v = np.broadcast_to(np.asarray(state, float), (count, 3)).copy()
    else:
        v = _sphere_point(mix_vec(trial, _SUB_STATE), 1)
    if meas is not None:
        m = np.broadcast_to(np.asarray(meas, float), (count, 3)).copy()
    else:
        m = _sphere_point(mix_vec(trial, _SUB_MEAS), 1)
    cb_keys = mix_vec(trial, _SUB_CODEBOOK)
    acc_keys = mix_vec(trial, _SUB_ACCEPT)

    def draw(active, rounds):
        ctr = rounds.astype(np.uint64)
        x = _sphere_point(cb_keys[active, None], 2 * ctr)
        coins = to_unit(mix_vec(acc_keys[active, None], ctr))
        return bin_index(dot3(x, v[active, None]), bins), coins

    accepted, _ = schedule.scan(count, draw, cap)
    points = _sphere_point(cb_keys, 2 * accepted.astype(np.uint64))
    outcome = np.where(dot3(points, m) >= 0.0, 1, -1)
    born = np.asarray(born_from_dot(dot3(v, m)))
    return TrialBatch(states=v, meas=m, accepted_index=accepted,
                      code_bits=code_lengths(accepted), outcome=outcome, born=born,
                      points=points)


def run_trials(master_seed: int, n_trials: int, bins: int, state=None, meas=None,
               workers: int = 1, cap: int = DEFAULT_ROUND_CAP) -> TrialBatch:
    """Simulate ``n_trials`` independent trials, vectorized.

    ``state`` / ``meas`` fix the prepared state or measurement direction for
    every trial; when None they are drawn uniformly per trial from the
    trial's own counter stream.  The trials are split into one contiguous
    span per worker thread (at most one per :data:`_TRIALS_PER_THREAD`
    trials), each scanned at once; every row depends only on its trial
    index, so any worker count yields bit-identical results.
    """
    if state is not None:
        state = require_unit(state, "state")
    if meas is not None:
        meas = require_unit(meas, "measurement direction")
    schedule = _ks_schedule(bins)
    spans = max(1, min(workers, -(-n_trials // _TRIALS_PER_THREAD)))
    edges = [n_trials * k // spans for k in range(spans + 1)]

    def scan(k: int) -> TrialBatch:
        return _run_chunk(master_seed, edges[k], edges[k + 1] - edges[k], bins, state, meas,
                          cap, schedule)

    if spans == 1:
        return scan(0)
    with ThreadPoolExecutor(max_workers=spans) as pool:
        parts = list(pool.map(scan, range(spans)))
    return TrialBatch(**{f.name: np.concatenate([getattr(p, f.name) for p in parts])
                         for f in fields(TrialBatch)})
