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
per bin count (:func:`_ks_schedule`) serves every trial and worker thread;
each read extends it, under its lock, through the last round read.
:func:`run_trials` hands each worker's span to :meth:`GreedySchedule.scan`
in blocks of rounds, one row per round, of at most :data:`geometry.BLOCK`
draws, hashed into the span's one :func:`_workspace`.  A draw is its float32
position t = (v.x + 1) bins/2 (:func:`_positions`); the scan settles it
against its round's two cut bins where it lies past them by more than
:data:`geometry.ESTIMATE_BAND` bins/2, and asks the bins of the rest (~4%),
binning from the float64 point only those within the band of a bin edge, so
each decision is the float64 bin's.  A batch holds the sender's output (the
accepted index and its code length) as the scan leaves it, and one receiver
per span; :meth:`TrialBatch.answer` runs them on a measurement, so a command
that reads only the sender's output never runs the receiver.  The outcomes
are the sign of a float32 estimate of x.m, taken from the float64 point only
inside that band (:func:`_outcomes`, by :func:`model._plus`, the kernel
``verify`` counts with), so each equals the float64 point's.
The two-party path works in Python floats, one round at a time:
:func:`alice_send` reads codebook entry i (:func:`_entry_point`, the scalar
image of :func:`_sphere_point`) and its bin's acceptance probability at
round i, and takes one coin; :func:`bob_receive` rebuilds the one accepted
entry the same way.  Every draw is the counter word the per-round reference
(:func:`greedy.greedy_one_shot`, run by ``tests/oracles.py``) reads, so
all paths give the same trial bit for bit.  Bin counts must be even whole
numbers in [2, :data:`_MAX_BINS`].

Wire format: the raw Elias delta bitstring of the accepted index, most
significant bit first, no padding.  Everything is deterministic given the
64-bit master seed; trial t uses sub-streams keyed off mix(master, t), so
results are independent of how trials are split across worker threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

import numpy as np

from .coding import (code_lengths, elias_delta_decode, elias_delta_encode, whole_indices,
                     whole_number)
from .geometry import (BLOCK, ESTIMATE_BAND, Measurement, born_from_dot, dot3, dot_estimate,
                       parallel_map, require_unit, sphere_from_zphi)
from .greedy import (DEFAULT_ROUND_CAP, DiscreteDistribution, GreedySchedule,
                     ProtocolFailure, _coin)
from .model import _plus
from .rngstream import _INV53, mix, mix_vec, to_unit

_TWO_PI = 2.0 * np.pi

#: salt separating the trial-key stream from other uses of the master seed
_TRIAL_SALT = 0x747269616C
#: per-trial sub-stream indices
_SUB_CODEBOOK, _SUB_ACCEPT, _SUB_STATE, _SUB_MEAS = 1, 2, 3, 4

#: fewest trials per worker thread: a run starts no more threads than its trial count has
#: whole 2**17-trial blocks, as short spans lose to handing the GIL: on two vCPUs, two threads
#: took 1.13x and 1.11x one's time at 100 000 and 2**17 trials at 64 fixed-input bins, 0.90x
#: and 0.85x at 4096 random bins, and 1.05x and 0.65x at 2**18 (interleaved, outcomes read)
_TRIALS_PER_THREAD = 1 << 17
#: largest bin count accepted; the protocol keeps several float arrays of this length
_MAX_BINS = 1 << 20


def _word(value, what: str) -> int:
    """``value`` as an int in [0, 2**64); anything else raises ValueError.

    The streams read seeds and trial indices as one 64-bit word, so -1 and
    2**64 - 1 would otherwise run the same trials, and int() would truncate
    1.5 or read True as 1.
    """
    value = whole_number(value, what)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{what} must be in [0, 2**64), got {value}")
    return value


def _bin_count(bins) -> int:
    """``bins`` as an even int in [2, :data:`_MAX_BINS`]; anything else raises ValueError."""
    bins = whole_number(bins, "bins")
    if not 2 <= bins <= _MAX_BINS or bins % 2:
        raise ValueError(f"bins must be even and in [2, {_MAX_BINS}], got {bins}")
    return bins


@dataclass(frozen=True)
class Codebook:
    """Shared stream of uniform sphere points, random-access by entry index.

    Entry i in [1, 2**63) is the :func:`_sphere_point` of the counter
    words (2i, 2i+1) of the seed's stream.  Both parties reconstruct any
    entry independently, bit for bit.  Seeds outside [0, 2**64), and
    indices that break the rule of :func:`coding.whole_indices` (whole
    numbers in [1, 2**63), no booleans), raise ValueError.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", _word(self.seed, "codebook seed"))

    def entries(self, indices) -> np.ndarray:
        return _sphere_point(self.seed, 2 * np.asarray(whole_indices(indices), dtype=np.uint64))

    def entry(self, i) -> np.ndarray:
        """Entry i alone, built in Python floats (:func:`_entry_point`), bit for bit."""
        return np.array(_entry_point(self.seed, whole_indices(i)))


@dataclass(eq=False)
class TrialReport:
    """One simulated trial; ``meas``/``outcome`` stay None on the sender side."""

    state: np.ndarray
    meas: np.ndarray | None
    accepted_index: int
    code_bits: int
    outcome: int | None


@dataclass(frozen=True, eq=False)
class TrialBatch:
    """The sender's per-trial arrays for a batch of simulated trials, and its receivers.

    ``accepted_index`` and ``code_bits`` are the sender's output; ``receivers``
    holds one call per span of trials, ``meas -> (outcome, born)`` on its rows,
    which :meth:`answer` runs.  The inputs stay with the caller.
    """

    accepted_index: np.ndarray  # (n,) int64
    code_bits: np.ndarray       # (n,) int64
    receivers: tuple            # one per span, in trial order

    @property
    def n(self) -> int:
        return self.accepted_index.size

    def answer(self, meas=None) -> tuple[np.ndarray, np.ndarray]:
        """Each trial's outcome (+1 / -1, int64) and quantum "+" probability (float64).

        ``meas`` fixes the measurement direction for every trial, one unit vector
        of shape (3,) or (1, 3) kept as one (3,) row; None draws one per trial
        from its own counter stream.  Each span answers on its own thread, as it
        scanned, and each call computes the rows anew.
        """
        meas = None if meas is None else _given(meas, "measurement direction")
        rows = parallel_map(lambda receive: receive(meas), self.receivers, len(self.receivers))
        return rows[0] if len(rows) == 1 else tuple(np.concatenate(c) for c in zip(*rows))


def ks_bin_masses(bins: int) -> np.ndarray:
    """Target mass per height bin: integral of 2z over the bin's overlap with (0, 1].

    Bins partition z in [-1, 1] uniformly; ``bins`` must be even so that an
    edge falls exactly on z = 0 and no bin straddles the support boundary.
    """
    bins = _bin_count(bins)
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


def alice_send(state, codebook: Codebook, bins: int, accept_uniforms) -> tuple[str, TrialReport]:
    """Sender half of one trial: steer the codebook onto rho(.|state).

    ``state`` is one unit vector, kept as its (3,) row (:func:`_given`).
    ``accept_uniforms`` supplies the sender's private coins (an iterable of
    numbers in [0, 1), :func:`greedy._coin`; any other coin raises ValueError);
    exactly one is taken per round up to the accepted one.  Round i reads codebook
    entry i as Python floats (:func:`_entry_point`) and its acceptance probability
    from the shared schedule (:meth:`GreedySchedule.accept_prob_at`, which builds
    through round i), so a trial costs time linear in its accepted index, whose
    mean is at most 4.  Returns the transmitted bitstring and the sender-side
    report.  Raises :class:`ProtocolFailure` if the coins run out first or nothing
    is accepted within :data:`greedy.DEFAULT_ROUND_CAP` rounds, a guard that the
    schedule's floor round (562 545 at 2**15 bins) keeps from binding.
    """
    state = _given(state, "state")
    v0, v1, v2 = state.tolist()
    bins = _bin_count(bins)
    half = bins / 2.0
    schedule = _ks_schedule(bins)
    coins = iter(accept_uniforms)
    for i in count(1):
        if i > DEFAULT_ROUND_CAP:
            raise ProtocolFailure(f"no acceptance within {DEFAULT_ROUND_CAP} rounds")
        x0, x1, x2 = _entry_point(codebook.seed, i)
        # dot3 and bin_index on Python floats, in their order
        b = math.floor((0.0 + x0 * v0 + x1 * v1 + x2 * v2 + 1.0) * half)
        p = schedule.accept_prob_at(min(max(b, 0), bins - 1), i)
        try:
            u = _coin(next(coins))
        except StopIteration:
            raise ProtocolFailure(f"stream exhausted after {i - 1} rounds") from None
        if u < p:
            bits = elias_delta_encode(i)
            return bits, TrialReport(state=state, meas=None, accepted_index=i,
                                     code_bits=len(bits), outcome=None)


def bob_receive(bits: str, codebook: Codebook, meas: Measurement) -> int:
    """Receiver half: decode the index, regenerate the point, answer the measurement.

    The point is :func:`_entry_point`'s and the answer :func:`model.ks_response`'s,
    +1 iff x.m >= 0, on Python floats; the direction has shape (3,) or (1, 3).
    """
    index = elias_delta_decode(bits)
    m0, m1, m2 = _row(meas.direction, "measurement direction").tolist()
    x0, x1, x2 = _entry_point(codebook.seed, index)   # decoded indices lie in [1, 2**63)
    return 1 if 0.0 + x0 * m0 + x1 * m1 + x2 * m2 >= 0.0 else -1


def _row(vec: np.ndarray, name: str) -> np.ndarray:
    """The (3,) view of one vector of shape (3,) or (1, 3); other shapes raise ValueError."""
    if vec.shape not in ((3,), (1, 3)):
        raise ValueError(f"{name} must be one vector of shape (3,) or (1, 3), got {vec.shape}")
    return vec.reshape(3)


def _entry_point(key: int, i: int) -> tuple[float, float, float]:
    """Codebook entry i of the stream ``key`` as three Python floats.

    The scalar image of ``_sphere_point(key, 2 i)``, bit for bit: the words
    of both counters are hashed by :func:`rngstream.mix` and mapped to [0, 1)
    by :func:`rngstream.to_unit`'s formula, ``float(w >> 11) * 2**-53``,
    written out on the int; z, phi and the radius take the vector path's
    float64 steps in its order, and cos and sin stay numpy's float64 ufuncs,
    the functions the vector path calls.
    """
    z = float(mix(key, 2 * i) >> 11) * _INV53 * 2.0 - 1.0
    phi = float(mix(key, 2 * i + 1) >> 11) * _INV53 * _TWO_PI
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return r * float(np.cos(phi)), r * float(np.sin(phi)), z


@lru_cache(maxsize=1)   # a run, or a stream of wire trials, reads one master seed
def _trial_root(master_seed: int) -> int:
    """The key of the seed's trial-key stream, ``mix(master_seed, _TRIAL_SALT)``."""
    return mix(master_seed, _TRIAL_SALT)


def _sphere_point(keys, ctr) -> np.ndarray:
    """Uniform sphere point from the counter words ctr and ctr + 1 of the ``keys`` streams.

    z = 2 u - 1 from the first word, azimuth = 2 pi u' from the second (see
    :func:`_sphere_zphi`); ``keys`` and ``ctr`` broadcast as in
    :func:`mix_vec`.  The (..., 3) result is built one :data:`geometry.BLOCK`-point
    slice of the flattened broadcast at a time in one :func:`_workspace`, so the
    temporaries stay a block long.  A single key or counter (one word) is hashed
    against every slice as it is, without being broadcast to the slice's length first.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    ctr = np.asarray(ctr, dtype=np.uint64)
    points = np.broadcast(keys, ctr)
    keys, ctr = (a.reshape(()) if a.size == 1 else
                 np.broadcast_to(a, points.shape).reshape(points.size) for a in (keys, ctr))
    out, work = np.empty((points.size, 3)), _workspace(points.size)
    for lo in range(0, points.size, BLOCK):
        z, phi = _sphere_zphi(*(a[lo:lo + BLOCK] if a.ndim else a for a in (keys, ctr)), work)
        sphere_from_zphi(z, phi, out=out[lo:lo + BLOCK])
    return out.reshape(*points.shape, 3)


def _workspace(points: int = BLOCK, rest: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views (words, units, rest) of one uint64 block for draws of b = min(points, BLOCK) points.

    ``words`` (2b uint64) takes the codebook hash, then the float32 estimate's
    temporaries; ``units`` (2b float64) the counter words and the hash's
    scratch, then the heights and azimuths; the last ``rest`` b words are the
    caller's.  Each span and each receiver call makes its own.
    """
    b = min(points, BLOCK)
    buf = np.empty((4 + rest) * b, dtype=np.uint64)
    return buf[:2 * b], buf[2 * b:4 * b].view(np.float64), buf[4 * b:]


def _sphere_zphi(keys: np.ndarray, ctr: np.ndarray, work) -> tuple[np.ndarray, np.ndarray]:
    """Height z = 2 u - 1 and azimuth phi = 2 pi u' of the points at counters ctr, ctr + 1.

    Both words of every point are hashed in one :func:`mix_vec` call, over a
    leading axis of length 2 whose two halves, the z words and the azimuth
    words, are each contiguous.  The counter words keep the counters' own
    shape, aligned to the keys' trailing axes; the hash broadcasts them
    against the keys, into the ``words`` of ``work``, a :func:`_workspace`,
    with its ``units`` as scratch; z and phi are views of ``units``, valid
    until its next use.  The words are shifted in place and converted once;
    :func:`rngstream.to_unit`'s factor 2**-53 is folded into the scales of z
    and phi without moving a bit: k = w >> 11 < 2**53 is exact in float64,
    and so are k 2**-53 and fl(2 pi) 2**-53, so (k 2**-53) 2 = k 2**-52, and
    (k 2**-53) fl(2 pi) and k (fl(2 pi) 2**-53) are one real number, rounded once.
    """
    words, units = work[:2]
    shape = (2,) + (1,) * (keys.ndim - ctr.ndim) + ctr.shape
    counters = units.view(np.uint64)[:math.prod(shape)].reshape(shape)
    counters[0] = ctr
    np.add(ctr, 1, out=counters[1:])
    shape = np.broadcast_shapes(keys.shape, shape)
    n = math.prod(shape)
    hashed = mix_vec(keys, counters, out=words[:n].reshape(shape),
                     scratch=units.view(np.uint64)[:n].reshape(shape))
    hashed >>= np.uint64(11)
    u = units[:n].reshape(shape)
    u[...] = hashed
    z, phi = u[0, ...], u[1, ...]   # views of the units buffer, scaled in place
    z *= 2.0 * _INV53
    z -= 1.0
    phi *= _TWO_PI * _INV53
    return z, phi


def _positions(z: np.ndarray, phi: np.ndarray, v, bins: int, work):
    """The scan's positions of draws (z, phi) about v, and the callback that bins them exactly.

    ``v`` is one (3,) state or one per column of the (width, active) ``z``; t =
    (s + 1) bins/2 in float32, s the :func:`geometry.dot_estimate` of v.x, its
    temporaries in the spent hash words of ``work``, the :func:`_workspace`
    holding z and phi.  The steps of t add 2e-7 bins/2 to the error of s: the
    scan's band :data:`geometry.ESTIMATE_BAND` bins/2, less its own float32
    rounding, stays over six times the sum.  So ``exact(cells)``, the bins of
    row-major flat cells, is c = floor(t) where t >= c + band and t < c + 1 -
    band, both cast to float32 as the scan casts its cuts, and the float64
    point's bin elsewhere; it reads z and phi, so holds until ``work``'s next use.
    """
    t = dot_estimate(z, phi, v, work[0])
    t += 1.0
    t *= bins / 2
    band = ESTIMATE_BAND * bins / 2

    def exact(cells):
        at = t.ravel()[cells]
        c = np.floor(at).astype(np.int64)
        near = np.flatnonzero((at < (c + band).astype(t.dtype)) |
                              (at >= (c + 1 - band).astype(t.dtype)))
        if near.size:
            cells = cells[near]
            c[near] = bin_index(dot3(sphere_from_zphi(z.ravel()[cells], phi.ravel()[cells]),
                                     v[cells % z.shape[-1]] if v.ndim > 1 else v), bins)
        return c

    return t, exact


def trial_codebook(master_seed: int, trial_index: int) -> Codebook:
    """The per-trial codebook both parties derive from the shared master seed.

    The scalar image of the codebook key ``mix_vec(trial, _SUB_CODEBOOK)``;
    the seed's root word is hashed once and kept (:func:`_trial_root`) while
    calls go on reading the same seed.  Seeds and trial indices that are not
    whole numbers in [0, 2**64), and booleans, raise ValueError.
    """
    trial = mix(_trial_root(_word(master_seed, "master seed")), _word(trial_index, "trial index"))
    return Codebook(seed=mix(trial, _SUB_CODEBOOK))


def _given(vec, name: str) -> np.ndarray:
    """A copy of the checked (3,) row of one unit vector of shape (3,) or (1, 3); others raise."""
    return _row(require_unit(vec, name), name).copy()


def _trial_input(trial, vec, sub: int) -> np.ndarray:
    """A :func:`_given` row as it is; None is drawn per key of ``trial`` from stream sub."""
    return _sphere_point(mix_vec(trial, sub), 1) if vec is None else vec


def _run_chunk(master_seed: int, start: int, stop: int, bins: int,
               state, schedule: GreedySchedule) -> TrialBatch:
    """The sender's half of trials start .. stop - 1 of :func:`run_trials`.

    The batch's one receiver keeps the span's trial keys, codebook keys and
    state rows for :func:`_answers`, which runs on each call of
    :meth:`TrialBatch.answer`.  A fixed state stays one (3,) row.
    """
    trial = mix_vec(_trial_root(master_seed), np.arange(start, stop, dtype=np.uint64))
    v = _trial_input(trial, state, _SUB_STATE)
    cb_keys = mix_vec(trial, _SUB_CODEBOOK)
    # the draws' 4 BLOCK words, then a slice's keys (BLOCK) and states (3 BLOCK, unused for a
    # fixed state, but on glibc a 1 MB block freed keeps warm calls' pages: ROADMAP item 13)
    work = _workspace(rest=4)
    keys, states = work[2][:BLOCK], work[2][BLOCK:].view(np.float64).reshape(-1, 3)

    def draw(active, rounds):
        # per-trial keys and states, gathered into the workspace (mode="clip", as the indices are
        # in range, lets np.take write out= unbuffered); a fixed state is one (3,) vector
        ctr = 2 * rounds.astype(np.uint64)[:, None]
        rows = v if state is not None else np.take(v, active, axis=0, mode="clip",
                                                   out=states[:active.size])
        return _positions(*_sphere_zphi(np.take(cb_keys, active, out=keys[:active.size],
                                                mode="clip"), ctr, work), rows, bins, work)

    def coins(runs, rounds):
        # the coin keys of the tossed runs alone, hashed as they are asked for
        return to_unit(mix_vec(mix_vec(trial[runs], _SUB_ACCEPT), rounds))

    accepted = schedule.scan(trial.size, draw, coins, ESTIMATE_BAND * bins / 2)
    return TrialBatch(accepted, code_lengths(accepted),
                      (lambda meas: _answers(trial, cb_keys, accepted, v, meas),))


def _answers(trial, cb_keys, accepted, v, meas) -> tuple[np.ndarray, np.ndarray]:
    """The receiver's half of a span: its outcome and Born rows.

    The measurement is the given (3,) row, or, when None, drawn per trial key
    on every call.  The outcomes are :func:`_outcomes` of the accepted entries;
    a fixed pair's Born probability is computed once and filled to the span.
    """
    m = _trial_input(trial, meas, _SUB_MEAS)
    return _outcomes(cb_keys, accepted, m), np.full(trial.size, born_from_dot(dot3(v, m)))


def _outcomes(keys: np.ndarray, accepted: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``np.where(dot3(_sphere_point(keys, 2 accepted), m) >= 0, 1, -1)``, by :func:`model._plus`.

    ``m`` is one (3,) direction or one per trial.  Each :data:`geometry.BLOCK`
    rows' accepted entries are hashed to their height and azimuth
    (:func:`_sphere_zphi`) and answered by the kernel, in one :func:`_workspace`.
    """
    out, work = np.empty(keys.size, dtype=np.int64), _workspace(keys.size)
    for lo in range(0, keys.size, BLOCK):
        rows = slice(lo, lo + BLOCK)
        z, phi = _sphere_zphi(keys[rows], 2 * accepted[rows].astype(np.uint64), work)
        mb = m[rows] if m.ndim > 1 else m
        plus = _plus(z, phi, mb, lambda tie: dot3(sphere_from_zphi(z[tie], phi[tie]),
                                                  mb[tie] if mb.ndim > 1 else mb), work[0])
        out[rows] = np.where(plus, 1, -1)
    return out


def run_trials(master_seed: int, n_trials: int, bins: int, state=None,
               workers: int = 1) -> TrialBatch:
    """The sender's half of ``n_trials`` independent trials, vectorized; it holds no inputs.

    ``state`` fixes the prepared state for every trial, one unit vector of
    shape (3,) or (1, 3) kept as one (3,) row; when None it is drawn uniformly
    per trial from its own counter stream.  The trials are split into one
    contiguous span per worker thread (at most one per whole
    :data:`_TRIALS_PER_THREAD` trials), each scanned at once; every row depends
    only on its trial index, so any worker count gives bit-identical results.
    The measurement belongs to the receiver: :meth:`TrialBatch.answer` takes
    it and answers every span on its own thread.  A seed outside [0, 2**64),
    and trial and worker counts that are not whole numbers >= 0 and >= 1,
    raise ValueError.
    """
    master_seed = _word(master_seed, "master seed")
    n_trials = whole_number(n_trials, "trial count", 0)
    workers = whole_number(workers, "workers", 1)
    state = None if state is None else _given(state, "state")
    bins = _bin_count(bins)
    schedule = _ks_schedule(bins)
    spans = max(1, min(workers, n_trials // _TRIALS_PER_THREAD))
    edges = [n_trials * k // spans for k in range(spans + 1)]
    parts = parallel_map(lambda k: _run_chunk(master_seed, edges[k], edges[k + 1], bins, state,
                                              schedule), range(spans), spans)
    if spans == 1:
        return parts[0]
    return TrialBatch(np.concatenate([p.accepted_index for p in parts]),
                      np.concatenate([p.code_bits for p in parts]),
                      tuple(r for p in parts for r in p.receivers))
