"""Oracles that only the tests use.

The quadrature oracles of the hemisphere model: the normalization of
rho(x|v), the marginal of the uniform prior and the conditional entropy,
each reduced to :mod:`kschannel.quadrature`'s adaptive z rule over exact
azimuth arcs as :func:`~kschannel.quadrature.born_plus_integral` is.  The
tests hold them to the closed forms.

The reference paths of the protocol: :func:`run_trial` runs one trial
through the per-round loop :func:`~kschannel.greedy.greedy_one_shot`,
:func:`greedy_sample_batch` runs :meth:`~kschannel.greedy.GreedySchedule.scan`
on a numpy Generator's symbols, and :func:`scan_symbols` reads, beside the
scan's accepted indices, the position each run drew at its accepted round.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from kschannel.coding import elias_delta_encode, whole_number
from kschannel.geometry import Measurement, dot3, require_unit, sphere_from_zphi
from kschannel.greedy import DiscreteDistribution, GreedySchedule, greedy_one_shot
from kschannel.model import MARGINAL_DENSITY, ks_density
from kschannel.protocol import (_SUB_ACCEPT, _SUB_CODEBOOK, _SUB_MEAS, _SUB_STATE, Codebook,
                                TrialReport, _bin_count, _given, _ks_laws, _trial_input,
                                _trial_root, _word, bin_index, bob_receive)
from kschannel.quadrature import _GL16, _arc_halfwidth, _arc_nodes, _heights, _integrate_z
from kschannel.rngstream import counter_uniforms, mix

_GL32 = np.polynomial.legendre.leggauss(32)
_GL64 = np.polynomial.legendre.leggauss(64)


def density_normalization(v) -> float:
    """Integral of rho(x|v) over the sphere; 1 for a properly normalized model."""
    v = require_unit(v, "state v")
    vz = float(v[2])
    vs = float(np.hypot(v[0], v[1]))
    alpha = float(np.arctan2(v[1], v[0]))

    def ring(z: np.ndarray) -> np.ndarray:
        phi0 = _arc_halfwidth(vz * z, vs * np.sqrt(np.maximum(0.0, 1.0 - z * z)))
        phi, w = _arc_nodes((alpha - phi0, alpha + phi0, _GL32),
                            (alpha + phi0, alpha + 2.0 * np.pi - phi0, _GL16))
        x = sphere_from_zphi(_heights(z, phi), phi)
        return np.sum(w * np.asarray(ks_density(x, v)), axis=1)

    return _integrate_z(ring, (-vs, vs))


def marginal_from_prior(x) -> float:
    """Integral of rho(x|v) * rho(v) over states v with the uniform prior rho(v) = 1/(4 pi).

    For the hemisphere model this reproduces the constant marginal 1/(4 pi)
    at every x.
    """
    x = require_unit(x, "ontic state x")
    xz = float(x[2])
    xs = float(np.hypot(x[0], x[1]))
    alpha = float(np.arctan2(x[1], x[0]))
    prior = MARGINAL_DENSITY  # uniform prior density on the state sphere

    def ring(z: np.ndarray) -> np.ndarray:
        phi0 = _arc_halfwidth(xz * z, xs * np.sqrt(np.maximum(0.0, 1.0 - z * z)))
        phi, w = _arc_nodes((alpha - phi0, alpha + phi0, _GL32))
        v = sphere_from_zphi(_heights(z, phi), phi)
        return np.sum(w * np.asarray(ks_density(x, v)), axis=1) * prior

    return _integrate_z(ring, (-xs, xs))


def conditional_entropy_2d(v) -> float:
    """-Integral of rho(x|v) log2 rho(x|v) over the sphere, in bits.

    Full 2-D quadrature in the global frame (no use of the rotational
    symmetry of the answer), adaptive in z.  The azimuth integral runs over
    the support arc, which is symmetric about the azimuth of v; the
    substitution phi = phi0 (1 - tau^2) soaks up the u*log(u) edge behavior
    at the arc boundary, after which 64 Gauss-Legendre nodes are ample.
    """
    v = require_unit(v, "state v")
    vz = float(v[2])
    vs = float(np.hypot(v[0], v[1]))
    alpha = float(np.arctan2(v[1], v[0]))
    tau, tau_w = _GL64
    tau, tau_w = 0.5 + 0.5 * tau, 0.5 * tau_w  # Gauss-Legendre on [0, 1]

    def ring(z: np.ndarray) -> np.ndarray:
        phi0 = _arc_halfwidth(vz * z, vs * np.sqrt(np.maximum(0.0, 1.0 - z * z)))
        phi0 = np.where(phi0 < 1e-15, 0.0, phi0)[:, None]
        psi = phi0 * (1.0 - tau * tau)
        w = tau_w * (2.0 * phi0 * tau)
        x = sphere_from_zphi(_heights(z, psi), alpha + psi)
        rho = np.asarray(ks_density(x, v))
        g = np.where(rho > 0.0, -rho * np.log2(np.where(rho > 0.0, rho, 1.0)), 0.0)
        return 2.0 * np.sum(w * g, axis=1)  # arc is symmetric about alpha

    return _integrate_z(ring, (-vs, vs))


def scan_symbols(schedule, runs: int, draw, coins,
                 band: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`GreedySchedule.scan`'s accepted indices, and the position drawn at each.

    ``draw`` is wrapped to keep each call's active runs, first round and
    positions; each run's position is then read off the block in which it
    accepted, the one block that holds its accepted round.  ``schedule``
    needs only the scan's reads, ``cuts`` and ``decide``.
    """
    blocks = []

    def recorded(active, rounds):
        t, exact = draw(active, rounds)
        blocks.append((active, int(rounds[0]), t))
        return t, exact

    index = GreedySchedule.scan(schedule, runs, recorded, coins, band)
    symbol = np.zeros(runs, dtype=blocks[0][2].dtype if blocks else np.int64)
    for active, first, t in blocks:
        row = index[active] - first
        col = np.flatnonzero((row >= 0) & (row < t.shape[0]))
        symbol[active[col]] = t[row[col], col]
    return index, symbol


def greedy_sample_batch(target: DiscreteDistribution, proposal: DiscreteDistribution,
                        n_runs: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Run ``n_runs`` independent acceptance loops with one :meth:`GreedySchedule.scan`.

    Each draw call takes from ``rng`` the proposal symbols of its block as
    a (width, active) array, and each coin call one uniform per coin, in
    the order the scan asks for them.  Returns the arrays (accepted round
    indices, accepted symbols), the symbols by :func:`scan_symbols`.  A run
    count that is not a whole number >= 0 raises ValueError.
    """
    n_runs = whole_number(n_runs, "run count", 0)
    cdf = np.cumsum(proposal.masses)

    def draw(active, rounds):
        u = rng.random((rounds.size, active.size))
        symbols = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
        return symbols, symbols.ravel().take   # a symbol is its own exact position

    return scan_symbols(GreedySchedule(target, proposal), n_runs, draw,
                        lambda runs, _: rng.random(runs.size))


def run_trial(master_seed: int, trial_index: int, bins: int,
              state=None, meas=None) -> TrialReport:
    """Reference scalar path for one complete trial (sender then receiver).

    Trial t's streams are keyed ``mix(trial, _SUB_...)`` with ``trial =
    mix(_trial_root(master_seed), t)``, as on the wire path.  The sender is
    :func:`~kschannel.greedy.greedy_one_shot` over the codebook stream binned
    in numpy float64, independent of the shared schedule.  Bit-identical to
    the corresponding row of :func:`~kschannel.protocol.run_trials`.  Seeds
    and trial indices are checked as in
    :func:`~kschannel.protocol.trial_codebook`; the state and the measurement
    are each one unit vector of shape (3,) or (1, 3), checked before the
    sender runs and kept as its (3,) row, and the report keeps copies of them.
    """
    trial = mix(_trial_root(_word(master_seed, "master seed")), _word(trial_index, "trial index"))
    state, meas = (None if vec is None else _given(vec, name)
                   for vec, name in ((state, "state"), (meas, "measurement direction")))
    v, m = _trial_input(trial, state, _SUB_STATE), _trial_input(trial, meas, _SUB_MEAS)
    bins = _bin_count(bins)
    codebook = Codebook(seed=mix(trial, _SUB_CODEBOOK))
    stream = (int(bin_index(dot3(codebook.entry(i), v), bins)) for i in count(1))
    index, _ = greedy_one_shot(*_ks_laws(bins), stream, counter_uniforms(mix(trial, _SUB_ACCEPT)))
    bits = elias_delta_encode(index)
    outcome = bob_receive(bits, codebook, Measurement(m))
    return TrialReport(state=v, meas=m, accepted_index=index,
                       code_bits=len(bits), outcome=outcome)
