"""Mutual information between the prepared state and the model state.

All entropies are differential, all logarithms base 2, all results in bits.
For the hemisphere model every quantity has a closed form or a 1-D
quadrature thanks to rotational symmetry:

    h(X|Psi) = log2(pi) + 1/(2 ln 2)  ~ 2.3728 bits   (finite)
    h(X)     = log2(4 pi)             ~ 3.6515 bits   (finite)
    I(X:Psi) = 2 - 1/(2 ln 2)         ~ 1.2787 bits

Finiteness of both entropies is the property that lets the model be turned
into a finite-communication protocol at all.  Models in which distinct
states occupy disjoint supports carry the full state description in each
sample; their mutual information diverges and no finite entropy exists to
compute, so no such number is offered here.

The Monte Carlo estimate draws the polar coordinates of uniform states and
of the model's points in a fixed order into buffers it makes once, then
builds the states, rotates the points about them and divides each density
by the constant marginal 1/(4 pi) a BLOCK at a time: one block per thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .coding import whole_number
from .geometry import BLOCK, parallel_map, rotate_to_frame, sphere_from_zphi
from .model import MARGINAL_DENSITY, _ks_block, _ks_density, _uniform

_LN2 = np.log(2.0)

#: fewest samples :func:`mc_mutual_information` accepts
MIN_MI_SAMPLES = 1000
#: standard errors within which :meth:`MiEstimate.brackets` counts a value as matched
BRACKET_SIGMAS = 3.0

#: (state, point) pairs :func:`mc_mutual_information` draws from the generator at a time
_MI_CHUNK = 1 << 18


def exact_ks_mi() -> float:
    """Closed-form I(X:Psi) of the hemisphere model: 2 - 1/(2 ln 2) bits."""
    return float(2.0 - 1.0 / (2.0 * _LN2))


def conditional_entropy_ks() -> float:
    """Differential entropy of rho(.|v) in bits, identical for every v.

    With z = v.x distributed as 2z dz on (0, 1], the entropy reduces to the
    1-D integral -2 int_0^1 z log2(z/pi) dz = log2(pi) + 1/(2 ln 2).  The
    tests check the closed form against that integral by quadrature.
    """
    return float(np.log2(np.pi) + 1.0 / (2.0 * _LN2))


def marginal_entropy_ks() -> float:
    """Entropy of the uniform marginal on the sphere: log2(4 pi) bits."""
    return float(np.log2(4.0 * np.pi))


@dataclass(frozen=True)
class MiEstimate:
    """Monte Carlo mutual-information estimate with its standard error."""

    value: float
    std_error: float
    n_samples: int

    def brackets(self, target: float) -> bool:
        """True when ``target`` lies within BRACKET_SIGMAS standard errors of the estimate."""
        return abs(self.value - target) <= BRACKET_SIGMAS * self.std_error


def mc_mutual_information(n: int, rng: np.random.Generator, workers: int = 1) -> MiEstimate:
    """Monte Carlo estimate of I(X:Psi) for the hemisphere model.

    Draws uniform states, one model point per state, and averages
    log2[ rho(x|v) / rho(x) ] over the pairs, where rho(x) is the constant
    :data:`~kschannel.model.MARGINAL_DENSITY`; the standard error is the
    sample deviation over sqrt(n).  Requires whole numbers n >= MIN_MI_SAMPLES
    and workers >= 1 (booleans and fractions raise ValueError).

    Samples are drawn :data:`_MI_CHUNK` pairs at a time into buffers made once,
    in the generator's order: the states' heights, their azimuths, the model's
    blocks.  Each of up to ``workers`` threads (:func:`parallel_map`) draws the
    next block into its own (2, BLOCK) slot under one lock, then builds its
    states and points, rotates them and writes the log-ratios over its state
    heights while the others draw.  The sums are taken over the whole chunk, so
    neither the split nor ``workers`` moves a bit of the estimate.
    """
    n = whole_number(n, "sample count", MIN_MI_SAMPLES)
    workers = whole_number(workers, "workers", 1)
    chunk = np.empty((2, min(n, _MI_CHUNK)))
    slots = np.empty((min(workers, -(-chunk.shape[1] // BLOCK)), 2, BLOCK))
    lock = threading.Lock()
    total = total_sq = 0.0
    for done in range(0, n, _MI_CHUNK):
        # each block's log-ratios overwrite the state heights of its rows, which it alone reads
        w, state_phi = chunk[:, :min(_MI_CHUNK, n - done)]
        state_z = _uniform(rng, -1.0, 1.0, w)
        _uniform(rng, 0.0, 2.0 * np.pi, state_phi)
        starts = iter(range(0, w.size, BLOCK))

        def evaluate(slot: np.ndarray) -> None:
            while True:
                with lock:  # the blocks leave the generator in order, whichever thread takes them
                    if (start := next(starts, None)) is None:
                        return
                    rows = slice(start, start + BLOCK)
                    z, phi = _ks_block(rng, slot[:, :min(BLOCK, w.size - start)])
                # states and points built here are unit by construction
                state = sphere_from_zphi(state_z[rows], state_phi[rows])
                x = rotate_to_frame(sphere_from_zphi(z, phi), state)
                np.log2(_ks_density(x, state) / MARGINAL_DENSITY, out=w[rows])

        parallel_map(evaluate, slots[:-(-w.size // BLOCK)], workers)  # a thread per block at most
        total += float(np.sum(w))
        total_sq += float(np.sum(np.multiply(w, w, out=w)))
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    return MiEstimate(value=mean, std_error=float(np.sqrt(var / n)), n_samples=n)
