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
of the model's points from the generator in a fixed order, then builds the
states, rotates the points about them and divides each conditional density
by the constant marginal 1/(4 pi) in one pass per BLOCK rows, so only one
block's points and temporaries are live at a time on each thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import whole_number
from .geometry import BLOCK, parallel_map, rotate_to_frame, sphere_from_zphi
from .model import MARGINAL_DENSITY, _ks_density, ks_draws

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

    Samples are drawn :data:`_MI_CHUNK` pairs at a time, in the generator's
    order: the states' heights, their azimuths, then :func:`ks_draws`' blocks.
    Each block, with its BLOCK rows of states, is then built, rotated and
    turned into log-ratios in one pass, on up to ``workers`` threads (see
    :func:`parallel_map`), and the sums are taken over the whole chunk, so
    neither the split nor ``workers`` moves a bit of the estimate.
    """
    n = whole_number(n, "sample count", MIN_MI_SAMPLES)
    workers = whole_number(workers, "workers", 1)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        m = min(_MI_CHUNK, n - done)
        state_z = rng.uniform(-1.0, 1.0, m)
        state_phi = rng.uniform(0.0, 2.0 * np.pi, m)
        draws = list(ks_draws(rng, m))
        w = np.empty(m)

        def block(k: int) -> None:
            rows = slice(k * BLOCK, (k + 1) * BLOCK)
            # states and points built here are unit by construction
            state = sphere_from_zphi(state_z[rows], state_phi[rows])
            x = rotate_to_frame(sphere_from_zphi(*draws[k]), state)
            np.log2(_ks_density(x, state) / MARGINAL_DENSITY, out=w[rows])

        parallel_map(block, range(len(draws)), workers)
        total += float(np.sum(w))
        total_sq += float(np.sum(w * w))
        done += m
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    return MiEstimate(value=mean, std_error=float(np.sqrt(var / n)), n_samples=n)
