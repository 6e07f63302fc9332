"""Hemisphere hidden-variable model for a single qubit (Kochen-Specker, 1969).

The classical state is a unit vector x.  Preparing the Bloch vector v puts
x on the open hemisphere around v with density

    rho(x | v) = (v . x) / pi   for v . x > 0,   0 otherwise,

a measurement along m answers "+" exactly when x . m >= 0, and averaging
over a uniform state prior leaves the constant marginal rho(x) = 1/(4 pi).
Integrating the response against the conditional density reproduces the
Born rule (1 + v.m)/2, which is what makes the model a faithful classical
account of prepare-and-measure statistics; the quadrature checks live in
:mod:`kschannel.quadrature`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .coding import whole_number
from .geometry import (BLOCK, ESTIMATE_BAND, Measurement, _as_floats, dot3, dot_estimate,
                       require_unit, rotate_to_frame, sphere_from_zphi)

#: conditional density on its support, divided by the dot product
DENSITY_SCALE = 1.0 / np.pi

#: the state-averaged (marginal) density: uniform on the sphere
MARGINAL_DENSITY = 1.0 / (4.0 * np.pi)


def ks_density(x, v) -> np.ndarray | float:
    """Conditional density rho(x|v) = (v.x)/pi on the hemisphere v.x > 0.

    Both arguments must be unit vectors (ValueError otherwise); broadcasts
    over leading axes.
    """
    out = _ks_density(require_unit(x, "ontic state x"), require_unit(v, "state v"))
    return float(out) if out.ndim == 0 else out


def _ks_density(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`ks_density` of float arrays the caller knows to be unit vectors, unchecked."""
    d = dot3(x, v)
    return np.where(d > 0.0, d * DENSITY_SCALE, 0.0)


def ks_draws(rng: np.random.Generator, n: int, out: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Polar coordinates of ``n`` draws from rho(.|v) about its pole, BLOCK draws a block.

    Each block is a (2, size) array of heights z = v.x, then azimuths about v
    (:func:`_ks_block`): a new one, or, given ``out`` (2, >= min(n, BLOCK)),
    out's leading columns, which the next block overwrites.  The stream is in
    block order on every bit generator (n <= BLOCK: all heights, then azimuths).
    """
    for lo in range(0, n, BLOCK):
        size = min(BLOCK, n - lo)
        yield _ks_block(rng, np.empty((2, size)) if out is None else out[:, :size])


def _ks_block(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """One block into ``out`` ((2, size), contiguous rows), returned: first all its heights,
    z = sqrt(u) with u ~ U(0, 1] for z = v.x's density 2z, then its uniform azimuths."""
    z, phi = out
    np.subtract(1.0, rng.random(out=z), out=z)  # (0, 1]: strictly on the open hemisphere
    np.sqrt(z, out=z)
    _uniform(rng, 0.0, 2.0 * np.pi, phi)
    return out


def _uniform(rng: np.random.Generator, low: float, high: float, out: np.ndarray) -> np.ndarray:
    """``rng.uniform(low, high, out.size)`` into the contiguous ``out``: low + (high - low) u,
    its bits, fused or not, where (as in every use here) low is 0 or high - low a power of 2."""
    rng.random(out=out)
    out *= high - low
    out += low
    return out


def ks_sample(v, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Draw x ~ rho(.|v) by inverse CDF in the polar coordinate (see :func:`ks_draws`).

    ``n`` draws per call when given (a whole number >= 0, else ValueError), a
    single (3,) sample otherwise; v may itself be a batch of states (one draw
    each).  Each block of draws is rotated into its rows of the one result.  A
    batch of states is split with the rows, and a single state, (3,) or (1, 3),
    serves every block.  Each block checks its states as it reaches them: a
    non-unit state raises ValueError.
    """
    v = _as_floats(v, "state v")
    shape = v.shape[:-1] if n is None else (whole_number(n, "sample count", 0),)
    out = np.empty(np.broadcast_shapes(shape + (3,), v.shape))
    per_row = v.shape[:-1] == shape
    flat, poles = out.reshape(-1, 3), v.reshape(-1, 3)
    for k, (z, phi) in enumerate(ks_draws(rng, math.prod(shape))):
        rows = slice(k * BLOCK, (k + 1) * BLOCK)
        pole = require_unit(poles[rows] if per_row else v, "state v")
        rotate_to_frame(sphere_from_zphi(z, phi), pole, out=flat[rows])
    return out


def ks_response(x, meas: Measurement) -> np.ndarray | int:
    """Deterministic outcome: +1 iff x.m >= 0, else -1 (ties go to +1)."""
    d = dot3(x, meas.direction)
    out = np.where(d >= 0.0, 1, -1)
    return int(out) if out.ndim == 0 else out


def _plus(z: np.ndarray, phi: np.ndarray, u, exact, work=None) -> np.ndarray:
    """Whether each draw (z, phi) answers "+" (x.u >= 0) as its float64 point does: a bool array.

    ``u`` is the measurement in the draws' frame, one (3,) vector or one per
    draw.  A draw is answered by the sign of its :func:`geometry.dot_estimate`
    s of x.u (its temporaries in ``work``, when given) where |s| >=
    :data:`geometry.ESTIMATE_BAND`, and by ``exact(rows)``, the float64 x.u at
    ascending indices ``rows`` into ``z``, for the ~8e-6 inside.
    """
    s = dot_estimate(z, phi, u, work)
    plus = s >= 0.0
    tie = np.flatnonzero(np.abs(s) < ESTIMATE_BAND)
    if tie.size:
        plus[tie] = exact(tie) >= 0.0
    return plus


def _plus_count(blocks, v: np.ndarray, meas: Measurement) -> int:
    """How many draws about the unit pole ``v`` answer "+" to ``meas``, by :func:`_plus`.

    ``blocks`` yields (z, phi) pairs of at most BLOCK heights and azimuths about
    v, as :func:`ks_draws` makes them; the measurement's frame vector and one
    estimate workspace are made once, and each block is counted as it is read.
    """
    abc = rotate_to_frame(np.eye(3), v) @ meas.direction
    work = np.empty(2 * BLOCK, dtype=np.uint64)
    plus = 0
    for z, phi in blocks:
        plus += int(np.count_nonzero(_plus(z, phi, abc, lambda rows: dot3(
            rotate_to_frame(sphere_from_zphi(z[rows], phi[rows]), v), meas.direction), work)))
    return plus
