"""Bloch-sphere geometry for pure qubit states.

A pure qubit state, a rank-1 projective measurement direction, and a
classical model state are all unit vectors in R^3, stored as plain float64
arrays of shape (3,) — or (..., 3) for batches; every function here
broadcasts over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: tolerance on |v.v - 1| for something to count as a unit vector
UNIT_ATOL = 1e-12

#: |pole_z| above this uses the fixed polar frame instead of the cross-product triad
_POLE_EPS = 1e-9

#: rows per block for callers that evaluate the kernels on long samples, so the
#: temporaries of each step stay in cache
BLOCK = 1 << 14


def dot3(a, b) -> np.ndarray:
    """Euclidean dot product over the trailing axis.

    The products are added left to right starting from +0.0, the order of
    ``np.sum`` over the trailing axis (so a zero dot is +0.0, never -0.0),
    without numpy's slow reduction over an axis of length 3.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return 0.0 + a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def unit_vector(x: float, y: float, z: float) -> np.ndarray:
    """Build a unit vector by normalizing (x, y, z); rejects near-zero input."""
    v = np.array([x, y, z], dtype=float)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ValueError("cannot normalize a zero-length vector")
    return v / norm


def require_unit(vec, name: str = "vector") -> np.ndarray:
    """Validate that ``vec`` has unit norm (within UNIT_ATOL on the squared norm).

    NaN or infinite components fail the check too.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1:] != (3,):
        raise ValueError(f"{name} must have a trailing axis of length 3, got shape {vec.shape}")
    err = np.abs(dot3(vec, vec) - 1.0)
    if not (err <= UNIT_ATOL).all():
        raise ValueError(f"{name} is not unit-norm (max |v.v - 1| = {float(np.max(err)):.3e})")
    return vec


def sphere_from_zphi(z, phi) -> np.ndarray:
    """Point(s) on the unit sphere with height z in [-1, 1] and azimuth phi."""
    z = np.asarray(z, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = np.empty(z.shape + (3,))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    np.multiply(r, np.cos(phi), out=out[..., 0])
    np.multiply(r, np.sin(phi), out=out[..., 1])
    out[..., 2] = z
    return out


def random_unit_vec(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Uniform point(s) on the unit sphere: z ~ U[-1, 1], azimuth ~ U[0, 2pi).

    Returns shape (3,) when ``n`` is None, else (n, 3).  Deterministic given
    the generator state: two calls on identically seeded generators agree
    bit for bit.
    """
    size = () if n is None else (n,)
    z = rng.uniform(-1.0, 1.0, size=size)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=size)
    return sphere_from_zphi(z, phi)


def rotate_to_frame(local, pole) -> np.ndarray:
    """Map a vector given in pole-aligned coordinates into the global frame.

    ``local`` is expressed in a right-handed orthonormal frame whose third
    axis is ``pole``; the other two axes come from the cross product of
    z-hat with the pole, or of the pole with x-hat when |pole_z| > 1 - 1e-9
    (where the z-hat cross product degenerates).  Poles lying exactly on
    the z axis take the fixed frames (x, y) / (x, -y), which makes both
    ``rotate_to_frame(v, z_hat) == v`` and ``rotate_to_frame(z_hat, p) == p``
    exact.  The map is an isometry to machine precision in every branch.
    """
    local = np.asarray(local, dtype=float)
    pole = np.asarray(pole, dtype=float)
    out = np.empty(np.broadcast_shapes(local.shape, pole.shape))
    px, py, pz = pole[..., 0], pole[..., 1], pole[..., 2]
    # frame axes e1, e2 as three components each; the zero components are still
    # multiplied in below, since they set the sign of a zero result
    s = np.hypot(px, py)
    safe_s = np.maximum(s, 1e-300)
    e1 = (-py / safe_s, px / safe_s, 0.0)
    neg_pz = -pz
    e2 = (neg_pz * px / safe_s, neg_pz * py / safe_s, s)
    near = np.abs(pz) > 1.0 - _POLE_EPS
    if np.any(near):
        h = np.hypot(py, pz)
        safe_h = np.maximum(h, 1e-300)
        e1 = _select(near, (0.0, pz / safe_h, -py / safe_h), e1)
        e2 = _select(near, (-h, px * py / safe_h, px * pz / safe_h), e2)
        on_axis = near & (s == 0.0)
        if np.any(on_axis):
            e1 = _select(on_axis, (1.0, 0.0, 0.0), e1)
            e2 = _select(on_axis, (0.0, np.where(pz >= 0.0, 1.0, -1.0), 0.0), e2)
    lx, ly, lz = local[..., 0], local[..., 1], local[..., 2]
    for c in range(3):
        np.add(lx * e1[c] + ly * e2[c], lz * pole[..., c], out=out[..., c])
    return out


def _select(mask, when_true, when_false) -> tuple:
    """Componentwise ``np.where`` over two 3-component frame axes."""
    return tuple(np.where(mask, a, b) for a, b in zip(when_true, when_false))


@dataclass(frozen=True, eq=False)
class Measurement:
    """Projective qubit measurement; the POVM is the projector pair along +/-direction."""

    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "direction", require_unit(self.direction, "measurement direction"))

    def flipped(self) -> "Measurement":
        """The same measurement with outcome labels exchanged."""
        return Measurement(-self.direction)


def born_from_dot(dot) -> np.ndarray | float:
    """(1 + dot)/2 with the dot clamped to [-1, 1].

    The clamp absorbs the roundoff that lets a dot product of unit vectors
    stray a few ulp outside [-1, 1], and the 0.5 + 0.5*t form makes the
    probabilities of a dot and its negation sum to exactly 1.0.
    """
    p = 0.5 + 0.5 * np.clip(dot, -1.0, 1.0)
    return float(p) if np.ndim(p) == 0 else p


def born_probability(state, meas: Measurement) -> np.ndarray | float:
    """Quantum probability of the "+" outcome: (1 + v.m) / 2.

    Raises ValueError on non-unit input; the flipped measurement's
    probability complements this one exactly.
    """
    state = require_unit(state, "state")
    return born_from_dot(dot3(state, meas.direction))
