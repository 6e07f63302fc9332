"""Bloch-sphere geometry for pure qubit states.

A pure qubit state, a rank-1 projective measurement direction, and a
classical model state are all unit vectors in R^3, stored as plain float64
arrays of shape (3,) — or (..., 3) for batches; every function here
broadcasts over leading axes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coding import whole_number

#: tolerance on |v.v - 1| for something to count as a unit vector
UNIT_ATOL = 1e-12

#: |pole_z| above this uses the fixed polar frame instead of the cross-product triad
_POLE_EPS = 1e-9

#: half-width in x.u of the band about a threshold where dot_estimate is not trusted
ESTIMATE_BAND = 2.0 ** -17

#: rows per block for callers that evaluate the kernels on long samples, so the
#: temporaries of each step stay in cache
BLOCK = 1 << 14


def parallel_map(work, items, workers: int = 1) -> list:
    """``[work(i) for i in items]``, in order, on ``min(workers, len(items))`` threads.

    numpy releases the GIL inside its elementwise kernels, so blocks that each
    write only their own rows (or return their own result) run side by side,
    and the result does not depend on the thread count.  With one thread the
    items run serially and no pool is started.  An exception in any item is
    raised here.
    """
    items = list(items)
    threads = min(workers, len(items))
    if threads <= 1:
        return [work(i) for i in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, items))


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
    """(x, y, z) divided by its length; non-finite or all-zero input raises ValueError.

    When the length overflows or lies below 1e-12, the vector is first divided
    by its largest |component|, so (1e200, 1e200, 0) gives the bits of (1, 1, 0)
    and (1e-300, 0, 0) gives (1, 0, 0); no other vector takes that step.
    """
    v = np.array([x, y, z], dtype=float)
    if not (np.all(np.isfinite(v)) and np.any(v)):
        raise ValueError("vector must have finite components and nonzero length")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not np.isfinite(norm) or norm < 1e-12:
        v = v / np.max(np.abs(v))
        norm = np.linalg.norm(v)
    return v / norm


def require_unit(vec, name: str = "vector") -> np.ndarray:
    """Validate that ``vec`` has unit norm (within UNIT_ATOL on the squared norm).

    NaN or infinite components fail the check too.  One vector of shape (3,)
    is accepted in Python floats, by :func:`dot3`'s sum in its order, so it
    passes exactly when the array check would pass it; every other shape,
    and every vector that does not pass, takes the array check, which raises
    its messages.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape == (3,):
        x, y, z = vec.tolist()
        if abs(0.0 + x * x + y * y + z * z - 1.0) <= UNIT_ATOL:
            return vec
    if vec.shape[-1:] != (3,):
        raise ValueError(f"{name} must have a trailing axis of length 3, got shape {vec.shape}")
    err = np.abs(dot3(vec, vec) - 1.0)
    if not (err <= UNIT_ATOL).all():
        raise ValueError(f"{name} is not unit-norm (max |v.v - 1| = {float(np.max(err)):.3e})")
    return vec


def sphere_from_zphi(z, phi, out: np.ndarray | None = None) -> np.ndarray:
    """Point(s) on the unit sphere with height z in [-1, 1] and azimuth phi.

    ``out``, when given, receives the (..., 3) result and is returned.
    """
    z = np.asarray(z, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if out is None:
        out = np.empty(z.shape + (3,))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    np.multiply(r, np.cos(phi), out=out[..., 0])
    np.multiply(r, np.sin(phi), out=out[..., 1])
    out[..., 2] = z
    return out


def dot_estimate(z: np.ndarray, phi: np.ndarray, u, work: np.ndarray | None = None) -> np.ndarray:
    """Float32 estimate s of ``dot3(sphere_from_zphi(z, phi), u)``, unchecked.

    ``z`` and ``phi`` are equal-shape float arrays of heights in [-1, 1] and
    azimuths in [0, 2 pi]; ``u`` is one (3,) unit vector or one per point,
    broadcasting as the trailing axis of a (..., 3) array.  u.x = sqrt(1 -
    z^2) (u0 cos phi + u1 sin phi) + u2 z, and s takes cos and sin in float32
    of float32(phi), 1 - z^2 in float64 (in float32 it would lose the radius
    near the poles), and the rest in float32 products of float32 components
    of u.  Rounding phi to float32 moves it by at most 2^-22 < 2.4e-7 on
    [0, 2 pi], float32 cos and sin err by ~1e-7 more (2.56e-7 in all on a 4M
    grid), and the rounding of u and of each float32 product and sum adds a
    few 1e-8; since |u| = 1, |s - u.x| <= ~1e-6 (3.2e-7 at worst seen; tests
    guard it), while the float64 u.x errs by ~1e-16.  So the sign of s - c is
    u.x - c's where |s - c| >= :data:`ESTIMATE_BAND` = 2^-17, over six times that.

    The temporaries (16 z.size bytes) are views of ``work``, when given, a
    contiguous 1-D array that overlaps no input; s is a new array.
    """
    # Python floats keep one vector's products in float32
    u0, u1, u2 = ((u[..., k].astype(np.float32) for k in range(3)) if u.ndim > 1
                  else u.tolist())
    n = z.size
    work = np.empty(2 * n, dtype=np.uint64) if work is None else work
    r = work.view(np.float64)[:n].reshape(z.shape)
    phi32, r32 = (work.view(np.float32)[k * n:(k + 1) * n].reshape(z.shape) for k in (2, 3))
    phi32[...] = phi
    s = np.cos(phi32)
    s *= u0
    sin = np.sin(phi32, out=phi32)
    sin *= u1
    s += sin
    np.multiply(z, z, out=r)
    np.subtract(1.0, r, out=r)
    r32[...] = r
    s *= np.sqrt(r32, out=r32)
    cz = phi32
    cz[...] = z
    cz *= u2
    s += cz
    return s


def random_unit_vec(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Uniform point(s) on the unit sphere: z ~ U[-1, 1], azimuth ~ U[0, 2pi).

    Returns shape (3,) when ``n`` is None, else (n, 3) (n whole and >= 0, else
    ValueError).  Deterministic given the generator state: two calls on
    identically seeded generators agree bit for bit.  All heights are drawn
    before all azimuths.
    """
    size = () if n is None else (whole_number(n, "sample count", 0),)
    z = rng.uniform(-1.0, 1.0, size=size)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=size)
    return sphere_from_zphi(z, phi)


def rotate_to_frame(local, pole, out: np.ndarray | None = None) -> np.ndarray:
    """Map a vector given in pole-aligned coordinates into the global frame.

    ``local`` is expressed in a right-handed orthonormal frame whose third
    axis is ``pole``; the other two axes come from the cross product of
    z-hat with the pole, or of the pole with x-hat when |pole_z| > 1 - 1e-9
    (where the z-hat cross product degenerates).  Poles lying exactly on
    the z axis take the fixed frames (x, y) / (x, -y), which makes both
    ``rotate_to_frame(v, z_hat) == v`` and ``rotate_to_frame(z_hat, p) == p``
    exact.  The map is an isometry to machine precision in every branch.
    ``out``, when given, receives the result (it must not overlap ``local``
    or ``pole``) and is returned.
    """
    local = np.asarray(local, dtype=float)
    pole = np.asarray(pole, dtype=float)
    if out is None:
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
    """Projective qubit measurement; the POVM is the projector pair along +/-direction.

    ``direction`` is a read-only float64 copy of the checked input.
    """

    direction: np.ndarray

    def __post_init__(self):
        direction = require_unit(self.direction, "measurement direction").copy()
        direction.setflags(write=False)
        object.__setattr__(self, "direction", direction)


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

    Raises ValueError on non-unit input; the probability under the opposite
    direction, ``Measurement(-meas.direction)``, complements this one exactly.
    """
    state = require_unit(state, "state")
    return born_from_dot(dot3(state, meas.direction))
