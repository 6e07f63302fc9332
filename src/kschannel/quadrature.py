"""Spherical quadrature of the hemisphere model's Born rule.

:func:`born_plus_integral` integrates the "+" response against the
conditional density.  Its integrand has hard edges (the support boundary of
the density, the response boundary of the measurement), so blind 2-D
product rules stall far above the 1e-6 tolerances the check targets.  The
integral is instead reduced to a 1-D integral over the height z, with the
azimuthal part handled exactly: for fixed z the edge locations are known in
closed form, and the integrand is evaluated — through the real model
functions — only on Gauss-Legendre nodes placed inside each smooth arc.  A
ring function takes an array of heights and returns the azimuthal integral
at each, so one call evaluates the model on an (nz, nodes) grid.

The z integral is a vectorized adaptive Gauss-Kronrod rule
(:func:`_integrate_z`).  It starts from the panels between the heights
where a ring has a kink, evaluates the 15 Kronrod nodes of every open
interval in one ring call per level, and takes |K15 - G7| as each
interval's error.  The error budget (:data:`_TOL`, 1e-10 absolute) is
global: the integral is done once the errors of all intervals sum to
within it.  Until then an interval whose error is within
its share of the budget, in proportion to its width, is settled, and the
rest are bisected.  More than 50 levels or 256 open intervals raise
RuntimeError, so an integrand that cannot converge fails instead of looping
(:func:`born_plus_integral` took at most 21 levels and 4 open intervals on
the 13x13 grid of the golden file and on 300 random state/measurement pairs).
"""

from __future__ import annotations

import numpy as np

from .geometry import Measurement, dot3, require_unit, rotate_to_frame, sphere_from_zphi
from .model import ks_density, ks_response

_GL16 = np.polynomial.legendre.leggauss(16)

# 15-point Kronrod rule and its embedded 7-point Gauss rule on [-1, 1]
# (QUADPACK's qk15): nodes and weights for x >= 0, from the outside in
_K15_HALF = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                      0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                      0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                      0.207784955007898467600689403773245, 0.0])
_WK15_HALF = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                       0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG7_HALF = np.array([0.0, 0.129484966168869693270611432679082,
                      0.0, 0.279705391489276667901467771423780,
                      0.0, 0.381830050505118944950369775488975,
                      0.0, 0.417959183673469387755102040816327])
_K15 = np.concatenate([-_K15_HALF[:-1], _K15_HALF[::-1]])
_WK15 = np.concatenate([_WK15_HALF[:-1], _WK15_HALF[::-1]])
_WG7 = np.concatenate([_WG7_HALF[:-1], _WG7_HALF[::-1]])

_TOL = 1e-10
_MAX_LEVELS = 50
_MAX_OPEN = 256


def _integrate_z(ring, kinks) -> float:
    """Integral of ``ring`` over z in [-1, 1], split at those ``kinks`` inside (-1, 1).

    ``ring`` maps an array of heights to an array of values.  Adaptive
    G7-K15 with a global absolute error budget :data:`_TOL`; see the module
    docstring.
    """
    edges = np.array([-1.0, *sorted({k for k in kinks if -1.0 < k < 1.0}), 1.0])
    lo, hi = edges[:-1], edges[1:]
    total = settled_err = 0.0
    for _ in range(_MAX_LEVELS):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        f = ring((mid[:, None] + half[:, None] * _K15).ravel()).reshape(-1, _K15.size)
        kronrod = half * (f @ _WK15)
        err = np.abs(kronrod - half * (f @ _WG7))
        if settled_err + float(np.sum(err)) <= _TOL:
            return total + float(np.sum(kronrod))
        done = err <= _TOL * half  # the share of an interval of width 2*half out of 2
        total += float(np.sum(kronrod[done]))
        settled_err += float(np.sum(err[done]))
        lo, mid, hi = lo[~done], mid[~done], hi[~done]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        if lo.size > _MAX_OPEN:
            raise RuntimeError(f"z quadrature did not converge: {lo.size} open intervals")
    raise RuntimeError(f"z quadrature did not converge in {_MAX_LEVELS} levels")


def _arc_halfwidth(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half-width of the azimuth arc where a + b*cos(phi) > 0, b >= 0, elementwise."""
    narrow = b < 1e-14
    return np.where(narrow, np.where(a > 0.0, np.pi, 0.0),
                    np.arccos(np.clip(-a / np.where(narrow, 1.0, b), -1.0, 1.0)))


def _arc_nodes(*arcs) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth nodes and weights, each of shape (nz, total rule length), for
    arcs given as (lo, hi, rule) with lo and hi arrays of length nz.

    Arcs narrower than 1e-15 get zero weight.
    """
    phis, weights = [], []
    for lo, hi, (nodes, w) in arcs:
        width = (hi - lo)[:, None]
        phis.append(0.5 * (hi + lo)[:, None] + 0.5 * width * nodes)
        weights.append(np.where(width < 1e-15, 0.0, 0.5 * width) * w)
    return np.concatenate(phis, axis=1), np.concatenate(weights, axis=1)


def _heights(z, phi) -> np.ndarray:
    """z broadcast to the (nz, nodes) shape of the azimuth grid ``phi``."""
    return np.broadcast_to(z[:, None], phi.shape)


def born_plus_integral(v, m) -> float:
    """Integral of response(x, m) * rho(x|v) over the sphere.

    Works in the frame of v (height z = v.x), where the response boundary
    is an azimuth arc of known half-width for each z; the density and the
    response themselves are evaluated through :func:`ks_density` and
    :func:`ks_response` at the quadrature nodes.  Agreement of this value
    with (1 + v.m)/2 is the equivalence of the model with the quantum
    statistics.
    """
    v = require_unit(v, "state v")
    m = require_unit(m, "measurement direction m")
    meas = Measurement(m)
    e1 = rotate_to_frame(np.array([1.0, 0.0, 0.0]), v)
    e2 = rotate_to_frame(np.array([0.0, 1.0, 0.0]), v)
    m1, m2, mz = float(dot3(m, e1)), float(dot3(m, e2)), float(dot3(m, v))
    ms = float(np.hypot(m1, m2))
    alpha = float(np.arctan2(m2, m1))

    def ring(z: np.ndarray) -> np.ndarray:
        phi0 = _arc_halfwidth(mz * z, ms * np.sqrt(np.maximum(0.0, 1.0 - z * z)))
        phi, w = _arc_nodes((alpha - phi0, alpha + phi0, _GL16),
                            (alpha + phi0, alpha + 2.0 * np.pi - phi0, _GL16))
        x = rotate_to_frame(sphere_from_zphi(_heights(z, phi), phi), v)
        f = np.asarray(ks_density(x, v)) * (np.asarray(ks_response(x, meas)) == 1)
        return np.sum(w * f, axis=1)

    return _integrate_z(ring, (-ms, 0.0, ms))
