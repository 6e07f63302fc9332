"""Spherical quadrature checks for the hemisphere model.

The integrands here all have hard edges (the support boundary of the
conditional density, the response boundary of a measurement), so blind 2-D
product rules stall far above the 1e-6 tolerances these checks target.
Every integral is instead reduced to an adaptive 1-D integral over the
height z, with the azimuthal part handled exactly: for fixed z the edge
locations are known in closed form, and the integrand is evaluated —
through the real model functions — only on nodes placed inside each smooth
arc.
"""

from __future__ import annotations

import numpy as np

from .geometry import Measurement, dot3, require_unit, rotate_to_frame, sphere_from_zphi
from .model import MARGINAL_DENSITY, ks_density, ks_response

_GL16 = np.polynomial.legendre.leggauss(16)
_GL32 = np.polynomial.legendre.leggauss(32)
_GL64 = np.polynomial.legendre.leggauss(64)

_QUAD_OPTS = dict(epsabs=1e-10, epsrel=1e-10, limit=200)


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first use.

    Importing scipy.integrate adds about 50 MB to the resident memory of a
    process, which the protocol and the wire path never need.
    """
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


def _arc_halfwidth(a: float, b: float) -> float:
    """Half-width of the azimuth arc where a + b*cos(phi) > 0, b >= 0."""
    if b < 1e-14:
        return np.pi if a > 0.0 else 0.0
    return float(np.arccos(np.clip(-a / b, -1.0, 1.0)))


def _gl_nodes(lo: float, hi: float, rule) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = rule
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * nodes, half * weights


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

    def ring(z: float) -> float:
        b = ms * np.sqrt(max(0.0, 1.0 - z * z))
        phi0 = _arc_halfwidth(mz * z, b)
        total = 0.0
        for lo, hi in ((alpha - phi0, alpha + phi0), (alpha + phi0, alpha + 2.0 * np.pi - phi0)):
            if hi - lo < 1e-15:
                continue
            phi, w = _gl_nodes(lo, hi, _GL16)
            x = rotate_to_frame(sphere_from_zphi(np.full_like(phi, z), phi), v)
            f = np.asarray(ks_density(x, v)) * (np.asarray(ks_response(x, meas)) == 1)
            total += float(np.sum(w * f))
        return total

    kinks = sorted({p for p in (-ms, 0.0, ms) if -1.0 < p < 1.0})
    value, _ = quad(ring, -1.0, 1.0, points=kinks or None, **_QUAD_OPTS)
    return value


def density_normalization(v) -> float:
    """Integral of rho(x|v) over the sphere; 1 for a properly normalized model."""
    v = require_unit(v, "state v")
    vz = float(v[2])
    vs = float(np.hypot(v[0], v[1]))
    alpha = float(np.arctan2(v[1], v[0]))

    def ring(z: float) -> float:
        b = vs * np.sqrt(max(0.0, 1.0 - z * z))
        phi0 = _arc_halfwidth(vz * z, b)
        total = 0.0
        for (lo, hi), rule in (((alpha - phi0, alpha + phi0), _GL32),
                               ((alpha + phi0, alpha + 2.0 * np.pi - phi0), _GL16)):
            if hi - lo < 1e-15:
                continue
            phi, w = _gl_nodes(lo, hi, rule)
            x = sphere_from_zphi(np.full_like(phi, z), phi)
            total += float(np.sum(w * np.asarray(ks_density(x, v))))
        return total

    kinks = sorted({p for p in (-vs, vs) if -1.0 < p < 1.0})
    value, _ = quad(ring, -1.0, 1.0, points=kinks or None, **_QUAD_OPTS)
    return value


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

    def ring(z: float) -> float:
        b = xs * np.sqrt(max(0.0, 1.0 - z * z))
        phi0 = _arc_halfwidth(xz * z, b)
        if phi0 < 1e-15:
            return 0.0
        phi, w = _gl_nodes(alpha - phi0, alpha + phi0, _GL32)
        v = sphere_from_zphi(np.full_like(phi, z), phi)
        return float(np.sum(w * np.asarray(ks_density(x, v)))) * prior

    kinks = sorted({p for p in (-xs, xs) if -1.0 < p < 1.0})
    value, _ = quad(ring, -1.0, 1.0, points=kinks or None, **_QUAD_OPTS)
    return value


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
    tau, tau_w = _gl_nodes(0.0, 1.0, _GL64)

    def ring(z: float) -> float:
        b = vs * np.sqrt(max(0.0, 1.0 - z * z))
        phi0 = _arc_halfwidth(vz * z, b)
        if phi0 < 1e-15:
            return 0.0
        psi = phi0 * (1.0 - tau * tau)
        w = tau_w * (2.0 * phi0 * tau)
        x = sphere_from_zphi(np.full_like(psi, z), alpha + psi)
        rho = np.asarray(ks_density(x, v))
        g = np.where(rho > 0.0, -rho * np.log2(np.where(rho > 0.0, rho, 1.0)), 0.0)
        return 2.0 * float(np.sum(w * g))  # arc is symmetric about alpha

    kinks = sorted({p for p in (-vs, vs) if -1.0 < p < 1.0})
    value, _ = quad(ring, -1.0, 1.0, points=kinks or None, epsabs=1e-9, epsrel=1e-9, limit=150)
    return value


def min_overlap_integral() -> float:
    """Integral of min(rho(x), rho(x|v)) over the sphere (any v; rotationally invariant).

    This is the probability that the first symbol of a uniform shared
    stream is accepted when steering it onto the conditional density; the
    exact value is 7/16.
    """

    def ring(z: float) -> float:
        cond = max(z, 0.0) / np.pi
        return 2.0 * np.pi * min(MARGINAL_DENSITY, cond)

    value, _ = quad(ring, -1.0, 1.0, points=[0.0, 0.25], **_QUAD_OPTS)
    return value
