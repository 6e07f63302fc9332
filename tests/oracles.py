"""Quadrature oracles of the hemisphere model that only the tests use.

The normalization of rho(x|v), the marginal of the uniform prior and the
conditional entropy, each reduced to :mod:`kschannel.quadrature`'s adaptive
z rule over exact azimuth arcs as
:func:`~kschannel.quadrature.born_plus_integral` is.  The tests hold them
to the closed forms.
"""

from __future__ import annotations

import numpy as np

from kschannel.geometry import require_unit, sphere_from_zphi
from kschannel.model import MARGINAL_DENSITY, ks_density
from kschannel.quadrature import _GL16, _arc_halfwidth, _arc_nodes, _heights, _integrate_z

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
