import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad
from scipy.stats import kstest

from kschannel import (Measurement, born_probability, ks_density, ks_response, ks_sample,
                       random_unit_vec, rotate_to_frame, sphere_from_zphi, unit_vector)
from kschannel import model, protocol, quadrature
from kschannel.geometry import BLOCK, ESTIMATE_BAND, dot3, dot_estimate
from kschannel.model import MARGINAL_DENSITY, _plus, _plus_count, ks_draws
from kschannel.quadrature import _integrate_z, born_plus_integral
from conftest import unit_vectors
from oracles import density_normalization, marginal_from_prior

ZHAT = np.array([0.0, 0.0, 1.0])
XHAT = np.array([1.0, 0.0, 0.0])

#: exact poles and poles 1e-10 off them (rotate_to_frame's near-pole branch)
POLES = [ZHAT, -ZHAT, unit_vector(1e-10, 0.0, 1.0), unit_vector(0.0, 1e-10, -1.0)]
GENERIC = unit_vector(0.3, -0.5, 0.8)


def at_dot(v, dot, phi=0.7):
    """A unit m with m.v = dot (to rounding), at azimuth phi about v."""
    m = rotate_to_frame(sphere_from_zphi(dot, phi), v)
    return m / np.linalg.norm(m)


def born_error(v, m):
    return abs(born_plus_integral(v, m) - born_probability(v, Measurement(m)))


class TestKsDensity:
    def test_value_at_full_alignment(self):
        assert ks_density(ZHAT, ZHAT) == pytest.approx(1.0 / np.pi, abs=1e-15)

    def test_zero_outside_hemisphere(self):
        x = sphere_from_zphi(-0.3, 1.0)
        assert ks_density(x, ZHAT) == 0.0

    def test_value_at_half_alignment(self):
        x = sphere_from_zphi(0.5, 0.0)
        assert ks_density(x, ZHAT) == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-15)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            ks_density(2.0 * ZHAT, ZHAT)
        with pytest.raises(ValueError):
            ks_density(ZHAT, np.zeros(3))

    @settings(max_examples=200)
    @given(unit_vectors(), unit_vectors())
    def test_nonnegative_and_supported_on_hemisphere(self, x, v):
        rho = ks_density(x, v)
        assert rho >= 0.0
        if float(np.dot(x, v)) <= 0.0:
            assert rho == 0.0

    def test_normalization_by_quadrature(self):
        rng = np.random.default_rng(21)
        for v in random_unit_vec(rng, 20):
            assert density_normalization(v) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("v", POLES)
    def test_normalization_at_the_poles(self, v):
        assert density_normalization(v) == pytest.approx(1.0, abs=1e-9)


class TestKsSample:
    def test_support_is_strict(self):
        rng = np.random.default_rng(1)
        v = random_unit_vec(rng)
        x = ks_sample(v, rng, 100_000)
        assert np.min(x @ v) > 0.0
        # a batch of states: one point each, inside its own state's hemisphere
        states = random_unit_vec(rng, 10)
        x = ks_sample(states, rng)
        assert x.shape == (10, 3)
        assert np.all(ks_density(x, states) > 0.0)

    def test_mean_height_matches_quadrature(self):
        # oracle: E[z] under the density 2z on (0, 1]
        expected, _ = quad(lambda z: z * 2.0 * z, 0.0, 1.0)
        rng = np.random.default_rng(2)
        v = random_unit_vec(rng)
        x = ks_sample(v, rng, 1_000_000)
        assert np.mean(x @ v) == pytest.approx(expected, abs=1e-3)

    def test_height_cdf_ks_test(self):
        n = 100_000
        rng = np.random.default_rng(3)
        v = random_unit_vec(rng)
        z = ks_sample(v, rng, n) @ v
        stat = kstest(z, lambda t: np.clip(t, 0.0, 1.0) ** 2).statistic
        assert stat < 1.628 / np.sqrt(n)  # 1% critical value

    @pytest.mark.parametrize("dot", [-0.5, 0.0, 0.5])
    def test_measurement_statistics_match_born(self, dot):
        rng = np.random.default_rng(40 + int(2 * dot))
        v = random_unit_vec(rng)
        m = np.asarray(sphere_from_zphi(dot, 0.0), float)
        from kschannel import rotate_to_frame
        m = rotate_to_frame(m, v)
        x = ks_sample(v, rng, 1_000_000)
        empirical = np.mean((x @ m) > 0.0)
        assert empirical == pytest.approx(born_probability(v, Measurement(m)), abs=2e-3)

    def test_deterministic_given_seed(self):
        v = sphere_from_zphi(0.3, 2.0)
        a = ks_sample(v, np.random.default_rng(5), 1000)
        b = ks_sample(v, np.random.default_rng(5), 1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [None, 10, 2 * 16384 + 5])
    def test_rejects_non_unit_states(self, n):
        rng = np.random.default_rng(6)
        for v in ([0.0, 0.0, 2.0], [np.nan, 0.0, 0.0], 0.5 * GENERIC):
            with pytest.raises(ValueError, match="state v"):
                ks_sample(v, rng, n)
        # one bad row in a batch of states, in its last block
        states = random_unit_vec(rng, 2 * 16384 + 5)
        states[-2] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="state v"):
            ks_sample(states, rng)


@pytest.mark.parametrize("sample", [lambda rng, n: ks_sample(GENERIC, rng, n), random_unit_vec],
                         ids=["ks_sample", "random_unit_vec"])
def test_sample_count_is_a_whole_number(sample):
    rng = np.random.default_rng(8)
    for n in (1.5, True, -1, "3"):
        with pytest.raises(ValueError, match="sample count"):
            sample(rng, n)
    assert sample(rng, np.int64(3)).shape == (3, 3)
    assert sample(rng, 0).shape == (0, 3)


def joined_draws(rng, n):
    """``ks_draws(rng, n)``'s blocks joined: all n heights, then all n azimuths."""
    z, phi = zip(*ks_draws(rng, n))
    return np.concatenate(z), np.concatenate(phi)


def plus_count(z, phi, v, meas):
    """``model._plus_count`` of the draws (z, phi), read BLOCK draws at a time, as verify does."""
    return _plus_count(((z[lo:lo + BLOCK], phi[lo:lo + BLOCK]) for lo in range(0, z.size, BLOCK)),
                       v, meas)


def _exact_plus(z, phi, v, meas):
    """The "+" count from the float64 points: plus_count's reference."""
    x = rotate_to_frame(sphere_from_zphi(z, phi), v)
    return int(np.count_nonzero(ks_response(x, meas) == 1))


def _tie_draws(rng, v, m, n):
    """n (height, azimuth) pairs about v within ~1e-9 of the circle where x.m = 0."""
    a, b, c = rotate_to_frame(np.eye(3), v) @ m   # m in v's frame
    axis = np.eye(3)[np.argmin(np.abs([a, b, c]))]
    u1 = np.cross([a, b, c], axis)
    u1 /= np.linalg.norm(u1)
    u2 = np.cross([a, b, c], u1)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    x = np.outer(np.cos(theta), u1) + np.outer(np.sin(theta), u2)
    z = np.clip(x[:, 2] + rng.uniform(-1e-9, 1e-9, n), -1.0, 1.0)
    phi = np.mod(np.arctan2(x[:, 1], x[:, 0]) + rng.uniform(-1e-9, 1e-9, n), 2.0 * np.pi)
    return z, phi


def _plus_count_cells():
    """(v, m) cells: random pairs, then the frames where the estimate is hardest."""
    rng = np.random.default_rng(17)
    cells = list(zip(random_unit_vec(rng, 30), random_unit_vec(rng, 30)))
    for v in POLES + [unit_vector(1e-5, 0.0, 1.0), unit_vector(0.0, -3e-5, -1.0), GENERIC]:
        cells += [(v, at_dot(v, 0.0, 0.3)), (v, at_dot(v, 0.0, 4.0)),   # m perpendicular to v
                  (v, v), (v, -v), (v, random_unit_vec(rng))]
    return cells


class TestKsPlusCount:
    """verify's "+" count (model._plus_count over BLOCK slices) against the float64 points'."""

    @pytest.mark.parametrize("v, m", _plus_count_cells())
    def test_equals_the_exact_count(self, v, m):
        meas = Measurement(m)
        rng = np.random.default_rng(23)
        z, phi = joined_draws(rng, 4096)
        assert plus_count(z, phi, v, meas) == _exact_plus(z, phi, v, meas)
        # draws a hair off the tie circle, where the float32 estimate cannot tell the
        # sign: compared 32 at a time, so no miscounts can cancel over the whole array
        z, phi = _tie_draws(rng, v, m, 4096)
        for lo in range(0, z.size, 32):
            rows = slice(lo, lo + 32)
            assert plus_count(z[rows], phi[rows], v, meas) == \
                _exact_plus(z[rows], phi[rows], v, meas), lo
        # ordinary draws with 32 tie draws straddling each block edge
        zb, phib = joined_draws(rng, 2 * BLOCK + 40)
        for edge in (BLOCK, 2 * BLOCK):
            zb[edge - 16:edge + 16], phib[edge - 16:edge + 16] = z[:32], phi[:32]
        assert plus_count(zb, phib, v, meas) == _exact_plus(zb, phib, v, meas)

    def test_float32_trig_error_is_far_inside_the_tie_band(self):
        # the bound behind ESTIMATE_BAND: float32 cos and sin of float32(phi) within ~2.6e-7 of
        # float64's on [0, 2 pi); a platform whose float32 trig is worse fails here
        worst = 0.0
        for phi in np.split(np.linspace(0.0, 2.0 * np.pi, 1 << 22, endpoint=False), 16):
            phi32 = phi.astype(np.float32)
            worst = max(worst, np.max(np.abs(np.cos(phi32) - np.cos(phi))),
                        np.max(np.abs(np.sin(phi32) - np.sin(phi))))
        assert worst <= ESTIMATE_BAND / 8

    def test_no_draws_count_zero(self):
        assert plus_count(np.empty(0), np.empty(0), ZHAT, Measurement(XHAT)) == 0

    def test_exact_zero_is_plus(self):
        # heights 0 about the pole z-hat, measured along it: the estimate is 0 and the
        # float64 x.m an exact 0, which the tie rule answers "+"
        phi = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        z = np.zeros_like(phi)
        assert _exact_plus(z, phi, ZHAT, Measurement(ZHAT)) == z.size
        assert plus_count(z, phi, ZHAT, Measurement(ZHAT)) == z.size


class TestPlusKernel:
    """model._plus, the sign rule both receivers answer with."""

    def test_asks_exact_for_the_tie_rows_alone(self):
        rng = np.random.default_rng(29)
        u = unit_vector(0.36, -0.48, 0.8)
        z, phi = joined_draws(rng, 3 * 512)
        tz, tphi = _tie_draws(rng, ZHAT, u, 512)   # about z-hat, whose frame is the identity
        z[1::3], phi[1::3] = tz, tphi
        s = dot_estimate(z, phi, u)
        asked = []

        def exact(rows):
            asked.append(rows.copy())
            return dot3(sphere_from_zphi(z[rows], phi[rows]), u)

        got = _plus(z, phi, u, exact)
        want = np.flatnonzero(np.abs(s) < ESTIMATE_BAND)
        assert len(asked) == 1 and np.array_equal(asked[0], want)
        assert 400 < want.size < 600 and np.all(np.diff(want) > 0)
        assert got.dtype == bool
        assert np.array_equal(got, dot3(sphere_from_zphi(z, phi), u) >= 0.0)

    @pytest.mark.parametrize("receiver", ["verify", "outcomes"])
    def test_receivers_answer_from_the_estimate_outside_the_band(self, monkeypatch, receiver):
        # m = z-hat about the pole z-hat, so x.m is the height z and the estimate is
        # float32(z) exactly: heights 2^-16 and 2^-14 from the tie are answered by their
        # sign, and only those 2^-19 from it are built as float64 points
        heights = [2.0 ** -16, -2.0 ** -16, 2.0 ** -14, -2.0 ** -14, 2.0 ** -19, -2.0 ** -19]
        azimuths = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        z, phi = np.repeat(heights, azimuths.size), np.tile(azimuths, len(heights))
        module = model if receiver == "verify" else protocol
        points, built = module.sphere_from_zphi, []

        def recording_points(zz, pp):
            built.append(zz.copy())
            return points(zz, pp)

        monkeypatch.setattr(module, "sphere_from_zphi", recording_points)
        if receiver == "verify":
            assert plus_count(z, phi, ZHAT, Measurement(ZHAT)) == np.count_nonzero(z > 0.0)
        else:
            monkeypatch.setattr(protocol, "_sphere_zphi",
                                lambda keys, ctr, work: (z[keys], phi[keys]))
            got = protocol._outcomes(np.arange(z.size, dtype=np.uint64),
                                     np.ones(z.size, dtype=np.int64), ZHAT)
            assert np.array_equal(got, np.where(z > 0.0, 1, -1))
        assert np.array_equal(np.concatenate(built), z[np.abs(z) < ESTIMATE_BAND])
        assert np.array_equal(np.abs(z[np.abs(z) < ESTIMATE_BAND]), np.full(128, 2.0 ** -19))


class TestKsResponse:
    def test_aligned_is_plus(self):
        assert ks_response(ZHAT, Measurement(ZHAT)) == 1

    def test_opposite_is_minus(self):
        x = sphere_from_zphi(-0.9, 0.4)
        assert ks_response(x, Measurement(ZHAT)) == -1

    def test_tie_goes_to_plus(self):
        x = np.array([1.0, 0.0, 0.0])
        assert ks_response(x, Measurement(ZHAT)) == 1
        # a batch answers +1/-1 per row
        batch = np.stack([ZHAT, x, sphere_from_zphi(-0.9, 0.4)])
        assert ks_response(batch, Measurement(ZHAT)).tolist() == [1, 1, -1]

    def test_born_equivalence_by_quadrature_small_grid(self):
        for a in np.linspace(0.0, np.pi, 5):
            for b in np.linspace(0.0, np.pi, 5):
                v = sphere_from_zphi(np.cos(a), 0.0)
                m = sphere_from_zphi(np.cos(b), 0.0)
                lhs = born_plus_integral(v, m)
                rhs = born_probability(v, Measurement(m))
                assert lhs == pytest.approx(rhs, abs=1e-6)


class TestBornQuadrature:
    """born_plus_integral against (1 + v.m)/2 where the geometry is hardest."""

    @pytest.mark.parametrize("v", POLES + [GENERIC])
    @pytest.mark.parametrize("dot", [0.0, 1e-4, -1e-4, 1e-9, -1e-9, 0.5, -0.5])
    def test_hard_geometries(self, v, dot):
        assert born_error(v, at_dot(v, dot)) <= 1e-9

    def test_exactly_orthogonal(self):
        yhat = np.array([0.0, 1.0, 0.0])
        for v, m in ((ZHAT, XHAT), (XHAT, ZHAT), (XHAT, yhat),
                     (np.array([0.6, 0.8, 0.0]), ZHAT), (np.array([0.6, 0.0, -0.8]), yhat)):
            assert float(np.dot(v, m)) == 0.0
            assert born_error(v, m) <= 1e-9

    @pytest.mark.parametrize("v", POLES + [GENERIC])
    def test_parallel_and_antiparallel(self, v):
        assert born_error(v, v) <= 1e-9
        assert born_error(v, -v) <= 1e-9

    def test_random_pairs(self):
        rng = np.random.default_rng(2026)
        states, meas = random_unit_vec(rng, 200), random_unit_vec(rng, 200)
        assert max(born_error(v, m) for v, m in zip(states, meas)) <= 1e-9

    def test_wrong_response_is_detected(self, monkeypatch):
        # a model that answers "+" only for x.m >= 0.05 must miss the Born rule
        def shifted(x, meas):
            return np.where(np.asarray(x) @ meas.direction >= 0.05, 1, -1)

        m = at_dot(GENERIC, 0.3)
        assert born_error(GENERIC, m) <= 1e-9
        monkeypatch.setattr(quadrature, "ks_response", shifted)
        assert born_error(GENERIC, m) > 1e-3

    def test_wrong_density_is_detected(self, monkeypatch):
        monkeypatch.setattr(quadrature, "ks_density", lambda x, s: 1.01 * ks_density(x, s))
        assert born_error(GENERIC, at_dot(GENERIC, 0.3)) > 1e-3


class TestIntegrateZ:
    def test_kronrod_rule_is_exact_on_polynomials(self):
        # K15 integrates degree 22 exactly, with or without splits
        coeffs = np.random.default_rng(4).normal(size=23)
        exact = sum(c * (1.0 - (-1.0) ** (p + 1)) / (p + 1) for p, c in enumerate(coeffs))
        ring = np.polynomial.Polynomial(coeffs)
        assert _integrate_z(ring, []) == pytest.approx(exact, abs=1e-13)
        assert _integrate_z(ring, [-0.5, 0.2]) == pytest.approx(exact, abs=1e-13)

    def test_non_convergent_integrand_raises(self):
        # a square wave far finer than any interval: every error stays O(width)
        with pytest.raises(RuntimeError, match="open intervals"):
            _integrate_z(lambda z: np.floor(z * 2.0 ** 40) % 2.0, [])

    def test_divergent_integrand_raises(self):
        # 1/|z| is not integrable at the kink: the panels next to it never settle
        with pytest.raises(RuntimeError, match="did not converge"):
            _integrate_z(lambda z: 1.0 / np.abs(z), [0.0])

    def test_level_cap_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_LEVELS", 3)
        with pytest.raises(RuntimeError, match="in 3 levels"):
            born_plus_integral(GENERIC, at_dot(GENERIC, 1e-4))


class TestKsMarginal:
    def test_constant_value(self):
        assert MARGINAL_DENSITY == pytest.approx(1.0 / (4.0 * np.pi), abs=1e-16)

    def test_integrates_to_one(self):
        assert 4.0 * np.pi * MARGINAL_DENSITY == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_average_of_conditional(self):
        # oracle: marginal(x) = E_v[rho(x|v)] over uniform v
        rng = np.random.default_rng(10)
        x = random_unit_vec(rng)
        v = random_unit_vec(rng, 1_000_000)
        mc = np.mean(ks_density(np.broadcast_to(x, v.shape), v))
        assert mc == pytest.approx(1.0 / (4.0 * np.pi), rel=5e-3)

    def test_equals_prior_average_by_quadrature(self):
        rng = np.random.default_rng(12)
        for x in random_unit_vec(rng, 5):
            assert marginal_from_prior(x) == pytest.approx(MARGINAL_DENSITY, abs=1e-6)

    @pytest.mark.parametrize("x", POLES)
    def test_prior_average_at_the_poles(self, x):
        assert marginal_from_prior(x) == pytest.approx(MARGINAL_DENSITY, abs=1e-9)
