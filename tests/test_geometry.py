import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad
from scipy.stats import kstest

from kschannel import (Measurement, born_probability, random_unit_vec, require_unit,
                       rotate_to_frame, sphere_from_zphi, unit_vector)
from conftest import unit_vectors

ZHAT = np.array([0.0, 0.0, 1.0])


class TestBornProbability:
    def test_aligned_state_is_certain(self):
        assert born_probability(ZHAT, Measurement(ZHAT)) == 1.0
        v = unit_vector(0.3, -0.4, 0.5)
        assert born_probability(v, Measurement(v)) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_bloch_vectors_give_half(self):
        assert born_probability(ZHAT, Measurement(np.array([1.0, 0.0, 0.0]))) == 0.5

    def test_direct_evaluation_at_dot_0p6(self):
        # v.m = 0.6 exactly: (1 + 0.6)/2 = 0.8
        m = Measurement(np.array([0.8, 0.0, 0.6]))
        assert born_probability(ZHAT, m) == pytest.approx(0.8, abs=1e-15)

    def test_rejects_non_unit_state(self):
        with pytest.raises(ValueError):
            born_probability(np.array([0.0, 0.0, 2.0]), Measurement(ZHAT))
        with pytest.raises(ValueError):
            Measurement(np.array([0.1, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [[np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0],
                                     [[0.0, 0.0, 1.0], [0.0, np.nan, 1.0]]])
    def test_require_unit_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="not unit-norm"):
            require_unit(np.array(bad))


class TestRandomUnitVec:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        v = random_unit_vec(rng, 100_000)
        assert np.max(np.abs(np.sum(v * v, axis=1) - 1.0)) <= 1e-12

    def test_component_means_match_sphere_moments(self):
        # oracle: per-component variance of the uniform sphere by quadrature
        var, _ = quad(lambda z: 0.5 * z * z, -1.0, 1.0)
        sigma = np.sqrt(var)
        n = 1_000_000
        v = random_unit_vec(np.random.default_rng(202), n)
        assert np.all(np.abs(v.mean(axis=0)) <= 3.0 * sigma / np.sqrt(n))

    def test_z_component_uniform_ks(self):
        n = 1_000_000
        v = random_unit_vec(np.random.default_rng(7), n)
        stat = kstest(v[:, 2], "uniform", args=(-1.0, 2.0)).statistic
        assert stat < 1.628 / np.sqrt(n)  # 1% critical value

    def test_deterministic_given_seed(self):
        a = random_unit_vec(np.random.default_rng(99), 1000)
        b = random_unit_vec(np.random.default_rng(99), 1000)
        assert np.array_equal(a, b)


class TestRotateToFrame:
    def test_pole_maps_to_pole_exactly(self):
        rng = np.random.default_rng(5)
        poles = random_unit_vec(rng, 1000)
        assert np.array_equal(rotate_to_frame(ZHAT, poles), poles)

    def test_identity_frame_at_north_pole(self):
        rng = np.random.default_rng(6)
        v = random_unit_vec(rng, 1000)
        assert np.array_equal(rotate_to_frame(v, ZHAT), v)

    def test_isometry_on_random_pairs(self):
        rng = np.random.default_rng(8)
        local = random_unit_vec(rng, 10_000)
        pole = random_unit_vec(rng, 10_000)
        out = rotate_to_frame(local, pole)
        assert np.max(np.abs(np.sum(out * out, axis=1) - 1.0)) <= 1e-12
        # polar angle about the pole equals the local z
        assert np.max(np.abs(np.sum(out * pole, axis=1) - local[:, 2])) <= 1e-10

    def test_south_pole_branch(self):
        south = np.array([0.0, 0.0, -1.0])
        out = rotate_to_frame(np.array([1.0, 0.0, 0.0]), south)
        assert np.allclose(np.sum(out * out), 1.0, atol=1e-12)
        assert abs(np.dot(out, south)) <= 1e-12

    @settings(max_examples=200)
    @given(unit_vectors(), unit_vectors())
    def test_polar_angle_preserved(self, local, pole):
        out = rotate_to_frame(local, pole)
        assert abs(float(np.dot(out, pole)) - local[2]) <= 1e-10

    def test_isometry_holds_inside_the_pole_cap(self):
        rng = np.random.default_rng(14)
        local = random_unit_vec(rng, 1000)
        z = 1.0 - rng.uniform(0.0, 1e-9, size=1000)  # poles inside the branch cap
        pole = sphere_from_zphi(z, rng.uniform(0, 2 * np.pi, size=1000))
        out = rotate_to_frame(local, pole)
        assert np.max(np.abs(np.sum(out * out, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.sum(out * pole, axis=1) - local[:, 2])) <= 1e-10


class TestUnitVector:
    def test_normalizes(self):
        v = unit_vector(3.0, 0.0, 4.0)
        assert np.allclose(v, [0.6, 0.0, 0.8])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            unit_vector(0.0, 0.0, 0.0)


def test_measurement_flip_negates_direction():
    m = Measurement(unit_vector(1.0, 2.0, 2.0))
    assert np.array_equal(m.flipped().direction, -m.direction)


def test_born_complement_is_exactly_one():
    from kschannel import born_from_dot
    rng = np.random.default_rng(11)
    v = random_unit_vec(rng, 1_000_000)
    m = random_unit_vec(rng, 1_000_000)
    t_plus = np.sum(v * m, axis=1)
    t_minus = np.sum(v * (-m), axis=1)
    assert np.array_equal(t_minus, -t_plus)  # dot negation is exact
    p_plus = born_from_dot(t_plus)
    p_minus = born_from_dot(t_minus)
    assert np.all(p_plus + p_minus == 1.0)
    assert np.all((p_plus >= 0.0) & (p_plus <= 1.0))


@settings(max_examples=300)
@given(unit_vectors(), unit_vectors())
def test_born_complement_hypothesis(v, m):
    meas = Measurement(m)
    assert born_probability(v, meas) + born_probability(v, meas.flipped()) == 1.0
