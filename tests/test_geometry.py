import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad
from scipy.stats import kstest

from kschannel import (Measurement, born_probability, geometry, random_unit_vec, require_unit,
                       rotate_to_frame, sphere_from_zphi, unit_vector)
from kschannel.geometry import dot3
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


def verdict(vec):
    """What require_unit makes of ``vec``: the bytes it returns, or the message it raises."""
    try:
        return require_unit(vec).tobytes()
    except ValueError as exc:
        return f"ValueError: {exc}"


def boundary_vectors(rng, count):
    """Vectors whose |v.v - 1|, summed as dot3 sums it, lies just inside or just outside
    UNIT_ATOL, by a random search over ulp-perturbed vectors.

    Near 1, v.v takes the values 1 + k 2^-52 and 1 - k 2^-53, so the four targets are
    the largest such |v.v - 1| <= UNIT_ATOL and the least one above it, on each side.
    Two components are drawn at random; the third is set to hit a target and then
    moved a few ulps either way, and the candidates that land on a target are kept,
    with their components in a random order and random signs.
    """
    atol = geometry.UNIT_ATOL
    targets = [1.0 + k * 2.0**-52 for k in (atol // 2.0**-52, atol // 2.0**-52 + 1)]
    targets += [1.0 - k * 2.0**-53 for k in (atol // 2.0**-53, atol // 2.0**-53 + 1)]
    found = {t: [] for t in targets}
    while min(len(v) for v in found.values()) < count:
        ab = rng.uniform(-0.7, 0.7, size=(4096, 2))
        q = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]
        for t in targets:
            c = np.sqrt(t - q)
            for step in range(-6, 7):
                cand = np.column_stack([ab, c + step * np.spacing(c)])
                cand = rng.permuted(cand, axis=1) * rng.choice([-1.0, 1.0], size=cand.shape)
                found[t].extend(cand[dot3(cand, cand) == t])
    return {t: np.array(v[:count]) for t, v in found.items()}


class TestRequireUnitBranches:
    """The one-vector branch of require_unit and its array check must agree on every input.

    A (1, 3) array takes the array check, so each (3,) input is compared with its own
    (1, 3) copy: both accept with the same bits, or both raise the same message.
    """

    def test_agree_just_inside_and_just_outside_the_tolerance(self):
        rng = np.random.default_rng(2024)
        for target, vecs in boundary_vectors(rng, 200).items():
            inside = abs(target - 1.0) <= geometry.UNIT_ATOL
            for v in vecs:
                assert verdict(v) == verdict(v[None]), (v.tolist(), target)
                assert (verdict(v) == v.tobytes()) == inside, (v.tolist(), target)

    @pytest.mark.parametrize("vec", [
        [np.nan, 0.0, 1.0], [0.0, 0.0, np.nan], [np.inf, 0.0, 0.0], [0.0, -np.inf, 0.0],
        [np.inf, -np.inf, 0.0], [np.nan, np.inf, 0.0], [-0.0, 0.0, 1.0], [-0.0, -0.0, -1.0],
        [0.6, -0.0, 0.8], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [1e-200, 0.0, 0.0],
        [1e200, 0.0, 0.0], [0.6, 0.0, 0.8 + 1e-9]])
    def test_agree_on_non_finite_signed_zero_and_extreme_components(self, vec):
        v = np.array(vec)
        with np.errstate(over="ignore", under="ignore"):
            assert verdict(v) == verdict(v[None])
            assert verdict(vec) == verdict(v)   # a list, as an array
            assert verdict(tuple(vec)) == verdict(v)

    def test_keeps_the_sign_of_a_zero(self):
        assert np.signbit(require_unit(np.array([-0.0, 0.6, -0.8]))[0])
        assert np.signbit(require_unit([-0.0, 0.0, 1.0])[0])

    @pytest.mark.parametrize("vec", [[0, 0, 1], [0, -1, 0], [0, 0, 2], [1, 1, 0]])
    def test_integer_input_is_checked_as_floats(self, vec):
        v = np.array(vec)
        assert verdict(v) == verdict(v[None]) == verdict(np.array(vec, dtype=float))
        assert verdict(vec) == verdict(v)
        if sum(c * c for c in vec) == 1:
            assert require_unit(v).dtype == np.float64

    @pytest.mark.parametrize("shape", [(1, 3), (2, 3), (3, 1), (1, 1, 3), (0, 3), (4,), ()])
    def test_other_shapes_take_the_array_check(self, shape):
        good = np.resize([0.6, 0.0, 0.8], shape)
        bad = np.resize([0.6, 0.0, 0.9], shape)
        for vec in (good, bad) if good.size else (good,):
            got = verdict(vec)
            if shape[-1:] != (3,):
                assert got == (f"ValueError: vector must have a trailing axis of length 3, "
                               f"got shape {vec.shape}")
            elif vec is good:
                assert got == vec.tobytes()
            else:
                assert got.startswith("ValueError: vector is not unit-norm")


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

    @pytest.mark.parametrize("xyz", [(-0.0, 0.0, -0.0), (np.nan, 0.0, 1.0), (np.inf, 0.0, 0.0),
                                     (1.0, -np.inf, 0.0)])
    def test_rejects_signed_zero_and_non_finite_input(self, xyz):
        # (inf, 0, 0) gave NaN components
        with pytest.raises(ValueError, match="finite components and nonzero length"):
            unit_vector(*xyz)

    @pytest.mark.parametrize("xyz, like", [((1e200, 1e200, 0.0), (1.0, 1.0, 0.0)),
                                           ((1e308, 1e308, 0.0), (1.0, 1.0, 0.0)),
                                           ((1e-300, 0.0, 0.0), (1.0, 0.0, 0.0)),
                                           ((1e-13, 0.0, 0.0), (1.0, 0.0, 0.0)),
                                           ((0.0, -5e-324, 0.0), (0.0, -1.0, 0.0)),
                                           ((1e-300, 1e-300, 0.0), (1.0, 1.0, 0.0))])
    def test_scales_lengths_that_overflow_or_vanish(self, xyz, like):
        # (1e200, 1e200, 0) gave the zero vector, and (1e-13, 0, 0) was refused
        assert_bit_identical(unit_vector(*xyz), unit_vector(*like))

    def test_ordinary_vectors_are_divided_by_their_length(self):
        for xyz in [(3.0, 0.0, 4.0), (0.3, -0.4, 0.5), (1e-6, 2e-6, 0.0), (1e150, 0.0, 1e150)]:
            v = np.array(xyz)
            assert_bit_identical(unit_vector(*xyz), v / np.linalg.norm(v))


def test_measurement_keeps_its_own_copy():
    # a later change to the caller's array must not reach the checked direction
    m = np.array([0.0, 0.0, 1.0])
    M = Measurement(m)
    m[:] = (0.0, 0.0, 3.0)
    assert M.direction.tolist() == [0.0, 0.0, 1.0]
    assert born_probability(np.array([0.0, 0.0, -1.0]), M) == 0.0
    with pytest.raises(ValueError):
        M.direction[2] = 3.0
    assert Measurement((0, 0, 1)).direction.dtype == np.float64


def test_measurement_flip_negates_direction():
    m = Measurement(unit_vector(1.0, 2.0, 2.0))
    assert np.array_equal(Measurement(-m.direction).direction, -m.direction)


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
    assert born_probability(v, meas) + born_probability(v, Measurement(-meas.direction)) == 1.0


# Frozen copies of the stack-based kernels the component-wise ones replaced;
# the current kernels must reproduce them bit for bit, signed zeros included.

def _stacked_dot3(a, b):
    return np.sum(np.asarray(a, float) * np.asarray(b, float), axis=-1)


def _stacked_sphere_from_zphi(z, phi):
    z = np.asarray(z, dtype=float)
    phi = np.asarray(phi, dtype=float)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), np.broadcast_to(z, r.shape).copy()], axis=-1)


def _stacked_rotate_to_frame(local, pole):
    local = np.asarray(local, dtype=float)
    pole = np.asarray(pole, dtype=float)
    px, py, pz = pole[..., 0], pole[..., 1], pole[..., 2]
    s = np.hypot(px, py)
    safe_s = np.maximum(s, 1e-300)
    e1 = np.stack([-py / safe_s, px / safe_s, np.zeros_like(px)], axis=-1)
    e2 = np.stack([-pz * px / safe_s, -pz * py / safe_s, s], axis=-1)
    near = np.abs(pz) > 1.0 - 1e-9
    if np.any(near):
        h = np.hypot(py, pz)
        safe_h = np.maximum(h, 1e-300)
        zeros = np.zeros_like(px)
        e1_axis = np.stack([zeros, pz / safe_h, -py / safe_h], axis=-1)
        e2_axis = np.stack([-h, px * py / safe_h, px * pz / safe_h], axis=-1)
        e1 = np.where(near[..., None], e1_axis, e1)
        e2 = np.where(near[..., None], e2_axis, e2)
        on_axis = near & (s == 0.0)
        if np.any(on_axis):
            sign = np.where(pz >= 0.0, 1.0, -1.0)
            e2_fixed = np.stack([zeros, sign, zeros], axis=-1)
            e1 = np.where(on_axis[..., None], np.array([1.0, 0.0, 0.0]), e1)
            e2 = np.where(on_axis[..., None], e2_fixed, e2)
    return local[..., 0:1] * e1 + local[..., 1:2] * e2 + local[..., 2:3] * pole


def assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # array_equal has -0.0 == 0.0


def assert_fresh_vectors(out, shape):
    # callers keep, index and reshape the result (run_trials' points, ks_sample's row
    # blocks), so it must be a fresh C-contiguous array, never a broadcast view
    assert out.shape == shape
    assert out.flags.c_contiguous and out.flags.writeable


def _with_zeros(rng, x):
    """x with about a third of its entries replaced by +0.0 or -0.0."""
    pick = rng.integers(0, 6, size=x.shape)
    return np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, x))


def _awkward_poles(rng, n):
    """Unit poles mixing random directions, the pole caps and the exact axes."""
    poles = random_unit_vec(rng, n)
    cap = sphere_from_zphi(1.0 - rng.uniform(0.0, 2e-9, n), rng.uniform(0.0, 2 * np.pi, n))
    kind = rng.integers(0, 7, size=n)[:, None]
    poles = np.where(kind == 0, cap, poles)
    poles = np.where(kind == 1, -cap, poles)
    poles = np.where(kind == 2, [0.0, 0.0, 1.0], poles)
    poles = np.where(kind == 3, [-0.0, 0.0, -1.0], poles)
    poles = np.where(kind == 4, [0.0, -0.0, 1.0], poles)
    return np.where(kind == 5, [-1.0, 0.0, -0.0], poles)


class TestKernelsMatchStackedForms:
    @pytest.mark.parametrize("shape_a, shape_b", [
        ((3,), (3,)), ((500, 3), (3,)), ((3,), (500, 3)), ((500, 3), (500, 3)),
        ((20, 25, 3), (25, 3)), ((0, 3), (3,))])
    def test_dot3(self, shape_a, shape_b):
        rng = np.random.default_rng(41)
        for _ in range(20):
            a = _with_zeros(rng, rng.standard_normal(shape_a) * 10.0 ** rng.integers(-8, 8, shape_a))
            b = _with_zeros(rng, rng.standard_normal(shape_b))
            assert_bit_identical(dot3(a, b), _stacked_dot3(a, b))

    def test_dot3_adds_left_to_right_from_positive_zero(self):
        a = np.array([[1.0, 1e16, -1e16], [-0.0, -0.0, -0.0], [-1.0, 0.0, 0.0]])
        b = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, -1.0, -0.0]])
        got = dot3(a, b)
        assert_bit_identical(got, _stacked_dot3(a, b))
        assert got[0] == 0.0 and not np.any(np.signbit(got))

    @pytest.mark.parametrize("z_shape, phi_shape", [
        ((), ()), ((400,), (400,)), ((400,), ()), ((16, 25), (16, 25)), ((16, 25), ())])
    def test_sphere_from_zphi(self, z_shape, phi_shape):
        rng = np.random.default_rng(42)
        z = _with_zeros(rng, rng.uniform(-1.0, 1.0, z_shape))
        z = np.where(rng.random(z_shape) < 0.1, -1.0, np.where(rng.random(z_shape) < 0.1, 1.0, z))
        phi = _with_zeros(rng, rng.uniform(0.0, 2 * np.pi, phi_shape))
        out = sphere_from_zphi(z, phi)
        assert_bit_identical(out, _stacked_sphere_from_zphi(z, phi))
        assert_fresh_vectors(out, np.broadcast_shapes(np.shape(z), np.shape(phi)) + (3,))

    @pytest.mark.parametrize("z, phi", [(0.0, 0.0), (-0.0, -0.0), (1.0, 0.3), (-1.0, np.pi),
                                        (1.5, 1.0)])
    def test_sphere_from_zphi_scalars(self, z, phi):
        out = sphere_from_zphi(z, phi)
        assert_bit_identical(out, _stacked_sphere_from_zphi(z, phi))
        assert_fresh_vectors(out, (3,))

    def test_rotate_to_frame_per_sample_poles(self):
        rng = np.random.default_rng(43)
        poles = _awkward_poles(rng, 600)
        local = _with_zeros(rng, random_unit_vec(rng, 600))
        for lo, po in [(local, poles), (local[0], poles), (local.reshape(2, 300, 3), poles[:300]),
                       (local[:8, None, :], poles[None, :5])]:
            out = rotate_to_frame(lo, po)
            assert_bit_identical(out, _stacked_rotate_to_frame(lo, po))
            assert_fresh_vectors(out, np.broadcast_shapes(lo.shape, po.shape))

    @pytest.mark.parametrize("pole", [
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, -0.0, 1.0], [0.0, -0.0, -1.0],
        [1.0, 0.0, 0.0], [0.0, -1.0, -0.0], [3e-5, 4e-5, 1.0 - 2.5e-9], [-3e-5, 0.0, -(1.0 - 4.5e-10)],
        [0.6, 0.0, 0.8]])
    def test_rotate_to_frame_single_pole(self, pole):
        rng = np.random.default_rng(44)
        pole = np.array(pole)
        local = _with_zeros(rng, random_unit_vec(rng, 300))
        for lo in (local, local.reshape(3, 100, 3), local[0], np.array([-0.0, -0.0, -0.0]),
                   np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])):
            out = rotate_to_frame(lo, pole)
            assert_bit_identical(out, _stacked_rotate_to_frame(lo, pole))
            assert_fresh_vectors(out, lo.shape)
