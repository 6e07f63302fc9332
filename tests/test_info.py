import numpy as np
import pytest
from scipy.integrate import quad

from kschannel import (conditional_entropy_ks, exact_ks_mi, marginal_entropy_ks,
                       mc_mutual_information, random_unit_vec)
from oracles import conditional_entropy_2d
from test_model import POLES

# frozen closed forms: 2 - 1/(2 ln 2), log2(pi) + 1/(2 ln 2), log2(4 pi)
MI_EXACT = 1.2786524795555183
COND_ENTROPY = 2.3728436499168004
MARG_ENTROPY = 3.651496129472319


class TestClosedForms:
    def test_exact_mi_value(self):
        assert exact_ks_mi() == pytest.approx(2.0 - 1.0 / (2.0 * np.log(2.0)), abs=1e-15)
        assert exact_ks_mi() == pytest.approx(MI_EXACT, abs=1e-12)

    def test_conditional_entropy(self):
        assert conditional_entropy_ks() == COND_ENTROPY

    def test_conditional_entropy_matches_its_integral(self):
        # -2 int_0^1 z log2(z/pi) dz, the 1-D form the closed form comes from
        value, _ = quad(lambda z: -2.0 * z * np.log2(z / np.pi), 0.0, 1.0,
                        epsabs=1e-12, epsrel=1e-12)
        assert conditional_entropy_ks() == pytest.approx(value, abs=1e-12)

    def test_conditional_entropy_v_independent_full_2d(self):
        rng = np.random.default_rng(31)
        for v in random_unit_vec(rng, 10):
            assert conditional_entropy_2d(v) == pytest.approx(COND_ENTROPY, abs=1e-6)

    @pytest.mark.parametrize("v", POLES)
    def test_conditional_entropy_2d_at_the_poles(self, v):
        assert conditional_entropy_2d(v) == pytest.approx(COND_ENTROPY, abs=1e-9)

    def test_marginal_entropy(self):
        assert marginal_entropy_ks() == pytest.approx(MARG_ENTROPY, abs=1e-12)
        assert marginal_entropy_ks() > conditional_entropy_ks()

    def test_entropies_are_finite(self):
        assert np.isfinite(conditional_entropy_ks())
        assert np.isfinite(marginal_entropy_ks())

    def test_entropy_difference_equals_mi(self):
        assert marginal_entropy_ks() - conditional_entropy_ks() == pytest.approx(
            exact_ks_mi(), abs=1e-9)

    def test_kl_divergence_matches_its_integral(self):
        # int_0^1 2z log2(4z) dz: the density ratio on the support is 4 (v.x)
        value, _ = quad(lambda z: 2.0 * z * np.log2(4.0 * z), 0.0, 1.0,
                        epsabs=1e-12, epsrel=1e-12)
        assert exact_ks_mi() == pytest.approx(value, abs=1e-12)


class TestMcMutualInformation:
    def test_ks_model_brackets_exact(self):
        est = mc_mutual_information(1_000_000, np.random.default_rng(123))
        assert est.value == pytest.approx(MI_EXACT, abs=3e-3)
        assert est.brackets(exact_ks_mi())
        assert est.std_error < 1.2e-3
        assert est.std_error >= 0.0 and np.isfinite(est.value)
        assert est.n_samples == 1_000_000

    def test_std_error_scales_as_inverse_sqrt_n(self):
        small = mc_mutual_information(50_000, np.random.default_rng(4))
        large = mc_mutual_information(200_000, np.random.default_rng(5))
        ratio = small.std_error / large.std_error
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2

    def test_estimates_nonnegative_within_noise(self):
        for seed in range(5):
            est = mc_mutual_information(20_000, np.random.default_rng(seed))
            assert est.value > -3.0 * est.std_error

    def test_requires_minimum_samples(self):
        with pytest.raises(ValueError):
            mc_mutual_information(999, np.random.default_rng(0))

    @pytest.mark.parametrize("workers", [1.5, "2", None, 0, -5, True, np.True_])
    def test_worker_count_must_be_a_whole_number_from_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            mc_mutual_information(2000, np.random.default_rng(0), workers=workers)

    def test_whole_sample_counts_run_as_their_int(self):
        want = mc_mutual_information(2000, np.random.default_rng(6))
        for n in (2000.0, np.int64(2000), np.float32(2000)):
            est = mc_mutual_information(n, np.random.default_rng(6))
            assert est == want
            assert type(est.n_samples) is int

    @pytest.mark.parametrize("n", [1000.5, True, np.True_, float("nan"), float("inf"), "2000"])
    def test_sample_count_must_be_a_whole_number(self, n):
        with pytest.raises(ValueError, match="sample count"):
            mc_mutual_information(n, np.random.default_rng(0))
