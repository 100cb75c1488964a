import math
import warnings

import numpy as np
import pytest
from scipy.stats import chi2

from mcvtests._resampling import pooled_resample_estimates, wald_resample_stats
from mcvtests.design import tukey_contrasts
from mcvtests.estimation import DegeneracyError, McvVariant
from mcvtests.numkit import make_rng
from mcvtests.tests_global import (
    GroupedData,
    Target,
    asymptotic_test,
    bootstrap_test,
    group_estimates,
    permutation_test,
    wald_statistic,
)

VV_C = Target("c", McvVariant.VV)
VV_B = Target("b", McvVariant.VV)


def make_data(rng, sizes, d=2, loc=2.0, scales=None):
    scales = scales or [1.0] * len(sizes)
    return GroupedData.from_arrays(
        [loc + s * rng.standard_normal((n, d)) for n, s in zip(sizes, scales)]
    )


class TestGroupedData:
    def test_requires_two_groups(self):
        with pytest.raises(ValueError, match="two groups"):
            GroupedData.from_arrays([np.ones((5, 2))])

    def test_requires_matching_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            GroupedData.from_arrays([np.ones((5, 2)), np.ones((5, 3))])

    def test_requires_two_observations_per_group(self):
        with pytest.raises(ValueError, match="two observations"):
            GroupedData.from_arrays([np.ones((1, 2)), np.ones((5, 2))])

    def test_sizes_and_pool(self):
        data = make_data(np.random.default_rng(0), (4, 6))
        assert data.sizes == (4, 6)
        assert data.n == 10
        assert data.pooled().shape == (10, 2)


class TestGroupEstimates:
    def test_identical_groups_identical_entries(self):
        x = np.random.default_rng(1).normal(2.0, 1.0, size=(20, 2))
        data = GroupedData.from_arrays([x, x.copy()])
        theta, sigma = group_estimates(VV_C, data)
        assert theta[0] == theta[1]
        assert sigma[0] == sigma[1]

    def test_weights_scale_with_group_share(self):
        rng = np.random.default_rng(2)
        data = make_data(rng, (10, 30))
        _, sigma = group_estimates(VV_C, data)
        from mcvtests.estimation import Sample, estimate

        est0 = estimate(McvVariant.VV, data.samples[0])
        est1 = estimate(McvVariant.VV, data.samples[1])
        assert sigma[0] == pytest.approx(4.0 * est0.var_c, rel=1e-14)
        assert sigma[1] == pytest.approx((40.0 / 30.0) * est1.var_c, rel=1e-14)

    def test_univariate_delta_method_oracle(self):
        # Independent gradient formula for the CV in (mean, raw second moment):
        # d/dm = -M2 / (m^2 s), d/dM2 = 1 / (2 m s).
        rng = np.random.default_rng(3)
        arrays = [rng.normal(3.0, 1.0, size=(25, 1)), rng.normal(3.0, 2.0, size=(35, 1))]
        data = GroupedData.from_arrays(arrays)
        _, sigma = group_estimates(VV_C, data)
        n = data.n
        for i, x in enumerate(arrays):
            v = x[:, 0]
            m, m2, m3, m4 = (np.mean(v**p) for p in (1, 2, 3, 4))
            s2 = m2 - m * m
            psi3, psi4 = m3 - m2 * m, m4 - m2 * m2
            gm, gq = -m2 / (m * m * math.sqrt(s2)), 1.0 / (2.0 * m * math.sqrt(s2))
            var = gm * gm * s2 + 2.0 * gm * gq * psi3 + gq * gq * psi4
            assert sigma[i] == pytest.approx((n / len(v)) * var, rel=1e-10)

    @pytest.mark.parametrize("method", ["asymptotic", "bootstrap"])
    def test_one_small_group_warning_per_public_call(self, method):
        # Two groups below d + 2 = 5 rows give one warning, for the smaller;
        # the bootstrap's resamples, tiny as they are, add none.
        gen = make_rng(5).generator()
        data = GroupedData.from_arrays([2.0 + gen.standard_normal((n, 3)) for n in (4, 3, 30)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if method == "asymptotic":
                asymptotic_test(VV_C, data, tukey_contrasts(3))
            else:
                bootstrap_test(VV_C, data, tukey_contrasts(3), 0.05, 50, make_rng(2))
        messages = [str(w.message) for w in caught if "variance estimation" in str(w.message)]
        assert messages == ["n=3 < d+2=5: variance estimation is unreliable"]


class TestWaldStatistic:
    def test_zero_for_identical_groups(self):
        x = np.random.default_rng(4).normal(2.0, 1.0, size=(15, 2))
        data = GroupedData.from_arrays([x, x.copy(), x.copy()])
        stat, rank = wald_statistic(VV_C, data, np.eye(3) - np.full((3, 3), 1 / 3))
        assert stat == pytest.approx(0.0, abs=1e-18)
        assert rank == 2

    def test_two_sample_scalar_reduction(self):
        rng = np.random.default_rng(5)
        data = make_data(rng, (12, 18))
        theta, sigma = group_estimates(VV_C, data)
        expected = data.n * (theta[1] - theta[0]) ** 2 / (sigma[0] + sigma[1])
        stat, rank = wald_statistic(VV_C, data, np.array([[-1.0, 1.0]]))
        assert stat == pytest.approx(expected, rel=1e-12)
        assert rank == 1

    def test_invariant_to_contrast_scaling(self):
        rng = np.random.default_rng(6)
        data = make_data(rng, (10, 10, 10), d=3)
        h = tukey_contrasts(3)
        s1, _ = wald_statistic(VV_C, data, h)
        s5, _ = wald_statistic(VV_C, data, 5.0 * h.h)
        assert s5 == pytest.approx(s1, rel=1e-10)

    def test_group_relabel_equivariance(self):
        rng = np.random.default_rng(7)
        arrays = [rng.normal(2.0, s, size=(12, 2)) for s in (1.0, 1.5, 2.0)]
        data = GroupedData.from_arrays(arrays)
        h = tukey_contrasts(3).h
        s_orig, _ = wald_statistic(VV_C, data, h)
        perm = [2, 0, 1]
        data_p = GroupedData.from_arrays([arrays[i] for i in perm])
        s_perm, _ = wald_statistic(VV_C, data_p, h[:, perm])
        assert s_perm == pytest.approx(s_orig, rel=1e-10)

    def test_within_group_reordering_is_exact(self):
        # Small integers with power-of-two group sizes keep every moment
        # computation exact in floating point, so the statistic must not move
        # at all under within-group permutations.
        rng = np.random.default_rng(8)
        arrays = [
            rng.integers(1, 9, size=(16, 2)).astype(float),
            rng.integers(1, 9, size=(8, 2)).astype(float),
        ]
        data = GroupedData.from_arrays(arrays)
        s0, _ = wald_statistic(VV_C, data, np.array([[-1.0, 1.0]]))
        shuffled = [a[rng.permutation(len(a))] for a in arrays]
        s1, _ = wald_statistic(VV_C, GroupedData.from_arrays(shuffled), np.array([[-1.0, 1.0]]))
        assert s0 == s1

    def test_mismatched_contrast_rejected(self):
        data = make_data(np.random.default_rng(9), (10, 10))
        with pytest.raises(ValueError, match="columns"):
            wald_statistic(VV_C, data, tukey_contrasts(3))


class TestAsymptoticTest:
    def test_identical_groups_do_not_reject(self):
        x = np.random.default_rng(10).normal(2.0, 1.0, size=(30, 2))
        data = GroupedData.from_arrays([x, x.copy()])
        res = asymptotic_test(VV_C, data, np.array([[-1.0, 1.0]]))
        assert res.p_value == pytest.approx(1.0)
        assert not res.reject
        assert res.method == "asymptotic"

    def test_quantile_inversion_consistency(self):
        assert chi2.sf(chi2.ppf(0.95, 3), 3) == pytest.approx(0.05, abs=1e-10)
        assert chi2.sf(7.8147, 3) == pytest.approx(0.05, abs=1e-4)

    def test_result_invariants(self):
        rng = np.random.default_rng(11)
        data = make_data(rng, (20, 20, 20), scales=(1.0, 2.0, 3.0))
        res = asymptotic_test(VV_B, data, tukey_contrasts(3))
        assert 0.0 <= res.p_value <= 1.0
        assert res.rank >= 1


class TestResamplingTests:
    def test_same_seed_same_p(self):
        rng = np.random.default_rng(12)
        data = make_data(rng, (12, 15))
        h = np.array([[-1.0, 1.0]])
        for runner in (permutation_test, bootstrap_test):
            r1 = runner(VV_C, data, h, 0.05, 99, make_rng(7))
            r2 = runner(VV_C, data, h, 0.05, 99, make_rng(7))
            assert r1.p_value == r2.p_value
            assert r1.seed == 7

    def test_single_resample_p_values(self):
        rng = np.random.default_rng(13)
        data = make_data(rng, (10, 10))
        h = np.array([[-1.0, 1.0]])
        for seed in range(6):
            res = bootstrap_test(VV_C, data, h, 0.05, 1, make_rng(seed))
            assert res.p_value in (0.5, 1.0)

    def test_separated_groups_minimal_p(self):
        gen = make_rng(14).generator()
        a = 2.0 + 0.05 * gen.standard_normal((40, 1))
        b = 2.0 + 2.0 * gen.standard_normal((40, 1))
        data = GroupedData.from_arrays([a, b])
        res = permutation_test(VV_C, data, np.array([[-1.0, 1.0]]), 0.05, 199, make_rng(1))
        assert res.p_value == pytest.approx(1.0 / 200.0)
        assert res.reject

    def test_constant_pool_is_degenerate(self):
        data = GroupedData.from_arrays([np.full((5, 2), 3.0), np.full((5, 2), 3.0)])
        with pytest.raises(DegeneracyError):
            permutation_test(VV_C, data, np.array([[-1.0, 1.0]]), 0.05, 9, make_rng(0))

    @pytest.mark.filterwarnings("ignore:.*variance estimation.*")
    def test_degenerate_resamples_counted_as_infinite(self):
        # Tiny bootstrap groups occasionally draw one row twice, which makes
        # the group constant and the resample degenerate.
        data = GroupedData.from_arrays([np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])])
        res = bootstrap_test(VV_C, data, np.array([[-1.0, 1.0]]), 0.05, 200, make_rng(3))
        assert res.resamples_degenerate > 0
        assert 0.0 < res.p_value <= 1.0

    def test_exchangeable_size_close_to_level(self):
        gen = make_rng(909).generator()
        rejections = 0
        reps = 200
        for i in range(reps):
            data = GroupedData.from_arrays(
                [2.0 + gen.standard_normal((15, 1)), 2.0 + gen.standard_normal((15, 1))]
            )
            res = permutation_test(VV_C, data, np.array([[-1.0, 1.0]]), 0.05, 60, make_rng(i))
            rejections += res.reject
        assert 0.01 <= rejections / reps <= 0.10

    def test_permutation_distribution_mimics_chi_square_under_alternative(self):
        # With clearly unequal dispersion the observed statistic explodes but
        # the resampled statistics keep the pooled-null chi-square shape.
        gen = make_rng(77).generator()
        arrays = [
            2.0 + gen.standard_normal((200, 2)),
            2.0 + 4.0 * gen.standard_normal((200, 2)),
        ]
        data = GroupedData.from_arrays(arrays)
        h = np.array([[-1.0, 1.0]])
        s_obs, rank = wald_statistic(VV_C, data, h)
        assert s_obs > chi2.ppf(0.999, 1)
        stats, degen = pooled_resample_estimates(
            McvVariant.VV, data.pooled(), data.sizes, 1500, make_rng(4), replace=False
        )
        weights = data.n / np.asarray(data.sizes, dtype=float)
        vals = wald_resample_stats(stats, degen, "c", h, data.n, weights)
        vals = np.sort(vals[np.isfinite(vals)])
        grid = chi2.cdf(vals, rank)
        ecdf_hi = np.arange(1, vals.size + 1) / vals.size
        ecdf_lo = np.arange(0, vals.size) / vals.size
        ks = max(np.max(np.abs(ecdf_hi - grid)), np.max(np.abs(ecdf_lo - grid)))
        assert ks < 0.08


class TestTargetType:
    def test_eight_combinations(self):
        targets = {Target(kind, v) for kind in ("c", "b") for v in McvVariant}
        assert len(targets) == 8

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Target("x", McvVariant.VV)

    def test_string_form(self):
        assert str(Target("b", McvVariant.RR)) == "b:rr"
