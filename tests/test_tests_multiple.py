import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from mcvtests._resampling import pooled_resample_estimates
from mcvtests.design import ContrastMatrix, tukey_contrasts, validate_contrast
from mcvtests.estimation import DegeneracyError, McvVariant, _estimate_array
from mcvtests.numkit import make_rng, sym_sqrt
from mcvtests.tests_global import GroupedData, Target, group_estimates, wald_statistic
from mcvtests.tests_multiple import (
    MctResult,
    _build_result,
    asymptotic_mct,
    bootstrap_mct,
    bootstrap_mct_max_stats,
    correlation_matrix,
    mct_global_p,
    t_statistics,
)

VV_C = Target("c", McvVariant.VV)


def make_data(rng, sizes, d=2, loc=2.0, scales=None):
    scales = scales or [1.0] * len(sizes)
    return GroupedData.from_arrays(
        [loc + s * rng.standard_normal((n, d)) for n, s in zip(sizes, scales)]
    )


class TestTStatistics:
    def test_zero_for_identical_groups(self):
        x = np.random.default_rng(0).normal(2.0, 1.0, size=(25, 2))
        data = GroupedData.from_arrays([x, x.copy(), x.copy()])
        t = t_statistics(VV_C, data, tukey_contrasts(3))
        np.testing.assert_allclose(t, 0.0, atol=1e-12)

    def test_square_equals_two_sample_wald(self):
        rng = np.random.default_rng(1)
        data = make_data(rng, (14, 19))
        t = t_statistics(VV_C, data, np.array([[-1.0, 1.0]]))
        stat, _ = wald_statistic(VV_C, data, np.array([[-1.0, 1.0]]))
        assert t[0] ** 2 == pytest.approx(stat, rel=1e-12)

    def test_invariant_to_contrast_scale(self):
        rng = np.random.default_rng(2)
        data = make_data(rng, (10, 12, 15), scales=(1.0, 1.3, 0.7))
        h = tukey_contrasts(3).h
        t1 = t_statistics(VV_C, data, h)
        t2 = t_statistics(VV_C, data, validate_contrast(4.0 * h))
        np.testing.assert_allclose(t2, t1, rtol=1e-12)

    def test_zero_variance_guard(self):
        from mcvtests.tests_multiple import _contrast_scales

        h = np.array([[-1.0, 1.0, 0.0]])
        with pytest.raises(DegeneracyError, match="zero variance"):
            _contrast_scales(h, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(DegeneracyError, match="zero variance"):
            correlation_matrix(np.array([0.0, 0.0, 1.0]), validate_contrast(h))


class TestCorrelationMatrix:
    def test_orthogonal_contrasts_identity(self):
        h = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        r = correlation_matrix(np.ones(4), h)
        np.testing.assert_allclose(r, np.eye(2), atol=1e-14)

    def test_tukey_three_groups_half_correlations(self):
        r = correlation_matrix(np.ones(3), tukey_contrasts(3))
        expected = np.array([[1.0, 0.5, -0.5], [0.5, 1.0, 0.5], [-0.5, 0.5, 1.0]])
        np.testing.assert_allclose(r, expected, atol=1e-14)

    def test_accepts_full_matrix(self):
        sigma = np.diag([1.0, 2.0, 3.0])
        r1 = correlation_matrix(sigma, tukey_contrasts(3))
        r2 = correlation_matrix(np.array([1.0, 2.0, 3.0]), tukey_contrasts(3))
        np.testing.assert_allclose(r1, r2, atol=1e-15)

    def test_gram_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            sigma = rng.uniform(0.2, 3.0, size=4)
            r = correlation_matrix(sigma, tukey_contrasts(4))
            eigs = np.linalg.eigvalsh(r)
            assert eigs.min() > -1e-10
            np.testing.assert_allclose(np.diag(r), 1.0, atol=1e-14)


class TestAsymptoticMct:
    def test_single_contrast_is_z_test(self):
        rng = np.random.default_rng(5)
        data = make_data(rng, (30, 30))
        res = asymptotic_mct(VV_C, data, np.array([[-1.0, 1.0]]), 0.05, 100_000, make_rng(1))
        assert res.critical_value == pytest.approx(ndtri(0.975), abs=0.02)

    def test_interval_formula(self):
        cm = validate_contrast(np.array([[-1.0, 1.0]]))
        res = _build_result(
            target=VV_C,
            cm=cm,
            t_obs=np.array([5.0]),
            estimates=np.array([0.5]),
            scales=np.array([1.0]),
            critical=2.0,
            corr=np.eye(1),
            method="asymptotic",
            alpha=0.05,
            n=100,
        )
        np.testing.assert_allclose(res.sci, [[0.3, 0.7]], atol=1e-14)

    def test_decision_interval_duality(self):
        rng = np.random.default_rng(6)
        data = make_data(rng, (25, 25, 25, 25), scales=(1.0, 1.0, 1.0, 2.5))
        res = asymptotic_mct(VV_C, data, tukey_contrasts(4), 0.05, 20_000, make_rng(2))
        for i, dec in enumerate(res.decisions):
            outside = res.sci[i, 0] > 0.0 or res.sci[i, 1] < 0.0
            assert bool(dec) == outside
        assert any(res.decisions)

    def test_critical_value_monotone_in_alpha(self):
        rng = np.random.default_rng(7)
        data = make_data(rng, (20, 20, 20))
        qs = [
            asymptotic_mct(VV_C, data, tukey_contrasts(3), a, 20_000, make_rng(3)).critical_value
            for a in (0.2, 0.1, 0.05, 0.01)
        ]
        assert qs == sorted(qs)


class TestBootstrapMct:
    def test_deterministic(self):
        rng = np.random.default_rng(8)
        data = make_data(rng, (15, 15, 15))
        r1 = bootstrap_mct(VV_C, data, tukey_contrasts(3), 0.05, 150, make_rng(5))
        r2 = bootstrap_mct(VV_C, data, tukey_contrasts(3), 0.05, 150, make_rng(5))
        assert r1.critical_value == r2.critical_value
        np.testing.assert_array_equal(r1.decisions, r2.decisions)

    def test_bootstrap_centering(self):
        # Means of the resampled estimates approach the pooled estimate; the
        # estimator's nonlinearity leaves an O(1/n_i) bias on top of the
        # Monte-Carlo error, so allow for both.
        rng = np.random.default_rng(9)
        data = make_data(rng, (40, 40))
        pooled = _estimate_array(McvVariant.VV, data.pooled())
        stats, degen = pooled_resample_estimates(
            McvVariant.VV, data.pooled(), data.sizes, 5000, make_rng(6), replace=True
        )
        ok = ~degen
        for i in range(2):
            draws = stats[ok, i, 0]
            se = draws.std(ddof=1) / math.sqrt(draws.size)
            assert abs(draws.mean() - pooled.c) < 3.0 * se + 1.0 / min(data.sizes)
        # The resampled mean vector itself is exactly centered in expectation;
        # check the linear statistic at the same tolerance without the bias term.
        means = np.array(
            [data.pooled()[make_rng(60).substream(b).generator().integers(0, 80, 80)].mean() for b in range(200)]
        )
        se_lin = means.std(ddof=1) / math.sqrt(means.size)
        assert abs(means.mean() - data.pooled().mean()) < 3.0 * se_lin

    def test_reduces_to_plain_studentization_when_variances_match(self):
        h = tukey_contrasts(3).h
        theta0 = 0.8
        weights = np.array([3.0, 3.0, 3.0])
        sigma_obs = np.array([0.9, 1.1, 1.4])
        scales = np.sqrt(np.einsum("lk,k,lk->l", h, sigma_obs, h))
        stats = np.zeros((4, 3, 4))
        gen = make_rng(10).generator()
        stats[:, :, 0] = theta0 + 0.1 * gen.standard_normal((4, 3))
        stats[:, :, 2] = sigma_obs / weights  # resample variances equal observed
        out = bootstrap_mct_max_stats(
            stats, np.zeros(4, dtype=bool), "c", h, theta0, sigma_obs, scales, weights, 90
        )
        expected = [
            math.sqrt(90) * np.max(np.abs(h @ (stats[b, :, 0] - theta0)) / scales)
            for b in range(4)
        ]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_sqrt_ratio_matches_matrix_path(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.5, 2.0, size=5)
        b = rng.uniform(0.5, 2.0, size=5)
        matrix_path = sym_sqrt(np.diag(a)) @ np.linalg.inv(sym_sqrt(np.diag(b)))
        np.testing.assert_allclose(matrix_path, np.diag(np.sqrt(a / b)), atol=1e-12)

    def test_critical_value_monotone_in_alpha(self):
        rng = np.random.default_rng(12)
        data = make_data(rng, (15, 15, 15))
        qs = [
            bootstrap_mct(VV_C, data, tukey_contrasts(3), a, 200, make_rng(8)).critical_value
            for a in (0.2, 0.1, 0.05)
        ]
        assert qs == sorted(qs)

    @pytest.mark.filterwarnings("ignore:.*variance estimation.*")
    def test_degenerate_resamples_tallied(self):
        data = GroupedData.from_arrays(
            [np.array([[1.0], [2.0]]), np.array([[3.0], [5.0]])]
        )
        res = bootstrap_mct(VV_C, data, np.array([[-1.0, 1.0]]), 0.05, 300, make_rng(9))
        assert res.resamples_degenerate > 0
        assert res.resamples_used == 300



class TestGroupRelabelEquivariance:
    """Permuting the groups with the contrast columns (rows and labels kept)
    leaves each contrast's estimate, standard error and t statistic in place."""

    PERM = [2, 0, 3, 1]

    def pair(self, run, kind, variant):
        rng = np.random.default_rng(31)
        arrays = [
            2.0 + s * rng.standard_normal((n, 3))
            for n, s in zip((14, 18, 16, 20), (1.0, 1.5, 0.8, 2.2))
        ]
        cm = tukey_contrasts(4, ("a", "b", "c", "d"))
        relabelled = ContrastMatrix(cm.h[:, self.PERM], cm.labels)
        target = Target(kind, variant)
        return (
            run(target, GroupedData.from_arrays(arrays), cm),
            run(target, GroupedData.from_arrays([arrays[i] for i in self.PERM]), relabelled),
        )

    @staticmethod
    def assert_same_contrasts(res, res_p):
        assert res_p.labels == res.labels
        np.testing.assert_allclose(res_p.estimates, res.estimates, rtol=1e-12, atol=0)
        np.testing.assert_allclose(res_p.t, res.t, rtol=1e-12, atol=0)
        # The standard error of estimate l is estimate_l / t_l.
        np.testing.assert_allclose(res_p.estimates / res_p.t, res.estimates / res.t, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["c", "b"])
    @pytest.mark.parametrize("variant", list(McvVariant))
    def test_asymptotic(self, variant, kind):
        res, res_p = self.pair(
            lambda *a: asymptotic_mct(*a, alpha=0.05, mc_draws=20_000, rng=make_rng(5)), kind, variant
        )
        self.assert_same_contrasts(res, res_p)
        # The MC draws are the same, but sym_sqrt of the rank-deficient
        # correlation turns its last-bit changes into ~1e-9 of the critical value.
        assert res_p.critical_value == pytest.approx(res.critical_value, rel=1e-8)
        np.testing.assert_array_equal(res_p.decisions, res.decisions)

    @pytest.mark.parametrize("kind", ["c", "b"])
    @pytest.mark.parametrize("variant", list(McvVariant))
    def test_bootstrap(self, variant, kind):
        # Critical values are not compared: the permuted groups reorder the
        # pooled sample, so the bootstrap draws differ.
        res, res_p = self.pair(
            lambda *a: bootstrap_mct(*a, alpha=0.05, resamples=100, rng=make_rng(5)), kind, variant
        )
        self.assert_same_contrasts(res, res_p)


class TestGlobalP:
    def test_zero_statistic_gives_one(self):
        x = np.random.default_rng(13).normal(2.0, 1.0, size=(20, 2))
        data = GroupedData.from_arrays([x, x.copy()])
        res_a = asymptotic_mct(VV_C, data, np.array([[-1.0, 1.0]]), 0.05, 10_000, make_rng(1))
        assert mct_global_p(res_a, 10_000, make_rng(2)) == pytest.approx(1.0)
        res_b = bootstrap_mct(VV_C, data, np.array([[-1.0, 1.0]]), 0.05, 99, make_rng(3))
        assert mct_global_p(res_b) == pytest.approx(1.0)

    def test_single_contrast_matches_normal_tail(self):
        rng = np.random.default_rng(14)
        data = make_data(rng, (40, 40), scales=(1.0, 1.6))
        res = asymptotic_mct(VV_C, data, np.array([[-1.0, 1.0]]), 0.05, 200_000, make_rng(4))
        p = mct_global_p(res, 200_000, make_rng(5))
        t = abs(res.t[0])
        closed_form = 2.0 * (1.0 - ndtr(t))
        assert p == pytest.approx(closed_form, abs=0.005)

    def test_statistic_at_critical_value_gives_alpha(self):
        base = asymptotic_mct(
            VV_C,
            make_data(np.random.default_rng(15), (30, 30)),
            np.array([[-1.0, 1.0]]),
            0.05,
            100_000,
            make_rng(6),
        )
        at_quantile = MctResult(
            target=base.target,
            labels=base.labels,
            t=np.array([base.critical_value]),
            estimates=base.estimates,
            critical_value=base.critical_value,
            decisions=np.array([False]),
            sci=base.sci,
            correlation=base.correlation,
            method="asymptotic",
            alpha=0.05,
            n=base.n,
            seed=6,
        )
        p = mct_global_p(at_quantile, 100_000, make_rng(7))
        assert p == pytest.approx(0.05, abs=0.005)


class TestTableRows:
    def test_columns_and_values(self):
        rng = np.random.default_rng(16)
        data = make_data(rng, (20, 20, 20))
        res = asymptotic_mct(VV_C, data, tukey_contrasts(3, data.labels), 0.05, 10_000, make_rng(8))
        rows = res.table_rows()
        assert len(rows) == 3
        for row in rows:
            assert tuple(row) == (
                "comparison",
                "variant",
                "target",
                "method",
                "estimate",
                "lower",
                "upper",
                "significant",
            )
            assert row["variant"] == "vv"
            assert row["target"] == "c"
            assert row["method"] == "asym"
            assert row["lower"] <= row["estimate"] <= row["upper"]


class TestWidthOrdering:
    def test_bootstrap_intervals_usually_wider_than_asymptotic(self):
        # Exchangeable groups at moderate size: the resampled critical value
        # sits above the liberal asymptotic one in nearly every run.
        target = Target("b", McvVariant.VV)
        gen = make_rng(404).generator()
        cm = tukey_contrasts(4)
        wider = 0
        runs = 20
        for i in range(runs):
            data = GroupedData.from_arrays([2.0 + gen.standard_normal((50, 3)) for _ in range(4)])
            ra = asymptotic_mct(target, data, cm, 0.05, 20_000, make_rng(1000 + i))
            rb = bootstrap_mct(target, data, cm, 0.05, 1000, make_rng(2000 + i))
            width_a = (ra.sci[:, 1] - ra.sci[:, 0]).mean()
            width_b = (rb.sci[:, 1] - rb.sci[:, 0]).mean()
            wider += width_b >= width_a
        assert wider / runs >= 0.9


class TestFamilywiseControl:
    def test_asymptotic_fwer_moderate_samples(self):
        # Global null, k=4, d=2, n_i=200: familywise error within the wide
        # binomial band over 1000 replicates.
        gen = make_rng(31415).generator()
        cm = tukey_contrasts(4)
        mu = np.array([2.0, 1.0])
        rejections = 0
        reps = 1000
        for i in range(reps):
            data = GroupedData.from_arrays(
                [mu + gen.standard_normal((200, 2)) for _ in range(4)]
            )
            res = asymptotic_mct(VV_C, data, cm, 0.05, 20_000, make_rng(i))
            rejections += bool(res.decisions.any())
        assert 0.032 <= rejections / reps <= 0.068

    def test_partial_nulls_desk_scale(self):
        # One true null pair and two false ones: no false local rejection
        # beyond alpha + slack, and both real effects jointly detected.
        gen = make_rng(2468).generator()
        cm = tukey_contrasts(3)
        mu = np.array([2.0, 1.0])
        false_hits = 0
        joint_detect = 0
        reps = 500
        s_null = math.sqrt(0.4)  # groups 1, 2 share C; group 3 doubles it
        s_alt = math.sqrt(1.6)
        for i in range(reps):
            arrays = [
                mu + s_null * gen.standard_normal((300, 2)),
                mu + s_null * gen.standard_normal((300, 2)),
                mu + s_alt * gen.standard_normal((300, 2)),
            ]
            res = asymptotic_mct(VV_C, GroupedData.from_arrays(arrays), cm, 0.05, 20_000, make_rng(i))
            false_hits += bool(res.decisions[0])  # contrast 1-2 is a true null
            joint_detect += bool(res.decisions[1] and res.decisions[2])
        assert false_hits / reps <= 0.05 + 0.02
        assert joint_detect / reps >= 0.95
