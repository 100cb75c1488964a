"""Equivalence of the batched fast paths with the slow paths they replace.

The stacked estimation kernel is checked against the explicit delta-method
quadratic form (``sample_moments`` + ``asymptotic_variance``), the stacked
Wald and max-statistic steps against per-resample loops, and the chunked
resampling engine against itself at chunk size one.
"""

import math

import numpy as np
import pytest

from mcvtests import _resampling
from mcvtests._resampling import (
    pooled_resample_estimates,
    value_columns,
    wald_resample_stats,
    wald_value,
)
from mcvtests.design import centering_matrix, tukey_contrasts
from mcvtests.estimation import (
    VARIANTS,
    DegeneracyError,
    McvVariant,
    Sample,
    _estimate_stack,
    a_matrix,
    asymptotic_variance,
    degeneracy_reason,
    mcv,
    s_factor,
    sample_moments,
)
from mcvtests.numkit import make_rng, numeric_rank, pinv
from mcvtests.tests_multiple import bootstrap_mct_max_stats

RTOL = 1e-10


def slow_estimate(variant, x):
    """(c, b, var_c, var_b) through the explicit moment matrices."""
    m = sample_moments(Sample(x))
    c = mcv(variant, m.mean, m.cov)
    var_c, var_b = asymptotic_variance(variant, m)
    return np.array([c, 1.0 / c, var_c, var_b])


def quadratic_form_terms(variant, x):
    """Sum of the absolute terms of (s/4) a M a^T: the size of the numbers the
    slow path cancels, which bounds its own rounding error."""
    m = sample_moments(Sample(x))
    d = m.mean.size
    c = mcv(variant, m.mean, m.cov)
    a = a_matrix(variant, m.mean, m.cov)
    a1, a2 = a[:d], a[d:]
    s = s_factor(variant, c, d) / 4.0
    return s * (abs(a1 @ m.cov @ a1) + 2.0 * abs(a2 @ m.psi3 @ a1) + abs(a2 @ m.psi4 @ a2))


def draw_groups(rng, count, n, d):
    mu = 1.0 + 0.5 * rng.standard_normal(d)
    return mu + 0.4 * rng.standard_normal((count, n, d))


class TestKernelAgainstQuadraticForm:
    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    @pytest.mark.parametrize("n_kind", ["d+2", 30, 100])
    def test_all_variants(self, d, n_kind):
        n = d + 2 if n_kind == "d+2" else n_kind
        rng = np.random.default_rng([d, n])
        x = draw_groups(rng, 6, n, d)
        for variant in VARIANTS:
            out, code = _estimate_stack(variant, x)
            assert not code.any()
            for j in range(x.shape[0]):
                want = slow_estimate(variant, x[j])
                np.testing.assert_allclose(out[j, :2], want[:2], rtol=RTOL, atol=0)
                # At n = d + 2 the quadratic form cancels terms up to ~1e3
                # times its value, so its own error is relative to them.
                scale = max(abs(want[2]), quadratic_form_terms(variant, x[j]))
                assert abs(out[j, 2] - want[2]) <= RTOL * scale
                assert abs(out[j, 3] - want[3]) <= RTOL * scale / want[0] ** 4

    def test_small_n_matches_high_precision_influence_variance(self):
        # Where the two paths differ most (n = d + 2), the kernel is the one
        # that agrees with the variance evaluated in 50-digit arithmetic.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(5)
        x = draw_groups(rng, 4, 7, 5)
        out, _ = _estimate_stack(McvVariant.VN, x)
        for j in range(x.shape[0]):
            xs = mpmath.matrix(x[j].tolist())
            n, d = x[j].shape
            m = [mpmath.fsum(xs[i, a] for i in range(n)) / n for a in range(d)]
            s = mpmath.matrix(d, d)
            for a in range(d):
                for b in range(d):
                    s[a, b] = mpmath.fsum((xs[i, a] - m[a]) * (xs[i, b] - m[b]) for i in range(n)) / n
            u = mpmath.lu_solve(s, mpmath.matrix(m))
            c = 1 / mpmath.sqrt(mpmath.fsum(m[a] * u[a] for a in range(d)))
            t = [mpmath.fsum((xs[i, a] - m[a]) * u[a] for a in range(d)) for i in range(n)]
            infl = [c**3 * (ti * ti / 2 - ti) for ti in t]
            mean = mpmath.fsum(infl) / n
            var_c = float(mpmath.fsum((v - mean) ** 2 for v in infl) / n)
            assert out[j, 2] == pytest.approx(var_c, rel=1e-13)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_degenerate_slices_match_the_slow_path(self, variant):
        rng = np.random.default_rng(3)
        n, d = 12, 5
        x = draw_groups(rng, 4, n, d)
        half = rng.integers(-5, 6, size=(n // 2, d)).astype(float)
        x[1] = np.vstack([half, -half])  # exactly zero mean
        x[2] = np.repeat(x[2, :2], n // 2, axis=0)  # two distinct rows: rank 1
        x[3, :, 1] = x[3, :, 0]  # collinear columns: rank d - 1
        out, code = _estimate_stack(variant, x)
        for j in range(x.shape[0]):
            try:
                want = slow_estimate(variant, x[j])
            except DegeneracyError as exc:
                assert code[j] != 0
                assert degeneracy_reason(variant, int(code[j])) == str(exc)
                assert np.isnan(out[j]).all()
            else:
                assert code[j] == 0
                np.testing.assert_allclose(out[j, :2], want[:2], rtol=RTOL)
        assert code[0] == 0
        assert degeneracy_reason(variant, int(code[1])) == "mean vector is zero"
        singular = variant in (McvVariant.RR, McvVariant.VN)
        assert (code[2] != 0) == singular and (code[3] != 0) == singular

    def test_mask_does_not_leak_across_slices(self):
        rng = np.random.default_rng(4)
        x = draw_groups(rng, 3, 20, 3)
        alone, _ = _estimate_stack(McvVariant.RR, x[:1])
        x[1] = 0.0
        mixed, code = _estimate_stack(McvVariant.RR, x)
        assert list(code != 0) == [False, True, False]
        np.testing.assert_array_equal(mixed[0], alone[0])

    def test_slow_path_overflow_is_a_degeneracy(self):
        # s_factor(rr) carries c ** (2 - 4d), which overflows a float for
        # small c at large d; the reference path reports that as degenerate.
        rng = np.random.default_rng(8)
        x = 1e4 + 0.01 * rng.standard_normal((200, 30))
        with pytest.raises(DegeneracyError, match="overflow"):
            asymptotic_variance(McvVariant.RR, sample_moments(Sample(x)))
        out, code = _estimate_stack(McvVariant.RR, x[None])
        assert code[0] == 0 and np.isfinite(out).all()


def loop_wald(stats, degenerate, kind, h, n, weights):
    """n v' (H Sigma H')^+ v one resample at a time, singular values below
    eps * r * sigma_max of each r x r matrix cut."""
    col_val, col_var = value_columns(kind)
    out = np.full(stats.shape[0], np.inf)
    for b in np.nonzero(~degenerate)[0]:
        v = h @ stats[b, :, col_val]
        m = (h * (weights * stats[b, :, col_var])) @ h.T
        out[b] = n * v @ np.linalg.pinv(m, rcond=np.finfo(float).eps * m.shape[0]) @ v
    return out


def loop_max_stats(stats, degenerate, kind, h, theta0, sigma_obs, scales, weights, n):
    col_val, col_var = value_columns(kind)
    out = np.full(stats.shape[0], np.inf)
    for b in np.nonzero(~degenerate)[0]:
        sigma_b = weights * stats[b, :, col_var]
        if np.any(sigma_b <= 0.0):
            continue
        adj = np.sqrt(sigma_obs / sigma_b) * (stats[b, :, col_val] - theta0)
        out[b] = math.sqrt(n) * float(np.max(np.abs(h @ adj) / scales))
    return out


@pytest.fixture(scope="module")
def resampled():
    rng = np.random.default_rng(12)
    sizes = (14, 20, 9, 17)
    pool = 2.0 + rng.standard_normal((sum(sizes), 3))
    stats, degenerate = pooled_resample_estimates(
        McvVariant.AZ, pool, sizes, 200, make_rng(2), replace=True
    )
    degenerate = degenerate.copy()
    degenerate[[3, 50]] = True
    stats[[3, 50]] = np.nan
    weights = sum(sizes) / np.asarray(sizes, dtype=float)
    return stats, degenerate, weights, sum(sizes)


class TestStackedCalibration:
    @pytest.mark.parametrize("kind", ["c", "b"])
    @pytest.mark.parametrize("contrast", ["centering", "tukey"])
    def test_wald_matches_per_resample_loop(self, resampled, kind, contrast):
        stats, degenerate, weights, n = resampled
        h = centering_matrix(4) if contrast == "centering" else tukey_contrasts(4).h
        got = wald_resample_stats(stats, degenerate, kind, h, n, weights)
        want = loop_wald(stats, degenerate, kind, h, n, weights)
        assert np.array_equal(np.isinf(got), degenerate)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        col_val, col_var = value_columns(kind)
        one = wald_value(stats[0, :, col_val], weights * stats[0, :, col_var], h, n)
        assert one == pytest.approx(want[0], rel=1e-12)

    @pytest.mark.parametrize("kind", ["c", "b"])
    def test_max_stats_match_per_resample_loop(self, resampled, kind):
        stats, degenerate, weights, n = resampled
        stats = stats.copy()
        col_var = value_columns(kind)[1]
        stats[7, 2, col_var] = 0.0  # non-positive resample variance
        stats[9, 0, col_var] = -1.0
        h = tukey_contrasts(4).h
        sigma_obs = np.array([0.8, 1.0, 1.3, 0.9])
        scales = np.sqrt(np.einsum("lk,k,lk->l", h, sigma_obs, h))
        args = (stats, degenerate, kind, h, 0.7, sigma_obs, scales, weights, n)
        got = bootstrap_mct_max_stats(*args)
        want = loop_max_stats(*args)
        assert np.isinf(got[[3, 7, 9, 50]]).all()
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_stacked_pinv_and_rank_use_each_matrix_tolerance(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 3, 3))
        a[1] = np.outer(a[1, 0], a[1, 0])  # rank one
        a[2] *= 1e-12
        got = pinv(a)
        ranks = numeric_rank(a)
        for j in range(a.shape[0]):
            np.testing.assert_allclose(got[j], pinv(a[j]), rtol=1e-12, atol=1e-300)
            assert ranks[j] == numeric_rank(a[j])
        assert list(ranks) == [3, 1, 3, 3, 3]


class TestChunking:
    @pytest.mark.parametrize("replace", [False, True])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_chunk_size_does_not_change_results(self, monkeypatch, variant, replace):
        rng = np.random.default_rng(9)
        pool = 1.5 + rng.standard_normal((36, 3))
        sizes = (10, 12, 14)
        default = pooled_resample_estimates(variant, pool, sizes, 150, make_rng(1), replace)
        for chunk in (1, 7):
            monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", chunk)
            other = pooled_resample_estimates(variant, pool, sizes, 150, make_rng(1), replace)
            np.testing.assert_array_equal(other[0], default[0])
            np.testing.assert_array_equal(other[1], default[1])

    def test_resample_uses_its_own_substream(self):
        # Resample b estimates the rows drawn by substream b, whatever chunk
        # it falls in.
        rng = np.random.default_rng(10)
        pool = 1.5 + rng.standard_normal((24, 2))
        sizes = (12, 12)
        stats, _ = pooled_resample_estimates(
            McvVariant.VV, pool, sizes, 300, make_rng(4), replace=True
        )
        for b in (0, 127, 128, 299):
            idx = make_rng(4).substream(b).generator().integers(0, 24, size=24)
            for i in range(2):
                want = slow_estimate(McvVariant.VV, pool[idx[12 * i : 12 * (i + 1)]])
                np.testing.assert_allclose(stats[b, i], want, rtol=RTOL)
