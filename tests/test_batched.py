"""Equivalence of the batched fast paths with the slow paths they replace.

The stacked estimation kernel, and ``estimate`` through it, are checked
against the explicit delta-method quadratic form (``sample_moments`` +
``asymptotic_variance``), the stacked Wald and max-statistic steps against
per-resample loops (the Wald step's row-space solve also against the
pseudo-inverse it replaces), and the chunked resampling engine against itself
at chunk size one and at several worker counts, and against a loop that seeds
every resample's stream on its own.
"""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mcvtests import _resampling, estimation
from mcvtests._resampling import (
    pooled_resample_estimates,
    value_columns,
    wald_resample_stats,
    wald_value,
)
from mcvtests.cli import EXIT_OK, main
from mcvtests.design import (
    FactorLayout,
    centering_matrix,
    factorial_effect_matrix,
    tukey_contrasts,
)
from mcvtests.estimation import (
    VARIANTS,
    DegeneracyError,
    McvVariant,
    Sample,
    _estimate_stack,
    a_matrix,
    asymptotic_variance,
    degeneracy_reason,
    estimate,
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

    @pytest.mark.parametrize("variant", [McvVariant.RR, McvVariant.VN])
    @pytest.mark.parametrize("masked", ["zeros", "zero_mean"])
    def test_mask_does_not_leak_across_slices(self, variant, masked):
        # A sample of zeros has a singular covariance, on which the rank
        # check's inv fails and leaves a NaN inverse; an exactly zero mean
        # masks a slice whose covariance is regular.  Either way rr and vn
        # go on with the masked slice in the stack.  Alone, nothing is
        # masked.
        rng = np.random.default_rng(4)
        x = draw_groups(rng, 3, 20, 3)
        alone = [_estimate_stack(variant, x[j : j + 1])[0][0] for j in (0, 2)]
        if masked == "zeros":
            x[1] = 0.0
        else:
            half = rng.integers(-5, 6, size=(10, 3)).astype(float)
            x[1] = np.vstack([half, -half])
        mixed, code = _estimate_stack(variant, x)
        assert list(code != 0) == [False, True, False]
        np.testing.assert_array_equal(mixed[[0, 2]], alone)

    def test_slow_path_overflow_is_a_degeneracy(self):
        # s_factor(rr) carries c ** (2 - 4d), which overflows a float for
        # small c at large d; the reference path reports that as degenerate.
        rng = np.random.default_rng(8)
        x = 1e4 + 0.01 * rng.standard_normal((200, 30))
        with pytest.raises(DegeneracyError, match="overflow"):
            asymptotic_variance(McvVariant.RR, sample_moments(Sample(x)))
        out, code = _estimate_stack(McvVariant.RR, x[None])
        assert code[0] == 0 and np.isfinite(out).all()


class TestEstimateThroughTheKernel:
    """``estimate`` is ``_estimate_stack`` at B = 1; the quadratic form it replaced is the reference."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_estimate_is_the_kernel_bit_for_bit(self, variant):
        rng = np.random.default_rng(9)
        for x in (draw_groups(rng, 1, 30, 4)[0], 1e40 * draw_groups(rng, 1, 12, 2)[0]):
            out, code = _estimate_stack(variant, x[None])
            est = estimate(variant, Sample(x))
            assert code[0] == 0 and est.n == x.shape[0]
            assert [est.c, est.b, est.var_c, est.var_b] == out[0].tolist()

    @pytest.mark.parametrize("d", [1, 5, 20, 40])
    def test_matches_the_quadratic_form_on_well_conditioned_samples(self, d):
        rng = np.random.default_rng(d)
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        root = q * np.sqrt(10 ** rng.uniform(-1.0, 0.0, d))
        x = 1.0 / np.sqrt(d) + rng.standard_normal((200, d)) @ root.T
        assert np.linalg.cond(sample_moments(Sample(x)).cov) <= 100.0
        for variant in VARIANTS:
            est = estimate(variant, Sample(x))
            assert est.c >= 0.3
            got = [est.c, est.b, est.var_c, est.var_b]
            np.testing.assert_allclose(got, slow_estimate(variant, x), rtol=1e-9, atol=0)

    def test_builds_no_moment_matrices(self, monkeypatch, tmp_path):
        def quadratic_form(*args):
            raise AssertionError("a single-sample estimate built the moment matrices")

        monkeypatch.setattr(estimation, "_moments_from_array", quadratic_form)
        monkeypatch.setattr(estimation, "_variance_at", quadratic_form)
        x = draw_groups(np.random.default_rng(40), 1, 200, 40)[0]
        for variant in VARIANTS:
            estimate(variant, Sample(x))
        path = tmp_path / "d40.csv"
        header = ",".join(["group", *(f"x{j}" for j in range(40))])
        path.write_text("\n".join([header, *("g," + ",".join(map(repr, row)) for row in x.tolist())]))
        assert main(["estimate", str(path), "--out", str(tmp_path / "report.json")]) == EXIT_OK


def numeric_rank_branch(variant, x):
    """``_estimate_stack`` with the rank of every covariance taken by
    ``numeric_rank``: the kernel as it was before the inverse bound.  A slice
    with a zero LU pivot is singular and keeps a NaN inverse, as in the
    kernel; rr and vn take S^-1 from the stacked inverse of the others."""
    def rank_only(cov):
        exact = np.linalg.slogdet(cov)[0] == 0.0
        inv = np.full_like(cov, np.nan)
        inv[~exact] = np.linalg.inv(cov[~exact])
        return exact | (numeric_rank(cov) < cov.shape[-1]), inv

    with mock.patch.object(estimation, "_rank_deficient", rank_only):
        return _estimate_stack(variant, x)


@st.composite
def exact_rank_stacks(draw):
    """(B, n, d) stacks of integer rows of exact rank r (r = 0 gives a constant
    sample), under a common scale that keeps every rank."""
    d, n, count = draw(st.integers(1, 6)), draw(st.integers(2, 12)), draw(st.integers(1, 5))
    ints = st.integers(-3, 3)
    slices = []
    for _ in range(count):
        r = draw(st.integers(0, d))
        z = draw(hnp.arrays(np.int64, (n, r), elements=ints))
        basis = draw(hnp.arrays(np.int64, (r, d), elements=ints))
        offset = draw(hnp.arrays(np.int64, d, elements=st.integers(-5, 5)))
        slices.append(z @ basis + offset)
    return draw(st.sampled_from([1.0, 1e-30, 3.7e20])) * np.stack(slices).astype(float)


class TestRankFromInverse:
    """A zero LU pivot marks a singular slice and the inverse bound settles
    full rank; what the two leave open goes to numeric_rank, and rows and
    codes stay bit for bit those of the kernel that took every rank from
    numeric_rank."""

    @given(exact_rank_stacks())
    @settings(max_examples=300, deadline=None)
    def test_exact_rank_stacks_match_the_numeric_rank_branch(self, x):
        for variant in (McvVariant.RR, McvVariant.VN):
            out, code = _estimate_stack(variant, x)
            want, want_code = numeric_rank_branch(variant, x)
            np.testing.assert_array_equal(code, want_code)
            np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("variant", [McvVariant.RR, McvVariant.VN])
    def test_well_conditioned_stacks_skip_eigvalsh_and_svd(self, monkeypatch, variant):
        calls = []
        for name in ("eigvalsh", "svd"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda *a, _name=name, _f=original, **kw: calls.append(_name) or _f(*a, **kw),
            )
        x = np.random.default_rng(3).standard_normal((16, 40, 5))
        _, code = _estimate_stack(variant, x)
        assert not code.any() and calls == []

    @pytest.mark.parametrize("variant", [McvVariant.RR, McvVariant.VN])
    def test_only_unsettled_slices_reach_numeric_rank(self, monkeypatch, variant):
        seen = []
        monkeypatch.setattr(
            estimation, "numeric_rank", lambda cov: seen.append(cov.shape[0]) or numeric_rank(cov)
        )
        rng = np.random.default_rng(6)
        x = draw_groups(rng, 6, 40, 5)
        # Near-collinear: regular, but too close to the cut-off for the bound.
        x[2, :, 1] = x[2, :, 0] + 1e-7 * rng.standard_normal(40)
        regular = np.delete(x, 4, axis=0)
        out, code = _estimate_stack(variant, regular)
        assert seen == [1] and not code.any()
        want, want_code = numeric_rank_branch(variant, regular)
        np.testing.assert_array_equal(code, want_code)
        np.testing.assert_array_equal(out, want)
        # Equal columns: an exactly singular slice, on which inv fails.  Its
        # zero pivot settles it, so only the near-collinear slice still goes
        # to numeric_rank, and the others are still inverted.
        seen.clear()
        x[4, :, 3] = x[4, :, 0]
        out, code = _estimate_stack(variant, x)
        assert seen == [1] and list(code != 0) == [False] * 4 + [True, False]
        want, want_code = numeric_rank_branch(variant, x)
        np.testing.assert_array_equal(code, want_code)
        np.testing.assert_array_equal(out, want)

    def test_zero_pivot_slices_are_singular_with_a_nan_inverse(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = draw_groups(rng, 4, 30, 4)
        x[1, :, 2] = x[1, :, 0]
        xc = x - x.mean(axis=1, keepdims=True)
        cov = xc.transpose(0, 2, 1) @ xc
        assert list(np.linalg.slogdet(cov)[0] == 0.0) == [False, True, False, False]
        seen = []
        monkeypatch.setattr(
            estimation, "numeric_rank", lambda a: seen.append(len(a)) or numeric_rank(a)
        )
        singular, inv = estimation._rank_deficient(cov)
        assert list(singular) == [False, True, False, False] and seen == []
        assert np.isnan(inv[1]).all()
        np.testing.assert_array_equal(inv[[0, 2, 3]], np.linalg.inv(cov[[0, 2, 3]]))
        # The zero pivot decides, whatever numeric_rank would say.
        monkeypatch.setattr(estimation, "numeric_rank", lambda a: np.full(len(a), a.shape[-1]))
        singular, _ = estimation._rank_deficient(cov)
        assert list(singular) == [False, True, False, False]

    @pytest.mark.parametrize("variant", [McvVariant.RR, McvVariant.VN])
    def test_zero_pivot_slices_are_degenerate_whatever_numeric_rank_says(self, monkeypatch, variant):
        rng = np.random.default_rng(9)
        x = draw_groups(rng, 4, 30, 4)
        x[2, :, 3] = x[2, :, 1]
        alone = [_estimate_stack(variant, x[j : j + 1])[0][0] for j in (0, 1, 3)]
        # numeric_rank calling every slice regular leaves the zero pivot to
        # decide, and no LAPACK call raises on the singular slice.
        monkeypatch.setattr(estimation, "numeric_rank", lambda a: np.full(len(a), a.shape[-1]))
        out, code = _estimate_stack(variant, x)
        assert list(code) == [0, 0, estimation._SINGULAR, 0]
        assert np.isnan(out[2]).all()
        np.testing.assert_array_equal(out[[0, 1, 3]], alone)


def loop_wald(stats, degenerate, kind, h, n, weights):
    """n v' (H Sigma H')^+ v one resample at a time, singular values below
    eps * r * sigma_max of each r x r matrix cut.

    v = H theta is formed for the whole stack, as the engine forms it: when
    the estimates nearly agree, H theta cancels, and a per-resample product
    sums in another order (1e-12 apart for a factorial main effect).  The
    comparison thus checks the quadratic form, which is what the engine
    replaces."""
    col_val, col_var = value_columns(kind)
    out = np.full(stats.shape[0], np.inf)
    v_all = stats[:, :, col_val] @ h.T
    for b in np.nonzero(~degenerate)[0]:
        v = v_all[b]
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


_LAYOUT = FactorLayout(("A", "E"), (2, 2))
# Contrasts over four groups: k-sample, all pairs, the main effects and the
# interaction of a 2x2 layout, more rows than rank, and scaled H (the Wald
# statistic and the choice of path do not depend on H's scale).
CONTRASTS = {
    "centering": centering_matrix(4),
    "tukey": tukey_contrasts(4).h,
    "factorial_A": factorial_effect_matrix(_LAYOUT, ("A",)).h,
    "factorial_E": factorial_effect_matrix(_LAYOUT, ("E",)).h,
    "factorial_AE": factorial_effect_matrix(_LAYOUT, ("A", "E")).h,
    "repeated_rows": np.vstack([centering_matrix(4), tukey_contrasts(4).h]),
    "scaled_1e-6": 1e-6 * tukey_contrasts(4).h,
    "scaled_1e6": 1e6 * centering_matrix(4),
}


def pinv_wald(theta, sigma, h, n):
    """The stacked pseudo-inverse formula the row-space solve replaces."""
    v = theta @ h.T
    m = np.einsum("lk,bk,rk->blr", h, sigma, h)
    return n * np.einsum("bl,blr,br->b", v, pinv(m), v)


@pytest.fixture
def pinv_rows(monkeypatch):
    """Number of matrices the Wald step hands to pinv."""
    seen = []

    def counting(m):
        seen.append(m.shape[0])
        return pinv(m)

    monkeypatch.setattr(_resampling, "pinv", counting)
    return seen


class TestStackedCalibration:
    @pytest.mark.parametrize("kind", ["c", "b"])
    @pytest.mark.parametrize("contrast", sorted(CONTRASTS))
    def test_wald_matches_per_resample_loop(self, resampled, pinv_rows, kind, contrast):
        stats, degenerate, weights, n = resampled
        h = CONTRASTS[contrast]
        got = wald_resample_stats(stats, degenerate, kind, h, n, weights)
        assert pinv_rows == []  # every resample was solved on H's row space
        want = loop_wald(stats, degenerate, kind, h, n, weights)
        assert np.array_equal(np.isinf(got), degenerate)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        col_val, col_var = value_columns(kind)
        one = wald_value(stats[0, :, col_val], weights * stats[0, :, col_var], h, n)
        assert one == pytest.approx(want[0], rel=1e-12)

    @pytest.mark.parametrize("contrast", ["centering", "tukey", "factorial_AE", "mixed_row_scales"])
    def test_wald_row_kinds(self, pinv_rows, contrast):
        """Regular rows agree with the pinv formula to rounding; rows with a
        zero, negative or widely spread variance, and every row of an H whose
        rows span twelve orders of magnitude, are the pinv formula bit for bit."""
        if contrast == "mixed_row_scales":
            h = np.diag([1e-6, 1.0, 1e6, 1.0, 1.0, 1.0]) @ tukey_contrasts(4).h
        else:
            h = CONTRASTS[contrast]
        rng = np.random.default_rng(8)
        theta = 0.5 + 0.1 * rng.standard_normal((12, 4))
        sigma = rng.uniform(0.5, 2.0, (12, 4))
        sigma[2, 1] = 0.0
        sigma[5] = [1.0, 1.0, 1e-17, 1.0]
        sigma[7, 3] = -0.5
        sigma[9] = [1e-17, 1e-17, 1e-17, 1.0]
        irregular = np.zeros(12, dtype=bool)
        irregular[[2, 5, 7, 9]] = True
        if contrast == "mixed_row_scales":
            irregular[:] = True
        got = _resampling._wald_stack(theta, sigma, h, 50)
        want = pinv_wald(theta, sigma, h, 50)
        assert pinv_rows == [int(irregular.sum())]
        assert np.array_equal(got[irregular], want[irregular])
        np.testing.assert_allclose(got[~irregular], want[~irregular], rtol=1e-12)
        for b in np.nonzero(irregular)[0]:
            one = wald_value(theta[b], sigma[b], h, 50)
            assert one == pinv_wald(theta[b : b + 1], sigma[b : b + 1], h, 50)[0]

    def test_wald_of_a_zero_contrast_is_zero(self, pinv_rows):
        theta = np.array([[1.0, 2.0, 3.0]])
        sigma = np.ones((1, 3))
        assert _resampling._wald_stack(theta, sigma, np.zeros((2, 3)), 10)[0] == 0.0
        assert pinv_rows == [1]

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

    @pytest.mark.parametrize("pool_kind", ["continuous", "constant_column"])
    @pytest.mark.parametrize("replace", [False, True])
    @pytest.mark.parametrize("chunk", [1, 7, 128])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_per_resample_generator_loop(self, monkeypatch, variant, chunk, replace, pool_kind):
        # Batch-seeded index streams and reused buffers: every resample must
        # estimate exactly the rows that its own substream(b).generator()
        # draws, as a fresh stack of its own.  The groups have unequal sizes,
        # so a smaller group's stack is the prefix of a buffer a larger one
        # filled, and 150 resamples leave a partial last chunk.  In the
        # constant_column pool the third column is constant on all but four
        # rows, so rr and vn mask some slices of a chunk and not others.
        rng = np.random.default_rng(11)
        pool = 1.5 + rng.standard_normal((30, 3))
        if pool_kind == "constant_column":
            pool[4:, 2] = 2.0
        sizes, resamples = (9, 10, 11), 150
        bounds = np.cumsum((0,) + sizes)
        want = np.empty((resamples, len(sizes), 4))
        codes = np.zeros((resamples, len(sizes)), dtype=bool)
        for b in range(resamples):
            gen = make_rng(5, 2).substream(b).generator()
            idx = gen.integers(0, 30, size=30) if replace else gen.permutation(30)
            for i in range(len(sizes)):
                stack = pool[idx[bounds[i] : bounds[i + 1]]][None]
                vals, code = _estimate_stack(variant, stack)
                want[b, i], codes[b, i] = vals[0], code[0]
        degenerate = codes.any(axis=1)
        want[degenerate] = np.nan
        masks = pool_kind == "constant_column" and variant in (McvVariant.RR, McvVariant.VN)
        assert 0 < degenerate.sum() < resamples if masks else not degenerate.any()
        monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", chunk)
        got = pooled_resample_estimates(variant, pool, sizes, resamples, make_rng(5, 2), replace)
        np.testing.assert_array_equal(got[0], want)
        np.testing.assert_array_equal(got[1], degenerate)

    @pytest.mark.parametrize("shares", [1, 3])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_gather_buffer_per_share(self, monkeypatch, variant, shares):
        # Each share of a call's chunks (all of them in a serial call) gathers
        # every chunk and group into one buffer of its own, as its contiguous
        # prefix, and estimates it with one workspace of its own; the
        # recorder keeps each stack alive, so fresh arrays could not share an
        # address.  The shares of a parallel call run here as a worker runs
        # them, and their rows match the serial call's.
        seen = []

        def record(v, x, *work):
            seen.append((x, work[0] if work else None))
            return estimate_stack(v, x, *work)

        estimate_stack = _resampling._estimate_stack
        monkeypatch.setattr(_resampling, "_estimate_stack", record)
        monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", 7)
        pool = 1.5 + np.random.default_rng(12).standard_normal((30, 3))
        starts = range(0, 40, 7)
        for replace in (False, True):
            seen.clear()
            want = pooled_resample_estimates(variant, pool, (9, 10, 11), 40, make_rng(3), replace)
            for t in range(shares):
                share = starts[t::shares]
                if shares > 1:
                    seen.clear()
                    rows, codes = _resampling._estimate_chunks(
                        variant, pool, (9, 10, 11), 40, make_rng(3), replace, 7, share
                    )
                    at = np.concatenate([np.arange(s, min(s + 7, 40)) for s in share])
                    np.testing.assert_array_equal(rows[~want[1][at]], want[0][at][~want[1][at]])
                    np.testing.assert_array_equal(codes.any(axis=1), want[1][at])
                assert len(seen) == 3 * len(share)
                assert all(x.flags.c_contiguous and work is not None for x, work in seen)
                buffers = {(x.ctypes.data, id(work)) for x, work in seen}
                assert len(buffers) == len({addr for addr, _ in buffers}) == len({w for _, w in buffers}) == 1

    @pytest.mark.parametrize("keep_max", [None, 0])
    def test_later_calls_reuse_the_kept_buffers(self, monkeypatch, keep_max):
        # A thread's calls gather into the one buffer it keeps, a smaller
        # call into its prefix, and give the rows of fresh buffers; above
        # KEEP_MAX_BYTES every call allocates its own (the recorder keeps
        # each alive, so fresh buffers cannot share an address).
        seen = []  # per call, its (stack, workspace) pairs

        def record(v, x, *work):
            seen[-1].append((x, work[0]))
            return estimate_stack(v, x, *work)

        estimate_stack = _resampling._estimate_stack
        pool = 1.5 + np.random.default_rng(13).standard_normal((30, 3))
        calls = [((9, 10, 11), 40, True), ((5, 6, 7), 40, False), ((9, 10, 11), 40, True)]
        want = [pooled_resample_estimates(McvVariant.RR, pool[: sum(n)], n, b, make_rng(4), r)
                for n, b, r in calls]
        monkeypatch.setattr(_resampling, "_estimate_stack", record)
        monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", 7)
        monkeypatch.setattr(_resampling, "_kept", threading.local())
        if keep_max is not None:
            monkeypatch.setattr(_resampling, "KEEP_MAX_BYTES", keep_max)
        for (n, b, r), (rows, degenerate) in zip(calls, want):
            seen.append([])
            got = pooled_resample_estimates(McvVariant.RR, pool[: sum(n)], n, b, make_rng(4), r)
            np.testing.assert_array_equal(got[0], rows)
            np.testing.assert_array_equal(got[1], degenerate)
        addresses = [{(x.ctypes.data, work.ctypes.data) for x, work in call} for call in seen]
        assert all(len(a) == 1 for a in addresses)
        if keep_max is None:
            assert addresses[0] == addresses[1] == addresses[2]
        else:
            assert len(set.union(*addresses)) == 3

    def test_threads_keep_their_own_buffers(self):
        # Four threads (more than the cores here) resample different pools
        # at once with a short switch interval; a buffer shared between
        # threads would mix their stacks.
        pools = [1.5 + np.random.default_rng(30 + t).standard_normal((60, 4)) for t in range(4)]
        args = [(v, pools[t], (18, 20, 22), 300, make_rng(t), t % 2 == 0)
                for t, v in enumerate(VARIANTS)]
        want = [pooled_resample_estimates(*a) for a in args]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as threads:
                futures = [threads.submit(lambda a: [pooled_resample_estimates(*a) for _ in range(3)], a)
                           for a in args]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for runs, (rows, degenerate) in zip(results, want):
            for got in runs:
                np.testing.assert_array_equal(got[0], rows)
                np.testing.assert_array_equal(got[1], degenerate)

    @pytest.mark.parametrize("workspace", [False, True])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_kernel_leaves_its_input_unchanged(self, variant, workspace):
        # A stack with a zero-mean slice and an exactly singular (constant)
        # one, so rr and vn mask slices.  A workspace full of NaN must change
        # neither the input nor a bit of the output.
        rng = np.random.default_rng(13)
        x = draw_groups(rng, 5, 12, 3)
        half = rng.integers(-5, 6, size=(6, 3)).astype(float)
        x[1] = np.vstack([half, -half])
        x[3] = 2.0
        before = x.copy()
        want = _estimate_stack(variant, x.copy())
        work = np.full(2 * x.size, np.nan) if workspace else None
        got = _estimate_stack(variant, x, work)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

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


def _resample_in_daemon(args):
    """A parallel call made inside a multiprocessing.Pool worker, and whether it made a pool."""
    rows = pooled_resample_estimates(*args, workers=2)
    return rows, _resampling._pool is None


@pytest.mark.usefixtures("fresh_pool")
class TestWorkers:
    """A call's chunks split over the worker pool give the serial call's bits."""

    @pytest.mark.parametrize("pool_kind", ["continuous", "constant_column"])
    @pytest.mark.parametrize("replace", [False, True])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_worker_count_does_not_change_results(self, monkeypatch, variant, replace, pool_kind):
        # Unequal groups, 40 resamples in chunks of 7 (a partial last chunk),
        # and in the constant_column pool rr and vn mask some slices of a
        # chunk and not others.  A threshold of 0 sends the call to the
        # workers; one above the largest stack (7 x 11 x 3 values) keeps it
        # serial.
        rng = np.random.default_rng(14)
        pool = 1.5 + rng.standard_normal((30, 3))
        if pool_kind == "constant_column":
            pool[4:, 2] = 2.0
        sizes = (9, 10, 11)
        monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", 7)
        want = pooled_resample_estimates(variant, pool, sizes, 40, make_rng(6), replace)
        masks = pool_kind == "constant_column" and variant in (McvVariant.RR, McvVariant.VN)
        assert 0 < want[1].sum() < 40 if masks else not want[1].any()
        for threshold in (0, 7 * 11 * 3 + 1):
            monkeypatch.setattr(_resampling, "WORKER_MIN_ELEMENTS", threshold)
            for workers in (1, 2, 3):
                got = pooled_resample_estimates(variant, pool, sizes, 40, make_rng(6), replace, workers)
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize(
        "threshold, resamples, workers, shares",
        [
            (0, 40, 3, 3),
            (0, 14, 3, 2),  # no more shares than chunks
            (0, 7, 3, 0),  # one chunk stays serial
            (7 * 11 * 3, 40, 3, 3),  # the largest stack reaches the threshold
            (7 * 11 * 3 + 1, 40, 3, 0),  # and falls one value short of it
            (0, 40, 1, 0),
        ],
    )
    def test_when_workers_run(self, monkeypatch, threshold, resamples, workers, shares):
        # A parallel call hands its shares to a pool of one process per
        # share, so it forks no worker it cannot use; a serial call makes no
        # pool.
        calls = []

        def spy(fn, tasks, count, *rest):
            calls.append((len(tasks), count))
            return pool_map(fn, tasks, count, *rest)

        pool_map = _resampling.pool_map
        monkeypatch.setattr(_resampling, "pool_map", spy)
        monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", 7)
        monkeypatch.setattr(_resampling, "WORKER_MIN_ELEMENTS", threshold)
        pool = 1.5 + np.random.default_rng(15).standard_normal((30, 3))
        pooled_resample_estimates(McvVariant.VV, pool, (9, 10, 11), resamples, make_rng(2), True, workers)
        assert calls == ([(shares, shares)] if shares else [])
        assert (_resampling._pool is None) == (shares == 0)
        if shares:
            assert _resampling._pool[1] == shares

    def test_a_pool_starts_once_the_serial_budget_is_spent(self, monkeypatch, pool_builds):
        # Each timed call reads 0.5 s on a fake clock.  With a budget of 1 s
        # the first two parallel calls run serially and start no pool; the
        # third starts one, and a call that fits it uses it at once.
        monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", 7)
        monkeypatch.setattr(_resampling, "WORKER_MIN_ELEMENTS", 0)
        monkeypatch.setattr(_resampling, "POOL_START_SECONDS", 1.0)
        ticks = iter(np.arange(0.0, 100.0, 0.5))
        monkeypatch.setattr(_resampling, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        pool = 1.5 + np.random.default_rng(24).standard_normal((30, 3))
        args = (McvVariant.VN, pool, (9, 10, 11), 40, make_rng(9), True)
        want = pooled_resample_estimates(*args)
        for workers, built, spent in ((2, 0, 0.5), (2, 0, 1.0), (2, 1, 1.0), (2, 1, 1.0)):
            got = pooled_resample_estimates(*args, workers)
            assert (len(pool_builds), _resampling._serial_seconds) == (built, spent)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_a_larger_pool_serves_a_call_of_fewer_shares(self, monkeypatch, pool_builds):
        # Six chunks at a cap of 3 make a pool of three; a call of two chunks
        # runs on it as is.  A pool of two cannot run three shares at once,
        # so a call that has three replaces it.
        monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", 7)
        monkeypatch.setattr(_resampling, "WORKER_MIN_ELEMENTS", 0)
        pool = 1.5 + np.random.default_rng(21).standard_normal((30, 3))
        for resamples, built, size in ((40, 1, 3), (14, 1, 3), (40, 1, 3)):
            pooled_resample_estimates(McvVariant.VV, pool, (9, 10, 11), resamples, make_rng(3), True, 3)
            assert (len(pool_builds), _resampling._pool[1]) == (built, size)
        _resampling._close_pool()
        for resamples, built, size in ((14, 2, 2), (40, 3, 3)):
            pooled_resample_estimates(McvVariant.VV, pool, (9, 10, 11), resamples, make_rng(3), True, 3)
            assert (len(pool_builds), _resampling._pool[1]) == (built, size)

    def test_calls_from_two_threads_take_turns_on_the_pool(self, monkeypatch):
        # Two threads whose calls want pools of two and three workers replace
        # each other's pool on every call; neither may find its pool shut
        # down under it, and every call gives the serial rows.
        monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", 7)
        monkeypatch.setattr(_resampling, "WORKER_MIN_ELEMENTS", 0)
        pool = 1.5 + np.random.default_rng(22).standard_normal((30, 3))
        args = (McvVariant.VV, pool, (9, 10, 11), 40, make_rng(7), False)
        want = pooled_resample_estimates(*args)

        def calls(workers):
            return [pooled_resample_estimates(*args, workers) for _ in range(12)]

        with ThreadPoolExecutor(2) as threads:
            results = [rows for rows_list in threads.map(calls, (2, 3)) for rows in rows_list]
        for got in results:
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_pool_map_runs_under_a_non_fork_start_method(self, tmp_path):
        # Under spawn (the default on macOS and Windows) the pool's workers
        # import the package afresh: pool_map still gives the serial rows, the
        # simulator still runs on workers, and a resampling call stays serial
        # (``workers_fork``), making no pool.
        script = tmp_path / "spawned.py"
        script.write_text(
            "import multiprocessing\n"
            "from functools import partial\n"
            "import numpy as np\n"
            "from mcvtests import _resampling\n"
            "from mcvtests.estimation import McvVariant\n"
            "from mcvtests.numkit import make_rng\n"
            "from mcvtests.sim import ScenarioConfig, run_scenario, tidy_rows\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            "    _resampling.WORKER_MIN_ELEMENTS = 0\n"
            "    pool = 1.5 + np.random.default_rng(23).standard_normal((30, 3))\n"
            "    task = partial(_resampling._estimate_chunks, McvVariant.RR, pool, (9, 10, 11), 40, make_rng(8),\n"
            "                   True, 7)\n"
            "    want = task(range(0, 40, 7))\n"
            "    shares = _resampling.pool_map(task, [range(0, 40, 14), range(7, 40, 14)], 2)\n"
            "    rows, codes = (np.concatenate([shares[t][j][a : a + 7] for a in (0, 7, 14) for t in (0, 1)])\n"
            "                   for j in (0, 1))\n"
            "    assert np.array_equal(rows, want[0], equal_nan=True) and np.array_equal(codes, want[1])\n"
            "    assert _resampling._pool[1] == 2 and not _resampling.workers_fork()\n"
            "    _resampling._close_pool()\n"
            "    args = (McvVariant.RR, pool, (9, 10, 11), 40, make_rng(8), True)\n"
            "    got, serial = (_resampling.pooled_resample_estimates(*args, w) for w in (2, 1))\n"
            "    assert _resampling._pool is None\n"
            "    assert np.array_equal(got[0], serial[0], equal_nan=True) and np.array_equal(got[1], serial[1])\n"
            "    cfg = ScenarioConfig(name='spawn', k=2, d=2, n=(10, 10), distribution='normal', rho=0.1,\n"
            "                         mu=(2.0, 1.0), targets=(0.5, 0.5), variant=McvVariant.VV,\n"
            "                         replicates=4, resamples=8)\n"
            "    assert tidy_rows(run_scenario(cfg, workers=2)) == tidy_rows(run_scenario(cfg, workers=1))\n"
            "    assert _resampling._pool[1] == 2\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(_resampling.__file__).parents[1]))
        env.pop("MCV_THREADS", None)
        proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_more_workers_than_cores(self, monkeypatch):
        # Four workers on 30 one-resample chunks: a row copied to the wrong
        # place, or lost, would break the equality with the serial call.
        monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", 1)
        monkeypatch.setattr(_resampling, "WORKER_MIN_ELEMENTS", 0)
        pool = 1.5 + np.random.default_rng(17).standard_normal((30, 3))
        want = pooled_resample_estimates(McvVariant.RR, pool, (9, 10, 11), 30, make_rng(8), True)
        for _ in range(3):
            got = pooled_resample_estimates(McvVariant.RR, pool, (9, 10, 11), 30, make_rng(8), True, 4)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_worker_exception_reaches_caller(self, monkeypatch):
        # The kernel fails outside the calling process, where a parallel
        # call's shares run; the error must still reach the caller, and no
        # worker may outlive the pool.
        def fail_in_worker(v, x, *work):
            if os.getpid() != caller:
                raise FloatingPointError("kernel failed in a worker")
            return estimate_stack(v, x, *work)

        caller = os.getpid()
        estimate_stack = _resampling._estimate_stack
        monkeypatch.setattr(_resampling, "_estimate_stack", fail_in_worker)
        monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", 7)
        monkeypatch.setattr(_resampling, "WORKER_MIN_ELEMENTS", 0)
        pool = 1.5 + np.random.default_rng(16).standard_normal((30, 3))
        with pytest.raises(FloatingPointError, match="in a worker"):
            pooled_resample_estimates(McvVariant.VV, pool, (9, 10, 11), 40, make_rng(2), False, 2)
        _resampling._close_pool()
        assert multiprocessing.active_children() == []

    def test_a_pool_killed_between_calls_fails_no_call(self, monkeypatch, pool_builds, kill_a_worker):
        monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", 7)
        monkeypatch.setattr(_resampling, "WORKER_MIN_ELEMENTS", 0)
        pool = 1.5 + np.random.default_rng(18).standard_normal((30, 3))
        args = (McvVariant.RR, pool, (9, 10, 11), 40, make_rng(4), True)
        want = pooled_resample_estimates(*args)
        got = pooled_resample_estimates(*args, workers=2)
        assert len(pool_builds) == 1
        for _ in range(2):
            kill_a_worker(pool_builds[-1])
            got = pooled_resample_estimates(*args, workers=2)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        assert len(pool_builds) == 3

    def test_a_forked_child_makes_its_own_pool(self, monkeypatch, pool_builds):
        monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", 7)
        monkeypatch.setattr(_resampling, "WORKER_MIN_ELEMENTS", 0)
        pool = 1.5 + np.random.default_rng(19).standard_normal((30, 3))
        args = (McvVariant.AZ, pool, (9, 10, 11), 40, make_rng(5), False)
        want = pooled_resample_estimates(*args, workers=2)

        def child():
            fresh = _resampling._serial_seconds == 0.0
            got = pooled_resample_estimates(*args, workers=2)
            ok = np.array_equal(got[0], want[0], equal_nan=True) and _resampling._pool[0] == os.getpid()
            sys.exit(0 if ok and fresh else 1)

        monkeypatch.setattr(_resampling, "_serial_seconds", 7.0)  # the parent's count stays behind

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        proc.kill()  # a no-op once it has exited
        proc.join()
        assert proc.exitcode == 0
        assert len(pool_builds) == 1  # the child's pool was built in the child
        got = pooled_resample_estimates(*args, workers=2)
        np.testing.assert_array_equal(got[0], want[0])

    def test_a_call_in_a_daemonic_worker_runs_serially(self, monkeypatch):
        # A multiprocessing.Pool worker may not have children, so its call
        # makes no pool and gives the serial rows.
        monkeypatch.setattr(_resampling, "RESAMPLE_CHUNK", 7)
        monkeypatch.setattr(_resampling, "WORKER_MIN_ELEMENTS", 0)
        pool = 1.5 + np.random.default_rng(20).standard_normal((30, 3))
        args = (McvVariant.VN, pool, (9, 10, 11), 40, make_rng(6), True)
        want = pooled_resample_estimates(*args)
        with multiprocessing.get_context("fork").Pool(1) as daemons:
            (rows, codes), serial = daemons.apply(_resample_in_daemon, (args,))
        assert serial
        np.testing.assert_array_equal(rows, want[0])
        np.testing.assert_array_equal(codes, want[1])

    @pytest.mark.parametrize("raw, want", [(None, 0), ("", 0), ("0", 0), ("-2", 0), ("1", 1), ("5", 5)])
    def test_worker_cap_is_mcv_threads_or_the_cpus(self, monkeypatch, raw, want):
        if raw is None:
            monkeypatch.delenv("MCV_THREADS", raising=False)
        else:
            monkeypatch.setenv("MCV_THREADS", raw)
        cpus = len(os.sched_getaffinity(0))
        assert _resampling.cpu_count() == cpus
        assert _resampling.worker_count() == (want or 1)
        assert _resampling.worker_count(default=cpus) == (want or cpus)

    def test_non_integer_thread_cap_is_value_error(self, monkeypatch):
        monkeypatch.setenv("MCV_THREADS", "2.5")
        with pytest.raises(ValueError, match="MCV_THREADS"):
            _resampling.worker_count(default=_resampling.cpu_count())
