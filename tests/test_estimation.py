import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcvtests.estimation import (
    VARIANTS,
    DegeneracyError,
    McvVariant,
    MomentSet,
    Sample,
    _estimate_stack,
    a_matrix,
    asymptotic_variance,
    dtilde,
    estimate,
    mcv,
    one_sample_ci,
    s_factor,
    sample_moments,
)
from mcvtests.numkit import make_rng


def random_mean_cov(rng, d, min_mean=0.15):
    mu = rng.normal(size=d)
    while np.abs(mu).min() < min_mean:
        mu = rng.normal(size=d)
    m = rng.normal(size=(d, d + 2))
    return mu, m @ m.T / (d + 2)


class TestSampleMoments:
    def test_d1_exact_fractions(self):
        m = sample_moments(Sample(np.array([[1.0], [2.0], [3.0]])))
        assert m.mean[0] == pytest.approx(2.0)
        assert m.cov[0, 0] == pytest.approx(2.0 / 3.0)
        assert m.psi3[0, 0] == pytest.approx(8.0 / 3.0)
        assert m.psi4[0, 0] == pytest.approx(98.0 / 9.0)

    def test_constant_sample(self):
        m = sample_moments(Sample(np.full((5, 2), 3.0)))
        np.testing.assert_allclose(m.cov, 0.0, atol=1e-12)
        np.testing.assert_allclose(m.psi3, 0.0, atol=1e-12)
        np.testing.assert_allclose(m.psi4, 0.0, atol=1e-12)

    def test_standard_normal_limits(self):
        x = make_rng(5).generator().standard_normal((100_000, 2))
        m = sample_moments(Sample(x))
        np.testing.assert_allclose(m.psi3, 0.0, atol=0.1)
        # Pure fourth central moment entries approach E z^4 - 1 = 2.
        for a in range(2):
            idx = a * 2 + a
            assert m.psi4[idx, idx] == pytest.approx(2.0, abs=0.15)

    def test_raw2_identity_and_symmetries(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n, d = int(rng.integers(3, 40)), int(rng.integers(1, 5))
            m = sample_moments(Sample(rng.normal(1.0, 1.0, size=(n, d))))
            np.testing.assert_allclose(
                m.raw2, m.cov + np.outer(m.mean, m.mean), rtol=0, atol=1e-12
            )
            psi4 = m.psi4.reshape(d, d, d, d)
            np.testing.assert_array_equal(psi4, psi4.transpose(1, 0, 2, 3))
            np.testing.assert_array_equal(psi4, psi4.transpose(0, 1, 3, 2))
            psi3 = m.psi3.reshape(d, d, d)
            np.testing.assert_array_equal(psi3, psi3.transpose(1, 0, 2))
            np.testing.assert_allclose(m.psi4, m.psi4.T, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 5, 10, 40])
    def test_psi4_matches_full_outer_product_bit_for_bit(self, d):
        x = np.random.default_rng(d).normal(1.0, 2.0, size=(57, d))
        m = sample_moments(Sample(x))
        p = (x[:, :, None] * x[:, None, :]).reshape(57, d * d)
        r = m.raw2.reshape(-1)
        np.testing.assert_array_equal(m.psi4, p.T @ p / 57 - np.outer(r, r))

    def test_rejects_single_observation(self):
        with pytest.raises(ValueError, match="n >= 2"):
            sample_moments(Sample(np.ones((1, 2))))


class TestDtilde:
    def test_scalar(self):
        np.testing.assert_array_equal(dtilde(np.array([3.0])), [[-6.0]])

    def test_zero_vector(self):
        np.testing.assert_array_equal(dtilde(np.zeros(3)), np.zeros((9, 3)))

    def test_d2_unit_vector(self):
        out = dtilde(np.array([1.0, 0.0]))
        expected = np.array([[-2.0, 0.0], [0.0, -1.0], [0.0, -1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(out, expected)


class TestMcv:
    def test_d1_reduces_to_cv(self):
        for variant in VARIANTS:
            assert mcv(variant, [2.0], [[0.25]]) == pytest.approx(0.25)

    def test_identity_covariance(self):
        mu, cov = np.array([1.0, 0.0]), np.eye(2)
        assert mcv(McvVariant.RR, mu, cov) == pytest.approx(1.0)
        assert mcv(McvVariant.VV, mu, cov) == pytest.approx(math.sqrt(2.0))
        assert mcv(McvVariant.VN, mu, cov) == pytest.approx(1.0)
        assert mcv(McvVariant.AZ, mu, cov) == pytest.approx(1.0)

    def test_anisotropic_covariance(self):
        mu, cov = np.array([1.0, 0.0]), np.diag([4.0, 1.0])
        assert mcv(McvVariant.RR, mu, cov) == pytest.approx(math.sqrt(2.0))
        assert mcv(McvVariant.VV, mu, cov) == pytest.approx(math.sqrt(5.0))
        assert mcv(McvVariant.VN, mu, cov) == pytest.approx(2.0)
        assert mcv(McvVariant.AZ, mu, cov) == pytest.approx(2.0)

    def test_zero_mean_rejected(self):
        for variant in VARIANTS:
            with pytest.raises(DegeneracyError, match="mean"):
                mcv(variant, np.zeros(2), np.eye(2))

    def test_singular_covariance_rejected_for_full_rank_variants(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        for variant in (McvVariant.RR, McvVariant.VN):
            with pytest.raises(DegeneracyError, match="singular"):
                mcv(variant, np.array([1.0, 1.0]), singular)
        # The trace and quadratic-form variants accept it.
        assert mcv(McvVariant.VV, np.array([1.0, 1.0]), singular) > 0
        assert mcv(McvVariant.AZ, np.array([1.0, 1.0]), singular) > 0

    def test_zero_covariance_rejected(self):
        with pytest.raises(DegeneracyError, match="trace"):
            mcv(McvVariant.VV, np.array([1.0]), np.array([[0.0]]))
        with pytest.raises(DegeneracyError, match="quadratic"):
            mcv(McvVariant.AZ, np.array([1.0, 0.0]), np.diag([0.0, 1.0]))

    @given(
        st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_law(self, a, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        mu, cov = random_mean_cov(rng, d)
        for variant in VARIANTS:
            assert mcv(variant, mu, a * cov) == pytest.approx(
                math.sqrt(a) * mcv(variant, mu, cov), rel=1e-12
            )

    def test_vn_affine_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            mu, cov = random_mean_cov(rng, d)
            a = rng.normal(size=(d, d))
            while abs(np.linalg.det(a)) < 0.1:
                a = rng.normal(size=(d, d))
            assert mcv(McvVariant.VN, a @ mu, a @ cov @ a.T) == pytest.approx(
                mcv(McvVariant.VN, mu, cov), rel=1e-10
            )


class TestAMatrix:
    def test_vv_d1_closed_form(self):
        m, s2 = 2.0, 0.5
        out = a_matrix(McvVariant.VV, np.array([m]), np.array([[s2]]))
        np.testing.assert_allclose(out, [-2 * s2 / m**3 - 2 / m, 1 / m**2], rtol=1e-14)

    def test_vv_unit_mean_identity_cov(self):
        out = a_matrix(McvVariant.VV, np.array([1.0, 0.0]), np.eye(2))
        np.testing.assert_allclose(out, [-6.0, 0.0, 1.0, 0.0, 0.0, 1.0], atol=1e-14)

    def test_az_one_hot_second_moment_block(self):
        mu = np.array([2.0, 0.0, 0.0])
        out = a_matrix(McvVariant.AZ, mu, np.eye(3))
        sec = out[3:].reshape(3, 3)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0 / mu[0] ** 2
        np.testing.assert_allclose(sec, expected, atol=1e-14)

    def test_gradient_identity_all_variants(self):
        # Central finite differences of the MCV as a function of the mean and
        # the raw second moment must match sqrt(s)/2 times the row vector.
        rng = np.random.default_rng(17)

        def g(variant, z, d):
            mu, m2 = z[:d], z[d:].reshape(d, d)
            return mcv(variant, mu, m2 - np.outer(mu, mu))

        for _ in range(40):
            d = int(rng.integers(1, 4))
            mu, cov = random_mean_cov(rng, d)
            z0 = np.concatenate([mu, (cov + np.outer(mu, mu)).reshape(-1)])
            for variant in VARIANTS:
                c = mcv(variant, mu, cov)
                pred = 0.5 * math.sqrt(s_factor(variant, c, d)) * a_matrix(variant, mu, cov)
                fd = np.empty(z0.size)
                for i in range(z0.size):
                    h = 1e-6 * max(1.0, abs(z0[i]))
                    zp, zm = z0.copy(), z0.copy()
                    zp[i] += h
                    zm[i] -= h
                    fd[i] = (g(variant, zp, d) - g(variant, zm, d)) / (2 * h)
                np.testing.assert_allclose(fd, pred, rtol=1e-4, atol=1e-8)


class TestSFactor:
    def test_examples(self):
        assert s_factor(McvVariant.VN, 1.0) == 1.0
        assert s_factor(McvVariant.RR, 2.0, d=1) == 0.25
        assert s_factor(McvVariant.VV, 2.0) == 0.25
        assert s_factor(McvVariant.AZ, 2.0) == 0.25
        assert s_factor(McvVariant.VV, 0.5) == 4.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            s_factor(McvVariant.VV, 0.0)


class TestAsymptoticVariance:
    # Expected values come from symbolic differentiation of sqrt(M2 - m^2)/m
    # in (m, M2) against the exact empirical moment matrix (see oracle in
    # TestGroupEstimates of the global-test suite for the same construction).
    @pytest.mark.parametrize(
        "data,expected",
        [([1.0, 2.0, 3.0], 7.0 / 144.0), ([4.0, 5.0, 7.0, 10.0], 493.0 / 28561.0)],
    )
    def test_univariate_symbolic_oracle(self, data, expected):
        m = sample_moments(Sample(np.array(data)[:, None]))
        for variant in VARIANTS:
            var_c, var_b = asymptotic_variance(variant, m)
            assert var_c == pytest.approx(expected, rel=1e-12)

    def test_zero_psi_blocks_give_psd_form(self):
        rng = np.random.default_rng(4)
        for variant in VARIANTS:
            mu, cov = random_mean_cov(rng, 2)
            m = MomentSet(
                mean=mu,
                cov=cov,
                raw2=cov + np.outer(mu, mu),
                psi3=np.zeros((4, 2)),
                psi4=np.zeros((4, 4)),
                n=100,
            )
            var_c, var_b = asymptotic_variance(variant, m)
            assert var_c >= 0.0
            assert var_b >= 0.0

    def test_reciprocal_chain_rule(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            x = rng.normal(2.0, 1.0, size=(30, d))
            m = sample_moments(Sample(x))
            for variant in VARIANTS:
                c = mcv(variant, m.mean, m.cov)
                var_c, var_b = asymptotic_variance(variant, m)
                assert var_b * c**4 == pytest.approx(var_c, rel=1e-12)


class TestEstimate:
    def test_d1_values(self):
        est = estimate(McvVariant.VV, Sample(np.array([[1.0], [2.0], [3.0]])))
        assert est.c == pytest.approx(math.sqrt(2.0 / 3.0) / 2.0)
        assert est.b == pytest.approx(2.4495, abs=1e-4)
        assert est.b == pytest.approx(1.0 / est.c, rel=1e-15)

    def test_zero_mean_sample(self):
        x = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(DegeneracyError, match="mean"):
            estimate(McvVariant.VV, Sample(x))

    def test_consistency_large_sample(self):
        gen = make_rng(99).generator()
        x = np.array([1.0, 0.0]) + gen.standard_normal((200_000, 2))
        est = estimate(McvVariant.VV, Sample(x))
        assert est.c == pytest.approx(math.sqrt(2.0), abs=0.02)

    def test_warns_below_minimum_n(self):
        x = make_rng(1).generator().normal(2.0, 1.0, size=(4, 3))
        with pytest.warns(UserWarning, match="variance estimation"):
            estimate(McvVariant.VV, Sample(x))

    def test_ill_conditioned_small_c_sample(self):
        # The explicit quadratic form cancels its raw-moment terms here: it
        # made var_c negative for rr and vn, and 282 (vv) and 8480 (az) times
        # too large.
        rng = np.random.default_rng(100)
        d = int(rng.integers(2, 7))
        n = int(rng.choice([30, 100]))
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        ev = 10 ** rng.uniform(-8, 0, d)
        x = np.ones(d) * rng.uniform(0.5, 2) + 1e-3 * rng.standard_normal((n, d)) @ (q * np.sqrt(ev)).T
        est = {variant: estimate(variant, Sample(x)) for variant in VARIANTS}
        assert all(e.var_c > 0.0 and math.isfinite(e.var_b) for e in est.values())
        for variant, rel in ((McvVariant.VV, 1e-8), (McvVariant.AZ, 1e-6)):
            c, var_c = _influence_estimate(variant, x)
            assert est[variant].c == pytest.approx(c, rel=1e-12)
            assert est[variant].var_c == pytest.approx(var_c, rel=rel)


def _influence_estimate(variant, x):
    """c and var_c of vv or az in extended precision, from the definitions.

    var_c is the mean square of the influence values of c, built from those
    of the mean (x - m) and the covariance ((x - m)(x - m)' - S).  Neither
    variant needs a matrix inverse, so numpy's long double carries it.
    """
    x = x.astype(np.longdouble)
    m = x.mean(axis=0)
    xc = x - m
    s = xc.T @ xc / x.shape[0]
    mtm, t = m @ m, xc @ m
    if variant is McvVariant.VV:
        c2 = np.trace(s) / mtm
        infl_c2 = (np.einsum("ni,ni->n", xc, xc) - np.trace(s)) / mtm - 2 * np.trace(s) * t / mtm**2
    else:
        msm = m @ s @ m
        c2 = msm / mtm**2
        infl_c2 = (2 * (xc @ (s @ m)) + t * t - msm) / mtm**2 - 4 * msm * t / mtm**3
    c = np.sqrt(c2)
    return float(c), float(np.mean((infl_c2 / (2 * c)) ** 2))


def _metamorphic_sample(seed, variant_index):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    n = int(rng.integers(d + 3, 41))
    mu, cov = random_mean_cov(rng, d, min_mean=0.5)
    x = mu + rng.standard_normal((n, d)) @ np.linalg.cholesky(cov).T
    return VARIANTS[variant_index], x, rng


def _assert_same_estimates(variant, x, y, rel=1e-10):
    """All four outputs of ``estimate`` agree."""
    ex, ey = estimate(variant, Sample(x)), estimate(variant, Sample(y))
    for name in ("c", "b", "var_c", "var_b"):
        assert getattr(ey, name) == pytest.approx(getattr(ex, name), rel=rel), name


class TestMetamorphic:
    """Invariances the MCV definitions guarantee, on random samples."""

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=-40.0, max_value=40.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_scale_invariance(self, seed, variant_index, log10_scale):
        variant, x, _ = _metamorphic_sample(seed, variant_index)
        _assert_same_estimates(variant, x, 10.0**log10_scale * x)

    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_orthogonal_invariance(self, seed, variant_index):
        variant, x, rng = _metamorphic_sample(seed, variant_index)
        q, r = np.linalg.qr(rng.standard_normal((x.shape[1], x.shape[1])))
        _assert_same_estimates(variant, x, x @ (q * np.sign(np.diag(r))).T)

    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_row_order_invariance(self, seed, variant_index):
        variant, x, rng = _metamorphic_sample(seed, variant_index)
        _assert_same_estimates(variant, x, x[rng.permutation(x.shape[0])])

    @pytest.mark.parametrize(
        "variant,scale", [(McvVariant.RR, 1e40), (McvVariant.RR, 1e-40), (McvVariant.AZ, 1e60)]
    )
    def test_extreme_units(self, variant, scale):
        # The quadratic form would leave the float range here; the kernel
        # rescales each sample by a power of two first.
        rng = np.random.default_rng(40)
        x = 1.0 + 0.4 * rng.standard_normal((40, 5))
        base, scaled = estimate(variant, Sample(x)), estimate(variant, Sample(scale * x))
        for name in ("c", "b", "var_c", "var_b"):
            assert getattr(scaled, name) == pytest.approx(getattr(base, name), rel=1e-9), name

    @pytest.mark.parametrize("scale", [1e40, 1e-40])
    def test_gradient_out_of_range_is_a_degeneracy(self, scale):
        # rr's determinant overflows or underflows; callers see a
        # DegeneracyError, and _estimate_array (the observed group estimates
        # of the tests) sees an ArithmeticError it hands to the kernel.
        x = scale * (1.0 + 0.4 * np.random.default_rng(40).standard_normal((40, 5)))
        m = sample_moments(Sample(x))
        for call in (lambda: a_matrix(McvVariant.RR, m.mean, m.cov),
                     lambda: asymptotic_variance(McvVariant.RR, m)):
            with pytest.raises(DegeneracyError, match="flow") as info:
                call()
            assert isinstance(info.value, ArithmeticError)

    def test_variance_scale_underflow(self):
        # At d=40 and c near 150, rr's c ** (2 - 4d) underflows to zero and the
        # quadratic form used to come out NaN; the kernel answers instead.
        x = np.random.default_rng(3).standard_normal((200, 40))
        x += 1e-3 - x.mean(axis=0)
        m = sample_moments(Sample(x))
        with pytest.raises(DegeneracyError, match="underflow"):
            asymptotic_variance(McvVariant.RR, m)
        est = estimate(McvVariant.RR, Sample(x))
        want, code = _estimate_stack(McvVariant.RR, x[None])
        assert code[0] == 0 and est.c > 100.0
        np.testing.assert_allclose([est.c, est.b, est.var_c, est.var_b], want[0], rtol=1e-12)


class TestOneSampleCi:
    def test_width_formula(self):
        sample = Sample(np.array([[1.0], [2.0], [3.0], [5.0]]))
        est = estimate(McvVariant.VV, sample)
        (lo_c, hi_c), (lo_b, hi_b) = one_sample_ci(McvVariant.VV, sample, 0.05)
        half_c = 1.959963984540054 * math.sqrt(est.var_c / est.n)
        assert hi_c - lo_c == pytest.approx(2.0 * half_c, rel=1e-12)
        assert (hi_c + lo_c) / 2.0 == pytest.approx(est.c, rel=1e-12)
        assert (hi_b + lo_b) / 2.0 == pytest.approx(est.b, rel=1e-12)

    def test_interval_collapses_as_alpha_approaches_one(self):
        sample = Sample(np.array([[1.0], [2.0], [3.0], [5.0]]))
        (lo, hi), _ = one_sample_ci(McvVariant.VV, sample, 1.0 - 1e-9)
        assert hi - lo < 1e-8

    def test_coverage_monte_carlo(self):
        # d=2 normal, n=1000: empirical coverage of the true value within
        # 95% +/- 1.5% over 2000 replicates.
        mu = np.array([2.0, 1.0])
        cov = np.array([[1.0, 0.3], [0.3, 0.8]])
        true_c = mcv(McvVariant.VV, mu, cov)
        root = np.linalg.cholesky(cov)
        gen = make_rng(2718).generator()
        hits = 0
        reps = 2000
        for _ in range(reps):
            x = mu + gen.standard_normal((1000, 2)) @ root.T
            (lo, hi), _ = one_sample_ci(McvVariant.VV, Sample(x), 0.05)
            hits += lo <= true_c <= hi
        assert hits / reps == pytest.approx(0.95, abs=0.015)

    def test_rejects_bad_alpha(self):
        sample = Sample(np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError):
            one_sample_ci(McvVariant.VV, sample, 0.0)


@pytest.fixture(autouse=True)
def _silence_small_n_warning():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*variance estimation is unreliable.*")
        yield
