import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from mcvtests.numkit import (
    RngStream,
    check_alpha,
    make_rng,
    mvn_equicoordinate_quantile,
    mvn_maxabs_sample,
    numeric_rank,
    order_statistic,
    pinv,
    sym_sqrt,
)


def centering(k):
    return np.eye(k) - np.full((k, k), 1.0 / k)


def penrose_residuals(a, ap):
    return (
        np.max(np.abs(a @ ap @ a - a)),
        np.max(np.abs(ap @ a @ ap - ap)),
        np.max(np.abs((a @ ap).T - a @ ap)),
        np.max(np.abs((ap @ a).T - ap @ a)),
    )


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_singular_diagonal(self):
        np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_ones_matrix_satisfies_penrose(self):
        a = np.ones((2, 2))
        ap = pinv(a)
        np.testing.assert_allclose(ap, np.full((2, 2), 0.25), atol=1e-14)
        assert max(penrose_residuals(a, ap)) < 1e-12

    def test_penrose_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a = rng.normal(size=rng.integers(1, 6, size=2))
            scale = max(1.0, np.max(np.abs(a)))
            assert max(penrose_residuals(a, pinv(a))) < 1e-8 * scale


class TestSymSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(sym_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal_exact(self):
        np.testing.assert_allclose(sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = rng.integers(1, 7)
            m = rng.normal(size=(d, d + 2))
            a = m @ m.T
            b = sym_sqrt(a)
            np.testing.assert_allclose(b @ b, a, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(b, b.T, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            sym_sqrt(np.diag([1.0, -1.0]))


class TestNumericRank:
    def test_centering_matrix(self):
        assert numeric_rank(centering(4)) == 3

    def test_tukey_rows_span_centering(self):
        rows = []
        for i in range(4):
            for j in range(i + 1, 4):
                row = np.zeros(4)
                row[i], row[j] = -1.0, 1.0
                rows.append(row)
        assert numeric_rank(np.array(rows)) == 3

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((2, 2))) == 0

    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.lists(
                st.tuples(
                    st.sampled_from(["psd", "indefinite", "singular"]),
                    st.lists(st.integers(-4, 4), min_size=d * d, max_size=d * d),
                    st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=d, max_size=d),
                    st.integers(0, max(d - 1, 0)),
                ),
                min_size=1,
                max_size=4,
            )
        ),
        st.sampled_from([1.0, 1e-30, 3.7e20]),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_stacks_match_svd_rank(self, specs, scale):
        """Integer entries make every matrix exactly symmetric and a singular
        one exactly singular; a common scale keeps both properties."""
        mats = []
        for kind, entries, signs, rank in specs:
            d = len(signs)
            b = np.array(entries, dtype=float).reshape(d, d)
            if kind == "psd":
                mats.append(b @ b.T)
            elif kind == "indefinite":
                mats.append(b + b.T)
            else:
                mats.append(b[:, :rank] @ np.diag(signs[:rank]) @ b[:, :rank].T)
        a = scale * np.stack(mats)
        s = np.linalg.svd(a, compute_uv=False)
        want = np.sum(s > np.finfo(float).eps * s[:, :1] * a.shape[-1], axis=1)
        np.testing.assert_array_equal(numeric_rank(a), want)
        assert [numeric_rank(m) for m in a] == list(want)

    def test_full_rank_covariances_skip_the_svd(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 40, 5))
        xc = x - x.mean(axis=1, keepdims=True)
        cov = xc.transpose(0, 2, 1) @ xc
        cov = (cov + cov.transpose(0, 2, 1)) / 80.0
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        assert list(numeric_rank(cov)) == [5] * 16
        assert calls == []
        cov[4, :, 2] = cov[4, 2, :] = 0.0  # a constant coordinate: the SVD decides
        assert numeric_rank(cov)[4] == 4 and calls == [1]


def normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def quantile_mc_se(density_at_q, alpha, draws):
    return math.sqrt(alpha * (1.0 - alpha) / draws) / density_at_q


class TestEquicoordinateQuantile:
    DRAWS = 100_000

    def test_single_coordinate(self):
        q = mvn_equicoordinate_quantile(np.eye(1), 0.05, self.DRAWS, make_rng(7))
        target = ndtri(0.975)
        se = quantile_mc_se(2.0 * normal_pdf(target), 0.05, self.DRAWS)
        assert abs(q - target) < 3.0 * se

    def test_independent_pair_closed_form(self):
        q = mvn_equicoordinate_quantile(np.eye(2), 0.05, self.DRAWS, make_rng(8))
        target = ndtri((1.0 + math.sqrt(0.95)) / 2.0)
        # density of max of two independent |Z|: 4 phi(q) (2 Phi(q) - 1)
        dens = 4.0 * normal_pdf(target) * math.sqrt(0.95)
        se = quantile_mc_se(dens, 0.05, self.DRAWS)
        assert abs(q - target) < 3.0 * se
        assert q == pytest.approx(2.2365, abs=3.0 * se)

    def test_bracketed_by_single_and_bonferroni(self):
        rng = np.random.default_rng(3)
        for r in (2, 3, 5):
            m = rng.normal(size=(r, r + 2))
            cov = m @ m.T
            scale = np.sqrt(np.diag(cov))
            corr = cov / np.outer(scale, scale)
            np.fill_diagonal(corr, 1.0)
            q = mvn_equicoordinate_quantile(corr, 0.05, 50_000, make_rng(r))
            assert ndtri(0.975) - 0.05 <= q <= ndtri(1.0 - 0.05 / (2 * r)) + 0.05

    def test_monotone_in_confidence_on_shared_draws(self):
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        qs = [
            mvn_equicoordinate_quantile(corr, alpha, 20_000, make_rng(55))
            for alpha in (0.2, 0.1, 0.05, 0.01)
        ]
        assert qs == sorted(qs)

    def test_maxabs_sample_nonnegative(self):
        sample = mvn_maxabs_sample(np.eye(3), 1000, make_rng(2))
        assert sample.shape == (1000,)
        assert np.all(sample >= 0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mvn_equicoordinate_quantile(np.array([[2.0]]), 0.05, 100)
        with pytest.raises(ValueError):
            mvn_equicoordinate_quantile(np.eye(2), 0.0, 100)
        with pytest.raises(ValueError, match="not PSD"):
            mvn_equicoordinate_quantile(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.05, 100)


class TestOrderStatisticAndAlpha:
    @pytest.mark.parametrize("alpha", [0.001, 0.05, 0.5, 0.999])
    @pytest.mark.parametrize("size", [1, 2, 19, 500])
    def test_is_the_clamped_order_statistic_of_the_sorted_values(self, size, alpha):
        values = make_rng(4).generator().standard_normal(size)
        values[::7] = np.inf
        k = min(max(math.ceil((size + 1) * (1.0 - alpha)), 1), size)
        assert order_statistic(values, alpha) == np.sort(values)[k - 1]

    def test_quantile_is_the_order_statistic_of_its_sample(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        sample = mvn_maxabs_sample(corr, 3000, make_rng(9))
        assert mvn_equicoordinate_quantile(corr, 0.05, 3000, make_rng(9)) == order_statistic(sample, 0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 2.0, float("nan")])
    def test_alpha_must_lie_strictly_inside_the_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            check_alpha(alpha)


class TestRngStream:
    def test_reproducible(self):
        a = make_rng(123, 4).generator().random(100)
        b = make_rng(123, 4).generator().random(100)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = make_rng(123, 0).generator().random(100)
        b = make_rng(123, 1).generator().random(100)
        assert not np.array_equal(a, b)

    def test_substream_extends_path(self):
        s = make_rng(9, 2)
        assert s.substream(5).stream == (2, 5)
        a = s.substream(5).generator().random(10)
        b = s.substream(6).generator().random(10)
        assert not np.array_equal(a, b)

    def test_uniform_mean(self):
        draws = make_rng(2024).generator().random(1_000_000)
        assert abs(draws.mean() - 0.5) < 0.002


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5)
STREAM_PATHS = ((), (3,), (0, 2**32 + 7), (5, 0, 1))
RANGES = ((0, 1), (0, 128), (128, 256), (384, 500))


def assert_substreams_match(rng, start, stop, n=37):
    gens = rng.substream_generators(start, stop)
    assert len(gens) == max(stop - start, 0)
    for b, fast in zip(range(start, stop), gens):
        entropy = (rng.seed,) + rng.stream + (b,)
        np.testing.assert_array_equal(
            fast.bit_generator.seed_seq.generate_state(4, np.uint64),
            np.random.SeedSequence(entropy).generate_state(4, np.uint64),
        )
        slow = rng.substream(b).generator()
        np.testing.assert_array_equal(fast.permutation(n), slow.permutation(n))
        np.testing.assert_array_equal(fast.integers(0, n, size=n), slow.integers(0, n, size=n))


class TestSubstreamGenerators:
    """The batch-seeded streams against numpy's own SeedSequence per resample."""

    @pytest.mark.parametrize("stream", STREAM_PATHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_substream_generator(self, seed, stream):
        for start, stop in RANGES:
            assert_substreams_match(RngStream(seed, stream), start, stop)

    def test_last_substreams_below_two_to_the_32(self):
        assert_substreams_match(make_rng(3, 1), 2**32 - 3, 2**32)

    def test_empty_range(self):
        assert make_rng(3).substream_generators(5, 5) == []
        assert make_rng(3).substream_generators(5, 2) == []

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70 - 1),
        stream=st.lists(st.integers(0, 2**40), max_size=3),
        start=st.integers(0, 2**32 - 1),
        length=st.integers(0, 12),
    )
    def test_property_matches_substream_generator(self, seed, stream, start, length):
        stop = min(start + length, 2**32)
        assert_substreams_match(RngStream(seed, tuple(stream)), start, stop, n=11)

    @pytest.mark.parametrize("seed, stream", [(-1, (0,)), (1, (0, -2))])
    def test_negative_entropy_is_value_error(self, seed, stream):
        with pytest.raises(ValueError):
            np.random.SeedSequence((seed,) + stream)
        with pytest.raises(ValueError, match="non-negative"):
            RngStream(seed, stream).substream_generators(0, 3)

    @pytest.mark.parametrize("start, stop", [(-1, 3), (0, 2**32 + 1), (2**32, 2**32 + 2)])
    def test_range_outside_uint32_is_value_error(self, start, stop):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            make_rng(0).substream_generators(start, stop)
