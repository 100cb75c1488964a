import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import chi2

from mcvtests import numkit
from mcvtests.design import tukey_contrasts
from mcvtests.numkit import (
    MC_CHUNK_VALUES,
    RngStream,
    check_alpha,
    chi2_sf,
    make_rng,
    mvn_equicoordinate_quantile,
    mvn_maxabs_sample,
    numeric_rank,
    order_statistic,
    pinv,
    sym_sqrt,
)
from mcvtests.tests_multiple import correlation_matrix


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

    def test_covariance_stacks_rank_each_slice(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 40, 5))
        xc = x - x.mean(axis=1, keepdims=True)
        cov = xc.transpose(0, 2, 1) @ xc
        cov = (cov + cov.transpose(0, 2, 1)) / 80.0
        cov[4, :, 2] = cov[4, 2, :] = 0.0  # a constant coordinate
        want = [5] * 4 + [4] + [5] * 11
        np.testing.assert_array_equal(numeric_rank(cov), want)
        assert [numeric_rank(m) for m in cov] == want

    def test_rectangular_stacks_rank_each_slice(self):
        a = np.random.default_rng(4).standard_normal((5, 3, 6))
        a[1, 2] = a[1, 0] - 2.0 * a[1, 1]
        a[3] = 0.0
        want = [3, 2, 3, 0, 3]
        np.testing.assert_array_equal(numeric_rank(a), want)
        assert [numeric_rank(m) for m in a] == want


def normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def quantile_mc_se(density_at_q, alpha, draws):
    return math.sqrt(alpha * (1.0 - alpha) / draws) / density_at_q


def _row_max_loop(corr, draws, rng):
    """mvn_maxabs_sample as first written: fresh arrays per chunk, np.max of |z|."""
    r = corr.shape[0]
    root = sym_sqrt(corr)
    gen = rng.generator()
    maxabs = np.empty(draws)
    chunk = 200_000 // r + 1
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        z = gen.standard_normal((m, r)) @ root
        maxabs[done : done + m] = np.max(np.abs(z), axis=1)
        done += m
    return maxabs


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

    @pytest.mark.parametrize("r", [1, 2, 3, 6, 10])
    @pytest.mark.parametrize("draws", [1, 7, 999, "chunk-1", "chunk", "chunk+1", 100_000])
    def test_maxabs_sample_matches_the_row_max_loop(self, r, draws):
        # The sampler fills reused buffers of MC_CHUNK_VALUES normals and takes
        # the row maximum column by column; it must give the bits of the
        # loop's fresh arrays of 200,000 normals per chunk and
        # np.max(np.abs(z), axis=1), around its own chunk boundary too.
        # r = 1 runs no column loop.
        chunk = MC_CHUNK_VALUES // r + 1
        draws = {"chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}.get(draws, draws)
        corr = {
            1: np.eye(1),
            2: np.array([[1.0, -0.4], [-0.4, 1.0]]),
            # The rank-deficient all-pairs correlations of the asymptotic
            # Tukey MCT for 3, 4 and 5 groups.
            3: correlation_matrix(1.0 + 0.3 * np.arange(3), tukey_contrasts(3)),
            6: correlation_matrix(1.0 + 0.3 * np.arange(4), tukey_contrasts(4)),
            10: correlation_matrix(1.0 + 0.3 * np.arange(5), tukey_contrasts(5)),
        }[r]
        want = _row_max_loop(corr, draws, make_rng(21, r))
        np.testing.assert_array_equal(mvn_maxabs_sample(corr, draws, make_rng(21, r)), want)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mvn_equicoordinate_quantile(np.array([[2.0]]), 0.05, 100)
        with pytest.raises(ValueError):
            mvn_equicoordinate_quantile(np.eye(2), 0.0, 100)
        with pytest.raises(ValueError, match="not PSD"):
            mvn_equicoordinate_quantile(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.05, 100)


def same_float(a, b):
    """Equal bits, or both NaN (whose payloads scipy does not promise)."""
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (math.isnan(a) and math.isnan(b))


class TestChi2Sf:
    """chi2_sf is scipy's chi2.sf, bit for bit, including below zero."""

    # A Wald statistic that rounds below zero must give p = 1 (chdtrc alone
    # gives NaN there), and a NaN one a NaN p-value.
    XS = (-math.inf, -1.0, -1e-17, -0.0, 0.0, 5e-324, 1e-300, 1e-10, 1e-3, 0.5, 1.0, 3.84,
          10.0, 100.0, 1e3, 1e5, 1e300, math.inf, math.nan)

    @pytest.mark.parametrize("df", range(1, 41))
    def test_matches_scipy_on_edge_values(self, df):
        for x in self.XS:
            got = chi2_sf(x, df)
            assert type(got) is float
            assert same_float(got, chi2.sf(x, df)), (x, df, got)

    @given(st.floats(allow_nan=True, allow_infinity=True), st.integers(1, 200))
    @settings(max_examples=500, deadline=None)
    def test_matches_scipy(self, x, df):
        assert same_float(chi2_sf(x, df), chi2.sf(x, df))


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


INTEGER_HIGHS = (1, 2, 3, 7, 120, 400, 2**31 + 5, 3 * 2**30 + 1, 2**32 - 1, 2**32)
# numpy's Lemire rule redraws a word with probability ((2**32 - high) % high) / 2**32:
# about one in two and one in four here, so nearly every stream of these two redraws.
REDRAWING_HIGHS = (2**31 + 5, 3 * 2**30 + 1)
INTEGER_RANGES = ((0, 1), (0, 128), (384, 500))


def numpy_redraws(entropy, high, size):
    """Whether numpy's ``integers(0, high, size=size)`` on this stream took more than ``size`` words."""
    drawn = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    drawn.integers(0, high, size=size)
    words = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    words.integers(0, 2**32, size=size, dtype=np.uint32)
    return drawn.bit_generator.state != words.bit_generator.state


def substream_integers_counting(monkeypatch, rng, start, stop, high, size):
    """``rng.substream_integers(...)`` and the number of its streams that numpy redrew."""
    seeded, real = [], numkit._SeedWords

    def seed_words(words):
        seeded.append(words)
        return real(words)

    with monkeypatch.context() as patch:
        patch.setattr(numkit, "_SeedWords", seed_words)
        out = rng.substream_integers(start, stop, high, size)
    return out, len(seeded) - max(stop - start, 0)


class TestSubstreamIntegers:
    """The block-drawn bootstrap indices against numpy's ``integers`` per resample."""

    @pytest.mark.parametrize("stream", ((3,), (0, 2**32 + 7), (5, 0, 1)))
    @pytest.mark.parametrize("seed", (0, 1, 2**32 - 1, 2**64 + 5))
    @pytest.mark.parametrize("high", INTEGER_HIGHS)
    def test_matches_numpy_integers(self, monkeypatch, seed, stream, high):
        rng = RngStream(seed, stream)
        for start, stop in INTEGER_RANGES:
            for size in (5, 16, 120):
                fast, fallbacks = substream_integers_counting(monkeypatch, rng, start, stop, high, size)
                assert fast.shape == (stop - start, size) and fast.dtype == np.int64
                slow = [rng.substream(b).generator().integers(0, high, size=size) for b in range(start, stop)]
                np.testing.assert_array_equal(fast, np.array(slow))
                if high > 1:
                    redrawn = sum(numpy_redraws((seed,) + stream + (b,), high, size) for b in range(start, stop))
                    assert fallbacks == redrawn
                if high in REDRAWING_HIGHS and stop - start > 1:
                    assert fallbacks > 0
                if high == 2**32:
                    assert fallbacks == 0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70 - 1),
        stream=st.lists(st.integers(0, 2**40), min_size=1, max_size=3),
        start=st.integers(0, 2**32 - 1),
        length=st.integers(0, 12),
        high=st.one_of(st.integers(1, 600), st.integers(1, 2**32)),
        size=st.integers(0, 40),
    )
    def test_property_matches_numpy_integers(self, seed, stream, start, length, high, size):
        rng = RngStream(seed, tuple(stream))
        stop = min(start + length, 2**32)
        fast = rng.substream_integers(start, stop, high, size)
        assert fast.shape == (max(stop - start, 0), size)
        for row, b in zip(fast, range(start, stop)):
            np.testing.assert_array_equal(row, rng.substream(b).generator().integers(0, high, size=size))

    @pytest.mark.parametrize("high", (0, -3, 2**32 + 1))
    def test_high_outside_numpy_32_bit_path_is_value_error(self, high):
        with pytest.raises(ValueError, match="high"):
            make_rng(0).substream_integers(0, 3, high, 4)

    def test_range_outside_uint32_is_value_error(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            make_rng(0).substream_integers(2**32 - 1, 2**32 + 1, 10, 4)
