"""Small dense-matrix utilities, probability quantiles, and seeded RNG streams.

Everything here operates on plain float64 ``numpy`` arrays and is sized for
small dense problems (dimension up to a few dozen); the statistical modules
build on these primitives.

This is the package's one caller of scipy: ``normal_quantile`` and
``chi2_sf`` import ``scipy.special`` on first use, so importing the package
loads no scipy module, and the permutation and bootstrap tests never do.
``load_scipy`` imports it ahead of a pool of forked workers that will need it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "check_alpha",
    "check_count",
    "chi2_sf",
    "make_rng",
    "mvn_equicoordinate_quantile",
    "mvn_maxabs_sample",
    "numeric_rank",
    "order_statistic",
    "pinv",
    "sym_sqrt",
]

# Eigenvalue slack when deciding whether a symmetric matrix is acceptably PSD.
PSD_TOL = 1e-8
# Machine epsilon: the relative singular-value cut-off of pinv and numeric_rank.
_EPS = float(np.finfo(float).eps)
# estimation._rank_deficient settles a covariance's full rank from its
# inverse only when its bound clears numeric_rank's cut-off by this factor,
# a margin for the rounding in the inverse; closer slices take the SVD.
RANK_SCREEN = 16.0

# Constants of numpy's SeedSequence (O'Neill's seed_seq design, 4-word pool).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by a seed and a stream path.

    Distinct (seed, stream) pairs yield statistically independent sequences;
    equal pairs reproduce the same sequence.  ``substream`` extends the path,
    which is how per-replicate and per-resample streams are derived without
    any dependence on execution order or worker count.
    """

    seed: int
    stream: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence((self.seed,) + self.stream)
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream + (int(index),))

    def substream_generators(self, start: int, stop: int) -> list[np.random.Generator]:
        """``[self.substream(b).generator() for b in range(start, stop)]``, seeded at once.

        The SeedSequence hash of every substream runs as one computation on
        uint32 arrays, so each generator draws exactly what the one built by
        ``generator`` draws.
        """
        words = self._substream_words(start, stop)
        return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]

    def substream_integers(self, start: int, stop: int, high: int, size: int) -> np.ndarray:
        """Row j is ``self.substream(start + j).generator().integers(0, high, size=size)``.

        Returns a (max(stop - start, 0), size) int64 array.  numpy draws these on its 32-bit path: each value takes the next
        32-bit word of PCG64 (the low half of a 64-bit output, then its high
        half) and maps it to [0, high) with Lemire's multiply-shift rule,
        ``(word * high) >> 32``, redrawing when the low 32 bits of the
        product fall below ``(2**32 - high) % high``.  Here every stream
        yields its raw 64-bit words and the rule runs over the whole block
        at once; a stream that would redraw anywhere is drawn again by
        numpy itself from the same seed words, so every row is numpy's bit
        for bit.
        """
        if not 1 <= high <= 2**32:
            raise ValueError(f"high must lie in [1, 2**32], got {high}")
        words = self._substream_words(start, stop)
        m, half = len(words), (size + 1) // 2
        raw = np.empty((m, half), dtype=np.uint64)
        for j, w in enumerate(words):
            raw[j] = np.random.PCG64(_SeedWords(w)).random_raw(half)
        # Masks and shifts rather than a uint32 view, so the split into
        # low and high halves does not depend on the byte order.
        product = np.empty((m, half, 2), dtype=np.uint64)
        np.bitwise_and(raw, np.uint64(_MASK32), out=product[..., 0])
        np.right_shift(raw, np.uint64(32), out=product[..., 1])
        product = product.reshape(m, 2 * half)[:, :size]
        np.multiply(product, np.uint64(high), out=product)
        out = np.empty((m, size), dtype=np.int64)
        np.right_shift(product, np.uint64(32), out=out, casting="unsafe")
        threshold = (2**32 - high) % high
        if threshold:
            np.bitwise_and(product, np.uint64(_MASK32), out=product)
            for j in np.flatnonzero((product < np.uint64(threshold)).any(axis=1)):
                # Not self.substream(...).generator(): perfbench's tracer
                # wraps that method, and cannot see a resampling worker, so
                # its counts would hinge on where this chunk ran.
                gen = np.random.Generator(np.random.PCG64(_SeedWords(words[j])))
                out[j] = gen.integers(0, high, size=size)
        return out

    def _substream_words(self, start: int, stop: int) -> np.ndarray:
        """(max(stop - start, 0), 4) uint64 PCG64 seed words of substreams start..stop - 1."""
        if start < 0 or stop > 2**32:
            raise ValueError(f"substream range must lie in [0, 2**32), got [{start}, {stop})")
        prefix = [w for n in (self.seed,) + self.stream for w in _uint32_words(n)]
        index = np.arange(start, stop, dtype=np.int64).astype(np.uint32)
        return _seed_sequence_state(prefix, index)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the (4,) uint64 state words of a SeedSequence hashed beforehand."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, split as SeedSequence splits it."""
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_sequence_state(prefix: list[int], last: np.ndarray) -> np.ndarray:
    """``SeedSequence(prefix + [w]).generate_state(4, np.uint64)`` for each w in ``last``.

    Returns a (len(last), 4) uint64 array.  The hash constants do not depend
    on the data, so every entropy sequence is hashed in the same pass; uint32
    array arithmetic wraps exactly as the C code does.
    """
    entropy = [np.full(last.shape, w, dtype=np.uint32) for w in prefix] + [last]
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = (const * _MULT_A) & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros(last.shape, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _MASK32
        value = value * const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack(state[0::2], axis=-1) | (np.stack(state[1::2], axis=-1) << np.uint64(32))


def make_rng(seed: int, stream: int = 0) -> RngStream:
    """Create the stream identified by (seed, stream)."""
    return RngStream(int(seed), (int(stream),))


def pinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a matrix or of each matrix in a stack.

    Singular values below ``eps * sigma_max * max(rows, cols)`` of their own
    matrix are treated as zero.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return np.linalg.pinv(a, rcond=_EPS * max(a.shape[-2:]))


def numeric_rank(a: np.ndarray) -> int | np.ndarray:
    """Number of singular values above ``eps * sigma_max * max(rows, cols)``.

    For a stack of matrices, an array with the rank of each.  The resampled
    covariances of the estimation kernel reach this function only when
    neither a zero LU pivot nor a bound from their inverse settles their rank
    (see ``estimation._rank_deficient``).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    size = max(a.shape[-2:])
    rank = np.sum(s > _EPS * s.max(axis=-1, keepdims=True) * size, axis=-1)
    return int(rank) if a.ndim == 2 else rank


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix.

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero; anything below -PSD_TOL
    (scaled by the spectral radius) signals a genuinely non-PSD input.
    """
    a = np.asarray(a, dtype=float)
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    if w.size and w[0] < -PSD_TOL * scale:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.T


def normal_quantile(p: float) -> float:
    """Standard normal quantile."""
    from scipy.special import ndtri

    return float(ndtri(p))


def load_scipy() -> None:
    """Import ``scipy.special`` now, so that processes forked later inherit it instead of each importing it."""
    import scipy.special  # noqa: F401


def chi2_sf(x: float, df: float) -> float:
    """Upper tail P(X > x) of the chi-square distribution with ``df`` degrees of freedom.

    scipy's ``chi2.sf`` bit for bit: that is ``chdtrc`` on x clipped at
    zero (``chdtrc`` alone gives NaN below zero, where the tail is 1).  A
    NaN ``x`` stays NaN, since ``max`` keeps its first argument.
    """
    from scipy.special import chdtrc

    return float(chdtrc(df, max(x, 0.0)))


# Normal values per chunk of mvn_maxabs_sample (64 KiB).
MC_CHUNK_VALUES = 8192


def mvn_maxabs_sample(
    corr: np.ndarray, draws: int, rng: RngStream | None = None
) -> np.ndarray:
    """Monte-Carlo sample of max_l |Z_l| for Z ~ N(0, corr).

    The correlation matrix must be symmetric with unit diagonal and PSD
    within tolerance; sampling goes through its symmetric square root.
    """
    corr = np.atleast_2d(np.asarray(corr, dtype=float))
    r = corr.shape[0]
    if corr.shape != (r, r):
        raise ValueError("correlation matrix must be square")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-8):
        raise ValueError("correlation matrix must have unit diagonal")
    check_count("draws", draws)
    root = sym_sqrt(corr)
    gen = (rng or make_rng(0)).generator()
    maxabs = np.empty(draws)
    # Chunked to bound memory.  Every chunk reuses the same two buffers, and
    # the row maximum runs column by column, so no temporary of the chunk's
    # size is allocated per chunk; at MC_CHUNK_VALUES a buffer stays under
    # glibc's 128 KiB mmap threshold, so a call takes it from the heap
    # instead of faulting in fresh pages.  The draws and their maxima do not
    # depend on the chunk size.
    chunk = MC_CHUNK_VALUES // max(r, 1) + 1
    z = np.empty((min(chunk, draws), r))
    w = np.empty_like(z)
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        gen.standard_normal(out=z[:m])
        np.abs(np.matmul(z[:m], root, out=w[:m]), out=w[:m])
        col = maxabs[done : done + m]
        col[:] = w[:m, 0]
        for j in range(1, r):
            np.maximum(col, w[:m, j], out=col)
        done += m
    return maxabs


def check_alpha(alpha: float) -> None:
    """Reject a significance level outside the open interval (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def check_count(name: str, value: int) -> None:
    """Reject a count of replicates, resamples or draws below one."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def order_statistic(values: np.ndarray, alpha: float) -> float:
    """The ceil((B + 1)(1 - alpha))-th smallest of B values, clamped to [1, B]."""
    k = int(np.ceil((values.size + 1) * (1.0 - alpha)))
    k = min(max(k, 1), values.size)
    return float(np.partition(values, k - 1)[k - 1])


def mvn_equicoordinate_quantile(
    corr: np.ndarray,
    alpha: float,
    draws: int = 100_000,
    rng: RngStream | None = None,
) -> float:
    """Monte-Carlo equicoordinate (1 - alpha)-quantile of max |Z| for Z ~ N(0, corr).

    Returns the order statistic of the max-abs values over ``draws``
    simulated vectors.
    """
    check_alpha(alpha)
    return order_statistic(mvn_maxabs_sample(corr, draws, rng), alpha)
