"""Small dense-matrix utilities, probability quantiles, and seeded RNG streams.

Everything here operates on plain float64 ``numpy`` arrays and is sized for
small dense problems (dimension up to a few dozen); the statistical modules
build on these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv, ndtri

__all__ = [
    "RngStream",
    "chisq_quantile",
    "kron",
    "make_rng",
    "mvn_equicoordinate_quantile",
    "mvn_maxabs_sample",
    "numeric_rank",
    "pinv",
    "sym_sqrt",
    "vec",
]

# Eigenvalue slack when deciding whether a symmetric matrix is acceptably PSD.
PSD_TOL = 1e-8


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

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence((self.seed,) + self.stream)
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream + (int(index),))


def make_rng(seed: int, stream: int = 0) -> RngStream:
    """Create the stream identified by (seed, stream)."""
    return RngStream(int(seed), (int(stream),))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with block (i, j) equal to a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def vec(a: np.ndarray) -> np.ndarray:
    """Flatten a square matrix so position (i-1)*d + j holds a[i, j] (1-based).

    This row-paired layout matches the (a, r) pair indexing used throughout
    the moment matrices; every matrix vectorized here is symmetric, so the
    transposed convention would give identical results.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"vec expects a square matrix, got shape {a.shape}")
    return a.reshape(-1).copy()


def pinv(a: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a matrix or of each matrix in a stack.

    Singular values below ``tol * sigma_max * max(rows, cols)`` of their own
    matrix are treated as zero; ``tol`` defaults to machine epsilon.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if tol is None:
        tol = float(np.finfo(float).eps)
    return np.linalg.pinv(a, rcond=tol * max(a.shape[-2:]))


def numeric_rank(a: np.ndarray, tol: float | None = None) -> int | np.ndarray:
    """Number of singular values above ``tol * sigma_max * max(rows, cols)``.

    For a stack of matrices, an array with the rank of each.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if tol is None:
        tol = float(np.finfo(float).eps)
    rank = np.sum(s > tol * s[..., :1] * max(a.shape[-2:]), axis=-1)
    return int(rank) if a.ndim == 2 else rank


def sym_sqrt(a: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix.

    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol (scaled
    by the spectral radius) signals a genuinely non-PSD input.
    """
    a = np.asarray(a, dtype=float)
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    if w.size and w[0] < -tol * scale:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.T


def chisq_quantile(p: float, df: int) -> float:
    """Quantile of the chi-square law, i.e. the x with P(df/2, x/2) = p.

    Inverts the regularized lower incomplete gamma function; absolute
    accuracy is well below 1e-10 over the ranges used here.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if p == 0.0:
        return 0.0
    return float(2.0 * gammaincinv(df / 2.0, p))


def normal_quantile(p: float) -> float:
    """Standard normal quantile."""
    return float(ndtri(p))


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
    if draws < 1:
        raise ValueError("draws must be positive")
    root = sym_sqrt(corr)
    gen = (rng or make_rng(0)).generator()
    maxabs = np.empty(draws)
    # Chunked to bound memory at large draw counts.
    chunk = 200_000 // max(r, 1) + 1
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        z = gen.standard_normal((m, r)) @ root
        maxabs[done : done + m] = np.max(np.abs(z), axis=1)
        done += m
    return maxabs


def mvn_equicoordinate_quantile(
    corr: np.ndarray,
    alpha: float,
    draws: int = 100_000,
    rng: RngStream | None = None,
) -> float:
    """Monte-Carlo equicoordinate (1 - alpha)-quantile of max |Z| for Z ~ N(0, corr).

    Returns the ceil((draws + 1) * (1 - alpha))-th order statistic of the
    max-abs values over ``draws`` simulated vectors.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    maxabs = mvn_maxabs_sample(corr, draws, rng)
    k = int(np.ceil((draws + 1) * (1.0 - alpha)))
    k = min(max(k, 1), draws)
    return float(np.partition(maxabs, k - 1)[k - 1])
