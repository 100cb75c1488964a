"""Pooled-resampling engine shared by the global and multiple-contrast tests.

A resample either redistributes the pooled rows into the original group
sizes without replacement (permutation) or draws each group with replacement
from the pool (bootstrap).  Resample b always uses the caller stream's
substream b, so results are independent of any execution schedule.
"""

from __future__ import annotations

import numpy as np

from .estimation import McvVariant, _estimate_array, _estimate_stack
from .numkit import RngStream, pinv

# Resamples estimated together; bounds peak memory independently of B.
RESAMPLE_CHUNK = 128
# Columns of the per-group statistics produced by pooled_resample_estimates.
COL_C, COL_B, COL_VAR_C, COL_VAR_B = 0, 1, 2, 3
# How far the smallest eigenvalue of H Sigma H' must provably clear pinv's
# cut-off (eps * size * largest) before the Wald step solves instead.
_WALD_MARGIN = 1024.0


def value_columns(kind: str) -> tuple[int, int]:
    """(point-estimate column, variance column) for target kind 'c' or 'b'."""
    if kind == "c":
        return COL_C, COL_VAR_C
    if kind == "b":
        return COL_B, COL_VAR_B
    raise ValueError(f"target kind must be 'c' or 'b', got {kind!r}")


def group_stats(variant: McvVariant, arrays: list[np.ndarray]) -> np.ndarray:
    """(k, 4) matrix of per-group (c, b, var_c, var_b)."""
    out = np.empty((len(arrays), 4))
    for i, x in enumerate(arrays):
        e = _estimate_array(variant, x)
        out[i] = (e.c, e.b, e.var_c, e.var_b)
    return out


def target_values(stats: np.ndarray, kind: str, sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """From group_stats rows: estimates of target ``kind`` and variances rescaled by n / n_i."""
    col_val, col_var = value_columns(kind)
    weights = sum(sizes) / np.asarray(sizes, dtype=float)
    return stats[:, col_val], weights * stats[:, col_var]


def pooled_resample_estimates(
    variant: McvVariant,
    pool: np.ndarray,
    sizes: tuple[int, ...],
    resamples: int,
    rng: RngStream,
    replace: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group estimates for every resample.

    Returns a (resamples, k, 4) array of (c, b, var_c, var_b) rows and a
    boolean mask of degenerate resamples (those stay NaN in the array).
    Resamples are estimated RESAMPLE_CHUNK at a time, group by group, as one
    (chunk, n_i, d) stack.
    """
    n = pool.shape[0]
    k = len(sizes)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    out = np.empty((resamples, k, 4))
    codes = np.zeros((resamples, k), dtype=np.int8)
    for start in range(0, resamples, RESAMPLE_CHUNK):
        stop = min(start + RESAMPLE_CHUNK, resamples)
        idx = np.empty((stop - start, n), dtype=np.intp)
        for j, gen in enumerate(rng.substream_generators(start, stop)):
            idx[j] = gen.integers(0, n, size=n) if replace else gen.permutation(n)
        for i in range(k):
            out[start:stop, i], codes[start:stop, i] = _estimate_stack(
                variant, pool[idx[:, bounds[i] : bounds[i + 1]]]
            )
    degenerate = codes.any(axis=1)
    out[degenerate] = np.nan
    return out, degenerate


def _wald_stack(theta: np.ndarray, sigma: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """Wald statistic of every row of (B, k) estimates and diagonal variances.

    The statistic depends on H only through its row space: with H = U_r C,
    where C = S_r V_r' comes from the SVD of H truncated to its numeric rank
    r and U_r has orthonormal columns, n v'(H Sigma H')^+ v equals
    n u'(C Sigma C')^-1 u with u = U_r' v whenever the pseudo-inverse keeps
    all r nonzero eigenvalues of H Sigma H'.  Those eigenvalues lie in
    [min(sigma) s_r^2, max(sigma) s_1^2], so rows whose lower end clears
    pinv's cut-off by _WALD_MARGIN are solved on the (r, r) stack; every
    other row (a zero, negative, NaN or widely spread variance) keeps the
    pseudo-inverse.  u comes from v, not from C theta, so both forms share
    v's cancellation when the estimates are close.
    """
    u_h, s, vt = np.linalg.svd(h, full_matrices=False)
    eps = np.finfo(float).eps
    size = max(h.shape)
    r = int(np.sum(s > eps * s[:1] * size))  # numeric_rank's rule
    v = theta @ h.T
    out = np.empty(theta.shape[0])
    regular = np.zeros(theta.shape[0], dtype=bool)
    if r:
        cutoff = _WALD_MARGIN * eps * size * s[0] ** 2
        regular = sigma.min(axis=1) * s[r - 1] ** 2 > cutoff * sigma.max(axis=1)
    if regular.any():
        c = s[:r, None] * vt[:r]
        u = v[regular] @ u_h[:, :r]
        m = np.einsum("lk,bk,rk->blr", c, sigma[regular], c)
        out[regular] = n * np.einsum("bl,bl->b", u, np.linalg.solve(m, u[..., None])[..., 0])
    if not regular.all():
        rest = ~regular
        m = np.einsum("lk,bk,rk->blr", h, sigma[rest], h)
        out[rest] = n * np.einsum("bl,blr,br->b", v[rest], pinv(m), v[rest])
    return out


def wald_value(theta: np.ndarray, sigma_diag: np.ndarray, h: np.ndarray, n: int) -> float:
    """n (H theta)^T (H Sigma H^T)^+ (H theta) with Sigma = diag(sigma_diag)."""
    return float(_wald_stack(theta[None], sigma_diag[None], h, n)[0])


def wald_resample_stats(
    stats: np.ndarray,
    degenerate: np.ndarray,
    kind: str,
    h: np.ndarray,
    n: int,
    weights: np.ndarray,
) -> np.ndarray:
    """Wald statistic per resample; degenerate resamples count as +inf."""
    col_val, col_var = value_columns(kind)
    ok = ~degenerate
    out = np.full(stats.shape[0], np.inf)
    out[ok] = _wald_stack(stats[ok, :, col_val], weights * stats[ok, :, col_var], h, n)
    return out


def resampling_p_value(resampled: np.ndarray, observed: float) -> float:
    """Finite-sample valid p-value (1 + #{resampled >= observed}) / (B + 1)."""
    return (1.0 + int(np.sum(resampled >= observed))) / (resampled.size + 1.0)
