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
        for j, b in enumerate(range(start, stop)):
            gen = rng.substream(b).generator()
            idx[j] = gen.integers(0, n, size=n) if replace else gen.permutation(n)
        for i in range(k):
            out[start:stop, i], codes[start:stop, i] = _estimate_stack(
                variant, pool[idx[:, bounds[i] : bounds[i + 1]]]
            )
    degenerate = codes.any(axis=1)
    out[degenerate] = np.nan
    return out, degenerate


def _wald_stack(theta: np.ndarray, sigma: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """Wald statistic of every row of (B, k) estimates and diagonal variances."""
    v = theta @ h.T
    m = np.einsum("lk,bk,rk->blr", h, sigma, h)
    return n * np.einsum("bl,blr,br->b", v, pinv(m), v)


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
