"""Pooled-resampling engine shared by the global and multiple-contrast tests.

A resample either redistributes the pooled rows into the original group
sizes without replacement (permutation) or draws each group with replacement
from the pool (bootstrap).  Resample b always uses the caller stream's
substream b, so results are independent of any execution schedule.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .estimation import McvVariant, _estimate_array, _estimate_stack
from .numkit import RngStream, pinv

# Resamples estimated together; bounds peak memory independently of B.
RESAMPLE_CHUNK = 128
# Values (chunk x largest group size x d) in a call's largest stack from which
# its chunks run on parallel threads.  Below it, thread hand-offs cost more
# than they save; the two-thread crossover table is in CHANGES.md.
THREAD_MIN_ELEMENTS = 64_000
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


def mcv_threads() -> int:
    """The positive count set in ``MCV_THREADS``, or 0 when it is unset, empty or not positive.

    The one reader of the variable: it caps both the simulator's worker
    processes and a resampling call's threads.  A value that is not an
    integer is a ``ValueError`` naming it.
    """
    raw = os.environ.get("MCV_THREADS", "")
    try:
        value = int(raw or 0)
    except ValueError:
        raise ValueError(f"MCV_THREADS must be an integer, got {raw!r}") from None
    return max(value, 0)


def resampling_threads() -> int:
    """Threads a public resampling call may use: ``MCV_THREADS`` when set, else this process's CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return mcv_threads() or cpus or 1


def pooled_resample_estimates(
    variant: McvVariant,
    pool: np.ndarray,
    sizes: tuple[int, ...],
    resamples: int,
    rng: RngStream,
    replace: bool,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group estimates for every resample.

    Returns a (resamples, k, 4) array of (c, b, var_c, var_b) rows and a
    boolean mask of degenerate resamples (those stay NaN in the array).
    Resamples are estimated RESAMPLE_CHUNK at a time, group by group, as one
    (chunk, n_i, d) stack.

    With ``threads`` above one, a call of at least two chunks whose largest
    stack holds THREAD_MIN_ELEMENTS values or more deals its chunks out to
    that many threads, no more than it has chunks: chunk j goes to thread
    j mod T.  numpy releases the GIL in the kernel's heavy calls, every
    thread writes its own rows of the result, and a chunk's numbers depend
    only on its resamples' substreams, so the output is bit-identical for
    any thread count.

    Each thread allocates its index array, gather buffer and kernel
    workspace once, sized for the largest group, and reuses them for every
    chunk and group it estimates; a group's stack is the contiguous prefix
    of the gather buffer.  Fresh megabyte-sized temporaries per stack would
    be handed back to the system on every free and faulted in again on the
    next call.
    """
    n, d = pool.shape
    k = len(sizes)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    out = np.empty((resamples, k, 4))
    codes = np.zeros((resamples, k), dtype=np.int8)
    chunk = min(RESAMPLE_CHUNK, resamples)
    starts = range(0, resamples, RESAMPLE_CHUNK)
    if chunk * max(sizes) * d < THREAD_MIN_ELEMENTS:
        threads = 1
    threads = min(threads, len(starts))

    def fill(share: range) -> None:
        idx = np.empty((chunk, n), dtype=np.intp)
        gathered = np.empty(chunk * max(sizes) * d)
        work = np.empty(2 * gathered.size)
        for start in share:
            stop = min(start + RESAMPLE_CHUNK, resamples)
            m = stop - start
            if replace:
                idx[:m] = rng.substream_integers(start, stop, n, n)
            else:
                for j, gen in enumerate(rng.substream_generators(start, stop)):
                    idx[j] = gen.permutation(n)
            for i in range(k):
                stack = gathered[: m * sizes[i] * d].reshape(m, sizes[i], d)
                # Every index lies in [0, n), so "clip" never clips; unlike
                # "raise" it lets np.take write straight into the buffer.
                np.take(pool, idx[:m, bounds[i] : bounds[i + 1]], axis=0, out=stack, mode="clip")
                out[start:stop, i], codes[start:stop, i] = _estimate_stack(variant, stack, work)

    if threads <= 1:
        fill(starts)
    else:
        # Made per call: a process-wide pool would leave a forked child one
        # whose threads are gone.
        with ThreadPoolExecutor(threads) as executor:
            list(executor.map(fill, [starts[t::threads] for t in range(threads)]))
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
