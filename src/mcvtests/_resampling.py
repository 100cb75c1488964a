"""Pooled-resampling engine shared by the global and multiple-contrast tests.

A resample either redistributes the pooled rows into the original group
sizes without replacement (permutation) or draws each group with replacement
from the pool (bootstrap).  Resample b always uses the caller stream's
substream b, so results are independent of any execution schedule.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from multiprocessing.util import Finalize

import numpy as np

from .estimation import McvVariant, _estimate_array, _estimate_stack
from .numkit import RngStream, pinv

# Resamples estimated together; bounds peak memory independently of B.
RESAMPLE_CHUNK = 128
# Values (chunk x largest group size x d) in a call's largest stack from which
# its chunks run on the worker pool.  Below it, a call of two chunks gains
# too little to pay for the hand-off; the two-worker crossover table is in
# CHANGES.md.
WORKER_MIN_ELEMENTS = 4_000
# Seconds of such calls a process runs serially before one of them starts
# the worker pool.  Starting it (the forks, the copy-on-write faults both
# sides then take, the stop at exit) cost about 25 ms on 2 vCPUs, what two
# workers save on some 50 ms of serial work, so a process that resamples
# less than that (a one-shot ``mcvtests test`` at 4x100 rows, d = 10, say)
# never pays it, and one that resamples more forgoes at most that much
# parallel work.
POOL_START_SECONDS = 0.05
# Largest buffer, in bytes, that _estimate_chunks keeps for its thread's next
# call.  glibc maps a fresh block above its 128 KiB mmap threshold and faults
# it in page by page on every call: a paper-size-small replicate, whose
# buffers take 120-310 KB, took 140-200 minor faults that way and none with
# kept buffers.  A call whose buffers pass the cap computes for far longer
# than it faults, and a kept buffer lives as long as its thread.
KEEP_MAX_BYTES = 4 << 20
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


def worker_count(requested: int | None = None, default: int = 1) -> int:
    """Worker processes for a call; the one reader of ``MCV_THREADS``.

    ``MCV_THREADS``, when set to a positive count, is both the default and
    the cap.  When it is unset, empty or not positive, ``requested`` stands,
    and without one the caller's ``default``: one process for a simulation,
    ``cpu_count()`` for a public resampling call.  A requested count below
    one, or a variable that is not an integer, is a ``ValueError``.
    """
    if requested is not None and requested < 1:
        raise ValueError(f"worker count must be at least 1, got {requested}")
    raw = os.environ.get("MCV_THREADS", "")
    try:
        cap = max(int(raw or 0), 0)
    except ValueError:
        raise ValueError(f"MCV_THREADS must be an integer, got {raw!r}") from None
    if requested is None:
        return cap or default
    return min(requested, cap) if cap else requested


def cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# This thread's kept buffers of _estimate_chunks, by name (see _scratch).
_kept = threading.local()
# The process's worker pool as (pid, workers, executor, stop), or None.  Made
# by the first parallel call, simulation or resampling, and kept while it
# fits the calls (``_pool_fits``); a forked child sees its parent's pid here
# and makes its own.
_pool: tuple[int, int, ProcessPoolExecutor, Finalize] | None = None
# Held while a call reads, replaces or maps on the pool, so calls from
# several threads take turns on it.
_pool_lock = threading.RLock()
# Seconds this process has spent on calls that waited for POOL_START_SECONDS.
_serial_seconds = 0.0


def _after_fork_in_child() -> None:
    # The thread that held the parent's lock may not exist in the child, and
    # the child's resampling so far is none.
    global _pool_lock, _serial_seconds
    _pool_lock = threading.RLock()
    _serial_seconds = 0.0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def can_start_workers() -> bool:
    """Whether this process may start a worker pool: a daemonic one (a ``multiprocessing.Pool`` worker) may not."""
    return not multiprocessing.current_process().daemon


def workers_fork() -> bool:
    """Whether the pool's workers would start by ``fork``: the start method set, else the platform's default.

    A forked worker starts in milliseconds with the caller's modules loaded;
    a spawned or forkserver one imports numpy and this package afresh, which
    costs more than a resampling call gains.  Reading the method fixes no
    start method.
    """
    method = multiprocessing.get_start_method(allow_none=True) or multiprocessing.get_all_start_methods()[0]
    return method == "fork"


def _pool_fits(workers: int, tasks: int) -> bool:
    """Whether this process's pool runs ``tasks`` tasks with the parallelism of a pool of ``workers``.

    Both run min(workers, tasks) of them at once, so a call with few tasks
    uses a larger pool as it is, and a call never forks a worker it cannot use.
    """
    return _pool is not None and _pool[0] == os.getpid() and min(_pool[1], tasks) == min(workers, tasks)


def _worker_pool(workers: int, tasks: int) -> ProcessPoolExecutor:
    """The process-wide executor, replaced by one of ``min(workers, tasks)`` processes unless it fits the call."""
    global _pool
    if _pool_fits(workers, tasks):
        return _pool[2]
    _close_pool()
    workers = min(workers, tasks)
    # The platform's start method, as the multiprocessing default context gives it.
    pool = ProcessPoolExecutor(max_workers=workers)
    # Stopped at exit by concurrent.futures' exit hook, except in a
    # multiprocessing child: that joins its children before the hook runs,
    # so there this finalizer stops the pool first.  Its priority puts it
    # ahead of the queue finalizers (10) the shutdown still needs.
    stop = Finalize(None, pool.shutdown, exitpriority=100)
    _pool = (os.getpid(), workers, pool, stop)
    return pool


def _close_pool() -> None:
    """Stop this process's pool, if any; a parent's pool is only forgotten."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool[3]()  # runs once, and only in the process that made the pool
        _pool = None


def pool_map(fn: Callable, tasks: list, workers: int, chunksize: int = 1) -> list:
    """``[fn(t) for t in tasks]``, run on the process's pool with up to ``workers`` processes.

    A pool that breaks is dropped.  A worker of a pool that an earlier call
    made may have died while the pool sat idle (killed by the OOM killer,
    say); every task's result depends only on the task, so the call then
    reruns once on a new pool and returns the same results.  A pool that
    breaks in the call that made it, or in the rerun, raises
    ``BrokenProcessPool``.  Calls from several threads run one at a time.
    """
    with _pool_lock:
        reused = _pool_fits(workers, len(tasks))
        while True:
            try:
                return list(_worker_pool(workers, len(tasks)).map(fn, tasks, chunksize=chunksize))
            except BrokenProcessPool:
                _close_pool()
                if not reused:
                    raise
                reused = False


def _scratch(name: str, size: int, dtype: type = np.float64) -> np.ndarray:
    """``size`` values of this thread's kept buffer ``name``, grown when short.

    Above KEEP_MAX_BYTES the buffer is a fresh array that is not kept.  The
    values are whatever the last user left there.
    """
    if size * np.dtype(dtype).itemsize > KEEP_MAX_BYTES:
        return np.empty(size, dtype)
    buf = getattr(_kept, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_kept, name, buf)
    return buf[:size]


def _estimate_chunks(
    variant: McvVariant,
    pool: np.ndarray,
    sizes: tuple[int, ...],
    resamples: int,
    rng: RngStream,
    replace: bool,
    step: int,
    starts: range,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows and degeneracy codes of the chunks of ``step`` resamples that begin at ``starts``.

    The rows come in the order of ``starts``, (rows, k, 4) and (rows, k).  The
    index array, the gather buffer and the kernel workspace are sized for the
    largest group and serve every chunk and group; a group's stack is the
    contiguous prefix of the gather buffer.  They are this thread's kept
    buffers (``_scratch``), so later calls, and a worker's later shares,
    reuse them: fresh temporaries of that size would be handed back to the
    system on every free and faulted in again on the next call.
    """
    n, d = pool.shape
    k = len(sizes)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    rows = sum(min(step, resamples - start) for start in starts)
    out = np.empty((rows, k, 4))
    codes = np.zeros((rows, k), dtype=np.int8)
    chunk = min(step, resamples)
    idx = _scratch("idx", chunk * n, np.intp).reshape(chunk, n)
    gathered = _scratch("gathered", chunk * max(sizes) * d)
    work = _scratch("work", 2 * gathered.size)
    row = 0
    for start in starts:
        stop = min(start + step, resamples)
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
            out[row : row + m, i], codes[row : row + m, i] = _estimate_stack(variant, stack, work)
        row += m
    return out, codes


def pooled_resample_estimates(
    variant: McvVariant,
    pool: np.ndarray,
    sizes: tuple[int, ...],
    resamples: int,
    rng: RngStream,
    replace: bool,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group estimates for every resample.

    Returns a (resamples, k, 4) array of (c, b, var_c, var_b) rows and a
    boolean mask of degenerate resamples (those stay NaN in the array).
    Resamples are estimated RESAMPLE_CHUNK at a time, group by group, as one
    (chunk, n_i, d) stack.

    With ``workers`` above one, a call of at least two chunks whose largest
    stack holds WORKER_MIN_ELEMENTS values or more deals its chunks out to
    that many shares, no more than it has chunks: chunk j goes to share
    j mod T.  Each share runs on the process's worker pool (``pool_map``)
    and the caller copies its rows into place.  A chunk's numbers depend
    only on its resamples' substreams, so the output is bit-identical for
    any worker count.  The pool is sized by the shares, so no worker is
    forked that the call cannot use.  A call runs serially in a daemonic
    process (``can_start_workers``), where the workers would not start by
    fork (``workers_fork``), and while it would have to start a pool before
    the process has spent POOL_START_SECONDS on such calls.
    """
    global _serial_seconds
    k = len(sizes)
    step = RESAMPLE_CHUNK
    starts = range(0, resamples, step)
    if min(step, resamples) * max(sizes) * pool.shape[1] < WORKER_MIN_ELEMENTS:
        workers = 1
    shares = min(workers, len(starts))
    estimate = partial(_estimate_chunks, variant, pool, sizes, resamples, rng, replace, step)
    parallel = shares > 1 and can_start_workers() and workers_fork()
    waits = parallel and not _pool_fits(shares, shares) and _serial_seconds < POOL_START_SECONDS
    if not parallel or waits:
        begin = time.perf_counter()
        out, codes = estimate(starts)
        if waits:
            _serial_seconds += time.perf_counter() - begin
    else:
        out = np.empty((resamples, k, 4))
        codes = np.empty((resamples, k), dtype=np.int8)
        plan = [starts[t::shares] for t in range(shares)]
        for share, (rows, share_codes) in zip(plan, pool_map(estimate, plan, shares)):
            at = np.concatenate([np.arange(s, min(s + step, resamples)) for s in share])
            out[at], codes[at] = rows, share_codes
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
