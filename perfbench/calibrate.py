"""Machine-speed calibration for the timed passes.

The benchmark runs on shared hosts whose speed drifts by tens of percent in
phases from seconds to minutes, with CPU time tracking wall time (the
process is slowed, not descheduled).  No statistic of the program's own
timings removes that.  So each timed pass interleaves the program's
operations with short blocks of a fixed calibration kernel, and the
end-to-end timing metrics are reported at a reference speed:

    normalised = measured * (reference block time) / (calibration block time)

with the block time taken as the mean of the blocks just before and just
after the operation.  The kernels share no code with ``mcvtests``: they redo
the same kind of arithmetic (per-group MCV estimates from ``oracle``, row
gathers, small pseudoinverses, Monte-Carlo max-abs quantiles, d^2 x d^2
moment products) on inputs fixed here, independent of the workload seed, so
a change to the package moves the operation times and not the calibration.
Each workload uses the kernel whose profile matches it; for the parallel
``sim-size-cell`` pass the kernel runs in NPROC processes at once, as the
program's workers do.

The raw (unnormalised) figures stay in the run record and in the comment
lines the command prints.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

import oracle

# Typical time (ms) of one unit of each kernel, single process, on the
# machine the benchmark was defined on (2-vCPU Intel Xeon VM, Python 3.11,
# numpy 2.4, OpenBLAS on one thread): the reference speed.
REF_MS = {"tiny": 30.0, "mid": 30.0, "highdim": 30.0}


def _groups(seed: int, k: int, n: int, d: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, 77, n, d])
    mu = 1.0 + 0.5 * rng.standard_normal(d)
    return [mu + 0.4 * rng.standard_normal((n, d)) for _ in range(k)]


def _fourth_moments(x: np.ndarray) -> np.ndarray:
    """The d^2 x d^2 matrix of fourth raw moments, E[(x x') (x) (x x')]."""
    n, d = x.shape
    z = (x[:, :, None] * x[:, None, :]).reshape(n, d * d)
    return z.T @ z / n


def _wald_loop(groups: list[np.ndarray], variants, resamples: int, rng) -> float:
    """Permutation and bootstrap Wald statistics over pooled rows, written
    from the definitions: per group an oracle estimate and the fourth-moment
    matrix a delta-method variance is built from, one pinv per resample."""
    pool = np.vstack(groups)
    total = len(pool)
    cuts = np.cumsum([0] + [len(g) for g in groups])
    k = len(groups)
    h = np.eye(k) - 1.0 / k
    acc = 0.0
    for r in range(resamples):
        idx = rng.integers(0, total, total) if r % 2 else rng.permutation(total)
        variant = variants[r % len(variants)]
        est = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            x = pool[idx[a:b]]
            est.append(oracle.mcv_and_variance(variant, x))
            acc += float(_fourth_moments(x)[0, 0])
        est = np.array(est)
        v = h @ est[:, 0]
        acc += float(v @ np.linalg.pinv((h * est[:, 2]) @ h.T) @ v)
    return acc


class Kernel:
    """One calibration kernel; ``work()`` runs one unit of fixed work."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.rng = np.random.default_rng(12345)
        if name == "tiny":
            # sim-size-cell: k=4, n_i=30, d=5, vv, many tiny resamples.
            self.groups = _groups(1, 4, 30, 5)
        elif name == "mid":
            # cli-inference: k=4, n_i=100, d=10, all variants, plus an MC
            # max-abs quantile over six contrasts.
            self.groups = _groups(2, 4, 100, 10)
            a = self.rng.standard_normal((6, 6))
            self.chol = np.linalg.cholesky(a @ a.T / 6 + np.eye(6))
        elif name == "highdim":
            # estimate-highdim: one n=200 group at d = 5, 20, 40 and its
            # d^2 x d^2 fourth-moment product.
            self.groups = [_groups(3, 1, 200, d)[0] for d in (5, 20, 40)]
        else:
            raise ValueError(f"unknown calibration kernel {name!r}")

    def work(self) -> None:
        if self.name == "tiny":
            _wald_loop(self.groups, ("vv",), 60, self.rng)
        elif self.name == "mid":
            _wald_loop(self.groups, oracle.VARIANTS, 20, self.rng)
            z = self.rng.standard_normal((20_000, 6)) @ self.chol.T
            np.quantile(np.abs(z).max(axis=1), 0.95)
        else:
            for x in self.groups:
                for variant in oracle.VARIANTS:
                    oracle.mcv_and_variance(variant, x)
                _fourth_moments(x)

    def block(self, units: int) -> float:
        """Wall seconds of ``units`` units of work."""
        start = time.perf_counter()
        for _ in range(units):
            self.work()
        return time.perf_counter() - start


def _pool_block(task: tuple[str, int]) -> float:
    name, units = task
    return _KERNELS.setdefault(name, Kernel(name)).block(units)


_KERNELS: dict[str, Kernel] = {}


class Calibrator:
    """Runs blocks of ``units`` kernel units in this process, or in
    ``processes`` forked processes at once (mean of their times), and keeps
    every block time.  One warm-up block runs unrecorded."""

    def __init__(self, kernel: str, units: int, processes: int = 1) -> None:
        self.task = (kernel, units)
        self.ref_s = REF_MS[kernel] * units / 1e3
        self.processes = processes
        self.pool = None
        if processes > 1:
            self.pool = multiprocessing.get_context("fork").Pool(processes)
        self.blocks: list[float] = []
        try:
            self.block()
        except BaseException:
            self.close()
            raise
        self.blocks.clear()

    def block(self) -> float:
        if self.pool is None:
            elapsed = _pool_block(self.task)
        else:
            # Each process times its own share; their mean is the speed of
            # the cores, without the dispatch and the wait for the last one.
            times = self.pool.map(_pool_block, [self.task] * self.processes, chunksize=1)
            elapsed = sum(times) / len(times)
        self.blocks.append(elapsed)
        return elapsed

    def factor(self, before: float, after: float) -> float:
        """Scale from times measured between blocks of ``before`` and
        ``after`` seconds to times at the reference speed."""
        return self.ref_s / (0.5 * (before + after))

    def close(self) -> None:
        """Stop the calibration processes and wait for them to end."""
        if self.pool is not None:
            self.pool.close()
            self.pool.join()
            self.pool = None

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
