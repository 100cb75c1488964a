"""Wald-type global tests for contrasts of MCVs or standardized means.

The statistic is n (H theta)^T (H Sigma H^T)^+ (H theta) with theta the
vector of per-group estimates and Sigma the diagonal matrix of rescaled
asymptotic variances.  Calibration is asymptotic (chi-square), permutation
(pooled redistribution without replacement), or pooled bootstrap (with
replacement); both resampling schemes re-estimate every per-group moment
and variance on each resample.

``_wald_test`` is the calibration layer: it maps per-group values, a
contrast and an optional resample stack to a ``TestResult``.  The public
tests and the simulation replicates both call it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._resampling import (
    cpu_count,
    group_stats,
    pooled_resample_estimates,
    resampling_p_value,
    target_values,
    value_columns,
    wald_resample_stats,
    wald_value,
    worker_count,
)
from .design import ContrastMatrix, validate_contrast
from .estimation import DegeneracyError, McvVariant, Sample, _warn_small_n
from .numkit import RngStream, check_alpha, check_count, chi2_sf, numeric_rank

__all__ = [
    "GroupedData",
    "Target",
    "TestResult",
    "asymptotic_test",
    "bootstrap_test",
    "group_estimates",
    "permutation_test",
    "wald_statistic",
]


@dataclass(frozen=True)
class Target:
    """What is being contrasted: MCV ('c') or standardized mean ('b'), plus variant."""

    kind: str
    variant: McvVariant

    def __post_init__(self) -> None:
        value_columns(self.kind)  # rejects a kind other than 'c' or 'b'
        object.__setattr__(self, "variant", McvVariant(self.variant))

    def __str__(self) -> str:
        return f"{self.kind}:{self.variant.value}"


@dataclass(frozen=True)
class GroupedData:
    """k independent samples sharing the same dimension."""

    samples: tuple[Sample, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        samples = tuple(self.samples)
        if len(samples) < 2:
            raise ValueError(f"need at least two groups, got {len(samples)}")
        d = samples[0].d
        if any(s.d != d for s in samples):
            raise ValueError("all groups must share the same dimension")
        if any(s.n < 2 for s in samples):
            raise ValueError("every group needs at least two observations")
        labels = tuple(self.labels) or tuple(f"g{i + 1}" for i in range(len(samples)))
        if len(labels) != len(samples):
            raise ValueError("number of labels must match number of groups")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_arrays(cls, arrays: list[np.ndarray], labels: tuple[str, ...] = ()) -> "GroupedData":
        return cls(tuple(Sample(a) for a in arrays), labels)

    @property
    def k(self) -> int:
        return len(self.samples)

    @property
    def d(self) -> int:
        return self.samples[0].d

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(s.n for s in self.samples)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def pooled(self) -> np.ndarray:
        return np.vstack([s.values for s in self.samples])


@dataclass(frozen=True)
class TestResult:
    """Outcome of one global test."""

    statistic: float
    rank: int
    p_value: float
    method: str
    alpha: float
    resamples_used: int = 0
    resamples_degenerate: int = 0
    seed: int | None = None

    @property
    def reject(self) -> bool:
        return self.p_value < self.alpha


def group_estimates(target: Target, data: GroupedData) -> tuple[np.ndarray, np.ndarray]:
    """Per-group point estimates and the diagonal of the rescaled covariance.

    The i-th diagonal entry is (n / n_i) times the group's estimated
    asymptotic variance for the requested target.  A group with fewer than
    d + 2 rows gives one warning, whatever the number of such groups.
    """
    _warn_small_n(min(data.sizes), data.d)
    stats = group_stats(target.variant, [s.values for s in data.samples])
    return target_values(stats, target.kind, data.sizes)


def _coerce_contrast(h: ContrastMatrix | np.ndarray) -> ContrastMatrix:
    return h if isinstance(h, ContrastMatrix) else validate_contrast(np.asarray(h, dtype=float))


def _contrast_inputs(
    target: Target, data: GroupedData, contrast: ContrastMatrix | np.ndarray
) -> tuple[ContrastMatrix, np.ndarray, np.ndarray]:
    """The validated contrast and the per-group estimates and variances it acts on."""
    cm = _coerce_contrast(contrast)
    if cm.k != data.k:
        raise ValueError(f"contrast has {cm.k} columns but data has {data.k} groups")
    theta, sigma = group_estimates(target, data)
    return cm, theta, sigma


def _wald_observed(theta: np.ndarray, sigma: np.ndarray, h: np.ndarray, n: int) -> tuple[float, int]:
    """Wald statistic and the rank of H Sigma H', which sets its chi-square reference."""
    return wald_value(theta, sigma, h, n), numeric_rank((h * sigma) @ h.T)


def _warn_rank(rank: int, h: np.ndarray) -> None:
    rank_h = numeric_rank(h)
    if rank != rank_h:
        warnings.warn(
            f"rank of contrasted covariance ({rank}) differs from rank of contrast ({rank_h})",
            stacklevel=3,
        )


def wald_statistic(
    target: Target, data: GroupedData, contrast: ContrastMatrix | np.ndarray
) -> tuple[float, int]:
    """Observed Wald statistic and the rank driving its chi-square reference.

    The reported rank is that of H Sigma H^T; a mismatch with rank(H) is
    surfaced as a warning since the two coincide whenever every group's
    variance is positive.
    """
    cm, theta, sigma = _contrast_inputs(target, data, contrast)
    stat, rank = _wald_observed(theta, sigma, cm.h, data.n)
    _warn_rank(rank, cm.h)
    return stat, rank


def _wald_test(
    kind: str,
    theta: np.ndarray,
    sigma: np.ndarray,
    h: np.ndarray,
    sizes: tuple[int, ...],
    alpha: float,
    resampled: tuple[np.ndarray, np.ndarray] | None = None,
    method: str = "asymptotic",
    seed: int | None = None,
) -> TestResult:
    """The Wald test of H theta = 0 from per-group estimates and rescaled variances.

    ``resampled`` is the (stats, degenerate) stack of
    ``pooled_resample_estimates``; the p-value then counts the resampled
    statistics, otherwise it is the chi-square tail at the rank of
    H Sigma H', and a zero rank is a ``DegeneracyError``.
    """
    n = sum(sizes)
    stat, rank = _wald_observed(theta, sigma, h, n)
    if resampled is None:
        if rank < 1:
            raise DegeneracyError("contrasted covariance has rank zero; no asymptotic reference")
        return TestResult(stat, rank, chi2_sf(stat, rank), method, alpha)
    stats, degenerate = resampled
    values = wald_resample_stats(stats, degenerate, kind, h, n, n / np.asarray(sizes, dtype=float))
    p = resampling_p_value(values, stat)
    return TestResult(stat, rank, p, method, alpha, values.size, int(degenerate.sum()), seed)


def asymptotic_test(
    target: Target,
    data: GroupedData,
    contrast: ContrastMatrix | np.ndarray,
    alpha: float = 0.05,
) -> TestResult:
    """Chi-square calibrated Wald test; liberal for small groups."""
    check_alpha(alpha)
    cm, theta, sigma = _contrast_inputs(target, data, contrast)
    result = _wald_test(target.kind, theta, sigma, cm.h, data.sizes, alpha)
    _warn_rank(result.rank, cm.h)
    return result


def permutation_test(
    target: Target,
    data: GroupedData,
    contrast: ContrastMatrix | np.ndarray,
    alpha: float = 0.05,
    resamples: int = 1000,
    rng: RngStream | None = None,
) -> TestResult:
    """Wald test calibrated by pooled redistribution without replacement."""
    return _resampling_test(target, data, contrast, alpha, resamples, rng, "permutation")


def bootstrap_test(
    target: Target,
    data: GroupedData,
    contrast: ContrastMatrix | np.ndarray,
    alpha: float = 0.05,
    resamples: int = 1000,
    rng: RngStream | None = None,
) -> TestResult:
    """Wald test calibrated by the pooled bootstrap (with replacement)."""
    return _resampling_test(target, data, contrast, alpha, resamples, rng, "bootstrap")


def _resampling_test(
    target: Target,
    data: GroupedData,
    contrast: ContrastMatrix | np.ndarray,
    alpha: float,
    resamples: int,
    rng: RngStream | None,
    method: str,
) -> TestResult:
    check_alpha(alpha)
    check_count("resamples", resamples)
    cm, theta, sigma = _contrast_inputs(target, data, contrast)
    rng = rng or RngStream(0)
    resampled = pooled_resample_estimates(
        target.variant, data.pooled(), data.sizes, resamples, rng, replace=method == "bootstrap",
        workers=worker_count(default=cpu_count()),
    )
    result = _wald_test(target.kind, theta, sigma, cm.h, data.sizes, alpha, resampled, method, rng.seed)
    _warn_rank(result.rank, cm.h)
    return result
