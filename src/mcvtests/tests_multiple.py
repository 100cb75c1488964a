"""Max-type multiple contrast tests with simultaneous confidence intervals.

Each contrast gets a studentized statistic T_l = sqrt(n) h_l' theta /
sqrt(h_l' Sigma h_l); the familywise critical value is either the
equicoordinate normal quantile under the estimated correlation of the T's
or a pooled-bootstrap quantile.  The bootstrap re-studentizes each centered
bootstrap estimate by sqrt(observed variance / bootstrap variance) per group
so the resampled vector attains the covariance the observed one has;
permutation calibration is deliberately absent here because the permuted
group estimates are cross-correlated in a way no diagonal studentization
can undo.

``_mct_test`` is the calibration layer: it maps per-group values, a contrast
and either a Monte-Carlo stream or a bootstrap stack to an ``MctResult``.
The public tests and the simulation replicates both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._resampling import (
    cpu_count,
    pooled_resample_estimates,
    resampling_p_value,
    value_columns,
    worker_count,
)
from .design import ContrastMatrix
from .estimation import DegeneracyError, _estimate_array
from .numkit import RngStream, check_alpha, check_count, mvn_equicoordinate_quantile, mvn_maxabs_sample, order_statistic
from .tests_global import GroupedData, Target, _coerce_contrast, _contrast_inputs

__all__ = [
    "MctResult",
    "asymptotic_mct",
    "bootstrap_mct",
    "correlation_matrix",
    "mct_global_p",
    "t_statistics",
]

TABLE_COLUMNS = (
    "comparison",
    "variant",
    "target",
    "method",
    "estimate",
    "lower",
    "upper",
    "significant",
)


# Metadata of an MctResult field that its report block leaves out.
_UNREPORTED = {"report": False}


@dataclass(frozen=True)
class MctResult:
    """Per-contrast statistics, decisions, and simultaneous confidence intervals."""

    target: Target
    labels: tuple[str, ...]
    t: np.ndarray
    estimates: np.ndarray
    critical_value: float
    decisions: np.ndarray
    sci: np.ndarray
    correlation: np.ndarray
    method: str
    alpha: float
    n: int = field(metadata=_UNREPORTED)
    seed: int | None = None
    resamples_used: int = 0
    resamples_degenerate: int = 0
    # Bootstrap max-statistic sample, kept for the companion global p-value.
    resample_max: np.ndarray | None = field(default=None, repr=False, metadata=_UNREPORTED)

    @property
    def reject(self) -> bool:
        """The familywise decision: some contrast is significant."""
        return bool(self.decisions.any())

    def to_dict(self) -> dict:
        """The report block: every reported field, arrays and tuples as lists, the target as its kind and variant."""
        block = {f.name: getattr(self, f.name) for f in fields(self) if f.metadata.get("report", True)}
        block.update(target=self.target.kind, variant=self.target.variant.value)
        for key, v in block.items():
            block[key] = v.tolist() if isinstance(v, np.ndarray) else list(v) if isinstance(v, tuple) else v
        return block

    def table_rows(self) -> list[dict]:
        """Rows shaped comparison/variant/target/method/estimate/lower/upper/significant."""
        method = "asym" if self.method == "asymptotic" else "boot"
        return [
            {
                "comparison": self.labels[i],
                "variant": self.target.variant.value,
                "target": self.target.kind,
                "method": method,
                "estimate": float(self.estimates[i]),
                "lower": float(self.sci[i, 0]),
                "upper": float(self.sci[i, 1]),
                "significant": bool(self.decisions[i]),
            }
            for i in range(len(self.labels))
        ]


def _contrast_scales(h: np.ndarray, sigma_diag: np.ndarray) -> np.ndarray:
    """sqrt(h_l' Sigma h_l) per contrast; zero scale is a degeneracy."""
    scale2 = np.einsum("lk,k,lk->l", h, sigma_diag, h)
    if np.any(scale2 <= 0.0):
        bad = int(np.argmin(scale2))
        raise DegeneracyError(f"contrast {bad} has zero variance; statistic undefined")
    return np.sqrt(scale2)


def t_statistics(
    target: Target, data: GroupedData, contrast: ContrastMatrix | np.ndarray
) -> np.ndarray:
    """Studentized contrast statistics sqrt(n) h_l' theta / sqrt(h_l' Sigma h_l)."""
    cm, theta, sigma = _contrast_inputs(target, data, contrast)
    scales = _contrast_scales(cm.h, sigma)
    return math.sqrt(data.n) * (cm.h @ theta) / scales


def correlation_matrix(sigma: np.ndarray, contrast: ContrastMatrix | np.ndarray) -> np.ndarray:
    """Correlation of the contrast statistics under diagonal covariance ``sigma``.

    ``sigma`` may be the diagonal vector or the full diagonal matrix.
    """
    cm = _coerce_contrast(contrast)
    sigma = np.asarray(sigma, dtype=float)
    full = np.diag(sigma) if sigma.ndim == 1 else sigma
    m = cm.h @ full @ cm.h.T
    scale = np.sqrt(np.diag(m))
    if np.any(scale <= 0.0):
        raise DegeneracyError("contrast with zero variance; correlation undefined")
    r = m / np.outer(scale, scale)
    np.fill_diagonal(r, 1.0)
    return r


def _build_result(
    target: Target,
    cm: ContrastMatrix,
    t_obs: np.ndarray,
    estimates: np.ndarray,
    scales: np.ndarray,
    critical: float,
    corr: np.ndarray,
    method: str,
    alpha: float,
    n: int,
    **extra,
) -> MctResult:
    decisions = np.abs(t_obs) > critical
    half = critical * scales / math.sqrt(n)
    sci = np.column_stack([estimates - half, estimates + half])
    # Decision/interval duality is an algebraic identity; guard it anyway.
    assert all(dec == (sci[i, 0] > 0.0 or sci[i, 1] < 0.0) for i, dec in enumerate(decisions))
    return MctResult(
        target=target,
        labels=cm.labels,
        t=t_obs,
        estimates=estimates,
        critical_value=critical,
        decisions=decisions,
        sci=sci,
        correlation=corr,
        method=method,
        alpha=alpha,
        n=n,
        **extra,
    )


def _mct_test(
    target: Target,
    cm: ContrastMatrix,
    theta: np.ndarray,
    sigma: np.ndarray,
    sizes: tuple[int, ...],
    alpha: float,
    mc: tuple[int, RngStream] | None = None,
    boot: tuple[np.ndarray, np.ndarray, float] | None = None,
    seed: int | None = None,
) -> MctResult:
    """The max-type test of the contrasts from per-group estimates and rescaled variances.

    The critical value is the equicoordinate normal quantile from
    ``mc = (draws, stream)``, or the bootstrap quantile from
    ``boot = (stats, degenerate, theta0)``: the stack of
    ``pooled_resample_estimates`` and the pooled-sample estimate it is
    centered at.  A contrast with zero variance is a ``DegeneracyError``.
    """
    n = sum(sizes)
    scales = _contrast_scales(cm.h, sigma)
    estimates = cm.h @ theta
    t_obs = math.sqrt(n) * estimates / scales
    corr = correlation_matrix(sigma, cm)
    if boot is None:
        draws, stream = mc
        critical = mvn_equicoordinate_quantile(corr, alpha, draws, stream)
        return _build_result(
            target, cm, t_obs, estimates, scales, critical, corr, "asymptotic", alpha, n, seed=seed
        )
    stats, degenerate, theta0 = boot
    weights = n / np.asarray(sizes, dtype=float)
    resample_max = bootstrap_mct_max_stats(
        stats, degenerate, target.kind, cm.h, theta0, sigma, scales, weights, n
    )
    critical = order_statistic(resample_max, alpha)
    return _build_result(
        target, cm, t_obs, estimates, scales, critical, corr, "bootstrap", alpha, n, seed=seed,
        resamples_used=resample_max.size, resamples_degenerate=int(np.sum(np.isinf(resample_max))),
        resample_max=resample_max,
    )


def asymptotic_mct(
    target: Target,
    data: GroupedData,
    contrast: ContrastMatrix | np.ndarray,
    alpha: float = 0.05,
    mc_draws: int = 100_000,
    rng: RngStream | None = None,
) -> MctResult:
    """Multiple contrast test with the equicoordinate normal critical value."""
    check_alpha(alpha)
    check_count("mc_draws", mc_draws)
    cm, theta, sigma = _contrast_inputs(target, data, contrast)
    rng = rng or RngStream(0)
    return _mct_test(target, cm, theta, sigma, data.sizes, alpha, mc=(mc_draws, rng), seed=rng.seed)


def bootstrap_mct(
    target: Target,
    data: GroupedData,
    contrast: ContrastMatrix | np.ndarray,
    alpha: float = 0.05,
    resamples: int = 1000,
    rng: RngStream | None = None,
) -> MctResult:
    """Multiple contrast test calibrated by the re-studentized pooled bootstrap."""
    check_alpha(alpha)
    check_count("resamples", resamples)
    cm, theta, sigma = _contrast_inputs(target, data, contrast)
    rng = rng or RngStream(0)
    pool = data.pooled()
    theta0 = getattr(_estimate_array(target.variant, pool), target.kind)
    stats, degenerate = pooled_resample_estimates(
        target.variant, pool, data.sizes, resamples, rng, replace=True, workers=worker_count(default=cpu_count())
    )
    return _mct_test(
        target, cm, theta, sigma, data.sizes, alpha, boot=(stats, degenerate, theta0), seed=rng.seed
    )


def bootstrap_mct_max_stats(
    stats: np.ndarray,
    degenerate: np.ndarray,
    kind: str,
    h: np.ndarray,
    theta0: float,
    sigma_obs: np.ndarray,
    scales: np.ndarray,
    weights: np.ndarray,
    n: int,
) -> np.ndarray:
    """sqrt(n) max_l |T_l| per bootstrap resample; degenerate ones are +inf.

    Each resample's centered estimates are multiplied per group by
    sqrt(observed variance / resample variance) before contrasting, which is
    the diagonal form of the square-root covariance swap.
    """
    col_val, col_var = value_columns(kind)
    out = np.full(stats.shape[0], np.inf)
    sigma_b = weights * stats[:, :, col_var]
    ok = ~degenerate & np.all(sigma_b > 0.0, axis=1)
    adj = np.sqrt(sigma_obs / sigma_b[ok]) * (stats[ok, :, col_val] - theta0)
    out[ok] = math.sqrt(n) * np.max(np.abs(adj @ h.T) / scales, axis=1)
    return out


def mct_global_p(
    result: MctResult,
    mc_draws: int = 100_000,
    rng: RngStream | None = None,
) -> float:
    """Global p-value companion to the max-type test.

    Asymptotic results get a Monte-Carlo tail probability of max |Z| under
    the estimated correlation; bootstrap results reuse the stored resampled
    max statistics with the finite-sample counting rule.
    """
    observed = float(np.max(np.abs(result.t)))
    if result.method == "bootstrap":
        if result.resample_max is None:
            raise ValueError("bootstrap result lacks its resampled max statistics")
        return resampling_p_value(result.resample_max, observed)
    sample = mvn_maxabs_sample(result.correlation, mc_draws, rng or RngStream(result.seed or 0))
    return float(np.mean(sample >= observed))
