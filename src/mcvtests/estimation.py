"""One-sample estimation of multivariate coefficients of variation.

Implements the four MCV variants (rr, vv, vn, az), their reciprocals
(standardized means), and the delta-method asymptotic variances that all
test statistics are studentized with.

Resamples go through ``_estimate_stack``, a kernel over a (B, n, d) stack
that takes var_c as the plug-in variance of the influence values of c (van
der Vaart, Asymptotic Statistics, 1998, ch. 3 and 20): the delta-method
quadratic form (s/4) a M a^T without the d^2 x d^2 moment matrices, with the
gradient in log space and each sample rescaled by a power of two first.  rr
and vn need full-rank covariances: one stacked inverse proves full rank for
most resamples, a zero LU pivot marks a singular one, and only the rest go
through ``numeric_rank``'s SVD (``_rank_deficient``); rr and vn reuse that
inverse.

A single sample is, for now, still estimated through the explicit quadratic
form in its third/fourth mixed-moment matrices (``sample_moments``,
``a_matrix``, ``asymptotic_variance``), and handed to the kernel only when
its units push that form out of the float range; see ``_estimate_array``.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .numkit import RANK_SCREEN, check_alpha, normal_quantile, numeric_rank

__all__ = [
    "DegeneracyError",
    "EstimateResult",
    "McvVariant",
    "MomentSet",
    "Sample",
    "a_matrix",
    "asymptotic_variance",
    "dtilde",
    "estimate",
    "mcv",
    "one_sample_ci",
    "s_factor",
    "sample_moments",
]

# Quadratic forms in nearly rank-deficient fourth-moment matrices can go
# microscopically negative; anything below this is a real inconsistency.
NEG_VARIANCE_TOL = -1e-10
# Values per block of rows in which _moments_from_array finishes psi4 (64 KiB).
_PSI4_BLOCK_VALUES = 8192


class DegeneracyError(RuntimeError):
    """A moment condition required for the requested MCV variant fails."""


class _RangeError(DegeneracyError, FloatingPointError):
    """The explicit quadratic form left the float range.

    A degeneracy to callers of the public functions; an arithmetic error to
    ``_estimate_array``, which then asks the scale-free kernel instead.
    """


class McvVariant(str, Enum):
    """The four MCV definitions; all reduce to sd/mean at dimension one."""

    RR = "rr"  # d-th root of the determinant over squared mean norm
    VV = "vv"  # trace over squared mean norm
    VN = "vn"  # inverse Mahalanobis norm of the mean
    AZ = "az"  # covariance quadratic form over squared mean norm, normalized

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


VARIANTS = (McvVariant.RR, McvVariant.VV, McvVariant.VN, McvVariant.AZ)


@dataclass(frozen=True)
class Sample:
    """One group of independent d-dimensional observations (rows)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"sample values must be a 2-D array, got ndim={v.ndim}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"sample must be non-empty, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MomentSet:
    """Plug-in moments of one sample.

    ``psi3`` has entry ((a-1)d + r, s) equal to mean(x_a x_r x_s) minus
    mean(x_a x_r) * mean(x_s); ``psi4`` has entry ((a-1)d + r, (b-1)d + s)
    equal to mean(x_a x_r x_b x_s) minus mean(x_a x_r) * mean(x_b x_s).
    """

    mean: np.ndarray
    cov: np.ndarray
    raw2: np.ndarray
    psi3: np.ndarray
    psi4: np.ndarray
    n: int


@dataclass(frozen=True)
class EstimateResult:
    """Point estimates and asymptotic variances for one group."""

    variant: McvVariant
    c: float
    b: float
    var_c: float
    var_b: float
    n: int


def _moments_from_array(x: np.ndarray) -> MomentSet:
    n, d = x.shape
    if n < 2:
        raise ValueError(f"moment estimation needs n >= 2, got n={n}")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc
    cov = (cov + cov.T) * (0.5 / n)
    raw2 = cov + np.outer(mean, mean)
    # Row i of p is the flattened outer product x_i x_i^T.
    p = (x[:, :, None] * x[:, None, :]).reshape(n, d * d)
    raw2_flat = raw2.reshape(-1)
    psi3 = p.T @ x / n - raw2_flat[:, None] * mean[None, :]
    # psi4 = p' p / n - outer(raw2_flat, raw2_flat), built in place a block
    # of rows at a time: at d = 40 a full-size outer product would be a
    # second 20 MB temporary.  Same operations, same bits.
    psi4 = p.T @ p
    step = max(1, _PSI4_BLOCK_VALUES // (d * d))
    for lo in range(0, d * d, step):
        blk = psi4[lo : lo + step]
        blk /= n
        blk -= np.multiply.outer(raw2_flat[lo : lo + step], raw2_flat)
    return MomentSet(mean=mean, cov=cov, raw2=raw2, psi3=psi3, psi4=psi4, n=n)


def sample_moments(sample: Sample) -> MomentSet:
    """Mean, covariance (divisor n), and the third/fourth moment matrices."""
    return _moments_from_array(sample.values)


@lru_cache(maxsize=32)
def _pair_indices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    a = np.repeat(np.arange(d), d)
    r = np.tile(np.arange(d), d)
    rows = np.arange(d * d)
    off = a != r
    return a, r, rows, off


@lru_cache(maxsize=32)
def _eye_vec(d: int) -> np.ndarray:
    out = np.eye(d).reshape(-1)
    out.setflags(write=False)
    return out


def dtilde(x: np.ndarray) -> np.ndarray:
    """Jacobian of vec(M2 - m m^T) with respect to m, evaluated at m = x.

    Entry ((a-1)d + r, s) is -x_r if s = a != r, -2 x_s if s = r = a,
    and -x_a if r = s != a (zero otherwise).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    d = x.size
    a, r, rows, off = _pair_indices(d)
    out = np.zeros((d * d, d))
    out[rows[off], a[off]] = -x[r[off]]
    out[rows[off], r[off]] += -x[a[off]]
    diag = ~off
    out[rows[diag], a[diag]] = -2.0 * x[a[diag]]
    return out


# Degeneracy codes of _estimate_stack, and the one spelling of each message;
# mcv and the single-sample checks raise the same ones.  0 marks a regular slice.
_REASONS = (
    "",
    "mean vector is zero",
    "covariance matrix is singular ({variant} needs full rank)",
    "covariance determinant is not positive",
    "covariance trace is not positive",
    "Mahalanobis form of the mean is not positive",
    "covariance quadratic form of the mean is not positive",
    "estimate under- or overflowed",
)
(_OK, _ZERO_MEAN, _SINGULAR, _DET, _TRACE, _MAHALANOBIS, _QUAD, _RANGE) = range(len(_REASONS))


def degeneracy_reason(variant: McvVariant, code: int) -> str:
    """Message for a nonzero degeneracy code of ``_estimate_stack``."""
    return _REASONS[code].format(variant=variant.value)


def _check_mean(mean: np.ndarray) -> float:
    mtm = float(mean @ mean)
    if mtm <= 0.0:
        raise DegeneracyError(_REASONS[_ZERO_MEAN])
    return mtm


def _check_regular(cov: np.ndarray, variant: McvVariant) -> None:
    d = cov.shape[0]
    if numeric_rank(cov) < d:
        raise DegeneracyError(degeneracy_reason(variant, _SINGULAR))


def mcv(variant: McvVariant, mean: np.ndarray, cov: np.ndarray) -> float:
    """Value of the requested MCV variant at the given mean and covariance."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    d = mean.size
    if cov.shape != (d, d):
        raise ValueError(f"covariance shape {cov.shape} does not match dimension {d}")
    mtm = _check_mean(mean)
    if variant is McvVariant.RR:
        _check_regular(cov, variant)
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0.0:
            raise DegeneracyError(degeneracy_reason(variant, _DET))
        return math.exp(logdet / (2.0 * d)) / math.sqrt(mtm)
    if variant is McvVariant.VV:
        tr = float(cov.trace())
        if tr <= 0.0:
            raise DegeneracyError(degeneracy_reason(variant, _TRACE))
        return math.sqrt(tr / mtm)
    if variant is McvVariant.VN:
        _check_regular(cov, variant)
        quad = float(mean @ np.linalg.solve(cov, mean))
        if quad <= 0.0:
            raise DegeneracyError(degeneracy_reason(variant, _MAHALANOBIS))
        return 1.0 / math.sqrt(quad)
    if variant is McvVariant.AZ:
        quad = float(mean @ cov @ mean)
        if quad <= 0.0:
            raise DegeneracyError(degeneracy_reason(variant, _QUAD))
        return math.sqrt(quad) / mtm
    raise ValueError(f"unknown variant {variant!r}")


def a_matrix(variant: McvVariant, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Row vector a with sqrt(s_factor)/2 * a equal to the gradient of the MCV.

    The gradient is taken with respect to (mean, vec of raw second moment);
    the first d entries form the mean block, the remaining d^2 entries the
    second-moment block.  The vn row vector is the negative of the more
    common normalization so that the gradient identity above holds for every
    variant; the variance quadratic form is unaffected by the sign.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    try:
        return _gradient_row(variant, mean, cov)
    except ArithmeticError as exc:
        raise _RangeError(f"gradient under- or overflowed ({exc})") from None


def _gradient_row(variant: McvVariant, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    # det, mtm**d and the other powers below are taken directly, not in log
    # space: the estimates of ``_estimate_array`` depend on their exact bits.
    d = mean.size
    mtm = _check_mean(mean)
    dt = dtilde(mean)
    if variant is McvVariant.RR:
        _check_regular(cov, variant)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError("covariance matrix is not positive definite") from exc
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        det = math.exp(logdet)
        if det == 0.0:
            raise _RangeError("covariance determinant underflowed")
        linv = np.linalg.solve(chol, np.eye(d))
        det_vinv = det * (linv.T @ linv).reshape(-1)
        scale = mtm**d
        sec = det_vinv / scale
        mean_block = -2.0 * d * det * mean / mtm ** (d + 1) + sec @ dt
        return np.concatenate([mean_block, sec])
    if variant is McvVariant.VV:
        sec = _eye_vec(d) / mtm
        mean_block = -2.0 * float(cov.trace()) * mean / mtm**2 + sec @ dt
        return np.concatenate([mean_block, sec])
    if variant is McvVariant.VN:
        _check_regular(cov, variant)
        u = np.linalg.solve(cov, mean)
        sec = np.kron(u, u)
        mean_block = -2.0 * u + sec @ dt
        return np.concatenate([mean_block, sec])
    if variant is McvVariant.AZ:
        quad = float(mean @ cov @ mean)
        sec = np.kron(mean, mean) / mtm**2
        mean_block = -4.0 * quad * mean / mtm**3 + 2.0 * (cov @ mean) / mtm**2 + sec @ dt
        return np.concatenate([mean_block, sec])
    raise ValueError(f"unknown variant {variant!r}")


def s_factor(variant: McvVariant, c: float, d: int = 1) -> float:
    """Variance scale factor attached to the squared-gradient quadratic form."""
    if c <= 0.0:
        raise ValueError(f"MCV value must be positive, got {c}")
    if variant is McvVariant.RR:
        return c ** (2 - 4 * d) / d**2
    if variant is McvVariant.VN:
        return c**6
    # vv and az share the same scale.
    return c**-2


def _variance_at(variant: McvVariant, m: MomentSet, c: float) -> tuple[float, float]:
    d = m.mean.size
    a = a_matrix(variant, m.mean, m.cov)
    try:
        s = s_factor(variant, c, d)
        c4 = c**4
    except ArithmeticError as exc:
        raise _RangeError(f"variance scale under- or overflowed ({exc})") from None
    if not (s >= sys.float_info.min and c4 >= sys.float_info.min):
        raise _RangeError("variance scale underflowed")
    a1, a2 = a[:d], a[d:]
    var_c = (s / 4.0) * float(
        a1 @ m.cov @ a1 + 2.0 * (a2 @ m.psi3 @ a1) + a2 @ m.psi4 @ a2
    )
    if var_c < NEG_VARIANCE_TOL:
        raise DegeneracyError(f"variance quadratic form is negative ({var_c:.3e})")
    var_c = max(var_c, 0.0)
    return var_c, var_c / c4


def asymptotic_variance(variant: McvVariant, m: MomentSet) -> tuple[float, float]:
    """Delta-method variances of the MCV estimate and of its reciprocal.

    Computes var_c = s/4 * a M a^T with M the stacked covariance of the
    first and raw second sample moments, and var_b = var_c / c^4.
    """
    return _variance_at(variant, m, mcv(variant, m.mean, m.cov))


def _rank_deficient(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which slices of a (B, d, d) stack of covariances are singular, and their inverses.

    A slice on which LU meets an exactly zero pivot is singular, and its
    inverse is NaN: these are the slices on which ``np.linalg.inv`` raises
    and ``slogdet``'s sign is 0, as both factor with the same LAPACK getrf.
    Every other slice whose inverse gives 1/||S^-1||_F > RANK_SCREEN * eps *
    d * trace S has full rank: lambda_min >= 1/||S^-1||_F and sigma_max <=
    trace S, so its smallest eigenvalue clears numeric_rank's cut-off eps * d
    * sigma_max by a factor of RANK_SCREEN.  Only the slices this bound does
    not settle go to ``numeric_rank``.
    """
    d = cov.shape[-1]
    try:
        inv = np.linalg.inv(cov)
        singular = np.zeros(cov.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        # inv works slice by slice, so the other slices get the same bits.
        singular = np.linalg.slogdet(cov)[0] == 0.0
        inv = np.full_like(cov, np.nan)
        inv[~singular] = np.linalg.inv(cov[~singular])
    bound = RANK_SCREEN * np.finfo(float).eps * d * np.einsum("bii->b", cov)
    unclear = ~singular & ~(1.0 / np.sqrt(np.einsum("bij,bij->b", inv, inv)) > bound)
    if unclear.any():
        singular[unclear] = numeric_rank(cov[unclear]) < d
    return singular, inv


def _workspace_slot(work: np.ndarray | None, slot: int, shape: tuple[int, ...]) -> np.ndarray | None:
    """Slot ``slot`` of a flat workspace as a contiguous array of ``shape``; None without one."""
    if work is None:
        return None
    size = math.prod(shape)
    return work[slot * size : (slot + 1) * size].reshape(shape)


def _estimate_stack(
    variant: McvVariant, x: np.ndarray, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates for every sample of a (B, n, d) stack.

    Returns a (B, 4) array of (c, b, var_c, var_b) rows and a (B,) array of
    degeneracy codes; rows with a nonzero code are NaN.  var_c is the
    divisor-n variance over i of the influence value g . x_i + x_i' G x_i,
    with g and G the gradient of c with respect to the mean and the raw
    second moment.  Written in centered rows xc_i it reads g0 . xc_i +
    xc_i' G xc_i, where g0 is the gradient with respect to the mean at a
    fixed covariance; that form avoids cancellation against the mean.

    ``work``, if given, is a flat float64 array of at least 2 B n d entries
    that the kernel overwrites in place of allocating its two (B, n, d)
    temporaries: the rescaled and centred stack, and rr's ``xc S^-1``.  A
    caller that estimates many stacks passes the same one each time, so the
    memory is not returned to the system and faulted in again per call.
    ``x`` itself is never written.
    """
    bsz, n, d = x.shape
    if n < 2:
        raise ValueError(f"moment estimation needs n >= 2, got n={n}")
    code = np.zeros(bsz, dtype=np.int8)

    def flag(bad: np.ndarray, reason: int) -> None:
        code[(code == _OK) & bad] = reason

    def rowdot(v: np.ndarray) -> np.ndarray:
        return np.einsum("bni,bi->bn", xc, v)

    with np.errstate(all="ignore"):
        # Every output is scale-free.  Scaling each sample by a power of two
        # (exact) so its largest entry lies in [0.5, 1) keeps the moments in
        # range whatever the units of the data.
        # max(max x, -min x) is max |x| exactly, NaN included, without |x|.
        _, expo = np.frexp(np.maximum(x.max(axis=(1, 2)), -x.min(axis=(1, 2))))
        x = np.ldexp(x, -expo[:, None, None], out=_workspace_slot(work, 0, x.shape))
        mean = np.einsum("bni->bi", x) / n
        xc = np.subtract(x, mean[:, None, :], out=_workspace_slot(work, 0, x.shape))
        cov = np.matmul(xc.transpose(0, 2, 1), xc)
        cov = (cov + cov.transpose(0, 2, 1)) * (0.5 / n)
        q = np.einsum("bi,bi->b", mean, mean)
        flag(~(q > 0.0), _ZERO_MEAN)
        # Every stacked step below works slice by slice, and no LAPACK call
        # raises once the rank check has run, so flagged slices need no
        # stand-ins: whatever they compute, their rows end up NaN.
        if variant in (McvVariant.RR, McvVariant.VN):
            singular, inv = _rank_deficient(cov)
            flag(singular, _SINGULAR)
        if variant is McvVariant.RR:
            sign, logdet = np.linalg.slogdet(cov)
            flag(sign <= 0.0, _DET)
            c = np.exp(logdet / (2.0 * d) - 0.5 * np.log(q))
            g0 = -(c / q)[:, None] * mean
            # G = c S^-1 / (2d), from the rank check's inverse.
            xc_inv = np.matmul(xc, inv, out=_workspace_slot(work, 1, xc.shape))
            quad_rows = np.einsum("bni,bni->bn", xc_inv, xc)
            infl = rowdot(g0) + (c / (2.0 * d))[:, None] * quad_rows
        elif variant is McvVariant.VV:
            tr = np.einsum("bii->b", cov)
            flag(~(tr > 0.0), _TRACE)
            c = np.sqrt(tr / q)
            # g0 = -c m / q, G = I / (2 c q).
            sq_rows = np.einsum("bni,bni->bn", xc, xc)
            infl = -(c / q)[:, None] * rowdot(mean) + sq_rows / (2.0 * c * q)[:, None]
        elif variant is McvVariant.VN:
            # u = S^-1 m from the rank check's inverse, as rr's G.
            u = (inv @ mean[:, :, None])[..., 0]
            quad = np.einsum("bi,bi->b", mean, u)
            flag(~(quad > 0.0), _MAHALANOBIS)
            c = 1.0 / np.sqrt(quad)
            # g0 = -c^3 u, G = c^3 u u' / 2.
            t = rowdot(u)
            infl = (c**3)[:, None] * (0.5 * t * t - t)
        elif variant is McvVariant.AZ:
            # Through the unit mean direction, so m' S m never forms.
            r = np.sqrt(q)
            mh = mean / r[:, None]
            smh = (cov @ mh[:, :, None])[..., 0]
            quad = np.einsum("bi,bi->b", mh, smh)
            flag(~(quad > 0.0), _QUAD)
            c = np.sqrt(quad) / r
            # g0 = S m / (c q^2) - 2 c m / q, G = m m' / (2 c q^2).
            g0 = smh / (c * q * r)[:, None] - (2.0 * c / q)[:, None] * mean
            t = rowdot(mh)
            infl = rowdot(g0) + t * t / (2.0 * c * q)[:, None]
        else:
            raise ValueError(f"unknown variant {variant!r}")
        # Sorted before summing, so var_c does not depend on the order in
        # which the influence values come.
        infl = np.sort(infl, axis=1)
        dev = infl - (np.einsum("bn->b", infl) / n)[:, None]
        var_c = np.einsum("bn,bn->b", dev, dev) / n
        out = np.column_stack([c, 1.0 / c, var_c, var_c / c**4])
    flag(~np.isfinite(out).all(axis=1) | ~(c > 0.0), _RANGE)
    out[code != _OK] = np.nan
    return out, code


def _estimate_array(variant: McvVariant, x: np.ndarray) -> EstimateResult:
    x = np.asarray(x, dtype=float)
    # Interim fork.  Single samples keep the explicit quadratic form, bit for
    # bit, because the asymptotic MCT critical values amplify one ulp of a
    # group variance to ~1e-9 (numkit.sym_sqrt roots the rank-deficient
    # correlation matrix) and the stored benchmark references pin them.  Once
    # those are regenerated this function becomes ``_estimate_stack`` at B=1.
    # Until then the kernel answers where the form cannot: entries outside
    # 2**+-32, whose fourth powers BLAS would under- or overflow silently,
    # and samples whose powers of det, m'm or c leave the float range.
    if 2.0**-32 <= np.abs(x).max() <= 2.0**32:
        try:
            m = _moments_from_array(x)
            c = mcv(variant, m.mean, m.cov)
            var_c, var_b = _variance_at(variant, m, c)
        except ArithmeticError:
            pass
        else:
            if math.isfinite(var_c) and math.isfinite(var_b):
                return EstimateResult(
                    variant=variant, c=c, b=1.0 / c, var_c=var_c, var_b=var_b, n=m.n
                )
    out, code = _estimate_stack(variant, x[None])
    if code[0] != _OK:
        raise DegeneracyError(degeneracy_reason(variant, int(code[0])))
    c, b, var_c, var_b = (float(v) for v in out[0])
    return EstimateResult(variant=variant, c=c, b=b, var_c=var_c, var_b=var_b, n=x.shape[0])


def _warn_small_n(n: int, d: int) -> None:
    """The one ``n < d+2`` warning of a public call, given its smallest group size.

    Raised at the public call's caller, two frames above this one's.
    """
    if n < d + 2:
        warnings.warn(f"n={n} < d+2={d + 2}: variance estimation is unreliable", stacklevel=3)


def estimate(variant: McvVariant, sample: Sample) -> EstimateResult:
    """MCV and standardized-mean estimates with their asymptotic variances."""
    _warn_small_n(sample.n, sample.d)
    return _estimate_array(variant, sample.values)


def _intervals(est: EstimateResult, z: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Asymptotic two-sided intervals for c and b from an estimate, at the normal quantile ``z``."""
    scale = z / math.sqrt(est.n)
    half_c = scale * math.sqrt(est.var_c)
    half_b = scale * math.sqrt(est.var_b)
    return (est.c - half_c, est.c + half_c), (est.b - half_b, est.b + half_b)


def one_sample_ci(
    variant: McvVariant, sample: Sample, alpha: float = 0.05
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Asymptotic two-sided confidence intervals for the MCV and its reciprocal."""
    check_alpha(alpha)
    return _intervals(estimate(variant, sample), normal_quantile(1.0 - alpha / 2.0))
