"""Monte-Carlo harness for empirical size and power of the MCV tests.

A scenario fixes the design (groups, dimension, sample sizes), the data law
(innovation distribution, compound-symmetric correlation, shared mean,
per-group MCV targets), and a list of tests.  Each replicate generates
fresh data and records each test's rejection; aggregation reports rejection
proportions with binomial-band verdicts.

Group covariances are rescaled so the configured variant hits its target
MCV exactly; equal targets across groups put the replicate under the global
null, unequal ones under an alternative.  Wald tests use the k-sample
centering contrast, multiple contrast tests use all-pairs contrasts.

Determinism: replicate r draws everything from substreams of (seed, r),
so results are bit-identical for any worker count or schedule.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import chi2

from ._resampling import (
    group_stats,
    pooled_resample_estimates,
    resampling_p_value,
    value_columns,
    wald_resample_stats,
    wald_value,
)
from .design import centering_matrix, tukey_contrasts
from .estimation import DegeneracyError, McvVariant, Sample, _estimate_array, mcv
from .numkit import RngStream, make_rng, mvn_equicoordinate_quantile, numeric_rank, sym_sqrt
from .tests_multiple import _order_statistic, bootstrap_mct_max_stats, correlation_matrix

__all__ = [
    "DISTRIBUTIONS",
    "ScenarioConfig",
    "ScenarioResult",
    "TestOutcome",
    "band_bounds",
    "compound_symmetric",
    "generate_sample",
    "preset_configs",
    "run_moment_mimic",
    "run_scenario",
    "scale_to_target",
    "tidy_rows",
]

DISTRIBUTIONS = ("normal", "student5", "chisq10")

TEST_FAMILIES = ("asym_wald", "perm_wald", "boot_wald", "asym_mct", "boot_mct")

TIDY_COLUMNS = (
    "scenario",
    "k",
    "d",
    "n_per_group",
    "distribution",
    "rho",
    "variant",
    "targets",
    "test",
    "target",
    "alpha",
    "seed",
    "replicates",
    "resamples",
    "valid_replicates",
    "rejections",
    "proportion",
    "in_band95",
    "in_band99",
    "degenerate_replicates",
    "degenerate_resamples",
)

# Mean vector used by the protocol presets: a single standard-normal draw
# from stream (2022, 0), frozen here so preset runs are comparable.
PRESET_MU_5D = (2.676415, -0.842794, 2.07818, -1.52766, 0.396179)


def compound_symmetric(d: int, rho: float) -> np.ndarray:
    """(1 - rho) I + rho 1 1^T; positive definite for -1/(d-1) < rho < 1."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    low = -1.0 / (d - 1) if d > 1 else -np.inf
    if not low < rho < 1.0:
        raise ValueError(f"rho={rho} outside the positive-definite range ({low}, 1)")
    return (1.0 - rho) * np.eye(d) + rho * np.ones((d, d))


def scale_to_target(
    variant: McvVariant, mu: np.ndarray, sigma: np.ndarray, target: float
) -> np.ndarray:
    """Rescale sigma so the variant's MCV at (mu, sigma) equals target exactly.

    Every variant is homogeneous of degree 1/2 in sigma, so the factor
    (target / current)^2 is exact.
    """
    if target <= 0.0:
        raise ValueError(f"target must be positive, got {target}")
    current = mcv(variant, mu, sigma)
    return (target / current) ** 2 * np.asarray(sigma, dtype=float)


def _standard_innovations(distribution: str, shape: tuple[int, int], gen: np.random.Generator) -> np.ndarray:
    """IID innovations with mean zero and unit variance coordinate-wise."""
    if distribution == "normal":
        return gen.standard_normal(shape)
    if distribution == "student5":
        return gen.standard_t(5, shape) / math.sqrt(5.0 / 3.0)
    if distribution == "chisq10":
        return (gen.chisquare(10, shape) - 10.0) / math.sqrt(20.0)
    raise ValueError(f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}")


def _generate_array(
    distribution: str, mu: np.ndarray, sigma_root: np.ndarray, n: int, gen: np.random.Generator
) -> np.ndarray:
    z = _standard_innovations(distribution, (n, mu.size), gen)
    return mu + z @ sigma_root


def generate_sample(
    distribution: str, mu: np.ndarray, sigma: np.ndarray, n: int, rng: RngStream
) -> Sample:
    """Draw n observations with mean mu and covariance sigma exactly.

    Observations are mu + sigma^{1/2} z with z having iid standardized
    coordinates from the chosen distribution, so the first two moments match
    for every distribution.
    """
    mu = np.asarray(mu, dtype=float).reshape(-1)
    root = sym_sqrt(sigma)
    return Sample(_generate_array(distribution, mu, root, n, rng.generator()))


@dataclass(frozen=True)
class _TestSpec:
    """A configured test: family plus the target kind it is applied to."""

    ident: str
    family: str
    kind: str


def _parse_tests(tests: tuple[str, ...], default_kind: str) -> tuple[_TestSpec, ...]:
    specs = []
    for ident in tests:
        family, _, suffix = ident.partition(":")
        kind = suffix or default_kind
        if family not in TEST_FAMILIES:
            raise ValueError(f"unknown test {ident!r}; families are {TEST_FAMILIES}")
        if kind not in ("c", "b"):
            raise ValueError(f"test {ident!r} has target {kind!r}, expected 'c' or 'b'")
        specs.append(_TestSpec(ident=f"{family}:{kind}", family=family, kind=kind))
    if len({s.ident for s in specs}) != len(specs):
        raise ValueError("duplicate test identifiers after target resolution")
    return tuple(specs)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell."""

    name: str
    k: int
    d: int
    n: tuple[int, ...]
    distribution: str
    rho: float
    mu: tuple[float, ...]
    targets: tuple[float, ...]
    variant: McvVariant
    target_kind: str = "c"
    alpha: float = 0.05
    replicates: int = 1000
    resamples: int = 500
    mc_draws: int = 100_000
    seed: int = 0
    tests: tuple[str, ...] = ("perm_wald",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        object.__setattr__(self, "targets", tuple(float(v) for v in self.targets))
        object.__setattr__(self, "tests", tuple(self.tests))
        object.__setattr__(self, "variant", McvVariant(self.variant))
        if self.k < 2 or len(self.n) != self.k or len(self.targets) != self.k:
            raise ValueError("k, n, and targets must describe the same number of groups")
        if any(v < 2 for v in self.n):
            raise ValueError("every group needs at least two observations")
        if len(self.mu) != self.d:
            raise ValueError(f"mu has length {len(self.mu)}, expected d={self.d}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if any(t <= 0.0 for t in self.targets):
            raise ValueError("MCV targets must be positive")
        if self.target_kind not in ("c", "b"):
            raise ValueError(f"target_kind must be 'c' or 'b', got {self.target_kind!r}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.resamples < 1:
            raise ValueError("resamples must be >= 1")
        _parse_tests(self.tests, self.target_kind)


@dataclass(frozen=True)
class TestOutcome:
    """Aggregated rejections of one test across replicates."""

    test: str
    rejections: int
    valid_replicates: int
    degenerate_replicates: int
    degenerate_resamples: int

    @property
    def proportion(self) -> float:
        return self.rejections / self.valid_replicates if self.valid_replicates else float("nan")


@dataclass(frozen=True)
class ScenarioResult:
    """Per-test rejection proportions for one scenario."""

    meta: dict
    outcomes: tuple[TestOutcome, ...]
    replicates_run: int
    alpha: float
    wall_clock: float = field(compare=False)


def band_bounds(alpha: float, replicates: int, level: float = 0.95) -> tuple[float, float]:
    """Binomial-proportion band around alpha for the given replicate count."""
    from .numkit import normal_quantile

    z = normal_quantile(0.5 + level / 2.0)
    half = z * math.sqrt(alpha * (1.0 - alpha) / replicates)
    return alpha - half, alpha + half


# ---------------------------------------------------------------------------
# Replicate engine


@dataclass(frozen=True)
class _EngineSpec:
    """Fully resolved scenario shared by run_scenario and run_moment_mimic."""

    mus: tuple
    sigma_roots: tuple
    n: tuple[int, ...]
    distribution: str
    variant: McvVariant
    alpha: float
    resamples: int
    mc_draws: int
    seed: int
    specs: tuple[_TestSpec, ...]


def _replicate_worker(args: tuple[_EngineSpec, int]) -> tuple[int, dict]:
    spec, r = args
    return r, _run_replicate(spec, r)


def _run_replicate(es: _EngineSpec, r: int) -> dict:
    """One replicate: generate data, run every configured test.

    Returns ident -> (reject: bool | None, degenerate_resamples: int); None
    marks a replicate whose observed statistic was incomputable.
    """
    k = len(es.n)
    n = sum(es.n)
    stream = make_rng(es.seed, r)
    gen = stream.substream(0).generator()
    arrays = [
        _generate_array(es.distribution, np.asarray(es.mus[i]), np.asarray(es.sigma_roots[i]), es.n[i], gen)
        for i in range(k)
    ]
    weights = n / np.asarray(es.n, dtype=float)
    out: dict[str, tuple[bool | None, int]] = {}
    try:
        obs = group_stats(es.variant, arrays)
    except DegeneracyError:
        return {s.ident: (None, 0) for s in es.specs}

    h_global = centering_matrix(k)
    h_pairs = tukey_contrasts(k).h
    pool = np.vstack(arrays)

    need_perm = any(s.family == "perm_wald" for s in es.specs)
    need_boot = any(s.family in ("boot_wald", "boot_mct") for s in es.specs)
    need_mct_boot = any(s.family == "boot_mct" for s in es.specs)

    if need_perm:
        pstats, pdegen = pooled_resample_estimates(
            es.variant, pool, es.n, es.resamples, stream.substream(1), replace=False
        )
    if need_boot:
        bstats, bdegen = pooled_resample_estimates(
            es.variant, pool, es.n, es.resamples, stream.substream(2), replace=True
        )
    theta0 = {}
    if need_mct_boot:
        try:
            pooled_est = _estimate_array(es.variant, pool)
            theta0 = {"c": pooled_est.c, "b": pooled_est.b}
        except DegeneracyError:
            theta0 = {}

    for j, spec in enumerate(es.specs):
        col_val, col_var = value_columns(spec.kind)
        theta = obs[:, col_val]
        sigma = weights * obs[:, col_var]
        if spec.family in ("asym_wald", "perm_wald", "boot_wald"):
            s_obs = wald_value(theta, sigma, h_global, n)
            if spec.family == "asym_wald":
                rank = numeric_rank((h_global * sigma) @ h_global.T)
                if rank < 1:
                    out[spec.ident] = (None, 0)
                    continue
                out[spec.ident] = (bool(chi2.sf(s_obs, rank) < es.alpha), 0)
            elif spec.family == "perm_wald":
                vals = wald_resample_stats(pstats, pdegen, spec.kind, h_global, n, weights)
                p = resampling_p_value(vals, s_obs)
                out[spec.ident] = (p < es.alpha, int(pdegen.sum()))
            else:
                vals = wald_resample_stats(bstats, bdegen, spec.kind, h_global, n, weights)
                p = resampling_p_value(vals, s_obs)
                out[spec.ident] = (p < es.alpha, int(bdegen.sum()))
            continue
        # Max-type tests on all-pairs contrasts.
        scale2 = np.einsum("lk,k,lk->l", h_pairs, sigma, h_pairs)
        if np.any(scale2 <= 0.0):
            out[spec.ident] = (None, 0)
            continue
        scales = np.sqrt(scale2)
        t_obs = math.sqrt(n) * (h_pairs @ theta) / scales
        max_obs = float(np.max(np.abs(t_obs)))
        if spec.family == "asym_mct":
            corr = correlation_matrix(sigma, h_pairs)
            q = mvn_equicoordinate_quantile(
                corr, es.alpha, es.mc_draws, stream.substream(3).substream(j)
            )
            out[spec.ident] = (max_obs > q, 0)
        else:
            if spec.kind not in theta0:
                out[spec.ident] = (None, 0)
                continue
            max_b = bootstrap_mct_max_stats(
                bstats, bdegen, spec.kind, h_pairs, theta0[spec.kind], sigma, scales, weights, n
            )
            q = _order_statistic(max_b, es.alpha)
            out[spec.ident] = (max_obs > q, int(np.sum(np.isinf(max_b))))
    return out


def _run_engine(es: _EngineSpec, replicates: int, workers: int | None) -> list[dict]:
    if workers is None:
        workers = int(os.environ.get("MCV_THREADS", "1"))
    tasks = [(es, r) for r in range(replicates)]
    results: list[dict | None] = [None] * replicates
    if workers > 1 and replicates > 1:
        chunk = max(1, replicates // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for r, res in pool.map(_replicate_worker, tasks, chunksize=chunk):
                results[r] = res
    else:
        for r in range(replicates):
            results[r] = _run_replicate(es, r)
    return results  # type: ignore[return-value]


def _aggregate(
    meta: dict, specs: tuple[_TestSpec, ...], per_replicate: list[dict], alpha: float, elapsed: float
) -> ScenarioResult:
    outcomes = []
    for spec in specs:
        rej = valid = degen_rep = degen_res = 0
        for rep in per_replicate:
            decision, dres = rep[spec.ident]
            if decision is None:
                degen_rep += 1
                continue
            valid += 1
            rej += int(decision)
            degen_res += dres
        outcomes.append(
            TestOutcome(
                test=spec.ident,
                rejections=rej,
                valid_replicates=valid,
                degenerate_replicates=degen_rep,
                degenerate_resamples=degen_res,
            )
        )
    return ScenarioResult(
        meta=meta,
        outcomes=tuple(outcomes),
        replicates_run=len(per_replicate),
        alpha=alpha,
        wall_clock=elapsed,
    )


def run_scenario(cfg: ScenarioConfig, workers: int | None = None) -> ScenarioResult:
    """Run one scenario; replicate r uses streams derived from (seed, r)."""
    start = time.perf_counter()
    mu = np.asarray(cfg.mu, dtype=float)
    base = compound_symmetric(cfg.d, cfg.rho)
    roots = tuple(
        sym_sqrt(scale_to_target(cfg.variant, mu, base, cfg.targets[i])) for i in range(cfg.k)
    )
    specs = _parse_tests(cfg.tests, cfg.target_kind)
    es = _EngineSpec(
        mus=tuple(mu for _ in range(cfg.k)),
        sigma_roots=roots,
        n=cfg.n,
        distribution=cfg.distribution,
        variant=cfg.variant,
        alpha=cfg.alpha,
        resamples=cfg.resamples,
        mc_draws=cfg.mc_draws,
        seed=cfg.seed,
        specs=specs,
    )
    per_rep = _run_engine(es, cfg.replicates, workers)
    meta = {
        "scenario": cfg.name,
        "k": cfg.k,
        "d": cfg.d,
        "n_per_group": "|".join(str(v) for v in cfg.n),
        "distribution": cfg.distribution,
        "rho": f"{cfg.rho:g}",
        "variant": cfg.variant.value,
        "targets": "|".join(f"{t:g}" for t in cfg.targets),
        "alpha": f"{cfg.alpha:g}",
        "seed": cfg.seed,
        "replicates": cfg.replicates,
        "resamples": cfg.resamples,
    }
    return _aggregate(meta, specs, per_rep, cfg.alpha, time.perf_counter() - start)


def run_moment_mimic(
    mus: list[np.ndarray],
    sigmas: list[np.ndarray],
    n: tuple[int, ...],
    distribution: str,
    variant: McvVariant,
    tests: tuple[str, ...],
    alpha: float = 0.05,
    replicates: int = 1000,
    resamples: int = 500,
    target_kind: str = "c",
    mc_draws: int = 100_000,
    seed: int = 0,
    workers: int | None = None,
    name: str = "mimic",
) -> ScenarioResult:
    """Size/power study at user-supplied per-group means and covariances.

    Identical groups make this a size study, differing groups a power study;
    the replicate engine is the same as run_scenario's.
    """
    start = time.perf_counter()
    k = len(mus)
    if not (k == len(sigmas) == len(n)) or k < 2:
        raise ValueError("need matching mus, sigmas, and n for at least two groups")
    mus = [np.asarray(m, dtype=float).reshape(-1) for m in mus]
    roots = tuple(sym_sqrt(np.asarray(s, dtype=float)) for s in sigmas)
    specs = _parse_tests(tuple(tests), target_kind)
    es = _EngineSpec(
        mus=tuple(mus),
        sigma_roots=roots,
        n=tuple(int(v) for v in n),
        distribution=distribution,
        variant=McvVariant(variant),
        alpha=alpha,
        resamples=resamples,
        mc_draws=mc_draws,
        seed=seed,
        specs=specs,
    )
    per_rep = _run_engine(es, replicates, workers)
    meta = {
        "scenario": name,
        "k": k,
        "d": mus[0].size,
        "n_per_group": "|".join(str(v) for v in es.n),
        "distribution": distribution,
        "rho": "",
        "variant": es.variant.value,
        "targets": "",
        "alpha": f"{alpha:g}",
        "seed": seed,
        "replicates": replicates,
        "resamples": resamples,
    }
    return _aggregate(meta, specs, per_rep, alpha, time.perf_counter() - start)


def tidy_rows(result: ScenarioResult) -> list[dict]:
    """One dict per scenario x test, ready for CSV (no wall-clock, stable order)."""
    lo95, hi95 = band_bounds(result.alpha, max(result.replicates_run, 1), 0.95)
    lo99, hi99 = band_bounds(result.alpha, max(result.replicates_run, 1), 0.99)
    rows = []
    for oc in result.outcomes:
        family, _, kind = oc.test.partition(":")
        prop = oc.proportion
        rows.append(
            {
                **result.meta,
                "test": family,
                "target": kind,
                "valid_replicates": oc.valid_replicates,
                "rejections": oc.rejections,
                "proportion": f"{prop:.6f}" if not math.isnan(prop) else "",
                "in_band95": str(lo95 <= prop <= hi95).lower() if not math.isnan(prop) else "",
                "in_band99": str(lo99 <= prop <= hi99).lower() if not math.isnan(prop) else "",
                "degenerate_replicates": oc.degenerate_replicates,
                "degenerate_resamples": oc.degenerate_resamples,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Presets reproducing the size/power protocol at various scales

_SIZE_TESTS = (
    "perm_wald:c",
    "perm_wald:b",
    "boot_wald:c",
    "boot_wald:b",
    "boot_mct:c",
    "boot_mct:b",
)


def _protocol_cell(
    name: str,
    variant: McvVariant,
    targets: tuple[float, ...],
    n_i: int,
    rho: float = 0.1,
    distribution: str = "normal",
    replicates: int = 1000,
    resamples: int = 500,
    seed: int = 2023,
) -> ScenarioConfig:
    return ScenarioConfig(
        name=name,
        k=4,
        d=5,
        n=(n_i,) * 4,
        distribution=distribution,
        rho=rho,
        mu=PRESET_MU_5D,
        targets=targets,
        variant=variant,
        target_kind="c",
        alpha=0.05,
        replicates=replicates,
        resamples=resamples,
        seed=seed,
        tests=_SIZE_TESTS,
    )


def preset_configs(name: str) -> list[ScenarioConfig]:
    """Named scenario lists; 'small' presets are desk scale, 'full' the whole grid."""
    if name == "paper-size-small":
        return [_protocol_cell("size-vv-n30-c0.5-rho0.1", McvVariant.VV, (0.5,) * 4, 30)]
    if name == "paper-power-small":
        return [
            _protocol_cell("power-vv-n50-c0.7-rho0.1", McvVariant.VV, (0.5, 0.5, 0.5, 0.7), 50)
        ]
    if name == "paper-size-nightly":
        return [
            _protocol_cell(f"size-{v.value}-n30-c0.5-rho0.1", v, (0.5,) * 4, 30)
            for v in McvVariant
        ] + [
            _protocol_cell(f"power-{v.value}-n50-c0.7-rho0.1", v, (0.5, 0.5, 0.5, 0.7), 50)
            for v in McvVariant
        ]
    if name == "paper-size-full":
        cells = []
        for variant in McvVariant:
            for dist in DISTRIBUTIONS:
                for rho in (0.1, 0.4, 0.7):
                    for level in (0.1, 0.5, 1.0, 1.5):
                        for n_i in (30, 50, 70, 100, 150, 200):
                            cells.append(
                                replace(
                                    _protocol_cell(
                                        f"size-{variant.value}-{dist}-rho{rho:g}-c{level:g}-n{n_i}",
                                        variant,
                                        (level,) * 4,
                                        n_i,
                                        rho=rho,
                                        distribution=dist,
                                        replicates=1000,
                                        resamples=1000,
                                    ),
                                    tests=_SIZE_TESTS + ("asym_wald:c", "asym_wald:b", "asym_mct:c", "asym_mct:b"),
                                )
                            )
        return cells
    if name == "paper-power-full":
        layouts = {
            0.1: (0.1, 0.1, 0.1, 0.15),
            0.5: (0.5, 0.5, 0.5, 0.7),
            1.0: (1.0, 1.0, 1.0, 1.5),
        }
        cells = []
        for variant in McvVariant:
            for dist in DISTRIBUTIONS:
                for rho in (0.1, 0.4, 0.7):
                    for level, targets in layouts.items():
                        for n_i in (30, 50):
                            cells.append(
                                _protocol_cell(
                                    f"power-{variant.value}-{dist}-rho{rho:g}-c{level:g}-n{n_i}",
                                    variant,
                                    targets,
                                    n_i,
                                    rho=rho,
                                    distribution=dist,
                                    replicates=1000,
                                    resamples=1000,
                                )
                            )
        return cells
    raise ValueError(f"unknown preset {name!r}")
